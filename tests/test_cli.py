"""End-to-end tests of the command-line front end."""

import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import penpath.path
from penpath import cli
from penpath.cli import main
from penpath.errors import PenPathError
from penpath.oracles import glasso_coordinate

SRC = Path(cli.__file__).resolve().parents[1]


def write_spec(directory, body, name="spec.json"):
    path = directory / name
    path.write_text(json.dumps(body))
    return str(path)


def lasso_toy(directory, **options):
    return write_spec(
        directory,
        {
            "dimension": 2,
            "loss": {"kind": "quadratic", "target": [2.0, -1.0]},
            "constraints": [{"builder": "lasso"}],
            "options": options,
        },
    )


def read_table(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    body = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, body


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_blas_threads(monkeypatch, value):
    # crossval forks its folds only under one BLAS thread
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    monkeypatch.setenv("OMP_NUM_THREADS", value)


def count_forks(monkeypatch):
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def subprocess_env(**values):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(values)
    return env


def regression_spec(directory, n=10, p=3, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = x @ rng.normal(size=p) + rng.normal(scale=0.3, size=n)
    np.savetxt(directory / "x.csv", x, delimiter=",")
    np.savetxt(directory / "y.csv", y.reshape(-1, 1), delimiter=",")
    return write_spec(
        directory,
        {
            "dimension": p,
            "loss": {"kind": "quadratic", "design": "x.csv", "response": "y.csv"},
            "constraints": [{"builder": "lasso"}],
        },
    )


def test_solve_lasso_toy_endpoints(tmp_path):
    spec = lasso_toy(tmp_path)
    assert main(["solve", spec, "--out", str(tmp_path / "out")]) == 0
    header, body = read_table(tmp_path / "out" / "path.csv")
    assert header == ["rho", "beta_1", "beta_2", "df", "negloglik", "aic", "bic"]
    assert body[0, 0] == 0.0
    np.testing.assert_allclose(body[0, 1:3], [2.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(body[-1, 1:3], [0.0, 0.0], atol=1e-8)
    rho = body[:, 0]
    assert np.all(np.diff(rho) > 0)


def test_solve_isotone_toy_kink_log(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "dimension": 2,
            "loss": {"kind": "quadratic", "target": [2.0, 1.0]},
            "constraints": [{"builder": "isotone"}],
        },
    )
    assert main(["solve", spec, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "kinks.jsonl").read_text().strip().split("\n")
    assert len(lines) == 1
    event = json.loads(lines[0])
    assert event["kind"] == "residual_hit"
    assert event["row_kind"] == "ineq"
    assert abs(event["rho"] - 0.5) < 1e-7
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "status: terminated" in report


def test_solve_outputs_byte_identical_across_reruns(tmp_path):
    spec = lasso_toy(tmp_path)
    assert main(["solve", spec, "--out", str(tmp_path / "a")]) == 0
    assert main(["solve", spec, "--out", str(tmp_path / "b")]) == 0
    for name in ("path.csv", "kinks.jsonl", "report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_solve_malformed_spec_exits_1_with_no_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["solve", str(bad), "--out", str(out)]) == 1
    assert not out.exists()

    unknown_key = write_spec(
        tmp_path,
        {
            "dimension": 2,
            "loss": {"kind": "quadratic", "target": [1.0, 2.0]},
            "constraints": [{"builder": "lasso"}],
            "extra": True,
        },
        name="unknown.json",
    )
    assert main(["solve", unknown_key, "--out", str(out)]) == 1
    assert not out.exists()

    missing_file = write_spec(
        tmp_path,
        {
            "dimension": 2,
            "loss": {"kind": "quadratic", "design": "nope.csv", "response": "nope.csv"},
            "constraints": [{"builder": "lasso"}],
        },
        name="missing.json",
    )
    assert main(["solve", missing_file, "--out", str(out)]) == 1
    assert not out.exists()


GLM_LOSS = {"kind": "glm", "family": "logistic", "design": [[1.0, 0.0], [0.0, 1.0]],
            "response": [1.0, 0.0]}


FLOAT_OPTIONS = ("rho_max", "rho_min", "rho_start", "rel_tol", "abs_tol", "event_tol",
                 "residual_tol", "beta_bound", "max_step")


@pytest.mark.parametrize(
    "loss, options, message",
    [
        ({"kind": "quadratic", "matrix": [[1.0, 1.0], [0.0, 1.0]], "linear": [0.0, 0.0]}, {},
         "quadratic loss: quadratic form is not symmetric"),
        ({"kind": "quadratic", "design": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
          "response": [1.0, 2.0]}, {},
         "quadratic loss: design and response row counts differ"),
        ({"kind": "quadratic", "matrix": [[1.0, 0.0], [0.0, 1.0]], "linear": [0.0, 0.0, 1.0]}, {},
         "quadratic loss: linear term does not match"),
        (dict(GLM_LOSS, scale="abc"), {}, "glm loss: could not convert string to float"),
        (dict(GLM_LOSS, scale=[1]), {}, "glm loss: float() argument"),
        (dict(GLM_LOSS, scale=math.inf), {}, "glm loss: scale must be finite and positive, got inf"),
        ({"kind": "quasi", "link": "logit", "variance": "binomial", "design": GLM_LOSS["design"],
          "response": GLM_LOSS["response"], "scale": math.nan}, {},
         "quasi loss: scale must be finite and positive, got nan"),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"direction": "backward", "rho_start": "x"},
         '"options": could not convert string to float'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"residual_tol": "x"},
         '"options": could not convert string to float'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"max_step": "x"},
         '"options": could not convert string to float'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"event_tol": math.inf},
         '"options": event_tol must be finite and positive, got inf'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"residual_tol": math.nan},
         '"options": residual_tol must be finite and positive, got nan'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"max_step": -1},
         '"options": max_step must be finite and positive, got -1.0'),
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {"max_kinks": math.nan},
         '"options": max_kinks must be an integer of at least 1, got nan'),
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"event_tol": True, "rel_tol": True, "rho_max": True},
         '"options": rho_max must be a number, got True'),
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"rho_start": 1.0, "start_beta": [math.nan, 0.0]},
         '"options": start_beta must be a vector of finite numbers'),
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"rho_start": 1.0, "start_beta": [math.inf, 0.0]},
         '"options": start_beta must be a vector of finite numbers'),
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"rho_start": 1.0, "start_beta": [1.0, 0.0, 0.0]},
         "start_beta has shape (3,), not (2,)"),
    ] + [
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {name: True},
         f'"options": {name} must be a number, got True')
        for name in FLOAT_OPTIONS
    ],
    ids=["asymmetric_matrix", "row_counts", "linear_length", "scale_string", "scale_list",
         "scale_inf", "quasi_scale_nan",
         "rho_start_string", "residual_tol_string", "max_step_string", "event_tol_inf",
         "residual_tol_nan", "max_step_negative", "max_kinks_nan", "three_booleans",
         "start_beta_nan", "start_beta_inf", "start_beta_length"]
    + [f"{name}_boolean" for name in FLOAT_OPTIONS],
)
def test_malformed_loss_or_options_print_one_error_line(tmp_path, capsys, loss, options, message):
    spec = write_spec(
        tmp_path,
        {"dimension": 2, "loss": loss, "constraints": [{"builder": "lasso"}], "options": options},
    )
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def spec_with(**changes):
    """A four-coordinate quadratic spec with a lasso block, changed as given:
    top-level keys, and loss, block and options keys by prefix."""
    spec = {"dimension": 4, "loss": {"kind": "quadratic", "target": [2.3, -1.1, 0.7, 1.6]},
            "constraints": [{"builder": "lasso"}], "options": {}}
    for key, value in changes.items():
        part, _, name = key.partition("__")
        if name:
            target = spec["constraints"][0] if part == "block" else spec[part]
            target[name] = value
        else:
            spec[key] = value
    return spec


# JSON booleans and fractions where the spec takes an integer: each used to
# pass, as 1 or rounded down ("column": true solved the lasso on beta_2, and
# the edge [0.9, 1.7] tied beta_1 and beta_2).
@pytest.mark.parametrize("spec, message", [
    (spec_with(dimension=True), '"dimension" must be a positive integer, got true'),
    (spec_with(dimension=4.0), '"dimension" must be a positive integer, got 4.0'),
    (spec_with(loss__n_observations=True), '"n_observations" must be a positive integer, got true'),
    (spec_with(options__samples_per_segment=True),
     '"samples_per_segment" must be a positive integer, got true'),
    (spec_with(options__samples_per_segment=2.5),
     '"samples_per_segment" must be a positive integer, got 2.5'),
    (spec_with(block__dimension=True), 'constraint block "dimension" must be a positive integer'),
    (spec_with(block__dimension=3, block__column=True),
     'constraint block "column" must be a nonnegative integer, got true'),
    (spec_with(block__dimension=3, block__column=0.5),
     'constraint block "column" must be a nonnegative integer, got 0.5'),
    (spec_with(block__builder="trend_filter", block__order=1.9),
     '"order" must be a nonnegative integer, got 1.9'),
    (spec_with(block__builder="trend_filter", block__order=True),
     '"order" must be a nonnegative integer, got true'),
    (spec_with(block__builder="graph_guided", block__edges=[[0.9, 1.7, 1.0]]),
     '"edges" coordinate must be a nonnegative integer, got 0.9'),
    (spec_with(block__builder="coordinate_lasso", block__coordinates=[1.7, True]),
     '"coordinates" entry must be a nonnegative integer, got 1.7'),
], ids=["dimension_true", "dimension_float", "n_observations_true", "samples_true",
        "samples_fraction", "block_dimension_true", "column_true", "column_fraction",
        "order_fraction", "order_true", "edge_fraction", "coordinate_fraction"])
def test_spec_integers_reject_booleans_and_fractions(tmp_path, capsys, spec, message):
    out = tmp_path / "out"
    assert main(["solve", write_spec(tmp_path, spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::penpath.errors.SimultaneousEventWarning")
@pytest.mark.parametrize("block", [
    {"builder": "trend_filter", "order": 1, "dimension": 3, "column": 1},
    {"builder": "graph_guided", "edges": [[0, 1, 1.0], [2, 3, -0.5]]},
    {"builder": "coordinate_lasso", "coordinates": [0, 2]},
], ids=["trend_filter", "graph_guided", "coordinate_lasso"])
def test_spec_integers_accept_integers(tmp_path, block):
    spec = spec_with(options__samples_per_segment=2)
    spec["constraints"] = [block]
    assert main(["solve", write_spec(tmp_path, spec), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_rel_tol_flag_must_be_finite_and_positive(tmp_path, capsys, value):
    out = tmp_path / "out"
    assert main(["solve", lasso_toy(tmp_path), "--out", str(out), "--rel-tol", value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: rel_tol must be finite and positive") and err.count("\n") == 1
    assert not out.exists()


def test_rho_max_flag_must_be_finite(tmp_path, capsys):
    # Two copies of one row with different offsets: no rho ends the path.
    spec = write_spec(tmp_path, {
        "dimension": 1,
        "loss": {"kind": "quadratic", "target": [3.0]},
        "constraints": [{"builder": "matrix", "equalities": [[1.0], [1.0]],
                         "eq_offsets": [0.0, 1.0]}],
    })
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out), "--rho-max", "inf"]) == 1
    assert capsys.readouterr().err == "error: need 0 <= rho_min < rho_max < inf\n"
    assert not out.exists()


def test_solve_solver_failure_exits_2_with_no_outputs(tmp_path):
    # the starting point already violates this trust region
    spec = lasso_toy(tmp_path, beta_bound=1.5)
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_non_finite_hessian_exits_2_with_no_outputs(tmp_path, capsys):
    # this concave-density fit reaches a point where the loss's Hessian
    # overflows: a solver failure, not a malformed spec
    draws = np.random.default_rng(0).gumbel(0.0, 1.0, size=50)
    support = np.unique(draws)
    spec = write_spec(
        tmp_path,
        {
            "dimension": int(support.size),
            "loss": {"kind": "logconcave", "samples": draws.tolist()},
            "constraints": [{"builder": "shape", "kind": "concave", "grid": support.tolist()}],
        },
    )
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out)]) == 2
    assert "solver error: Hessian has non-finite entries" in capsys.readouterr().err
    assert not out.exists()


def test_solve_option_flags_override_spec(tmp_path):
    spec = lasso_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out), "--mode", "nullspace",
                 "--rho-max", "0.5"]) == 0
    _, body = read_table(out / "path.csv")
    assert body[-1, 0] == pytest.approx(0.5, abs=1e-12)
    report = (out / "report.txt").read_text()
    assert "status: rho_max" in report
    assert "mode: nullspace" in report


def test_solve_spec_with_unknown_mode_exits_1_with_no_outputs(tmp_path, capsys):
    spec = lasso_toy(tmp_path, mode="tableau")
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out)]) == 1
    assert "mode must be one of ('direct', 'nullspace')" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve", "{spec}"], "the following arguments are required: --out"),
        (["solve", "{spec}", "--out", "{out}", "--mode", "tableau"],
         "invalid choice: 'tableau' (choose from 'direct', 'nullspace')"),
        (["crossval", "{spec}", "--folds", "two", "--out", "{out}"],
         "argument --folds: invalid int value: 'two'"),
    ],
    ids=["missing_out", "unknown_mode", "non_integer_folds"],
)
def test_usage_errors_exit_1_with_no_outputs(tmp_path, capsys, args, message):
    spec = lasso_toy(tmp_path)
    out = tmp_path / "out"
    assert main([a.format(spec=spec, out=out) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: penpath ")
    assert message in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--mode {direct,nullspace}" in capsys.readouterr().out


def test_solve_backward_direction_rows_decrease(tmp_path):
    spec = write_spec(
        tmp_path,
        {
            "dimension": 4,
            "loss": {"kind": "quadratic", "target": [3.0, -1.0, 2.0, 0.5]},
            "constraints": [{"builder": "fused_lasso"}],
        },
    )
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out), "--direction", "backward"]) == 0
    _, body = read_table(out / "path.csv")
    rho = body[:, 0]
    assert np.all(np.diff(rho) < 0)
    assert rho[-1] == pytest.approx(0.0, abs=1e-12)
    # left end of the path is the equality-constrained fit: all equal
    np.testing.assert_allclose(body[0, 1:5], np.full(4, 1.125), atol=1e-6)


def test_path_table_df_agrees_with_kink_log(tmp_path):
    rng = np.random.default_rng(5)
    spec = write_spec(
        tmp_path,
        {
            "dimension": 6,
            "loss": {"kind": "quadratic", "target": list(rng.normal(size=6) * 2)},
            "constraints": [{"builder": "fused_lasso"}],
        },
    )
    out = tmp_path / "out"
    assert main(["solve", spec, "--out", str(out)]) == 0
    _, body = read_table(out / "path.csv")
    events = [json.loads(line)
              for line in (out / "kinks.jsonl").read_text().strip().split("\n")]

    p = 6
    zero_sets = ("zero_eq", "zero_ineq")
    active = 0
    for event in events:
        active += (event["to_set"] in zero_sets) - (event["from_set"] in zero_sets)
        assert event["df_after"] == p - active

    kink_rhos = np.array([event["rho"] for event in events])
    for row in body:
        rho, df = row[0], int(row[p + 1])
        if np.min(np.abs(kink_rhos - rho)) < 1e-9:
            continue  # at a kink either side's df is acceptable
        implied = sum(
            (e["to_set"] in zero_sets) - (e["from_set"] in zero_sets)
            for e in events
            if e["rho"] < rho
        )
        assert df == p - implied


def fused_target_spec(directory, direction):
    return write_spec(directory, {
        "dimension": 6,
        "loss": {"kind": "quadratic", "target": [3.0, -1.0, 2.0, 0.5, 1.5, -2.0]},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"direction": direction},
    })


def logistic_spec(directory):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    y = (rng.random(40) < 1.0 / (1.0 + np.exp(-x @ [1.0, -0.5, 0.0]))).astype(float)
    return write_spec(directory, {
        "dimension": 3,
        "loss": {"kind": "glm", "family": "logistic", "design": x.tolist(),
                 "response": y.tolist()},
        "constraints": [{"builder": "lasso"}],
        "options": {"samples_per_segment": 8},
    })


SOLVE_CASES = {
    "forward_direct": (regression_spec, []),
    "forward_nullspace": (regression_spec, ["--mode", "nullspace"]),
    "backward": (lambda d: fused_target_spec(d, "backward"), []),
    "backward_nullspace": (lambda d: fused_target_spec(d, "backward"), ["--mode", "nullspace"]),
    "logistic_ode": (logistic_spec, []),
}
SOLVE_OUTPUTS = ("path.csv", "kinks.jsonl", "report.txt")


def fork_small_tables(monkeypatch, cpus, max_slices=2):
    # sample even these small tables in forked slices, one per (faked) CPU
    monkeypatch.setattr(cli, "_SLICE_MIN_CELLS", 1)
    monkeypatch.setattr(cli, "_MAX_SLICES", max_slices)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_forked_and_serial_outputs_are_byte_identical(tmp_path, monkeypatch, case):
    make_spec, flags = SOLVE_CASES[case]
    spec = make_spec(tmp_path)
    fork_small_tables(monkeypatch, cpus=3, max_slices=3)  # two children, joined in order
    forks = count_forks(monkeypatch)
    written = {}
    for threads in ("1", "2"):  # forked slices, then one serial pass
        set_blas_threads(monkeypatch, threads)
        out = tmp_path / f"threads{threads}"
        assert main(["solve", spec, "--out", str(out), *flags]) == 0
        written[threads] = [(out / name).read_bytes() for name in SOLVE_OUTPUTS]
        assert len(forks) == 2  # the first slice is this process's own
    assert written["1"] == written["2"]
    assert_no_child_left()


def test_solve_forks_only_under_one_blas_thread_and_above_the_cell_threshold(tmp_path, monkeypatch):
    spec = regression_spec(tmp_path)
    forks = count_forks(monkeypatch)
    set_blas_threads(monkeypatch, "1")
    assert main(["solve", spec, "--out", str(tmp_path / "small")]) == 0
    assert forks == []  # 61 rows of 8 cells
    fork_small_tables(monkeypatch, cpus=2)
    set_blas_threads(monkeypatch, "2")
    assert main(["solve", spec, "--out", str(tmp_path / "two_threads")]) == 0
    assert forks == []
    set_blas_threads(monkeypatch, "1")
    assert main(["solve", spec, "--out", str(tmp_path / "forked")]) == 0
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert main(["solve", spec, "--out", str(tmp_path / "capped")]) == 0
    assert len(forks) == 2  # still two slices on four CPUs


def test_solve_writes_its_parts_beside_out(tmp_path, monkeypatch):
    # not in the system temporary directory, which need not exist
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    out = tmp_path / "new" / "out"
    assert main(["solve", lasso_toy(tmp_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["kinks.jsonl", "path.csv", "report.txt"]


@pytest.mark.parametrize("where", ["every_row", "second_slice"])
def test_solve_forked_run_shows_a_repeated_warning_as_often_as_a_serial_run(
    tmp_path, monkeypatch, where
):
    spec = regression_spec(tmp_path, n=30, p=6)
    real_lookup = penpath.path.PathSolution._segment_for
    assert main(["solve", spec, "--out", str(tmp_path / "ok")]) == 0
    middle = np.median(read_table(tmp_path / "ok" / "path.csv")[1][:, 0])  # rows ascend in rho

    def lookup(self, rho):
        # the one segment lookup of each sampled row
        if where == "every_row" or rho > middle:
            warnings.warn("repeated at one location", UserWarning)
        return real_lookup(self, rho)

    monkeypatch.setattr(penpath.path.PathSolution, "_segment_for", lookup)
    fork_small_tables(monkeypatch, cpus=2)
    forks = count_forks(monkeypatch)
    shown = {}
    for threads in ("1", "2"):  # forked slices, then one serial pass
        set_blas_threads(monkeypatch, threads)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")  # once per location, as outside tests
            assert main(["solve", spec, "--out", str(tmp_path / f"threads{threads}")]) == 0
        shown[threads] = [str(w.message) for w in caught]
    assert len(forks) == 1
    assert shown["1"] == shown["2"] == ["repeated at one location"]


def test_solve_slice_failure_matches_serial_run(tmp_path, monkeypatch, capsys):
    spec = regression_spec(tmp_path, n=30, p=6)
    assert main(["solve", spec, "--out", str(tmp_path / "ok")]) == 0
    rhos = read_table(tmp_path / "ok" / "path.csv")[1][:, 0]
    bound = rhos[int(0.9 * rhos.size)]  # in the second of two slices
    real_lookup = penpath.path.PathSolution._segment_for

    def lookup(self, rho):
        # every row warns in its segment lookup, and the rows beyond the
        # bound fail
        if rho > bound:
            raise PenPathError(f"sampling failed beyond rho={bound:g}")
        warnings.warn(f"row at rho={float(rho)!r}", UserWarning)
        return real_lookup(self, rho)

    monkeypatch.setattr(penpath.path.PathSolution, "_segment_for", lookup)
    fork_small_tables(monkeypatch, cpus=2)
    forks = count_forks(monkeypatch)
    capsys.readouterr()
    seen = {}
    for threads in ("1", "2"):  # forked slices, then one serial pass
        set_blas_threads(monkeypatch, threads)
        out = tmp_path / f"threads{threads}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", spec, "--out", str(out)]) == 2
        assert not out.exists()
        seen[threads] = (capsys.readouterr().err, [str(w.message) for w in caught])
    assert len(forks) == 1
    assert_no_child_left()
    err, shown = seen["1"]
    assert err.startswith("solver error: sampling failed beyond rho=") and err.count("\n") == 1
    # every row before the failure warned once, in row order, the child's too
    assert shown == [f"row at rho={rho!r}" for rho in rhos.tolist() if rho <= bound]
    assert seen["1"] == seen["2"]


def test_crossval_leave_one_out_runs(tmp_path, monkeypatch):
    spec = regression_spec(tmp_path, n=10)
    out = tmp_path / "cv"
    set_blas_threads(monkeypatch, "1")
    forks = count_forks(monkeypatch)
    assert main(["crossval", spec, "--folds", "10", "--seed", "3",
                 "--out", str(out)]) == 0
    # folds are dealt to at most one process per usable CPU
    assert len(forks) <= min(10, usable_cpus())
    assert_no_child_left()
    header, body = read_table(out / "cv.csv")
    assert header[0] == "rho"
    assert header[1:11] == [f"fold_{j}" for j in range(1, 11)]
    assert header[11] == "mean"
    np.testing.assert_allclose(body[:, 1:11].mean(axis=1), body[:, 11], atol=1e-14)
    assert "cv error: minimum" in (out / "cv_report.txt").read_text()


def test_crossval_grid_contains_full_path_kinks(tmp_path):
    spec = regression_spec(tmp_path, n=12, seed=2)
    solve_out = tmp_path / "solve"
    cv_out = tmp_path / "cv"
    assert main(["solve", spec, "--out", str(solve_out)]) == 0
    assert main(["crossval", spec, "--folds", "4", "--out", str(cv_out)]) == 0
    kink_rhos = [
        json.loads(line)["rho"]
        for line in (solve_out / "kinks.jsonl").read_text().strip().split("\n")
    ]
    _, body = read_table(cv_out / "cv.csv")
    grid = set(body[:, 0])
    for rho in kink_rhos:
        assert rho in grid


def test_crossval_deterministic_under_seed(tmp_path):
    spec = regression_spec(tmp_path, n=12, seed=7)
    assert main(["crossval", spec, "--folds", "4", "--seed", "9",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["crossval", spec, "--folds", "4", "--seed", "9",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "cv.csv").read_bytes() == (tmp_path / "b" / "cv.csv").read_bytes()


def test_crossval_forked_and_serial_outputs_are_byte_identical(tmp_path, monkeypatch):
    spec = regression_spec(tmp_path, n=12, seed=7)
    forks = count_forks(monkeypatch)
    written = {}
    for threads in ("1", "2"):  # forked folds, then serial ones
        set_blas_threads(monkeypatch, threads)
        out = tmp_path / f"threads{threads}"
        assert main(["crossval", spec, "--folds", "3", "--seed", "9", "--out", str(out)]) == 0
        written[threads] = [(out / name).read_bytes() for name in ("cv.csv", "cv_report.txt")]
        if threads == "1" and usable_cpus() > 1:
            assert len(forks) == min(3, usable_cpus())
    assert len(forks) <= min(3, usable_cpus())
    assert written["1"] == written["2"]


def separable_fold_spec(directory):
    # The rows of the second of two folds (seed 0) are separable, so the
    # first fold's training path fails; the full data overlap.
    n = 12
    _, train = np.array_split(np.random.default_rng(0).permutation(n), 2)
    held_out = np.setdiff1d(np.arange(n), train)
    x, y = np.zeros(n), np.zeros(n)
    x[train], y[train] = [-3, -2, -1, 1, 2, 3], [0, 0, 0, 1, 1, 1]
    x[held_out], y[held_out] = [-1, 1, -2, 2, -0.5, 0.5], [1, 0, 1, 0, 0, 1]
    return write_spec(directory, {
        "dimension": 1,
        "loss": {"kind": "glm", "family": "logistic",
                 "design": x.reshape(-1, 1).tolist(), "response": y.tolist()},
        "constraints": [{"builder": "lasso"}],
    })


def test_crossval_fold_failure_matches_serial_run(tmp_path, monkeypatch, capsys):
    spec = separable_fold_spec(tmp_path)
    real_full_grid = cli._full_grid

    def slow_full_grid(spec):
        # the failing fold's process ends before the grid is sent to it
        time.sleep(0.5)
        return real_full_grid(spec)

    monkeypatch.setattr(cli, "_full_grid", slow_full_grid)
    errors = {}
    for threads in ("1", "2"):  # forked folds, then serial ones
        set_blas_threads(monkeypatch, threads)
        out = tmp_path / f"threads{threads}"
        with pytest.warns(UserWarning, match="nullspace"):
            assert main(["crossval", spec, "--folds", "2", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        errors[threads] = [line for line in err if line.startswith("solver error: ")]
    assert len(errors["1"]) == 1 and errors["1"] == errors["2"]
    assert_no_child_left()


def test_crossval_full_path_failure_kills_fold_processes(tmp_path, monkeypatch, capsys):
    spec = regression_spec(tmp_path, n=12)
    set_blas_threads(monkeypatch, "1")
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(cli, "_fold_path", lambda spec, val_idx: time.sleep(60))

    def failing_full_grid(spec):
        raise PenPathError("full-data path failed")

    monkeypatch.setattr(cli, "_full_grid", failing_full_grid)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["crossval", spec, "--folds", "4", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 30
    assert "solver error: full-data path failed" in capsys.readouterr().err
    assert not out.exists()
    if usable_cpus() > 1:
        assert forks
    assert_no_child_left()


WARNINGS_PROBE = """
import contextlib, io, os, sys
from penpath.cli import main
spec, out = sys.argv[1:]
for threads in ("1", "2"):  # forked folds, then serial ones
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["crossval", spec, "--folds", "2", "--out", out + threads])
    print(code, repr(err.getvalue()))
"""


def test_crossval_fold_warnings_reach_redirected_stderr(tmp_path):
    # Each fold trains on 5 rows of a 6-coefficient least-squares loss, so
    # its Hessian is singular and the fold path warns as it switches mode.
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(10, 6)), rng.normal(size=10)
    spec = write_spec(tmp_path, {
        "dimension": 6,
        "loss": {"kind": "quadratic", "design": x.tolist(), "response": y.tolist()},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"direction": "backward"},
    })
    run = subprocess.run(
        [sys.executable, "-c", WARNINGS_PROBE, spec, str(tmp_path / "out")],
        env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    forked, serial = run.stdout.splitlines()
    assert forked == serial
    assert forked.count("continuing in nullspace mode") == 2


ENTRY_PROBE = """
import os, sys
import penpath_entry
assert "numpy" not in sys.modules
sys.argv = ["penpath", "oracle", "pava", "3,1"]
code = penpath_entry.main()
print(code, os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"])
"""


@pytest.mark.parametrize("given, expected", [({}, "0 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "0 3 1")],
                         ids=["unset", "user_set"])
def test_console_entry_defaults_to_one_blas_thread(given, expected):
    run = subprocess.run([sys.executable, "-c", ENTRY_PROBE], env=subprocess_env(**given),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["2,2", expected]


def test_crossval_reports_invalid_options_as_spec_error(tmp_path, capsys):
    # the automatic backward start needs an equality-only system
    spec = regression_spec(tmp_path, n=12, seed=2)
    body = json.loads((tmp_path / "spec.json").read_text())
    body["constraints"] = [{"builder": "isotone"}]
    body["options"] = {"direction": "backward"}
    spec = write_spec(tmp_path, body)
    out = tmp_path / "cv"
    assert main(["crossval", spec, "--folds", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: automatic backward start")
    assert not out.exists()


def test_crossval_rejects_losses_without_rows(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 3))
    np.savetxt(tmp_path / "cov.csv", a.T @ a / 20, delimiter=",")
    ggm = write_spec(
        tmp_path,
        {
            "dimension": 6,
            "loss": {"kind": "ggm", "covariance": "cov.csv"},
            "constraints": [{"builder": "offdiagonal_lasso"}],
        },
        name="ggm.json",
    )
    out = tmp_path / "cv"
    assert main(["crossval", ggm, "--folds", "2", "--out", str(out)]) == 1
    assert not out.exists()

    target_form = lasso_toy(tmp_path)
    assert main(["crossval", target_form, "--folds", "2", "--out", str(out)]) == 1
    assert not out.exists()


def test_oracle_pava(capsys):
    assert main(["oracle", "pava", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "1.5,1.5"
    assert main(["oracle", "pava", "3,1,2"]) == 0
    assert capsys.readouterr().out.strip() == "2,2,2"


def test_oracle_quadrature(capsys):
    assert main(["oracle", "quadrature_j", "1", "1", "0", "0"]) == 0
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-11)


def test_oracle_glasso_matches_library_call(tmp_path, capsys):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(30, 3))
    sigma = a.T @ a / 30
    np.savetxt(tmp_path / "cov.csv", sigma, delimiter=",")
    assert main(["oracle", "glasso", str(tmp_path / "cov.csv"), "0.1"]) == 0
    printed = np.array(
        [[float(c) for c in line.split(",")]
         for line in capsys.readouterr().out.strip().split("\n")]
    )
    np.testing.assert_allclose(printed, glasso_coordinate(sigma, 0.1), atol=1e-9)


def test_oracle_fixed_rho_soft_threshold(tmp_path, capsys):
    spec = lasso_toy(tmp_path)
    assert main(["oracle", "fixed_rho", spec, "0.5"]) == 0
    beta = np.array([float(c) for c in capsys.readouterr().out.split(",")])
    np.testing.assert_allclose(beta, [1.5, -0.5], atol=1e-6)


def test_oracle_unknown_name_fails(capsys):
    assert main(["oracle", "mystery"]) == 1
    assert "unknown oracle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["glasso", "MISSING", "0.1"], ["quadrature_j", "0", "0", "1e6", "1e6"]],
    ids=["missing_file", "overflow"],
)
def test_oracle_input_errors_print_one_line(tmp_path, capsys, args):
    argv = ["oracle"] + [str(tmp_path / "missing.csv") if a == "MISSING" else a for a in args]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad arguments for oracle {args[0]!r}: ")
    assert err.count("\n") == 1


def test_log_env_var(tmp_path, monkeypatch, capfd):
    spec = lasso_toy(tmp_path)
    monkeypatch.setenv("EPSODE_LOG", "info")
    assert main(["solve", spec, "--out", str(tmp_path / "out")]) == 0
    assert "INFO penpath" in capfd.readouterr().err

    monkeypatch.setenv("EPSODE_LOG", "shout")
    assert main(["oracle", "pava", "1,2"]) == 0
    err = capfd.readouterr().err
    assert "unknown EPSODE_LOG" in err

    monkeypatch.delenv("EPSODE_LOG")
    assert main(["solve", spec, "--out", str(tmp_path / "quiet")]) == 0
    assert "INFO" not in capfd.readouterr().err
