"""End-to-end tests of the command-line front end."""

import contextlib
import io
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
from penpath.losses import LogConcaveLoss
from penpath.oracles import glasso_coordinate
from penpath.problemspec import parse_problem_spec

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
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"rho_start": 1.0, "start_beta": [True, False]},
         '"options": start_beta must be a vector of finite numbers'),
        ({"kind": "quadratic", "target": [2.0, -1.0]},
         {"rho_start": 1.0, "start_beta": [True, 0.5]},
         '"options": start_beta must be a vector of finite numbers'),
    ] + [
        ({"kind": "quadratic", "target": [2.0, -1.0]}, {name: True},
         f'"options": {name} must be a number, got True')
        for name in FLOAT_OPTIONS
    ],
    ids=["asymmetric_matrix", "row_counts", "linear_length", "scale_string", "scale_list",
         "scale_inf", "quasi_scale_nan",
         "rho_start_string", "residual_tol_string", "max_step_string", "event_tol_inf",
         "residual_tol_nan", "max_step_negative", "max_kinks_nan", "three_booleans",
         "start_beta_nan", "start_beta_inf", "start_beta_length", "start_beta_booleans",
         "start_beta_boolean_and_float"]
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
def test_solve_non_finite_hessian_exits_2_with_no_outputs(tmp_path, capsys, monkeypatch):
    # this concave-density fit reaches a point where the loss's Hessian
    # overflows (from its 41st block on): a solver failure, not a malformed spec
    columns, count = LogConcaveLoss.hessian_columns, [0]

    def overflowing(self, x, cols):
        count[0] += 1
        block = columns(self, x, cols)
        return block if count[0] <= 40 else np.full_like(block, np.inf)

    monkeypatch.setattr(LogConcaveLoss, "hessian_columns", overflowing)
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

    at_kinks = 0
    for row in body:
        rho, df = row[0], int(row[p + 1])
        # a row at a kink shows the set after it: after the last kink at its rho
        kinks_at = [e for e in events if e["rho"] == rho]
        if kinks_at:
            at_kinks += 1
            assert df == kinks_at[-1]["df_after"]
        implied = sum(
            (e["to_set"] in zero_sets) - (e["from_set"] in zero_sets)
            for e in events
            if e["rho"] <= rho
        )
        assert df == p - implied
    assert at_kinks == len({e["rho"] for e in events})


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


def fork_small_tables(monkeypatch, cpus, cells=1):
    # fork the formatter child of even these small tables as soon as `cells`
    # cells wait to be formatted, on `cpus` (faked) usable CPUs
    monkeypatch.setattr(cli, "_FORK_MIN_CELLS", cells)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("case", sorted(SOLVE_CASES))
def test_solve_forked_and_serial_outputs_are_byte_identical(tmp_path, monkeypatch, case):
    make_spec, flags = SOLVE_CASES[case]
    spec = make_spec(tmp_path)
    fork_small_tables(monkeypatch, cpus=3)  # one child, on three CPUs too
    forks = count_forks(monkeypatch)
    written = {}
    for threads in ("1", "2"):  # a forked formatter, then one serial pass
        set_blas_threads(monkeypatch, threads)
        out = tmp_path / f"threads{threads}"
        assert main(["solve", spec, "--out", str(out), *flags]) == 0
        written[threads] = [(out / name).read_bytes() for name in SOLVE_OUTPUTS]
        assert len(forks) == 1
    assert written["1"] == written["2"]
    assert_no_child_left()


@pytest.mark.parametrize("cpus, block_rows", [(0, 32), (2, 7), (3, 7), (3, 64)],
                         ids=["one_process", "two_processes", "three_processes",
                              "fewer_blocks_than_processes"])
def test_shared_rows_merge_in_grid_order(tmp_path, monkeypatch, cpus, block_rows):
    spec = parse_problem_spec(regression_spec(tmp_path))
    solution = cli._checked_path(spec, spec.options)
    grid = solution.rho_grid(spec.samples_per_segment)  # 61 rows
    betas, dfs = solution.sample(grid)
    whole = io.BytesIO()
    cli._block_rows(spec, whole, np.column_stack([grid, dfs, betas]))
    serial = whole.getvalue()
    monkeypatch.setattr(cli, "_fork_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_FORK_MIN_CELLS", 1)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    forks = count_forks(monkeypatch)
    joined = io.BytesIO()
    with contextlib.ExitStack() as stack:
        table = cli._Table(spec, spec.options, tmp_path, stack)
        written = table.finish(cli._checked_path(spec, spec.options, table.add))
        cli._join_parts(joined, table.parts, table.owners, written)
    assert joined.getvalue() == serial
    assert len(forks) == len(table.parts) - 1 == (cpus > 1)
    assert_no_child_left()
    # the child formats blocks from the first one it is handed on
    assert (1 in table.owners) == (cpus > 1)
    assert [rho for rows, _ in written for rho, _, _ in rows] == grid.tolist()
    lines = serial.splitlines(keepends=True)
    assert [size for _, size in written] == [
        len(b"".join(lines[start:start + block_rows])) for start in range(0, grid.size, block_rows)
    ]


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
    assert len(forks) == 2  # one child on four CPUs too


@pytest.mark.parametrize("case", ["succeeds", "solver_fails", "formatting_fails"])
def test_a_streamed_solve_leaves_no_process_behind(tmp_path, monkeypatch, capsys, case):
    # the formatter child is forked at the first segment, before the solver
    # fails at its fifth kink or the formatting of the second block fails
    target = (np.random.default_rng(8).normal(size=12) * 2).tolist()
    spec = write_spec(tmp_path, {
        "dimension": 12,
        "loss": {"kind": "quadratic", "target": target},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"max_kinks": 4} if case == "solver_fails" else {},
    })
    real_csv_block = cli._csv_block

    def csv_block(table):
        if table[0, 0] > 0.0:  # every block after the first
            raise PenPathError("formatting failed")
        return real_csv_block(table)

    if case == "formatting_fails":
        monkeypatch.setattr(cli, "_csv_block", csv_block)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    fork_small_tables(monkeypatch, cpus=2)
    set_blas_threads(monkeypatch, "1")
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["solve", spec, "--out", str(out)])
    err = capsys.readouterr().err
    assert len(forks) == 1
    assert_no_child_left()
    if case == "succeeds":
        assert code == 0 and err == ""
        assert sorted(p.name for p in out.iterdir()) == sorted(SOLVE_OUTPUTS)
    else:
        assert code == 2
        assert err.startswith("solver error: path exceeded max_kinks=4" if case == "solver_fails"
                              else "solver error: formatting failed\n")
        assert not out.exists()
    # the unlinked parts leave nothing beside --out
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["spec.json"] + (["out"] if code == 0 else []))


def test_solve_refuses_a_streamed_grid_that_is_not_rho_grid(tmp_path, monkeypatch, capsys):
    real_grid = penpath.path.PathSolution.rho_grid
    monkeypatch.setattr(penpath.path.PathSolution, "rho_grid",
                        lambda self, per: real_grid(self, per)[1:])
    out = tmp_path / "out"
    assert main(["solve", regression_spec(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "solver error: the rows sampled during the solve are not the path's sample grid\n")
    assert not out.exists()


def point_segment_lasso_spec(directory):
    # the lasso of tests/test_sampling.py's
    # test_lookup_on_forward_lasso_with_point_segments: its path opens with a
    # run of zero-length segments at rho = 0
    rng = np.random.default_rng(0)
    a = rng.normal(size=(10, 6))
    a[:, 1] += 2.0 * a[:, 0]
    a[:, 2] -= 1.5 * a[:, 0]
    h = a.T @ a
    return write_spec(directory, {
        "dimension": 6,
        "loss": {"kind": "quadratic", "matrix": h.tolist(),
                 "linear": (h @ np.array([3.0, 0.0, 0.0, -1.0, 0.0, 0.5])).tolist()},
        "constraints": [{"builder": "lasso"}],
    })


GOLDEN = Path(__file__).parent / "golden"
# the golden solve specs (a backward path and an ODE-engine logistic path
# among them) and the point-segment lasso
STREAMED_SPECS = {
    **{case: (lambda directory, case=case: str(GOLDEN / case / "spec.json"))
       for case in ("fused_backward", "fused_nullspace", "lasso_direct", "logistic_solve",
                    "shape_direct", "trend_nullspace")},
    "point_segments": point_segment_lasso_spec,
}


@pytest.fixture(scope="module")
def serial_solves(tmp_path_factory):
    """Each STREAMED_SPECS case's spec path, rows and outputs, solved
    without a fork."""
    solved = {}

    def solve(case):
        if case not in solved:
            directory = tmp_path_factory.mktemp(case)
            spec = STREAMED_SPECS[case](directory)
            with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
                patch.setattr(cli, "_fork_cpus", lambda: 0)
                warnings.simplefilter("ignore")
                assert main(["solve", spec, "--out", str(directory / "out")]) == 0
            written = [(directory / "out" / name).read_bytes() for name in SOLVE_OUTPUTS]
            solved[case] = spec, written[0].count(b"\n") - 1, written
        return solved[case]

    return solve


@pytest.mark.parametrize("block_rows", [1, 7, 32])
@pytest.mark.parametrize("after", [1, 2, 5])
@pytest.mark.parametrize("case", sorted(STREAMED_SPECS))
def test_streamed_solve_writes_the_serial_bytes(tmp_path, monkeypatch, serial_solves, case,
                                                after, block_rows):
    # the child is forked once `after` blocks' cells wait to be formatted
    spec, rows, serial = serial_solves(case)
    p = json.loads(Path(spec).read_text())["dimension"]
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    fork_small_tables(monkeypatch, cpus=2, cells=after * block_rows * (p + 5))
    set_blas_threads(monkeypatch, "1")
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["solve", spec, "--out", str(out)]) == 0
    assert [(out / name).read_bytes() for name in SOLVE_OUTPUTS] == serial
    assert len(forks) == (rows >= after * block_rows)
    assert_no_child_left()


@pytest.mark.parametrize("case", sorted(STREAMED_SPECS))
def test_a_kink_row_is_the_state_the_path_continues_from(serial_solves, case):
    # A kink's row comes from the last segment that starts at its rho (after
    # a cluster, the one after it): its snapped beta_start, bit for bit, and
    # the df of its set, which is the last kink's df_after there.
    spec_path, _, (path_csv, _, _) = serial_solves(case)
    spec = parse_problem_spec(spec_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solution = cli._checked_path(spec, spec.options)
    rows = {}
    for line in path_csv.decode().splitlines()[1:]:
        cells = line.split(",")
        rows[float(cells[0])] = cells
    p = spec.dimension
    kink_rhos = sorted({kink.rho for kink in solution.kinks})
    assert kink_rhos
    for rho in kink_rhos:
        owner = [seg for seg in solution.segments if seg.rho_start == rho][-1]
        beta = np.array([float(cell) for cell in rows[rho][1:p + 1]])
        assert beta.tobytes() == owner.beta_start.tobytes(), rho
        df = [kink.df_after for kink in solution.kinks if kink.rho == rho][-1]
        assert int(rows[rho][p + 1]) == df == penpath.path.degrees_of_freedom(owner.config, p)
        assert solution.beta_at(rho).tobytes() == owner.beta_start.tobytes()
        assert solution.config_at(rho) is owner.config


# Patches penpath, then runs the CLI on its arguments and prints how many
# processes it forked: every segment the solver records issues one warning
# from one location, and every row sampled another, its own.
REPEATED_SOLVER_WARNING = """
import os, sys, warnings
import penpath.path
from penpath import cli

record, sample = penpath.path._PathRunner._record_segment, penpath.path.PathSegment.betas_at


def record_segment(self, *args):
    warnings.warn("segment recorded", UserWarning)
    return record(self, *args)


def betas_at(self, rhos, forward):
    for rho in rhos.tolist():
        warnings.warn(f"row at rho={rho!r}", UserWarning)
    return sample(self, rhos, forward)


penpath.path._PathRunner._record_segment = record_segment
penpath.path.PathSegment.betas_at = betas_at
cli._FORK_MIN_CELLS, cli._BLOCK_ROWS = 1, 4
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
code = cli.main(sys.argv[1:])
print(len(forks))
sys.exit(code)
"""


def test_streamed_solve_shows_a_repeated_solver_warning_once(tmp_path):
    # Each segment's rows are sampled as it is recorded, between the
    # segments that warn; the warning is still shown once, as the solver
    # shows it without a fork, and the rows' warnings follow it in row order.
    spec = regression_spec(tmp_path)
    runs = {}
    for threads in ("1", "2"):  # a forked formatter, then one serial pass
        out = tmp_path / f"threads{threads}"
        runs[threads] = subprocess.run(
            [sys.executable, "-c", REPEATED_SOLVER_WARNING, "solve", spec, "--out", str(out)],
            env=subprocess_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=120,
        )
        assert runs[threads].returncode == 0, runs[threads].stderr
    assert [runs[threads].stdout for threads in ("1", "2")] == ["1\n", "0\n"]
    assert runs["1"].stderr == runs["2"].stderr
    rhos = read_table(tmp_path / "threads1" / "path.csv")[1][:, 0]
    shown = [line.split("UserWarning: ")[1] for line in runs["1"].stderr.splitlines()]
    assert shown == ["segment recorded"] + [f"row at rho={rho!r}" for rho in rhos.tolist()]


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
    real_betas_at = penpath.path.PathSegment.betas_at
    assert main(["solve", spec, "--out", str(tmp_path / "ok")]) == 0
    middle = np.median(read_table(tmp_path / "ok" / "path.csv")[1][:, 0])  # rows ascend in rho

    def betas_at(self, rhos, forward):
        # once for each sampled row
        for rho in rhos.tolist():
            if where == "every_row" or rho > middle:
                warnings.warn("repeated at one location", UserWarning)
        return real_betas_at(self, rhos, forward)

    monkeypatch.setattr(penpath.path.PathSegment, "betas_at", betas_at)
    fork_small_tables(monkeypatch, cpus=2)
    forks = count_forks(monkeypatch)
    shown = {}
    for threads in ("1", "2"):  # a forked formatter, then one serial pass
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
    bound = rhos[int(0.9 * rhos.size)]  # late in the grid
    real_betas_at = penpath.path.PathSegment.betas_at

    def betas_at(self, rhos, forward):
        # every row warns as it is sampled, and the rows beyond the bound fail
        for rho in rhos.tolist():
            if rho > bound:
                raise PenPathError(f"sampling failed beyond rho={bound:g}")
            warnings.warn(f"row at rho={rho!r}", UserWarning)
        return real_betas_at(self, rhos, forward)

    monkeypatch.setattr(penpath.path.PathSegment, "betas_at", betas_at)
    fork_small_tables(monkeypatch, cpus=2)
    forks = count_forks(monkeypatch)
    capsys.readouterr()
    seen = {}
    for threads in ("1", "2"):  # a forked formatter, then one serial pass
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


@pytest.mark.parametrize("cpus, block_rows, failing, where", [
    (2, 5, 0.5, "lookup"), (3, 7, 0.3, "lookup"), (3, 4, 0.8, "lookup"),
    (2, 6, 0.3, "formatting"), (3, 5, 0.7, "formatting"),
], ids=["2-5-0.5", "3-7-0.3", "3-4-0.8", "2-6-0.3-formatting", "3-5-0.7-formatting"])
def test_shared_failure_raises_the_first_failing_block_after_the_warnings_before_it(
    tmp_path, monkeypatch, capsys, cpus, block_rows, failing, where
):
    # rows from a point inside the grid on fail: as they are sampled during
    # the solve, or when their block is formatted, whichever process formats it
    spec = regression_spec(tmp_path)
    assert main(["solve", spec, "--out", str(tmp_path / "ok")]) == 0
    rhos = read_table(tmp_path / "ok" / "path.csv")[1][:, 0]
    bound = rhos[int(failing * rhos.size)]
    real_betas_at = penpath.path.PathSegment.betas_at
    real_csv_block = cli._csv_block

    def betas_at(self, rhos, forward):
        for rho in rhos.tolist():
            if where == "lookup" and rho > bound:
                raise PenPathError(f"failed at rho={rho!r}")
            warnings.warn(f"row at rho={rho!r}", UserWarning)
        return real_betas_at(self, rhos, forward)

    def csv_block(table):
        beyond = table[table[:, 0] > bound, 0]
        if beyond.size:
            raise PenPathError(f"failed at rho={float(beyond[0])!r}")
        return real_csv_block(table)

    monkeypatch.setattr(penpath.path.PathSegment, "betas_at", betas_at)
    monkeypatch.setattr(cli, "_csv_block", csv_block)
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    fork_small_tables(monkeypatch, cpus=cpus)
    forks = count_forks(monkeypatch)
    capsys.readouterr()
    seen = {}
    for threads in ("2", "1"):  # one serial pass, then shared blocks
        set_blas_threads(monkeypatch, threads)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", spec, "--out", str(tmp_path / f"threads{threads}")]) == 2
        seen[threads] = (capsys.readouterr().err, [str(w.message) for w in caught])
    assert_no_child_left()
    first = int(np.argmax(rhos > bound))
    # one formatter child, whatever the CPUs, once rows wait: after the first
    # segment's 20 rows are sampled
    assert len(forks) == (where == "formatting" or first >= 20)
    # each row sampled before the failure warned once, in row order: where
    # formatting fails, every row was sampled during the solve
    sampled = first if where == "lookup" else rhos.size
    assert seen["2"] == (f"solver error: failed at rho={float(rhos[first])!r}\n",
                         [f"row at rho={rho!r}" for rho in rhos[:sampled].tolist()])
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
