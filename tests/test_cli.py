"""End-to-end tests of the command-line front end."""

import json

import numpy as np
import pytest

from penpath.cli import main
from penpath.oracles import glasso_coordinate


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
    assert main(["solve", spec, "--out", str(out), "--mode", "tableau",
                 "--rho-max", "0.5"]) == 0
    _, body = read_table(out / "path.csv")
    assert body[-1, 0] == pytest.approx(0.5, abs=1e-12)
    report = (out / "report.txt").read_text()
    assert "status: rho_max" in report
    assert "mode: tableau" in report


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


def test_crossval_leave_one_out_runs(tmp_path):
    spec = regression_spec(tmp_path, n=10)
    out = tmp_path / "cv"
    assert main(["crossval", spec, "--folds", "10", "--seed", "3",
                 "--out", str(out)]) == 0
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
