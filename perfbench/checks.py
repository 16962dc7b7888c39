"""Correctness checks on the files a benchmark job wrote, run outside timing.

Every successful job gets the cheap checks: the output files exist and are
well formed, and the terminal row is right (zero for the lasso, the target
mean for the fused lasso, a feasible density that integrates to one for the
log-concave fit).  Jobs picked by the caller also get the costly ones: three
interior rows against the ADMM oracle `penpath.oracles.solve_fixed_rho`
within 1e-6, and for crossval that the cv.csv grid holds every kink of the
full-data path.  ADMM does not finish on the log-concave problem, so that
workload has no oracle rows.
"""

import json
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-6
TERMINAL_TOL = 1e-8
MEAN_TOL = 1e-6
FEASIBILITY_TOL = 1e-8
INTEGRAL_TOL = 1e-6


class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _read_table(path, header):
    """Header-checked CSV: (list of raw rows, first column as floats)."""
    _require(path.is_file(), f"{path.name} missing")
    lines = path.read_text().splitlines()
    _require(lines and lines[0] == ",".join(header), f"{path.name} header wrong")
    rows = lines[1:]
    _require(len(rows) >= 2, f"{path.name} has fewer than two rows")
    width = len(header) - 1
    _require(all(row.count(",") == width for row in rows), f"{path.name} row width wrong")
    first = np.array([float(row.split(",", 1)[0]) for row in rows])
    _require(bool(np.all(np.isfinite(first))) and bool(np.all(np.diff(first) > 0)),
             f"{path.name} rho column is not finite and strictly increasing")
    return rows, first


def _cells(row):
    values = np.array(row.split(","), dtype=float)
    _require(bool(np.all(np.isfinite(values))), "non-finite value in an output row")
    return values


def _interior(count):
    """Three interior row positions at a quarter, half and three quarters."""
    return sorted({max(1, min(count - 2, round(count * q))) for q in (0.25, 0.5, 0.75)})


def held_out_folds(n, folds, cv_seed):
    """The held-out rows of each fold, split as `penpath crossval --seed` does."""
    rng = np.random.default_rng(cv_seed)
    return np.array_split(rng.permutation(n), folds)


def _spec(record):
    from penpath.problemspec import parse_problem_spec

    return parse_problem_spec(record["spec"])


def _check_solve(record, oracle):
    out = Path(record["out"])
    p = json.loads(Path(record["spec"]).read_text())["dimension"]
    header = ["rho", *(f"beta_{i + 1}" for i in range(p)), "df", "negloglik", "aic", "bic"]
    rows, _ = _read_table(out / "path.csv", header)
    report = (out / "report.txt").read_text().splitlines() if (out / "report.txt").is_file() else []
    _require(report[:1] == ["status: terminated"], "report.txt does not say terminated")
    kinks_path = out / "kinks.jsonl"
    _require(kinks_path.is_file(), "kinks.jsonl missing")
    kinks = [json.loads(line) for line in kinks_path.read_text().splitlines()]
    _require(f"kinks: {len(kinks)}" in report, "kinks.jsonl disagrees with report.txt")

    terminal = _cells(rows[-1])[1 : p + 1]
    kind = record["facts"]["terminal"]
    spec_dir = Path(record["spec"]).parent
    if kind == "zero":
        _require(float(np.abs(terminal).max()) <= TERMINAL_TOL, "lasso terminal row is not zero")
    elif kind == "mean":
        target = np.loadtxt(spec_dir / "target.csv", delimiter=",")
        gap = float(np.abs(terminal - target.mean()).max())
        _require(gap <= MEAN_TOL, f"fused terminal row is {gap:.1e} from the target mean")
    elif kind == "density":
        support = np.loadtxt(spec_dir / "support.csv", delimiter=",")
        gaps = np.diff(support)
        slopes = np.diff(terminal) / gaps
        # concavity: each divided difference no larger than the one before
        violation = float(np.max(np.diff(slopes))) if slopes.size > 1 else 0.0
        _require(violation <= FEASIBILITY_TOL, f"density not concave by {violation:.1e}")
        grid = np.linspace(support[0], support[-1], 20001)
        integral = np.trapezoid(np.exp(np.interp(grid, support, terminal)), grid)
        _require(abs(integral - 1.0) < INTEGRAL_TOL,
                 f"density integrates to {integral:.9f}, not 1")

    if not oracle or kind == "density":
        return None
    from penpath.oracles import solve_fixed_rho

    spec = _spec(record)
    gap = 0.0
    for i in _interior(len(rows)):
        values = _cells(rows[i])
        reference = solve_fixed_rho(spec.model, spec.constraints, values[0])
        gap = max(gap, float(np.abs(values[1 : p + 1] - reference.beta).max()))
    _require(gap <= ORACLE_TOL, f"path.csv is {gap:.1e} from the fixed-rho oracle")
    return gap


def _check_crossval(record, oracle):
    out = Path(record["out"])
    folds = record["facts"]["folds"]
    header = ["rho", *(f"fold_{j + 1}" for j in range(folds)), "mean"]
    rows, grid = _read_table(out / "cv.csv", header)
    _require((out / "cv_report.txt").is_file(), "cv_report.txt missing")
    for row in rows:
        values = _cells(row)
        mean = values[1:-1].mean()
        _require(abs(values[-1] - mean) <= 1e-12 * (1.0 + abs(mean)),
                 "cv.csv mean column is not the fold mean")
    if not oracle:
        return None

    from penpath.oracles import solve_fixed_rho
    from penpath.path import run_path

    spec = _spec(record)
    full = run_path(spec.model, spec.constraints, spec.options)
    on_grid = set(grid.tolist())
    missing = [k.rho for k in full.kinks if k.rho not in on_grid]
    _require(not missing, f"{len(missing)} kinks of the full path are not on the cv.csv grid")

    n = spec.n_observations
    held_out = held_out_folds(n, folds, record["facts"]["cv_seed"])[0]
    train = np.setdiff1d(np.arange(n), held_out)
    train_loss, test_loss = spec.split_loss(train), spec.split_loss(held_out)
    gap = 0.0
    for i in _interior(len(rows)):
        values = _cells(rows[i])
        beta = solve_fixed_rho(train_loss, spec.constraints, values[0]).beta
        gap = max(gap, abs(values[1] - test_loss.value(beta) / held_out.size))
    _require(gap <= ORACLE_TOL, f"cv.csv fold 1 is {gap:.1e} from the fixed-rho oracle")
    return gap


def check_job(record, oracle=False):
    """(ok, reason, oracle gap or None) for one job record from worker.py."""
    if record["failure"] is not None:
        failure = record["failure"]
        return False, f"exit {failure['exit']}: {failure['class']}: {failure['message']}", None
    from penpath.errors import PenPathError

    check = _check_crossval if record["command"] == "crossval" else _check_solve
    try:
        gap = check(record, oracle)
    except (CheckFailed, OSError, ValueError, PenPathError) as exc:
        return False, f"check: {exc}", None
    if gap is not None and not math.isfinite(gap):
        return False, "check: oracle gap is not finite", None
    return True, None, gap
