"""Sampling and writing the path table.

The segment lookup, the dense-trace lookups and the CSV row formatter are
each compared with the linear-scan or per-cell code they replaced, which is
kept here as the reference.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from penpath import cli
from penpath.constraints import fused_lasso, lasso
from penpath.losses import GlmLoss, QuadraticLoss
from penpath.odeint import integrate
from penpath.path import (
    SetConfiguration,
    _SegmentContext,
    _SegmentTrace,
    information_criteria,
    run_path,
)
from penpath.problemspec import parse_problem_spec

OFFSETS = (-2.0, -0.5, 0.5, 2.0)


# -- reference implementations -----------------------------------------------

def scan_segment(solution, rho):
    """PathSolution._segment_for as a linear scan."""
    for seg in solution.segments:
        if seg.contains(rho):
            return seg
    last = solution.segments[-1]
    first = solution.segments[0]
    if solution.direction == "forward":
        if solution.status == "terminated" and rho >= last.rho_end:
            return last
    elif rho >= first.rho_start and first.config.is_terminal:
        return first
    raise ValueError(f"rho={rho} outside the computed path")


def scan_result(result, t):
    """IntegrationResult.interpolate as a linear scan."""
    lo, hi = result.steps[0].t_start, result.steps[-1].t_end
    if not (lo - 1e-9 <= t <= hi + 1e-9):
        raise ValueError(f"t={t} outside integrated range [{lo}, {hi}]")
    for step in result.steps:
        if t <= step.t_end:
            return np.asarray(step.interpolant(t), dtype=float)
    return np.asarray(result.steps[-1].interpolant(t), dtype=float)


def scan_trace(trace, t):
    """_SegmentTrace.interpolate as a linear scan."""
    for result in trace.results:
        if result.steps[0].t_start - 1e-9 <= t <= result.steps[-1].t_end + 1e-9:
            return scan_result(result, t)
    raise ValueError(f"t={t} outside the segment trace")


def legacy_g17(x):
    return format(float(x), ".17g")


def legacy_path_csv(spec, solution):
    """path.csv of `penpath solve`, sampled in one pass, per-cell format."""
    grid = solution.rho_grid(spec.samples_per_segment)
    if solution.direction == "backward":
        grid = grid[::-1]
    p = spec.dimension
    lines = ["rho," + ",".join(f"beta_{i + 1}" for i in range(p)) + ",df,negloglik,aic,bic"]
    for rho in grid:
        beta = solution.beta_at(rho)
        df = solution.df_at(rho)
        value = spec.model.value(beta)
        aic, bic = information_criteria(-value, df, spec.n_observations)
        cells = [legacy_g17(rho), *(legacy_g17(b) for b in beta), str(df),
                 legacy_g17(value), legacy_g17(aic), legacy_g17(bic)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def legacy_cv_csv(spec, folds, seed):
    """cv.csv of `penpath crossval`, folds run one after another, per-cell format."""
    full = run_path(spec.model, spec.constraints, spec.options)
    grid = full.rho_grid(spec.samples_per_segment)
    if full.direction == "backward":
        grid = grid[::-1]
    n = spec.n_observations
    curves = []
    for val_idx in np.array_split(np.random.default_rng(seed).permutation(n), folds):
        fold = run_path(
            spec.split_loss(np.setdiff1d(np.arange(n), val_idx)), spec.constraints, spec.options
        )
        heldout = spec.split_loss(val_idx)
        curves.append(np.array([heldout.value(fold.beta_at(rho)) / val_idx.size for rho in grid]))
    mean_curve = np.mean(curves, axis=0)
    lines = ["rho," + ",".join(f"fold_{j + 1}" for j in range(folds)) + ",mean"]
    for i, rho in enumerate(grid):
        lines.append(",".join(
            [legacy_g17(rho), *(legacy_g17(c[i]) for c in curves), legacy_g17(mean_curve[i])]
        ))
    return "\n".join(lines) + "\n"


# -- segment lookup ----------------------------------------------------------

def quiet_path(model, cs, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_path(model, cs, **options)


def probe_rhos(solution):
    """Every grid point, every segment end, and each end moved by fractions of the slack."""
    rhos = list(solution.rho_grid(7))
    for seg in solution.segments:
        for end in (seg.rho_start, seg.rho_end):
            rhos.append(end)
            rhos.extend(end + k * 1e-9 * (1.0 + abs(end)) for k in OFFSETS)
    return rhos


def assert_lookup_matches_scan(solution, extra=()):
    """Bisected and scanned lookups agree; returns how many probes were outside."""
    outside = 0
    for rho in [*probe_rhos(solution), *extra]:
        try:
            expected = scan_segment(solution, rho)
        except ValueError:
            outside += 1
            with pytest.raises(ValueError, match="outside the computed path"):
                solution._segment_for(rho)
            continue
        assert solution._segment_for(rho) is expected, rho
    return outside


def test_lookup_on_forward_lasso_with_point_segments():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(10, 6))
    a[:, 1] += 2.0 * a[:, 0]
    a[:, 2] -= 1.5 * a[:, 0]
    h = a.T @ a
    # exact zeros in the unconstrained minimum start beyond their coefficient
    # boundaries, so the path opens with a run of zero-length segments at 0
    sol = quiet_path(QuadraticLoss(h, h @ np.array([3.0, 0.0, 0.0, -1.0, 0.0, 0.5])), lasso(6))
    assert sol.status == "terminated"
    points = [seg for seg in sol.segments if seg.rho_span == 0.0]
    assert sum(seg.rho_start == 0.0 for seg in points) >= 2
    end = sol.rho_end
    # beyond the end lies the terminated-extension range
    outside = assert_lookup_matches_scan(sol, extra=(1.5 * end, 10.0 * end, -1.0))
    assert outside > 0
    assert sol._segment_for(10.0 * end) is sol.segments[-1]
    with pytest.raises(ValueError, match="outside"):
        sol.beta_at(-1.0)


def test_lookup_on_backward_run():
    target = [3.0, -1.0, 2.0, 0.5, 1.0, -2.0]
    sol = quiet_path(QuadraticLoss.from_target(target), fused_lasso(6), direction="backward")
    assert sol.direction == "backward" and len(sol.kinks) >= 3
    start = sol.segments[0].rho_start
    assert sol.segments[0].config.is_terminal
    # above the start the fused fit is fixed; below zero is outside
    outside = assert_lookup_matches_scan(sol, extra=(2.0 * start, -1.0))
    assert outside > 0
    assert sol._segment_for(2.0 * start) is sol.segments[0]
    with pytest.raises(ValueError, match="outside"):
        sol.df_at(-1.0)


class OdeQuadratic(QuadraticLoss):
    """A quadratic loss that the ODE engine traces."""

    constant_hessian = False


def clamped_beta_at(seg, rho):
    """PathSegment.beta_at with a clamp of its own, as it was before it
    called betas_at."""
    lo, hi = sorted((seg._t_sign * seg.rho_start, seg._t_sign * seg.rho_end))
    return seg._eval.interpolate(min(max(seg._t_sign * rho, lo), hi))


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("loss", [QuadraticLoss, OdeQuadratic], ids=["exact", "ode"])
def test_segment_beta_at_is_betas_at_within_its_slack(loss, direction):
    target = [3.0, -1.0, 2.0, 0.5, 1.0, -2.0]
    sol = quiet_path(loss.from_target(target), fused_lasso(6), direction=direction,
                     rho_min=1e-3)
    assert len(sol.kinks) >= 3
    inside = 0
    for seg in sol.segments:
        for end in (seg.rho_start, seg.rho_end):
            for k in (-2.0, -0.5, 0.0, 0.5, 2.0):
                rho = end + k * 1e-9 * (1.0 + abs(end))
                if not seg.contains(rho):
                    with pytest.raises(ValueError, match="outside segment"):
                        seg.beta_at(rho)
                    continue
                inside += 1
                beta = seg.beta_at(rho)
                assert beta.tobytes() == clamped_beta_at(seg, rho).tobytes()
                assert beta.tobytes() == seg.betas_at(np.array([rho]), True)[0].tobytes()
    assert inside > 0


def test_lookup_on_path_stopped_by_rho_max():
    sol = quiet_path(QuadraticLoss.from_target([2.0, -1.0, 0.5]), lasso(3), rho_max=1.5)
    assert sol.status == "rho_max"
    outside = assert_lookup_matches_scan(sol, extra=(1.6, 3.0))
    assert outside > 0
    with pytest.raises(ValueError, match="outside"):
        sol.beta_at(1.6)


def logistic_path():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(80, 5))
    eta = x @ np.array([1.0, -0.7, 0.0, 0.0, 0.4])
    y = (rng.random(80) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return quiet_path(GlmLoss(x, y, family="logistic"), lasso(5))


def test_lookup_on_ode_logistic_path():
    sol = logistic_path()
    assert sol.status == "terminated"
    assert any(isinstance(seg._eval, _SegmentTrace) for seg in sol.segments)
    end = sol.rho_end
    assert assert_lookup_matches_scan(sol, extra=(2.0 * end, -1.0)) > 0


# -- dense-trace lookup ------------------------------------------------------

def probe_times(steps):
    times = []
    for step in steps:
        for end in (step.t_start, step.t_end):
            times.append(end)
            times.extend(end + k * 1e-9 for k in OFFSETS)
        times.append(0.5 * (step.t_start + step.t_end))
    return times


def assert_same_or_both_outside(bisected, scanned, t):
    try:
        expected = scanned(t)
    except ValueError:
        with pytest.raises(ValueError, match="outside"):
            bisected(t)
        return 1
    assert np.array_equal(bisected(t), expected), t
    return 0


def test_integration_result_lookup_matches_scan():
    result = integrate(lambda t, y: -y * (1.0 + t), 0.0, 3.0, [1.0, 2.0], max_step=0.2)
    assert len(result.steps) > 10
    outside = sum(
        assert_same_or_both_outside(result.interpolate, lambda t: scan_result(result, t), t)
        for t in probe_times(result.steps)
    )
    assert outside == 2


def test_chunked_trace_lookup_matches_scan():
    # chunks end where the runner's geometric chunks would: 1, 8, 20; with
    # no active row, the context's snap only copies
    config = SetConfiguration(pos_eq=(0, 1))
    trace = _SegmentTrace(_SegmentContext(QuadraticLoss.from_target([0.0, 0.0]), lasso(2),
                                          config, np.zeros(2)))
    y, t0 = np.array([1.0, -0.5]), 0.0
    for t1 in (1.0, 8.0, 20.0):
        result = integrate(lambda t, y: np.cos(t) - 0.1 * y, t0, t1, y)
        trace.add(result)
        t0, y = result.t_end, result.y_end
    steps = [step for result in trace.results for step in result.steps]
    outside = sum(
        assert_same_or_both_outside(trace.interpolate, lambda t: scan_trace(trace, t), t)
        for t in probe_times(steps)
    )
    assert outside == 2


def test_ode_path_traces_match_scan():
    traces = [seg._eval for seg in logistic_path().segments
              if isinstance(seg._eval, _SegmentTrace)]
    assert traces
    for trace in traces:
        steps = [step for result in trace.results for step in result.steps]
        for t in probe_times(steps):
            assert_same_or_both_outside(trace.interpolate, lambda t: scan_trace(trace, t), t)


# -- row formatter -----------------------------------------------------------

EDGE_VALUES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**53, 2.0**53 + 2.0,
    *(10.0**e for e in range(16, 309)), *(-(10.0**e) for e in range(16, 309, 7)),
]


def test_row_formatter_matches_per_cell_format():
    bits = np.random.default_rng(0).integers(0, 2**64, size=20000, dtype=np.uint64)
    values = EDGE_VALUES + bits.view(np.float64).tolist()
    width = 9
    values += [0.0] * (-len(values) % width)
    rows = [values[i : i + width] for i in range(0, len(values), width)]
    legacy = "".join(",".join(legacy_g17(x) for x in row) + "\n" for row in rows)
    assert "".join(cli._csv_lines("h", "g" * width, rows)) == "h\n" + legacy
    # integer columns (df) keep str()'s text
    mixed = [(x, df) for x, df in zip(EDGE_VALUES, range(-3, 1000))]
    legacy = "".join(f"{legacy_g17(x)},{df}\n" for x, df in mixed)
    assert "".join(cli._csv_lines("h", "gd", mixed)) == "h\n" + legacy


def write_spec(directory, body):
    path = directory / "spec.json"
    path.write_text(json.dumps(body))
    return str(path)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_solve_path_csv_is_legacy_output(tmp_path, direction):
    rng = np.random.default_rng(4)
    spec_path = write_spec(tmp_path, {
        "dimension": 8,
        "loss": {"kind": "quadratic", "target": list(np.repeat(rng.normal(size=2) * 2, 4)
                                                     + 0.3 * rng.normal(size=8))},
        "constraints": [{"builder": "fused_lasso"}],
    })
    out = tmp_path / "out"
    assert cli.main(["solve", spec_path, "--out", str(out), "--direction", direction]) == 0
    spec = parse_problem_spec(spec_path)
    solution = run_path(spec.model, spec.constraints, replace(spec.options, direction=direction))
    assert solution.direction == direction and solution.kinks
    assert (out / "path.csv").read_text() == legacy_path_csv(spec, solution)


def test_crossval_cv_csv_is_legacy_output(tmp_path):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 3))
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-x @ np.array([1.0, -0.5, 0.0])))).astype(float)
    np.savetxt(tmp_path / "x.csv", x, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y.reshape(-1, 1), delimiter=",")
    spec_path = write_spec(tmp_path, {
        "dimension": 3,
        "loss": {"kind": "glm", "family": "logistic", "design": "x.csv", "response": "y.csv"},
        "constraints": [{"builder": "lasso"}],
    })
    out = tmp_path / "cv"
    assert cli.main(["crossval", spec_path, "--folds", "3", "--seed", "2", "--out", str(out)]) == 0
    expected = legacy_cv_csv(parse_problem_spec(spec_path), 3, 2)
    assert (out / "cv.csv").read_text() == expected
