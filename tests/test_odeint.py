"""Adaptive integrator: accuracy, events, arming, failure modes."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import penpath
import penpath.odeint
from penpath.errors import EventLocationFailed, NonFiniteDerivative, PenPathError, StepSizeUnderflow
from penpath.odeint import _locate, integrate


def rows_of(*funcs):
    """An event vector whose rows are the scalar functions g(t, y)."""
    def events(t, y, rows=range(len(funcs))):
        return np.array([funcs[i](t, y) for i in rows])
    return events


@pytest.fixture
def brentq_calls(monkeypatch):
    calls = []
    brentq = penpath.odeint.brentq

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(penpath.odeint, "brentq", counted)
    return calls


def test_exponential_decay_accuracy():
    res = integrate(lambda t, y: -y, 0.0, 2.0, [1.0])
    assert res.status == "reached_t_max"
    assert res.y_end[0] == pytest.approx(np.exp(-2.0), rel=1e-8)


def test_determinism():
    r1 = integrate(lambda t, y: np.sin(t) * y, 0.0, 3.0, [1.0])
    r2 = integrate(lambda t, y: np.sin(t) * y, 0.0, 3.0, [1.0])
    assert r1.y_end[0] == r2.y_end[0]
    assert [s.t_end for s in r1.steps] == [s.t_end for s in r2.steps]


def test_dense_output_tracks_reference():
    # Harmonic oscillator: y = (cos t, -sin t).
    res = integrate(lambda t, y: np.array([y[1], -y[0]]), 0.0, 5.0, [1.0, 0.0])
    for t in np.linspace(0.1, 4.9, 37):
        y = res.interpolate(t)
        assert abs(y[0] - np.cos(t)) < 1e-7
        assert abs(y[1] + np.sin(t)) < 1e-7


def test_max_step_default():
    res = integrate(lambda t, y: -y, 0.0, 10.0, [1.0])
    spans = [s.t_end - s.t_start for s in res.steps]
    assert max(spans) <= 1.0 + 1e-12


def test_linear_event_location():
    events = rows_of(lambda t, y: y[0])
    res = integrate(lambda t, y: [-1.0], 0.0, 5.0, [1.0], events=events)
    assert res.status == "event"
    assert list(res.event_rows) == [0]
    assert abs(res.t_end - 1.0) < 1e-10
    assert abs(res.y_end[0]) < 1e-9


def test_last_step_is_the_whole_step_an_event_cuts_short():
    # The last step's size goes on to the next integration as its first, so
    # it is the accepted step's, not the part of it before the event.
    events = rows_of(lambda t, y: y[0] - 0.3)
    res = integrate(lambda t, y: -y, 0.0, 5.0, [1.0], events=events)
    step = res.steps[-1]
    assert res.status == "event" and res.t_end == step.t_end
    assert res.last_step == step.interpolant.h > res.t_end - step.t_start
    whole = integrate(lambda t, y: -y, 0.0, 5.0, [1.0])
    assert whole.last_step == whole.steps[-1].t_end - whole.steps[-1].t_start


def test_rising_row_never_fires():
    # y rising through zero: an event fires only when its g falls.
    events = rows_of(lambda t, y: y[0])
    res = integrate(lambda t, y: [1.0], 0.0, 5.0, [-1.0], events=events)
    assert res.status == "reached_t_max"


def test_event_starting_at_zero_departing_then_crossing():
    # y = sin(t): event starts at 0, departs positive (rearms), fires at pi.
    events = rows_of(lambda t, y: y[0])
    res = integrate(lambda t, y: [np.cos(t)], 0.0, 6.0, [0.0], events=events)
    assert res.status == "event"
    # Root location is exact on the computed trajectory (see the linear
    # test); the remaining gap to pi is the trajectory's integration error.
    assert abs(res.t_end - np.pi) < 1e-7


def test_event_starting_at_zero_moving_into_crossing():
    # Starts at zero and immediately falls: it fires at -event_tol, no
    # earlier than the dead band.
    events = rows_of(lambda t, y: y[0])
    res = integrate(lambda t, y: [-1.0], 0.0, 5.0, [0.0], events=events)
    assert res.status == "event"
    assert 1e-13 <= res.t_end < 1e-7


def test_event_starting_at_zero_does_not_refire_on_jitter():
    # Stays within the event tolerance band forever: no event.
    events = rows_of(lambda t, y: y[0])
    res = integrate(
        lambda t, y: [np.cos(t) * 1e-11], 0.0, 5.0, [0.0], events=events
    )
    assert res.status == "reached_t_max"


def test_earliest_of_two_crossings_in_a_step_wins(brentq_calls):
    # Both rows cross in the same step, 1e-7 apart: one root search locates
    # the earlier, and the later is outside its cluster.
    events = rows_of(lambda t, y: y[0] - 0.5 + 1e-7, lambda t, y: y[0] - 0.5)
    res = integrate(lambda t, y: [-1.0], 0.0, 2.0, [1.0], events=events)
    assert res.status == "event"
    assert list(res.event_rows) == [1]
    assert abs(res.t_end - 0.5) < 1e-10
    assert len(brentq_calls) == 1
    t_old, t_new = brentq_calls[0]
    assert t_old < 0.5 and 0.5 + 1e-7 < t_new


def test_crossings_within_the_cluster_tolerance_fire_together(brentq_calls):
    events = rows_of(lambda t, y: y[0] - 0.5, lambda t, y: 2.0,
                     lambda t, y: y[0] - 0.5 + 5e-11)
    res = integrate(lambda t, y: [-1.0], 0.0, 2.0, [1.0], events=events)
    assert res.status == "event"
    assert list(res.event_rows) == [0, 2]
    assert abs(res.t_end - 0.5) < 1e-10
    assert len(brentq_calls) == 1


def test_location_evaluates_only_the_fired_rows(monkeypatch):
    asked = []
    funcs = rows_of(lambda t, y: y[0] - 0.5, lambda t, y: 2.0 - y[0], lambda t, y: y[0] + 1.0)

    def events(t, y, rows=None):
        asked.append(None if rows is None else list(rows))
        return funcs(t, y) if rows is None else funcs(t, y, rows)

    # brentq is handed the step ends' values, which location evaluated
    # before calling it, so each location evaluation is one brentq asked for.
    brentq_evals = []
    brentq = penpath.odeint.brentq

    def counted(f, *args, **kwargs):
        return brentq(lambda t: brentq_evals.append(t) or f(t), *args, **kwargs)

    monkeypatch.setattr(penpath.odeint, "brentq", counted)
    res = integrate(lambda t, y: [-1.0], 0.0, 2.0, [1.0], events=events)
    assert list(res.event_rows) == [0]
    located = [rows for rows in asked if rows is not None]
    assert located and all(rows == [0] for rows in located)
    assert len(located) == len(brentq_evals)


def test_non_finite_derivative_raises():
    def rhs(t, y):
        return [np.nan if t > 0.5 else -1.0]

    with pytest.raises(NonFiniteDerivative):
        integrate(rhs, 0.0, 2.0, [1.0])


def test_step_size_underflow_near_singularity():
    with pytest.raises(StepSizeUnderflow):
        integrate(lambda t, y: [1.0 / (1.0 - t)], 0.0, 2.0, [0.0])


def test_interpolate_outside_range_rejected():
    res = integrate(lambda t, y: -y, 0.0, 1.0, [1.0])
    with pytest.raises(ValueError):
        res.interpolate(1.5)


def test_nan_event_value_in_the_root_search_raises_non_finite_derivative():
    # Finite at every step end, NaN wherever the crossing is searched for.
    def events(t, y, rows=None):
        return np.array([y[0] - 0.5 if rows is None else np.nan])

    with pytest.raises(NonFiniteDerivative):
        integrate(lambda t, y: [-1.0], 0.0, 2.0, [1.0], events=events)


def test_nan_event_value_at_a_step_end_raises_non_finite_derivative():
    # A NaN at a step end would otherwise never fire and silently disarm.
    events = rows_of(lambda t, y: np.nan if t > 0.5 else 1.0)
    with pytest.raises(NonFiniteDerivative):
        integrate(lambda t, y: [-1.0], 0.0, 2.0, [1.0], events=events)


def test_root_search_iteration_cap_raises_a_solver_error(monkeypatch):
    with pytest.raises(EventLocationFailed):
        penpath.odeint.brentq(lambda t: t ** 3 - 0.3, 0.0, 1.0, xtol=1e-12, maxiter=2)
    assert issubclass(EventLocationFailed, PenPathError)
    monkeypatch.setattr(penpath.odeint, "brentq", partial(penpath.odeint.brentq, maxiter=1))
    events = rows_of(lambda t, y: y[0] * (1.0 + y[0] ** 2))
    with pytest.raises(EventLocationFailed):
        integrate(lambda t, y: [-1.0], 0.0, 5.0, [1.0], events=events)


def test_same_sign_endpoints_whose_product_underflows_keep_the_step_end():
    # 1e-200 * 1e-200 rounds to zero; the values still share a sign.
    assert _locate(lambda t: 1e-200, 0.0, 1.0) == 1.0
    assert _locate(lambda t: -1e-200, 0.0, 1.0) == 1.0


def test_importing_the_package_loads_no_scipy_integrate_or_optimize():
    src = str(Path(penpath.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, penpath, penpath.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
