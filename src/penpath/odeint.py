"""Adaptive embedded Runge-Kutta integration with vector event location.

Wraps scipy's RK45 stepper in a loop that owns the event semantics.  One
callable gives the value g of every event, and an event fires when its g
falls through its level (FiringRule; a constraint that just left the active
set starts at zero and must not immediately re-trigger).  The callable runs
once at each accepted step end.  In the first step where some events fell
through their levels, one bracketed root search on the smallest of their
g - level over the step's dense output locates the earliest crossing, and
the fired events that have also crossed by EVENT_CLUSTER_TOL after it form
the cluster of simultaneous events.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import NonFiniteDerivative, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-10
DEFAULT_EVENT_TOL = 1e-9
DEAD_BAND = 1e-12
# Events closer than this (in t) are treated as simultaneous.
EVENT_CLUSTER_TOL = 1e-10


class FiringRule:
    """When events that take the values g0 at time t0 fire.

    An event fires when its g falls through its level.  One that starts
    more than event_tol from zero is armed, with level 0, so one that starts
    below -event_tol fires only after rising back through zero.  One that
    starts within event_tol of zero is disarmed: its level is -event_tol
    until g exceeds event_tol, which re-arms it, and it fires no earlier
    than DEAD_BAND after t0.
    """

    def __init__(self, g0, event_tol, t0):
        self.event_tol = event_tol
        self.armed = np.abs(g0) > event_tol
        self.level = np.where(self.armed, 0.0, -event_tol)
        self.dead_band_end = t0 + DEAD_BAND * (1.0 + abs(t0))

    def rearm(self, g):
        rising = g > self.event_tol
        self.armed |= rising
        self.level[rising] = 0.0

    def held(self, times, t_end):
        """Firing times of events that fall through their levels at `times`:
        a disarmed event's is held to the dead band, but not past t_end."""
        return np.where(self.armed, times, np.maximum(times, min(self.dead_band_end, t_end)))


@dataclass(frozen=True)
class StepResult:
    """One accepted integrator step with its dense-output interpolant."""

    t_start: float
    t_end: float
    interpolant: Callable[[float], np.ndarray]


@dataclass
class IntegrationResult:
    """Trajectory plus the reason integration stopped.

    status is "reached_t_max" or "event"; on an event, t_end / y_end are
    the earliest crossing and event_rows holds the ascending indices of the
    events that fire there (the simultaneous cluster).
    """

    steps: list
    status: str
    t0: float
    y0: np.ndarray
    t_end: float
    y_end: np.ndarray
    event_rows: Optional[np.ndarray] = None

    def interpolate(self, t):
        """Evaluate the trajectory at time t inside the integrated range."""
        if not self.steps:
            return self.y0.copy()
        lo, hi = self.steps[0].t_start, self.steps[-1].t_end
        if not (min(lo, hi) - 1e-9 <= t <= max(lo, hi) + 1e-9):
            raise ValueError(f"t={t} outside integrated range [{lo}, {hi}]")
        # The first step that does not end before t in the direction of
        # integration, or the last step.
        if hi >= lo:
            i = bisect_left(self.steps, t, key=lambda step: step.t_end)
        else:
            i = bisect_left(self.steps, -t, key=lambda step: -step.t_end)
        step = self.steps[min(i, len(self.steps) - 1)]
        return np.asarray(step.interpolant(t), dtype=float)


def _locate(f, a, b):
    """Root of f in [a, b] given a sign change between the endpoints.

    The endpoint values are re-evaluated through the dense output, which can
    differ from the stepper's endpoint values by rounding; degenerate sign
    patterns fall back to the nearest endpoint instead of failing.  brentq
    starts by evaluating both endpoints, and is handed these values.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0 or fa * fb > 0.0:
        return b
    known = {a: fa, b: fb}
    return brentq(lambda t: known.pop(t) if t in known else f(t), a, b, xtol=1e-12)


def _first_crossing(events, rule, fired, dense, t_old, t_new):
    """The event time in [t_old, t_new] and its cluster, given the events
    that fell through their levels in that step."""
    level = rule.level[fired]

    def gap(t):
        return events(t, dense(t), fired) - level

    t_star = _locate(lambda t: gap(t).min(), t_old, t_new)
    # Every fired event crosses at t_star or later; a disarmed one holds the
    # event to the dead band.
    t_event = float(rule.held(t_star, t_new)[fired].max())
    if fired.size == 1:
        return t_event, fired
    below = gap(min(t_event + EVENT_CLUSTER_TOL, t_new))
    # The dense output can differ from the step-end values by rounding and
    # leave no value below its level there; the nearest then stands alone.
    return t_event, fired[below <= max(below.min(), 0.0)]


def integrate(
    rhs,
    t0,
    t_max,
    y0,
    events=None,
    rel_tol=DEFAULT_REL_TOL,
    abs_tol=DEFAULT_ABS_TOL,
    event_tol=DEFAULT_EVENT_TOL,
    max_step=None,
):
    """Integrate y' = rhs(t, y) from t0 to t_max or the first event crossing.

    Parameters
    ----------
    rhs : callable (t, y) -> dy/dt.  Non-finite output raises
        NonFiniteDerivative.
    events : callable (t, y, rows) -> the values g of the events `rows`, an
        ascending index array that defaults to every event.  The events fire
        under FiringRule: checked at every accepted step end, the earliest
        crossing located on that step's dense output.
    max_step : maximum step size; defaults to (t_max - t0) / 10 so no single
        step spans a large fraction of the interval.

    Raises StepSizeUnderflow when the adaptive step falls below the
    representable minimum before reaching t_max.
    """
    y0 = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state contains non-finite entries")
    if t_max <= t0:
        raise ValueError("t_max must exceed t0")
    if max_step is None:
        max_step = (t_max - t0) / 10.0

    def checked_rhs(t, y):
        dy = np.asarray(rhs(t, y), dtype=float)
        if not np.all(np.isfinite(dy)):
            raise NonFiniteDerivative(f"non-finite derivative at t={t}")
        return dy

    stepper = RK45(
        checked_rhs, t0, y0, t_bound=t_max, rtol=rel_tol, atol=abs_tol, max_step=max_step
    )
    if events is not None:
        g_prev = np.asarray(events(t0, y0), dtype=float)
        rule = FiringRule(g_prev, event_tol, t0)

    steps = []
    result = IntegrationResult(
        steps=steps, status="reached_t_max", t0=t0, y0=y0.copy(), t_end=t0, y_end=y0.copy()
    )

    while stepper.status == "running":
        message = stepper.step()
        if stepper.status == "failed":
            raise StepSizeUnderflow(message or f"step size underflow at t={stepper.t}")
        t_old, t_new = stepper.t_old, stepper.t
        dense = stepper.dense_output()
        result.t_end, result.y_end = t_new, stepper.y.copy()
        steps.append(StepResult(t_old, t_new, dense))
        if events is None:
            continue

        g_new = np.asarray(events(t_new, result.y_end), dtype=float)
        fired = np.flatnonzero((g_prev >= rule.level) & (g_new < rule.level))
        if fired.size:
            t_event, cluster = _first_crossing(events, rule, fired, dense, t_old, t_new)
            y_event = np.asarray(dense(t_event), dtype=float)
            steps[-1] = StepResult(t_old, t_event, dense)
            result.status = "event"
            result.t_end, result.y_end, result.event_rows = t_event, y_event, cluster
            return result
        rule.rearm(g_new)
        g_prev = g_new

    return result
