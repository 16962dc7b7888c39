"""Adaptive embedded Runge-Kutta integration with event detection.

Wraps scipy's RK45 stepper pair in a loop that owns event semantics:
directional zero crossings located on the dense output, and arming logic so
an event function that starts at zero fires only if it moves in its crossing
direction (a constraint that just left the active set must not immediately
re-trigger).
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq

from .errors import NonFiniteDerivative, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-10
DEFAULT_EVENT_TOL = 1e-9
DEAD_BAND = 1e-12


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function with a crossing direction.

    direction -1 fires on positive-to-negative crossings, +1 on
    negative-to-positive, 0 on either.  Events starting at zero (within
    event_tol) are disarmed: they fire only once the value moves beyond
    event_tol in the crossing direction, and re-arm if it moves the other
    way first.
    """

    func: Callable[[float, np.ndarray], float]
    direction: int = -1


@dataclass(frozen=True)
class StepResult:
    """One accepted integrator step with its dense-output interpolant."""

    t_start: float
    t_end: float
    y_start: np.ndarray
    y_end: np.ndarray
    interpolant: Callable[[float], np.ndarray]
    error_norm: float


@dataclass
class IntegrationResult:
    """Trajectory plus the reason integration stopped.

    status is "reached_t_max" or "event"; on an event, event_index / t_event
    / y_event identify the earliest crossing and step_events lists every
    crossing located in the final step as (index, t) sorted by time.
    """

    steps: list
    status: str
    t0: float
    y0: np.ndarray
    t_end: float
    y_end: np.ndarray
    event_index: Optional[int] = None
    t_event: Optional[float] = None
    y_event: Optional[np.ndarray] = None
    step_events: list = field(default_factory=list)

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


def _crossed(g_old, g_new, direction):
    if direction <= 0 and g_old > 0.0 >= g_new:
        return True
    if direction >= 0 and g_old < 0.0 <= g_new:
        return True
    return False


def _locate(f, a, b):
    """Root of f in [a, b] given a sign change between the endpoints.

    The endpoint values are re-evaluated through the dense output, which can
    differ from the stepper's endpoint values by rounding; degenerate sign
    patterns fall back to the nearest endpoint instead of failing.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0 or fa * fb > 0.0:
        return b
    return brentq(f, a, b, xtol=1e-12)


def integrate(
    rhs,
    t0,
    t_max,
    y0,
    events: Sequence[EventSpec] = (),
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
    events : sequence of EventSpec, monitored on every accepted step and
        located on the dense output by bracketed root finding.
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

    g_prev = [ev.func(t0, y0) for ev in events]
    armed = [abs(g) > event_tol for g in g_prev]
    dead_band_end = t0 + DEAD_BAND * (1.0 + abs(t0))

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
        y_new = stepper.y.copy()
        y_old = np.asarray(dense(t_old), dtype=float)
        err = stepper.h_previous * (stepper.K.T @ stepper.E)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
        error_norm = float(np.sqrt(np.mean((err / scale) ** 2))) if err.size else 0.0
        steps.append(StepResult(t_old, t_new, y_old, y_new, dense, error_norm))

        located = []
        for i, ev in enumerate(events):
            g_new = ev.func(t_new, y_new)
            g_old = g_prev[i]
            g_prev[i] = g_new
            if armed[i]:
                if _crossed(g_old, g_new, ev.direction):
                    t_star = _locate(lambda t, e=ev: e.func(t, dense(t)), t_old, t_new)
                    located.append((t_star, i))
                continue
            # Disarmed: the function started at zero.  Fire only once it has
            # clearly moved in the crossing direction; re-arm if it departs
            # the other way.
            fire_neg = ev.direction <= 0 and g_new < -event_tol
            fire_pos = ev.direction >= 0 and g_new > event_tol
            if ev.direction == 0:
                # Ambiguous from a zero start: departing either way re-arms.
                if abs(g_new) > event_tol:
                    armed[i] = True
                continue
            if fire_neg or fire_pos:
                offset = -event_tol if fire_neg else event_tol
                t_star = _locate(
                    lambda t, e=ev, o=offset: e.func(t, dense(t)) - o, t_old, t_new
                )
                t_star = max(t_star, min(dead_band_end, t_new))
                located.append((t_star, i))
            elif abs(g_new) > event_tol:
                armed[i] = True

        if located:
            located.sort()
            t_star, idx = located[0]
            y_star = np.asarray(dense(t_star), dtype=float)
            steps[-1] = StepResult(t_old, t_star, y_old, y_star, dense, error_norm)
            result.status = "event"
            result.event_index = idx
            result.t_event = t_star
            result.y_event = y_star
            result.step_events = [(i, t) for t, i in located]
            result.t_end = t_star
            result.y_end = y_star
            return result

        result.t_end = t_new
        result.y_end = y_new

    return result
