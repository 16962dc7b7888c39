"""Adaptive embedded Runge-Kutta integration with vector event location.

The module owns its step loop and its root search.  DormandPrince is the
Dormand-Prince 5(4) pair (Dormand & Prince 1980) with Shampine's quartic
dense output and the step-size control of scipy.integrate.RK45, and brentq
is Brent's method (Brent 1973, ch. 4) as scipy.optimize.brentq runs it.
Both repeat scipy 1.17's arithmetic operation for operation, so they give
its steps, interpolants, roots and evaluation sequences bit for bit; the
tests check that against the installed scipy.  Neither loads
scipy.integrate or scipy.optimize.

integrate runs the stepper in a loop that owns the event semantics.  One
callable gives the value g of every event, and an event fires when its g
falls through its level (FiringRule; a constraint that just left the active
set starts at zero and must not immediately re-trigger).  The callable runs
once at each accepted step end.  In the first step where some events fell
through their levels, one bracketed root search on the smallest of their
g - level over the step's dense output locates the earliest crossing, and
the fired events that have also crossed by EVENT_CLUSTER_TOL after it form
the cluster of simultaneous events.
"""

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EventLocationFailed, NonFiniteDerivative, StepSizeUnderflow

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-10
DEFAULT_EVENT_TOL = 1e-9
DEAD_BAND = 1e-12
# Events closer than this (in t) are treated as simultaneous.
EVENT_CLUSTER_TOL = 1e-10

_EPS = np.finfo(float).eps
# Brent's default relative tolerance, and the smallest it accepts.
_BRENT_RTOL = 4 * _EPS
# The smallest relative tolerance the stepper honours; smaller ones are
# raised to it with a warning.
_MIN_REL_TOL = 100 * _EPS

# The Dormand-Prince 5(4) tableau: stage times C, stage weights A, the
# fifth-order weights B, the error weights E (fifth minus fourth order, with
# the last stage) and Shampine's (1986) quartic dense-output coefficients P.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# Stage s's weights on the stages before it, and its time fraction.
_STAGES = [(s, _A[s, :s], _C[s]) for s in range(1, 6)]

# Step-size control: scale the asymptotic estimate by SAFETY, and change a
# step by at least MIN_FACTOR and at most MAX_FACTOR; the error estimator
# has order 4.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5


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
    events that fire there (the simultaneous cluster).  last_step is the
    size of the last accepted step, whole even where an event cuts it
    short, and a first_step for the next integration.
    """

    steps: list
    status: str
    t_end: float
    y_end: np.ndarray
    event_rows: Optional[np.ndarray] = None
    last_step: Optional[float] = None

    def interpolate(self, t):
        """Evaluate the trajectory at time t inside the integrated range."""
        lo, hi = self.steps[0].t_start, self.steps[-1].t_end
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            raise ValueError(f"t={t} outside integrated range [{lo}, {hi}]")
        # integrate runs forward in t, so this is the first step that does
        # not end before t, or the last step.
        i = bisect_left(self.steps, t, key=lambda step: step.t_end)
        step = self.steps[min(i, len(self.steps) - 1)]
        return np.asarray(step.interpolant(t), dtype=float)


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _DenseOutput:
    """The quartic interpolant of one Dormand-Prince step from t_old,
    called at a scalar t."""

    __slots__ = ("t_old", "h", "Q", "y_old")

    def __init__(self, t_old, t, y_old, Q):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.Q = Q

    def __call__(self, t):
        x = (t - self.t_old) / self.h
        x2 = x * x
        x3 = x2 * x
        y = self.h * np.dot(self.Q, np.array((x, x2, x3, x3 * x)))
        y += self.y_old
        return y


class DormandPrince:
    """Adaptive Dormand-Prince 5(4) steps of y' = fun(t, y) from t0 up to
    t_bound > t0.

    fun must return a float array.  It is called once to start (the
    initial derivative) and six times per attempted step, the last at the
    step's end.  Without a first_step, the start also calls it once more
    to choose the first step (_initial_step); a first_step is taken as
    given, and step() clips it to max_step and t_bound.  A step is accepted
    when the RMS of its error estimate over atol + rtol max(|y|, |y_new|)
    is below one.  t, y and h_abs (the next step's size) are the stepper's
    state after the last accepted step.
    """

    def __init__(self, fun, t0, y0, t_bound, max_step, rtol, atol, first_step=None):
        if max_step <= 0:
            raise ValueError("max_step must be positive")
        if atol < 0:
            raise ValueError("abs_tol must be nonnegative")
        if rtol < _MIN_REL_TOL:
            warnings.warn(
                f"rel_tol={rtol!r} is below 100 machine epsilons; using {_MIN_REL_TOL!r}",
                stacklevel=3,
            )
            rtol = np.maximum(rtol, _MIN_REL_TOL)
        self.fun = fun
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.max_step, self.rtol, self.atol = max_step, rtol, atol
        self.f = fun(t0, y0)
        self.h_abs = self._initial_step() if first_step is None else first_step
        self.K = np.empty((_E.size, y0.size))

    def _initial_step(self):
        """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4)."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval_length, self.max_step)

    @property
    def finished(self):
        return self.t - self.t_bound >= 0

    def step(self):
        """Take one accepted step, clipped to t_bound, and return its dense
        output; raise StepSizeUnderflow when the step needed falls below ten
        spacings of the floating-point numbers at t."""
        t, y = self.t, self.y
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = self.h_abs

        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflow(
                    f"required step size is less than spacing between numbers at t={t}"
                )
            t_new = t + h_abs
            if t_new - self.t_bound > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new = self._rk_step(t, y, h)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = _rms(np.dot(self.K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True

        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        return _DenseOutput(t, t_new, y, self.K.T.dot(_P))

    def _rk_step(self, t, y, h):
        """The fifth-order solution at t + h and its derivative; the stages
        are left in K."""
        K = self.K
        K[0] = self.f
        for s, a, c in _STAGES:
            dy = np.dot(K[:s].T, a) * h
            K[s] = self.fun(t + c * h, y + dy)
        y_new = y + h * np.dot(K[:-1].T, _B)
        f_new = self.fun(t + h, y_new)
        K[-1] = f_new
        return y_new, f_new


def brentq(f, a, b, xtol=2e-12, rtol=_BRENT_RTOL, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method.

    It evaluates f at a, then at b, and stops at an endpoint where f is
    zero.  Each iteration keeps a bracket [xcur, xblk] with |f(xcur)| the
    smaller, and returns xcur once f(xcur) is zero or half the bracket is
    below delta = (xtol + rtol |xcur|) / 2.  Otherwise it moves xcur by
    inverse quadratic interpolation or the secant step when that is short
    enough, else by bisection, and by at least delta.  A NaN value of f
    raises NonFiniteDerivative, and maxiter iterations without convergence
    raise EventLocationFailed.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NonFiniteDerivative(f"root search: the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant (linear interpolation)
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise EventLocationFailed(
        f"root search did not converge in {maxiter} iterations; last iterate {xcur!r}"
    )


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
    if fb == 0.0 or (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
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
    first_step=None,
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
    first_step : the first step's size, such as the last_step of the
        integration this one continues; by default the stepper chooses it
        with one extra rhs call.

    Raises StepSizeUnderflow when the adaptive step falls below the
    representable minimum before reaching t_max, NonFiniteDerivative when an
    event value is NaN, and EventLocationFailed when the root search for a
    crossing does not converge.
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.ndim != 1 or not y0.size:
        raise ValueError("initial state must be a nonempty vector")
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

    def checked_events(t, y):
        g = np.asarray(events(t, y), dtype=float)
        if np.isnan(g).any():
            raise NonFiniteDerivative(f"NaN event value at t={t}")
        return g

    stepper = DormandPrince(checked_rhs, t0, y0, t_max, max_step, rel_tol, abs_tol, first_step)
    if events is not None:
        g_prev = checked_events(t0, y0)
        rule = FiringRule(g_prev, event_tol, t0)

    steps = []
    result = IntegrationResult(
        steps=steps, status="reached_t_max", t_end=t0, y_end=y0.copy()
    )

    while not stepper.finished:
        t_old = stepper.t
        dense = stepper.step()
        t_new = stepper.t
        result.t_end, result.y_end = t_new, stepper.y.copy()
        result.last_step = t_new - t_old
        steps.append(StepResult(t_old, t_new, dense))
        if events is None:
            continue

        g_new = checked_events(t_new, result.y_end)
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
