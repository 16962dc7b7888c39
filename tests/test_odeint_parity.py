"""The in-house Dormand-Prince stepper and Brent search against scipy.

odeint ports scipy.integrate.RK45 and scipy.optimize.brentq operation for
operation, so every step, interpolant value, root and evaluation must be
bitwise equal to the installed scipy's, which serves here as the oracle.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.optimize import brentq as scipy_brentq

from penpath.errors import EventLocationFailed, StepSizeUnderflow
from penpath.odeint import DormandPrince, brentq, integrate

# Interpolant probes per step, as fractions of the step.
FRACTIONS = (0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0)


def scipy_trace(fun, t0, t_bound, y0, rtol, atol, max_step, first_step=None):
    """(t, y, h_abs, dense values) after the start and each accepted step,
    ("failed", t) on a step-size underflow, and the rhs call count."""
    stepper = RK45(fun, t0, np.asarray(y0, dtype=float), t_bound,
                   rtol=rtol, atol=atol, max_step=max_step, first_step=first_step)
    trace = [(stepper.t, stepper.y.copy(), stepper.h_abs, [])]
    while stepper.status == "running":
        stepper.step()
        if stepper.status == "failed":
            trace.append(("failed", stepper.t))
            break
        dense = stepper.dense_output()
        t_old, t = stepper.t_old, stepper.t
        probes = [dense(t_old + q * (t - t_old)) for q in FRACTIONS]
        trace.append((t, stepper.y.copy(), stepper.h_abs, probes))
    return trace, stepper.nfev


def our_trace(fun, t0, t_bound, y0, rtol, atol, max_step):
    calls = []

    def counted(t, y):
        calls.append(t)
        return np.asarray(fun(t, y), dtype=float)

    stepper = DormandPrince(counted, t0, np.asarray(y0, dtype=float), t_bound,
                            max_step, rtol, atol)
    trace = [(stepper.t, stepper.y.copy(), stepper.h_abs, [])]
    while not stepper.finished:
        t_old = stepper.t
        try:
            dense = stepper.step()
        except StepSizeUnderflow:
            trace.append(("failed", stepper.t))
            break
        t = stepper.t
        probes = [dense(t_old + q * (t - t_old)) for q in FRACTIONS]
        trace.append((t, stepper.y.copy(), stepper.h_abs, probes))
    return trace, len(calls)


def assert_bitwise_equal(expected, actual):
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert len(got) == len(want)
        if want[0] == "failed":
            assert got == want
            continue
        (t, y, h_abs, probes), (t2, y2, h_abs2, probes2) = want, got
        assert t2 == t and h_abs2 == h_abs
        assert np.array_equal(y2, y)
        assert len(probes2) == len(probes)
        assert all(np.array_equal(p2, p) for p, p2 in zip(probes, probes2))


def compare(fun, t0, t_bound, y0, rtol=1e-8, atol=1e-10, max_step=np.inf):
    """Both traces, checked bitwise equal; returns scipy's trace and the
    number of rejected steps."""
    expected, nfev = scipy_trace(fun, t0, t_bound, y0, rtol, atol, max_step)
    actual, calls = our_trace(fun, t0, t_bound, y0, rtol, atol, max_step)
    assert_bitwise_equal(expected, actual)
    assert calls == nfev
    accepted = sum(1 for entry in expected[1:] if entry[0] != "failed")
    return expected, (nfev - 2) // 6 - accepted


def oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_steps_that_are_only_accepted():
    trace, rejected = compare(lambda t, y: -y, 0.0, 2.0, [1.0], max_step=0.2)
    assert rejected == 0 and len(trace) > 10


def test_steps_with_rejections():
    _, rejected = compare(oscillator, 0.0, 7.3, [1.0, 0.0], rtol=1e-6, atol=1e-9)
    assert rejected > 0
    forced = lambda t, y: np.array([y[1], -400.0 * y[0]]) + np.sin(30.0 * t)
    _, rejected = compare(forced, 0.0, 3.0, [1.0, 0.0], rtol=1e-7, atol=1e-9)
    assert rejected > 10


def test_last_step_is_clipped_to_t_bound():
    trace, _ = compare(oscillator, 0.25, 7.3, [1.0, 0.0], max_step=0.73)
    (t_prev, _, h_prev, _), (t_last, *_) = trace[-2], trace[-1]
    assert t_last == 7.3
    assert t_last - t_prev < h_prev


@pytest.mark.parametrize("seed", range(12))
def test_seeded_linear_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = rng.normal(size=(n, n)) * rng.uniform(0.1, 5.0)
    w = rng.uniform(0.5, 20.0)
    t0 = float(rng.uniform(-2.0, 2.0))
    t_bound = t0 + float(rng.uniform(0.1, 5.0))
    compare(lambda t, y: m @ y + np.sin(w * t), t0, t_bound, rng.normal(size=n),
            rtol=float(10 ** rng.uniform(-12, -3)), atol=float(10 ** rng.uniform(-12, -4)),
            max_step=(t_bound - t0) / 10)


def test_tiny_rel_tol_is_raised_to_100_eps_with_a_warning():
    with pytest.warns(UserWarning):
        DormandPrince(lambda t, y: -y, 0.0, np.array([1.0]), 2.0, 0.2, 1e-17, 1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trace, _ = compare(lambda t, y: -y, 0.0, 2.0, [1.0], rtol=1e-17, max_step=0.2)
    assert len(trace) > 10


def test_step_size_underflow_at_the_same_point():
    trace, _ = compare(lambda t, y: [1.0 / (1.0 - t)], 0.0, 2.0, [0.0], max_step=0.2)
    assert trace[-1][0] == "failed" and 0.99 < trace[-1][1] < 1.0


@pytest.mark.parametrize("first_step", [1e-7, 0.01, 0.3, 2.0])
@pytest.mark.parametrize("seed", range(4))
def test_integrate_from_a_given_first_step(seed, first_step):
    # integrate from a first_step, as a path's later chunks and segments
    # start: no probe, and every step, interpolant value and rhs call is
    # RK45(first_step=...)'s; a first_step above max_step is clipped by the
    # step, as RK45 clips it.
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    t0, t_bound = float(rng.uniform(-1.0, 1.0)), 4.0
    max_step = float(rng.uniform(0.2, 1.0))
    fun = lambda t, y: m @ y + np.sin(3.0 * t)
    y0 = rng.normal(size=3)
    expected, nfev = scipy_trace(fun, t0, t_bound, y0, 1e-8, 1e-10, max_step, first_step)
    calls = []
    result = integrate(lambda t, y: calls.append(t) or fun(t, y), t0, t_bound, y0,
                       max_step=max_step, first_step=first_step)
    assert len(calls) == nfev
    assert [step.t_end for step in result.steps] == [entry[0] for entry in expected[1:]]
    for step, (_, _, _, probes) in zip(result.steps, expected[1:]):
        t_old, t = step.t_start, step.t_end
        assert all(np.array_equal(step.interpolant(t_old + q * (t - t_old)), probe)
                   for q, probe in zip(FRACTIONS, probes))
    assert np.array_equal(result.y_end, expected[-1][1])
    assert result.last_step == expected[-1][0] - expected[-2][0]


# ---------------------------------------------------------------------------
# Brent's method.

def evaluations(root, f, a, b, **kwargs):
    """The root (or the name of the failure) and the points f was asked for."""
    asked = []

    def g(x):
        asked.append(x)
        return f(x)

    try:
        result = root(g, a, b, **kwargs)
    except (RuntimeError, EventLocationFailed) as exc:
        result = type(exc).__name__
    return result, asked


def brackets(seed, count=150):
    """Seeded functions with a sign change on [a, b], one in 12 with its
    zero at an endpoint."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        c = rng.normal(size=3)
        r = float(rng.uniform(-2.0, 2.0))
        kind = k % 4
        if kind == 0:
            f = lambda x, c=c, r=r: (x - r) * (1.0 + c[0] ** 2 + c[1] ** 2 * x * x)
        elif kind == 1:
            f = lambda x, c=c, r=r: math.tanh(5.0 * c[0] * (x - r)) + 1e-3 * c[1]
        elif kind == 2:
            f = lambda x, c=c, r=r: (x - r) ** 3 + 1e-4 * c[2] * (x - r)
        else:
            f = lambda x, c=c, r=r: min(x - r, 0.5 * (x - r)) + 1e-6 * c[2]
        a, b = r - float(rng.uniform(0.01, 3.0)), r + float(rng.uniform(0.01, 3.0))
        if k % 12 == 0:
            a = r
        elif k % 12 == 6:
            b = r
        fa, fb = f(a), f(b)
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) != (fb > 0.0):
            yield f, a, b


@pytest.mark.parametrize("xtol", [1e-12, 1e-14])
@pytest.mark.parametrize("seed", [0, 1])
def test_brent_matches_scipy_root_and_evaluations(seed, xtol):
    cases = endpoint_roots = 0
    for f, a, b in brackets(seed):
        expected = evaluations(scipy_brentq, f, a, b, xtol=xtol)
        assert evaluations(brentq, f, a, b, xtol=xtol) == expected
        cases += 1
        endpoint_roots += expected[0] in (a, b) and len(expected[1]) <= 2
    assert cases > 100 and endpoint_roots > 5


def test_brent_iteration_cap_fails_after_the_same_evaluations():
    capped = 0
    for f, a, b in brackets(2, count=60):
        scipy_result, scipy_asked = evaluations(scipy_brentq, f, a, b, xtol=1e-14, maxiter=4)
        result, asked = evaluations(brentq, f, a, b, xtol=1e-14, maxiter=4)
        assert asked == scipy_asked
        if scipy_result == "RuntimeError":
            assert result == "EventLocationFailed"
            capped += 1
        else:
            assert result == scipy_result
    assert capped > 10
