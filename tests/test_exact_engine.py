"""The exact piecewise-linear engine against the ODE engine.

Constant-Hessian losses follow the exact engine.  Wrapping a quadratic loss
in a model that does not declare its Hessian constant forces the same
problem through the ODE engine, so every path here is computed twice.
"""

import warnings

import numpy as np
import pytest

from penpath.constraints import ConstraintSystem, fused_lasso, isotone, lasso, trend_filter
from penpath.losses import GlmLoss, LossModel, QuadraticLoss
from penpath.odeint import EVENT_CLUSTER_TOL, integrate
from penpath.path import _firing_times, run_path

KINK_RTOL = 1e-9
BETA_TOL = 1e-9
COEF_TOL = 1e-9


class OdeOnly(LossModel):
    """Delegates to a constant-Hessian loss but leaves constant_hessian False."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def dim(self):
        return self.inner.dim

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        return self.inner.gradient(x)

    def hessian(self, x):
        return self.inner.hessian(x)

    def newton_start(self):
        return self.inner.newton_start()


def quiet_path(model, cs, **options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_path(model, cs, **options)


def kink_sequence(solution):
    return [(k.row_kind, k.index, k.from_set, k.to_set, k.df_after) for k in solution.kinks]


def assert_engines_agree(model, cs, **options):
    exact = quiet_path(model, cs, **options)
    ode = quiet_path(OdeOnly(model), cs, **options)
    assert exact.status == ode.status
    assert exact.mode == ode.mode
    assert kink_sequence(exact) == kink_sequence(ode)
    for k_exact, k_ode in zip(exact.kinks, ode.kinks):
        assert abs(k_exact.rho - k_ode.rho) <= KINK_RTOL * abs(k_ode.rho)
    for rho in exact.rho_grid(20):
        assert np.abs(exact.beta_at(rho) - ode.beta_at(rho)).max() <= BETA_TOL
        if exact.config_at(rho) == ode.config_at(rho):
            gap = exact.coefficients_at(rho).r_z - ode.coefficients_at(rho).r_z
            assert np.abs(gap).max(initial=0.0) <= COEF_TOL
    return exact


class TargetLoss(LossModel):
    """A user loss with only the required members: ||x - target||^2 / 2."""

    def __init__(self, target, constant_hessian):
        self.target = np.asarray(target, dtype=float)
        self.constant_hessian = constant_hessian

    @property
    def dim(self):
        return self.target.size

    def value(self, x):
        return 0.5 * float(np.sum((x - self.target) ** 2))

    def gradient(self, x):
        return x - self.target

    def hessian(self, x):
        return np.eye(self.dim)


@pytest.mark.parametrize("constant", [True, False], ids=["exact", "ode"])
def test_user_loss_needs_only_value_gradient_hessian(constant):
    # event_tol as in test_soft_threshold_kinks_are_exact, for the ODE engine
    solution = run_path(TargetLoss([2.0, -1.0], constant), lasso(2), event_tol=1e-12)
    assert solution.status == "terminated"
    assert [k.index for k in solution.kinks] == [1, 0]
    np.testing.assert_allclose([k.rho for k in solution.kinks], [1.0, 2.0], atol=1e-9)
    np.testing.assert_allclose(solution.terminal_beta, 0.0, atol=1e-9)


def test_constant_hessian_flags():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(6, 2)), rng.normal(size=6)
    assert QuadraticLoss.from_target([1.0]).constant_hessian
    assert GlmLoss(x, y, family="normal").constant_hessian
    assert not GlmLoss(x, (y > 0).astype(float), family="logistic").constant_hessian
    assert not OdeOnly(QuadraticLoss.from_target([1.0])).constant_hessian


# -- acceptance checks 1-3 ----------------------------------------------------

def test_soft_threshold_kinks_are_exact():
    model = QuadraticLoss.from_target([2.0, -1.0])
    # The first kink falls on the ODE engine's chunk boundary at rho = 1,
    # where the event restarts disarmed and fires at -event_tol: the ODE
    # kink is event_tol late.  A tighter event_tol takes that out of the
    # comparison; the exact engine's kinks do not depend on it.
    assert_engines_agree(model, lasso(2), event_tol=1e-12)
    exact = run_path(model, lasso(2))
    assert [k.index for k in exact.kinks] == [1, 0]
    assert abs(exact.kinks[0].rho - 1.0) <= 1e-12
    assert abs(exact.kinks[1].rho - 2.0) <= 1e-12


def test_random_lassos_agree():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = x @ rng.normal(size=5) + 0.5 * rng.normal(size=20)
        assert_engines_agree(QuadraticLoss.from_least_squares(x, y), lasso(5))


def test_isotone_paths_agree():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = 2.0 * rng.normal(size=10)
        assert_engines_agree(QuadraticLoss.from_target(y), isotone(10))


# -- the quadratic problems of test_path_modes --------------------------------

@pytest.mark.parametrize("mode", ["direct", "nullspace"])
def test_fused_lasso_agrees(mode):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 6))
    y = x @ np.array([2.0, 2.0, 0.0, 0.0, -1.0, -1.0]) + 0.2 * rng.standard_normal(30)
    assert_engines_agree(QuadraticLoss.from_least_squares(x, y), fused_lasso(6), mode=mode)


@pytest.mark.parametrize("mode", ["direct", "nullspace"])
def test_inequality_rows_agree(mode):
    rng = np.random.default_rng(19)
    model = QuadraticLoss.from_target(rng.standard_normal(6) * 1.5)
    assert_engines_agree(model, isotone(6), mode=mode)


@pytest.mark.parametrize("mode", ["direct", "nullspace"])
def test_trend_filter_agrees(mode):
    rng = np.random.default_rng(3)
    y = 0.4 * np.arange(9.0) + rng.standard_normal(9)
    assert_engines_agree(QuadraticLoss.from_target(y), trend_filter(9, order=1), mode=mode)


def test_backward_lasso_agrees():
    exact = assert_engines_agree(
        QuadraticLoss.from_target([2.0, -1.0]), lasso(2), direction="backward", rho_min=1e-4
    )
    assert exact.status == "rho_min"


def test_normal_glm_lasso_agrees():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 6))
    y = x @ np.array([1.5, 0.0, -1.0, 0.0, 0.5, 0.0]) + 0.3 * rng.normal(size=40)
    assert_engines_agree(GlmLoss(x, y, family="normal", scale=2.0), lasso(6))


@pytest.mark.parametrize("mode", ["direct", "nullspace"])
def test_coefficient_hits_agree(mode):
    # Correlated designs make penalized rows leave the active set again.
    hits = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(30, 2))
        x = np.repeat(z, 3, axis=1) + 0.3 * rng.normal(size=(30, 6))
        y = x @ np.array([2.0, -1.0, 0.5, 1.0, 1.0, -2.0]) + rng.normal(size=30)
        model = QuadraticLoss.from_least_squares(x, y)
        for cs in (lasso(6), fused_lasso(6)):
            exact = assert_engines_agree(model, cs, mode=mode)
            hits += sum(k.kind == "coefficient_hit" for k in exact.kinks)
    assert hits >= 3


def test_singular_hessian_falls_back_to_nullspace():
    # f = (beta_1 - beta_2 - 1)^2 / 2 penalizing beta_1 + beta_2: the direct
    # mode cannot factor H and both engines continue in nullspace mode.
    v = np.array([1.0, -1.0])
    model = QuadraticLoss(np.outer(v, v), v, 0.5)
    cs = ConstraintSystem(np.array([[1.0, 1.0]]), np.zeros(1), np.zeros((0, 2)), np.zeros(0))
    exact = assert_engines_agree(
        model, cs, direction="backward", start_beta=[0.5, -0.5], rho_start=1.0, rho_min=0.05
    )
    assert exact.mode == "nullspace"
    assert any("nullspace" in w for w in exact.warnings)


# -- exact-engine bookkeeping -------------------------------------------------

def test_coefficients_follow_the_closed_form():
    # After beta_2 hits zero at rho = 1 its coefficient is s = -1/rho.
    solution = run_path(QuadraticLoss.from_target([2.0, -1.0]), lasso(2))
    for rho in (1.2, 1.6, 1.95):
        assert solution.coefficients_at(rho).s[0] == pytest.approx(-1.0 / rho, rel=1e-14)


def test_rho_max_ends_an_exact_segment():
    solution = run_path(QuadraticLoss.from_target([2.0, -1.0]), lasso(2), rho_max=0.6)
    assert solution.status == "rho_max"
    assert solution.rho_end == 0.6
    assert np.abs(solution.terminal_beta - [1.4, -0.4]).max() <= 1e-15


def test_firing_rules_match_odeint():
    # Linear event functions g = start + slope (t - t0): armed and falling,
    # rising, disarmed (within event_tol of zero) either way, exactly at
    # -event_tol, and already beyond the boundary.  One integrate call on
    # all eight fires the earliest and its cluster; dropping those rows and
    # integrating again walks through every firing time in turn.
    t0, t_max, tol = 2.0, 10.0, 1e-9
    start = np.array([0.5, 0.5, 0.0, 5e-10, -tol, 0.0, -0.5, -0.5])
    slope = np.array([-1.0, 1.0, -1.0, -2.0, -1.0, 1.0, -1.0, 1.0])

    def falls_to(level):
        with np.errstate(divide="ignore"):
            return np.where(slope < 0.0, t0 + (level - start) / slope, np.inf)

    times = _firing_times(start, falls_to, tol, t0, t_max)
    assert np.isinf(times).sum() == 4
    live, calls = np.arange(start.size), 0
    while True:
        g0, k = start[live], slope[live]
        result = integrate(lambda t, y: np.zeros(1), t0, t_max, np.zeros(1),
                           lambda t, y, rows=slice(None): (g0 + k * (t - t0))[rows],
                           event_tol=tol)
        calls += 1
        first = times[live].min()
        if result.status != "event":
            assert first == np.inf
            break
        assert result.t_end == pytest.approx(first, abs=1e-12)
        fired = live[result.event_rows]
        assert list(fired) == list(live[times[live] - first <= EVENT_CLUSTER_TOL])
        live = np.setdiff1d(live, fired)
    assert calls == 5 and live.size == 4
