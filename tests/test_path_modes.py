"""Path solver modes, directions, and oracle equivalence."""

import numpy as np
import pytest

from penpath.constraints import (
    ConstraintSystem,
    fused_lasso,
    isotone,
    lasso,
    trend_filter,
)
from penpath.errors import (
    NoConvergence,
    ReducedHessianSingular,
    SimultaneousEventWarning,
)
from penpath.losses import (
    GaussianGraphicalLoss,
    GlmLoss,
    LossModel,
    QuadraticLoss,
)
from penpath.losses.newton import unconstrained_minimum
from penpath.oracles import glasso_coordinate, pava, solve_fixed_rho
from penpath.path import (
    MODES,
    PathOptions,
    active_coefficients,
    run_path,
    stationarity_residual,
)


def logistic_model(seed, n=40, p=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    coef = rng.standard_normal(p) * (rng.random(p) < 0.7)
    eta = x @ coef
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return GlmLoss(x, y, family="logistic")


# -- mode agreement -----------------------------------------------------------

def test_three_modes_agree_on_quadratic_fused_lasso():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 6))
    y = x @ np.array([2.0, 2.0, 0.0, 0.0, -1.0, -1.0]) + 0.2 * rng.standard_normal(30)
    model = QuadraticLoss.from_least_squares(x, y)
    cs = fused_lasso(6)
    direct, nullspace = (run_path(model, cs, mode=m) for m in MODES)
    assert abs(direct.rho_end - nullspace.rho_end) < 1e-5
    grid = np.linspace(0.01, min(direct.rho_end, nullspace.rho_end) * 0.99, 11)
    for rho in grid:
        assert np.abs(nullspace.beta_at(rho) - direct.beta_at(rho)).max() < 1e-5


def test_three_modes_agree_on_logistic_fused_lasso():
    model = logistic_model(7)
    cs = fused_lasso(5)
    direct, nullspace = (run_path(model, cs, mode=m) for m in MODES)
    assert len(direct.kinks) == len(nullspace.kinks)
    grid = np.linspace(0.02, min(direct.rho_end, nullspace.rho_end) * 0.98, 9)
    for rho in grid:
        assert np.abs(nullspace.beta_at(rho) - direct.beta_at(rho)).max() < 1e-5


def test_modes_agree_with_inequality_rows():
    rng = np.random.default_rng(19)
    model = QuadraticLoss.from_target(rng.standard_normal(6) * 1.5)
    cs = isotone(6)
    direct, nullspace = (run_path(model, cs, mode=m) for m in MODES)
    for rho in np.linspace(0.02, min(direct.rho_end, nullspace.rho_end) * 0.98, 8):
        assert np.abs(nullspace.beta_at(rho) - direct.beta_at(rho)).max() < 1e-5


def kink_sequence(solution):
    return [(k.row_kind, k.index, k.from_set, k.to_set, k.df_after) for k in solution.kinks]


def test_modes_agree_on_kinks_with_a_row_active_at_the_start():
    # Row 0 vanishes at the unconstrained minimum, so its coefficient at
    # rho = 0 is the limit formula's -Q^T (H dbeta/drho + u); the plain -Q^T u
    # is that limit only where Q^T H P = 0, as in direct mode, and in
    # nullspace mode it put the coefficient beyond 1 and added two kinks.
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 4))
    eta = x @ np.array([1.0, -0.5, 0.0, 0.0])
    y = (rng.random(200) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    model = GlmLoss(x, y, family="logistic")
    b = unconstrained_minimum(model)
    rows = np.array([
        [1.4 * b[1], -1.4 * b[0], 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0, 0.0],
    ])
    cs = ConstraintSystem(rows, np.zeros(4), np.zeros((0, 4)), np.zeros(0))
    direct, nullspace = (run_path(model, cs, mode=m) for m in MODES)
    assert direct.segments[0].config.zero_eq == (0,)
    assert kink_sequence(nullspace) == kink_sequence(direct)
    start = [sol.segments[0].coefficients_at(0.0).r_z for sol in (direct, nullspace)]
    assert abs(start[0][0]) < 1.0
    assert np.abs(start[1] - start[0]).max() < 1e-6


def test_nullspace_mode_on_trend_filter():
    rng = np.random.default_rng(3)
    t = np.arange(9.0)
    y = 0.4 * t + rng.standard_normal(9)
    model = QuadraticLoss.from_target(y)
    cs = trend_filter(9, order=1)
    direct = run_path(model, cs)
    nullspace = run_path(model, cs, mode="nullspace")
    for rho in np.linspace(0.05, direct.rho_end * 0.95, 7):
        assert np.abs(direct.beta_at(rho) - nullspace.beta_at(rho)).max() < 1e-5


# -- forward / backward -------------------------------------------------------

def test_backward_matches_forward_on_lasso():
    model = QuadraticLoss.from_target([2.0, -1.0])
    cs = lasso(2)
    fwd = run_path(model, cs)
    bwd = run_path(model, cs, direction="backward", rho_min=1e-4)
    assert bwd.status == "rho_min"
    assert bwd.segments[0].rho_start == pytest.approx(2.2)
    assert np.abs(bwd.segments[0].beta_start).max() < 1e-9
    assert sorted(round(k.rho, 7) for k in bwd.kinks) == [1.0, 2.0]
    for rho in (0.05, 0.4, 1.3, 1.9):
        assert np.abs(fwd.beta_at(rho) - bwd.beta_at(rho)).max() < 1e-7


def test_backward_auto_start_solves_constrained_problem():
    # Wide V: the minimum-norm solution of V beta = d is not argmin f, so
    # the start must come from the reduced Newton solve.
    target = np.array([3.0, 1.0, -2.0, 0.5])
    model = QuadraticLoss.from_target(target)
    bwd = run_path(model, fused_lasso(4), direction="backward", rho_min=1e-3)
    assert np.abs(bwd.segments[0].beta_start - target.mean()).max() < 1e-9
    fwd = run_path(model, fused_lasso(4))
    for rho in (0.01, 0.25, 0.7):
        assert np.abs(fwd.beta_at(rho) - bwd.beta_at(rho)).max() < 1e-7


def test_backward_with_explicit_start():
    model = QuadraticLoss.from_target([2.0, -1.0])
    cs = lasso(2)
    fwd = run_path(model, cs)
    bwd = run_path(
        model,
        cs,
        direction="backward",
        start_beta=fwd.beta_at(1.5),
        rho_start=1.5,
        rho_min=0.01,
    )
    for rho in (0.05, 0.5, 1.2):
        assert np.abs(fwd.beta_at(rho) - bwd.beta_at(rho)).max() < 1e-6


def test_backward_start_validation():
    model = QuadraticLoss.from_target([2.0, 1.0])
    with pytest.raises(ValueError, match="equality-only"):
        run_path(model, isotone(2), direction="backward")
    with pytest.raises(ValueError, match="rho_start"):
        run_path(model, lasso(2), direction="backward", start_beta=[0.0, 0.0])
    with pytest.raises(ValueError, match="largest multiplier"):
        run_path(model, lasso(2), direction="backward", rho_start=0.5)


@pytest.mark.filterwarnings("ignore::penpath.errors.SimultaneousEventWarning")
def test_forward_run_honours_a_given_start():
    # Both values used to be ignored: the path started at rho = 0 from [2, -1].
    sol = run_path(QuadraticLoss.from_target([2.0, -1.0]), lasso(2), rho_start=5.0,
                   start_beta=[9.0, 9.0])
    first = sol.segments[0]
    assert first.rho_start == 5.0 and first.beta_start.tolist() == [9.0, 9.0]
    # Both coordinates fall at unit slope and reach 0 at rho = 14, the
    # second processed within event_tol of the first.
    assert [k.rho for k in sol.kinks] == pytest.approx([14.0, 14.0], abs=1e-8)
    assert sol.status == "terminated" and not sol.terminal_beta.any()


def test_forward_start_validation():
    model = QuadraticLoss.from_target([2.0, -1.0])
    with pytest.raises(ValueError, match="needs start_beta"):
        run_path(model, lasso(2), rho_start=5.0)
    with pytest.raises(ValueError, match="requires an explicit rho_start"):
        run_path(model, lasso(2), start_beta=[9.0, 9.0])
    first = run_path(model, lasso(2), rho_start=0).segments[0]
    assert first.rho_start == 0.0 and first.beta_start.tolist() == [2.0, -1.0]


@pytest.mark.parametrize("start", [[float("nan"), 0.0], [float("inf"), 0.0], [[1.0, 0.0]], 1.0],
                         ids=["nan", "inf", "matrix", "scalar"])
def test_start_beta_must_be_a_finite_vector(start):
    # Unchecked, a NaN start gives a silently wrong path (classify puts its
    # residual in no set), and an infinite one a solver failure.
    with pytest.raises(ValueError, match="start_beta must be a vector of finite numbers"):
        PathOptions(rho_start=1.0, start_beta=start)


def test_start_beta_must_have_one_entry_per_coordinate():
    model = QuadraticLoss.from_target([2.0, -1.0])
    with pytest.raises(ValueError, match=r"start_beta has shape \(3,\), not \(2,\)"):
        run_path(model, lasso(2), rho_start=1.0, start_beta=[1.0, 0.0, 0.0])


class OdeQuadratic(QuadraticLoss):
    """A quadratic loss that the ODE engine traces."""

    constant_hessian = False


def restart_case(name):
    rng = np.random.default_rng(4)
    if name == "lasso":
        x = rng.normal(size=(30, 6))
        y = x @ np.array([1.5, 0.0, -1.0, 0.0, 0.5, 0.0]) + 0.5 * rng.normal(size=30)
        return QuadraticLoss.from_least_squares(x, y), lasso(6)
    target = np.repeat([1.0, -0.5, 2.0], 3) + 0.3 * rng.normal(size=9)
    return QuadraticLoss.from_target(target), fused_lasso(9)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("engine", ["exact", "ode"])
@pytest.mark.parametrize("case", ["lasso", "fused"])
def test_forward_run_from_a_midpoint_reproduces_the_kinks_after_it(case, engine, mode):
    model, cs = restart_case(case)
    if engine == "ode":
        model = OdeQuadratic(model.a_mat, model.b, model.c)
    fwd = run_path(model, cs, mode=mode)
    assert len(fwd.kinks) >= 5
    for seg in fwd.segments[:-1]:
        mid = 0.5 * (seg.rho_start + seg.rho_end)
        rest = run_path(model, cs, mode=mode, start_beta=fwd.beta_at(mid), rho_start=mid)
        after = [k for k in fwd.kinks if k.rho > mid]
        assert rest.segments[0].rho_start == mid and rest.status == fwd.status
        assert ([(k.row_kind, k.index, k.from_set, k.to_set) for k in rest.kinks]
                == [(k.row_kind, k.index, k.from_set, k.to_set) for k in after])
        np.testing.assert_allclose([k.rho for k in rest.kinks], [k.rho for k in after],
                                   rtol=1e-9)


# -- oracle equivalence -------------------------------------------------------

def test_quadratic_lasso_matches_admm_oracle():
    rng = np.random.default_rng(13)
    for _ in range(8):
        p = int(rng.integers(3, 8))
        x = rng.standard_normal((25, p))
        y = x @ (rng.standard_normal(p) * (rng.random(p) < 0.6))
        y = y + 0.3 * rng.standard_normal(25)
        model = QuadraticLoss.from_least_squares(x, y)
        cs = lasso(p)
        sol = run_path(model, cs)
        for rho in rng.uniform(0.05, sol.rho_end * 1.1, 3):
            orc = solve_fixed_rho(model, cs, float(rho), tol=1e-10)
            assert np.abs(sol.beta_at(rho) - orc.beta).max() < 1e-6


def test_logistic_lasso_matches_admm_oracle():
    model = logistic_model(29)
    cs = lasso(5)
    sol = run_path(model, cs)
    assert sol.status == "terminated"
    for rho in (0.3, 1.1, 2.7):
        if rho < sol.rho_end:
            orc = solve_fixed_rho(model, cs, rho, tol=1e-10)
            assert np.abs(sol.beta_at(rho) - orc.beta).max() < 1e-6


def test_isotone_terminal_matches_pava():
    rng = np.random.default_rng(41)
    for _ in range(10):
        m = int(rng.integers(4, 11))
        y = rng.standard_normal(m) * 2.0
        sol = run_path(QuadraticLoss.from_target(y), isotone(m))
        assert sol.status == "terminated"
        assert np.abs(sol.terminal_beta - pava(y)).max() < 1e-7


def test_terminal_point_solves_constrained_problem():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((30, 5))
    y = x @ np.array([1.0, 1.0, 1.0, -0.5, -0.5]) + 0.2 * rng.standard_normal(30)
    model = QuadraticLoss.from_least_squares(x, y)
    cs = fused_lasso(5)
    sol = run_path(model, cs)
    term = sol.terminal_beta
    assert np.abs(cs.eq_residuals(term)).max() < 1e-7
    # Compare objective against the equality-constrained solve.
    from penpath.path import _constrained_minimum

    ref = _constrained_minimum(model, cs.v_mat, cs.d)
    assert model.value(term) <= model.value(ref) * (1.0 + 1e-6) + 1e-9


# -- graphical model ----------------------------------------------------------

def offdiag_rows(model):
    idx = model.offdiagonal_coordinates()
    v = np.eye(model.dim)[idx]
    return ConstraintSystem(v, np.zeros(len(idx)), np.zeros((0, model.dim)), np.zeros(0))


def test_ggm_path_matches_glasso_and_stays_pd():
    rng = np.random.default_rng(61)
    p, n = 4, 80
    a = rng.standard_normal((p, p)) * 0.4 + np.eye(p)
    cov = np.linalg.inv(a @ a.T + 0.5 * np.eye(p))
    xs = rng.multivariate_normal(np.zeros(p), cov, size=n)
    sigma = xs.T @ xs / n
    model = GaussianGraphicalLoss(sigma)
    sol = run_path(model, offdiag_rows(model))
    assert sol.status == "terminated"
    for rho in sol.rho_grid(per_segment=6):
        omega = model.to_matrix(sol.beta_at(rho))
        assert np.linalg.eigvalsh(omega).min() > 0.0
    for rho in np.linspace(0.04, sol.rho_end * 0.9, 4):
        ref = glasso_coordinate(sigma, float(rho), tol=1e-9)
        assert np.abs(model.to_matrix(sol.beta_at(rho)) - ref).max() < 1e-5
    term = model.to_matrix(sol.terminal_beta)
    assert np.abs(term - np.diag(1.0 / np.diag(sigma))).max() < 1e-6


# -- degenerate geometry ------------------------------------------------------

class RankOneLoss(LossModel):
    """f = (beta_1 - beta_2 - a)^2 / 2: convex with a flat direction."""

    def __init__(self, a):
        self.a = float(a)
        self.v = np.array([1.0, -1.0])

    @property
    def dim(self):
        return 2

    def value(self, x):
        x = self._as_param(x)
        return float(0.5 * (self.v @ x - self.a) ** 2)

    def gradient(self, x):
        x = self._as_param(x)
        return (self.v @ x - self.a) * self.v

    def hessian(self, x):
        self._as_param(x)
        return np.outer(self.v, self.v)


def test_direct_mode_switches_to_nullspace_on_singular_hessian():
    # Penalize beta_1 + beta_2; the active row's null space is spanned by
    # (1, -1), where the Hessian restriction is positive, and the minimizer
    # (0.5, -0.5) on the row has coefficient 0.
    model = RankOneLoss(1.0)
    cs = ConstraintSystem(
        np.array([[1.0, 1.0]]), np.zeros(1), np.zeros((0, 2)), np.zeros(0)
    )
    with pytest.warns(UserWarning, match="nullspace"):
        sol = run_path(
            model,
            cs,
            direction="backward",
            start_beta=[0.5, -0.5],
            rho_start=1.0,
            rho_min=0.05,
        )
    assert sol.mode == "nullspace"
    assert any("nullspace" in w for w in sol.warnings)
    assert np.abs(sol.beta_at(0.1) - [0.5, -0.5]).max() < 1e-8


def test_coefficients_on_a_singular_hessian_path():
    # n < p least squares: direct mode switches to nullspace at the start,
    # and every coefficient lookup must then use the nullspace formulation.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8))
    model = QuadraticLoss.from_least_squares(x, rng.normal(size=5))
    with pytest.warns(UserWarning, match="nullspace"):
        sol = run_path(model, fused_lasso(8), direction="backward", rho_min=0.05)
    assert sol.mode == "nullspace"
    first = sol.segments[0]
    # Beyond the start beta is frozen with every row active, so r_Z ~ 1/rho.
    beyond = sol.coefficients_at(2.0 * first.rho_start).r_z
    assert beyond.size == 7 and np.all(np.isfinite(beyond))
    assert np.abs(beyond - 0.5 * first.coefficients_at(first.rho_start).r_z).max() < 1e-10
    # Starting just below the largest multiplier moves that row in place,
    # which records a point segment.
    with pytest.warns(UserWarning, match="nullspace"):
        low = run_path(model, fused_lasso(8), direction="backward", rho_min=0.05,
                       start_beta=first.beta_start, rho_start=0.99 * first.rho_start / 1.1)
    points = [seg for seg in low.segments if seg.rho_span == 0.0]
    assert points
    for seg in points:
        assert np.all(np.isfinite(seg.coefficients_at(seg.rho_start).r_z))


def test_stationarity_residual_on_a_singular_hessian_path():
    # The path switches to nullspace mode; the residual and the
    # coefficients at a point of it need no positive definite Hessian.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8))
    model = QuadraticLoss.from_least_squares(x, rng.normal(size=5))
    cs = fused_lasso(8)
    sol = run_path(model, cs, direction="backward", rho_min=0.05, mode="nullspace")
    checked = 0
    for seg in sol.segments:
        if seg.rho_span == 0.0 or not seg.config.n_active:
            continue
        rho = 0.5 * (seg.rho_start + seg.rho_end)
        beta = seg.beta_at(rho)
        assert stationarity_residual(model, cs, seg.config, beta, rho) < 1e-10
        coef = active_coefficients(model, cs, seg.config, beta, rho, mode="nullspace")
        assert np.abs(coef.r_z - sol.coefficients_at(rho).r_z).max() < 1e-10
        checked += 1
    assert checked >= 3


def test_singular_hessian_path_without_a_segment_switches_to_nullspace():
    # rho_min within rounding of rho_start: the path records only its
    # terminal point segment, which must still switch off direct mode.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 8))
    model = QuadraticLoss.from_least_squares(x, rng.normal(size=5))
    opts = dict(direction="backward", rho_start=2.0, rho_min=2.0 - 1e-13)
    with pytest.warns(UserWarning, match="nullspace"):
        sol = run_path(model, fused_lasso(8), **opts)
    assert (sol.mode, sol.status, len(sol.segments)) == ("nullspace", "rho_min", 1)
    reference = run_path(model, fused_lasso(8), mode="nullspace", **opts)
    r_z = sol.coefficients_at(2.0).r_z
    assert r_z.size == 7 and np.all(np.isfinite(r_z))
    assert np.abs(r_z - reference.coefficients_at(2.0).r_z).max() < 1e-12


def test_nullspace_mode_reports_singular_reduction():
    # Here the active row is the curved direction itself, so the reduced
    # Hessian is identically zero and the segment cannot be integrated.
    model = RankOneLoss(1.0)
    cs = ConstraintSystem(
        np.array([[1.0, -1.0]]), np.zeros(1), np.zeros((0, 2)), np.zeros(0)
    )
    with pytest.raises(ReducedHessianSingular):
        run_path(
            model,
            cs,
            mode="nullspace",
            direction="backward",
            start_beta=[0.0, 0.0],
            rho_start=2.0,
            rho_min=0.1,
        )


# -- bookkeeping --------------------------------------------------------------

def test_max_kinks_cap():
    model = QuadraticLoss.from_target([2.0, -1.0, 3.0, -2.0, 1.0])
    with pytest.raises(NoConvergence, match="max_kinks"):
        run_path(model, lasso(5), max_kinks=2)


def test_simultaneous_events_are_recorded():
    # Symmetric target: two fused differences hit zero at the same rho.
    model = QuadraticLoss.from_target([3.0, 1.0, -1.0, 2.0, 0.0])
    with pytest.warns(SimultaneousEventWarning):
        sol = run_path(model, fused_lasso(5))
    assert any("one at a time" in w for w in sol.warnings)
    assert sol.status == "terminated"


def test_solution_records_options_and_mode():
    model = QuadraticLoss.from_target([1.0, -1.0])
    sol = run_path(model, lasso(2), mode="nullspace", rho_max=10.0)
    assert sol.mode == "nullspace"
    assert sol.direction == "forward"
    assert sol.options.rho_max == 10.0


def test_modes_are_direct_and_nullspace():
    assert MODES == ("direct", "nullspace")
    with pytest.raises(ValueError, match="direct.*nullspace"):
        PathOptions(mode="tableau")
