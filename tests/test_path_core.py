"""Path solver core: set bookkeeping, analytic toy paths, invariants."""

import math
import warnings

import numpy as np
import pytest

import penpath.odeint
import penpath.path
from penpath.constraints import ConstraintSystem, fused_lasso, isotone, lasso, shape
from penpath.errors import NonFiniteDerivative, NotStrictlyConvex, PathDivergence
from penpath.losses import GlmLoss, LogConcaveLoss, QuadraticLoss
from penpath.path import (
    MODES,
    _SegmentContext,
    ActiveCoefficients,
    PathOptions,
    SetConfiguration,
    active_coefficients,
    classify,
    degrees_of_freedom,
    information_criteria,
    run_path,
    stationarity_residual,
)


# -- set configuration -------------------------------------------------------

def test_classify_splits_by_sign():
    cfg = classify([-0.5, 1e-12, 0.3], [0.2, -1e-11, -0.4], tol=1e-9)
    assert cfg.neg_eq == (0,)
    assert cfg.zero_eq == (1,)
    assert cfg.pos_eq == (2,)
    assert cfg.pos_ineq == (0,)
    assert cfg.zero_ineq == (1,)
    assert cfg.neg_ineq == (2,)


def test_configuration_sorts_and_rejects_duplicates():
    cfg = SetConfiguration(neg_eq=(3, 1), pos_eq=(2,))
    assert cfg.neg_eq == (1, 3)
    with pytest.raises(ValueError, match="disjoint"):
        SetConfiguration(neg_eq=(0,), zero_eq=(0,))


def test_partition_check():
    cfg = classify([0.1, -0.2], [0.0], tol=1e-9)
    cfg.check_partition(2, 1)
    with pytest.raises(ValueError, match="partition"):
        cfg.check_partition(3, 1)


def test_terminal_means_no_pull():
    assert SetConfiguration(zero_eq=(0,), neg_ineq=(0, 1)).is_terminal
    assert not SetConfiguration(pos_eq=(0,)).is_terminal
    assert not SetConfiguration(pos_ineq=(0,)).is_terminal


def test_inactive_subgradient_signs():
    cs = ConstraintSystem(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.zeros(2),
        np.array([[1.0, 1.0], [2.0, -1.0]]),
        np.zeros(2),
    )
    cfg = SetConfiguration(neg_eq=(0,), pos_eq=(1,), pos_ineq=(0,), neg_ineq=(1,))
    u = cfg.inactive_subgradient(cs)
    # -row0 + row1 + wrow0; the satisfied inequality contributes nothing.
    assert np.allclose(u, [-1.0 + 0.0 + 1.0, 0.0 + 1.0 + 1.0])


def test_a_configuration_must_partition_the_rows():
    # Rows 0 and 2 are in no set; unchecked, they would read as active.
    cs, model = lasso(3), QuadraticLoss.from_target([2.0, -1.0, 0.5])
    cfg, beta = SetConfiguration(zero_eq=(1,)), np.array([1.0, 0.0, 0.2])
    for call in (lambda: cfg.inactive_subgradient(cs),
                 lambda: active_coefficients(model, cs, cfg, beta, 0.5),
                 lambda: stationarity_residual(model, cs, cfg, beta, 0.5)):
        with pytest.raises(ValueError, match="equality sets do not partition the row range"):
            call()


def test_move_and_locate():
    cfg = SetConfiguration(neg_eq=(0, 1), neg_ineq=(0,))
    assert cfg.locate("eq", 1) == "neg_eq"
    moved = cfg.move("eq", 1, "zero_eq")
    assert moved.neg_eq == (0,)
    assert moved.zero_eq == (1,)
    with pytest.raises(ValueError, match="not classified"):
        cfg.move("eq", 7, "zero_eq")
    with pytest.raises(ValueError, match="target set"):
        cfg.move("eq", 0, "zero_ineq")


def test_active_rows_stacks_equalities_first():
    cs = fused_lasso(4)
    two_sided = ConstraintSystem(cs.v_mat, cs.d, cs.v_mat.copy(), np.ones(3))
    cfg = SetConfiguration(zero_eq=(2,), zero_ineq=(0,))
    rows = cfg.active_rows(two_sided)
    assert rows.shape == (2, 4)
    assert np.allclose(rows[0], two_sided.v_mat[2])
    assert np.allclose(rows[1], two_sided.w_mat[0])


def test_degrees_of_freedom_counts_free_dimensions():
    cfg = SetConfiguration(zero_eq=(0, 2), zero_ineq=(1,), neg_eq=(1,))
    assert degrees_of_freedom(cfg, 6) == 3


def test_information_criteria_values():
    # At n = e^2 the bic penalty per df is exactly 1, matching aic.
    aic, bic = information_criteria(loglik=-3.0, df=2, n=float(np.exp(2)))
    assert aic == pytest.approx(5.0)
    assert bic == pytest.approx(5.0)
    aic, bic = information_criteria(loglik=0.0, df=3, n=100)
    assert aic == pytest.approx(3.0)
    assert bic == pytest.approx(1.5 * np.log(100))
    with pytest.raises(ValueError):
        information_criteria(0.0, 1, 0)


# -- segment formulas --------------------------------------------------------

def segment_rhs(model, cs, cfg, beta):
    """dbeta/drho at beta from the direct and the nullspace segment contexts."""
    beta = np.asarray(beta, dtype=float)
    return [
        _SegmentContext(model, cs, cfg, beta, mode=mode).rhs(0.5, beta)
        for mode in MODES
    ]


def test_direct_and_nullspace_rhs_agree():
    rng = np.random.default_rng(5)
    for _ in range(25):
        p = int(rng.integers(2, 7))
        a = rng.standard_normal((p + 2, p))
        model = QuadraticLoss(a.T @ a + 0.5 * np.eye(p), rng.standard_normal(p))
        cs = lasso(p)
        k = int(rng.integers(0, p - 1))
        active = tuple(rng.choice(p, size=k, replace=False)) if k else ()
        rest = [i for i in range(p) if i not in active]
        half = len(rest) // 2
        cfg = SetConfiguration(
            neg_eq=tuple(rest[:half]), pos_eq=tuple(rest[half:]), zero_eq=active
        )
        beta = rng.standard_normal(p)
        d1, d2 = segment_rhs(model, cs, cfg, beta)
        assert np.abs(d1 - d2).max() < 1e-9


def test_fully_active_rhs_is_zero():
    model = QuadraticLoss.from_target([1.0, 2.0])
    cs = lasso(2)
    cfg = SetConfiguration(zero_eq=(0, 1))
    for d in segment_rhs(model, cs, cfg, [0.0, 0.0]):
        assert np.allclose(d, 0.0)


def test_active_coefficients_match_stationarity():
    # Build a point on the path by hand: f = ||b - beta||^2/2, row 0 active.
    model = QuadraticLoss.from_target([2.0, -1.0])
    cs = lasso(2)
    cfg = SetConfiguration(zero_eq=(1,), pos_eq=(0,))
    rho = 1.5
    beta = np.array([2.0 - rho, 0.0])
    coef = active_coefficients(model, cs, cfg, beta, rho)
    assert coef.eq_indices == (1,)
    assert coef.s[0] == pytest.approx(-1.0 / rho)
    assert coef.t.size == 0
    # grad f + rho (u + s * v_active) must vanish.
    resid = stationarity_residual(model, cs, cfg, beta, rho)
    assert resid < 1e-12


def test_active_coefficients_zero_rho_limit():
    rng = np.random.default_rng(11)
    p = 5
    a = rng.standard_normal((p + 3, p))
    model = QuadraticLoss(a.T @ a + 0.3 * np.eye(p), rng.standard_normal(p))
    cs = lasso(p)
    cfg = SetConfiguration(zero_eq=(1, 3), neg_eq=(0,), pos_eq=(2, 4))
    beta = rng.standard_normal(p)
    coef = active_coefficients(model, cs, cfg, beta, 0.0)
    # The limit drops the gradient term entirely: r = -Q^T u, with
    # Q^T = (U H^-1 U^T)^-1 U H^-1.
    h_inv = np.linalg.inv(model.hessian(beta))
    u_act = cfg.active_rows(cs)
    q_t = np.linalg.solve(u_act @ h_inv @ u_act.T, u_act @ h_inv)
    expect = -(q_t @ cfg.inactive_subgradient(cs))
    assert np.abs(coef.r_z - expect).max() < 1e-10


def test_active_coefficients_requires_nonnegative_rho():
    model = QuadraticLoss.from_target([1.0])
    with pytest.raises(ValueError):
        active_coefficients(model, lasso(1), SetConfiguration(zero_eq=(0,)), [0.0], -0.1)


def test_coefficients_in_range_helper():
    ok = ActiveCoefficients(np.array([0.5]), np.array([0.2]), (0,), (0,))
    assert ok.in_range()
    assert not ActiveCoefficients(np.array([1.2]), np.zeros(0), (0,), ()).in_range()
    assert not ActiveCoefficients(np.zeros(0), np.array([-0.1]), (), (0,)).in_range()


# -- the soft-threshold toy path ---------------------------------------------

def soft_path_model():
    return QuadraticLoss.from_target([2.0, -1.0])


def test_toy_lasso_kink_locations():
    sol = run_path(soft_path_model(), lasso(2))
    assert sol.status == "terminated"
    assert len(sol.kinks) == 2
    assert sol.kinks[0].rho == pytest.approx(1.0, abs=1e-6)
    assert sol.kinks[1].rho == pytest.approx(2.0, abs=1e-6)
    assert sol.kinks[0].index == 1
    assert sol.kinks[1].index == 0
    assert [k.to_set for k in sol.kinks] == ["zero_eq", "zero_eq"]
    assert [k.df_after for k in sol.kinks] == [1, 0]


def test_toy_lasso_segment_formula():
    # Soft thresholding: beta(rho) = (2 - rho, -1 + rho) until the kinks.
    sol = run_path(soft_path_model(), lasso(2))
    for rho in (0.0, 0.2, 0.55, 0.93):
        assert np.abs(sol.beta_at(rho) - [2.0 - rho, -1.0 + rho]).max() < 1e-7
    for rho in (1.1, 1.7):
        assert np.abs(sol.beta_at(rho) - [2.0 - rho, 0.0]).max() < 1e-7
    assert np.abs(sol.terminal_beta).max() < 1e-7


def test_toy_lasso_coefficient_decay():
    # After beta_2 hits zero its coefficient is s = -1/rho.
    sol = run_path(soft_path_model(), lasso(2))
    for rho in (1.2, 1.6, 1.95):
        coef = sol.coefficients_at(rho)
        assert coef.eq_indices == (1,)
        assert coef.s[0] == pytest.approx(-1.0 / rho, abs=1e-6)


def test_toy_lasso_segment_records():
    sol = run_path(soft_path_model(), lasso(2))
    assert [s.termination for s in sol.segments[:2]] == [
        "residual_hit(eq[1])",
        "residual_hit(eq[0])",
    ]
    assert sol.segments[-1].termination == "terminated"
    assert sol.segments[-1].config.is_terminal
    first = sol.segments[0]
    assert first.rho_start == 0.0
    assert first.rho_end == pytest.approx(1.0, abs=1e-6)
    assert np.abs(first.beta_start - [2.0, -1.0]).max() < 1e-7


def test_toy_lasso_extends_past_termination():
    sol = run_path(soft_path_model(), lasso(2))
    assert np.abs(sol.beta_at(50.0)).max() < 1e-7
    assert sol.df_at(50.0) == 0
    # Coefficients keep decaying in the extension range.
    c_near = sol.coefficients_at(3.0)
    c_far = sol.coefficients_at(30.0)
    assert np.abs(c_far.s).max() < np.abs(c_near.s).max()
    with pytest.raises(ValueError, match="outside"):
        run_path(soft_path_model(), lasso(2), rho_max=1.5).beta_at(1.9)


def test_toy_isotone_path():
    # f = ||beta - (2, 1)||^2/2 with beta_1 <= beta_2: pooled at the mean.
    model = QuadraticLoss.from_target([2.0, 1.0])
    sol = run_path(model, isotone(2))
    assert sol.status == "terminated"
    assert len(sol.kinks) == 1
    kink = sol.kinks[0]
    assert kink.rho == pytest.approx(0.5, abs=1e-7)
    assert kink.row_kind == "ineq"
    assert kink.to_set == "zero_ineq"
    for rho in (0.1, 0.3, 0.45):
        assert np.abs(sol.beta_at(rho) - [2.0 - rho, 1.0 + rho]).max() < 1e-7
    assert np.abs(sol.terminal_beta - [1.5, 1.5]).max() < 1e-7
    coef = sol.coefficients_at(1.25)
    assert coef.t[0] == pytest.approx(0.5 / 1.25, abs=1e-6)


def test_isotone_on_sorted_data_is_immediately_terminal():
    model = QuadraticLoss.from_target([1.0, 2.0, 3.0])
    sol = run_path(model, isotone(3))
    assert sol.status == "terminated"
    assert len(sol.kinks) == 0
    assert len(sol.segments) == 1
    assert sol.segments[0].rho_span == 0.0
    assert np.abs(sol.beta_at(2.0) - [1.0, 2.0, 3.0]).max() < 1e-8


def test_df_changes_by_one_per_kink():
    rng = np.random.default_rng(23)
    for _ in range(6):
        p = int(rng.integers(3, 8))
        model = QuadraticLoss.from_target(rng.standard_normal(p) * 2)
        sol = run_path(model, fused_lasso(p))
        dfs = [p] + [k.df_after for k in sol.kinks]
        for a, b in zip(dfs, dfs[1:]):
            assert abs(a - b) == 1


def test_stationarity_holds_along_sampled_path():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((25, 4))
    y = x @ np.array([1.0, 0.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(25)
    model = QuadraticLoss.from_least_squares(x, y)
    cs = fused_lasso(4)
    sol = run_path(model, cs)
    for rho in sol.rho_grid(per_segment=7):
        if rho == 0.0:
            continue
        beta = sol.beta_at(rho)
        cfg = sol.config_at(rho)
        grad = model.gradient(beta)
        assert stationarity_residual(model, cs, cfg, beta, rho) < 1e-6 * (
            1.0 + np.abs(grad).max()
        )
        assert sol.coefficients_at(rho).in_range(tol=1e-7)


def test_active_residuals_stay_pinned():
    model = QuadraticLoss.from_target([3.0, 1.0, -1.0, 2.0, 0.0])
    cs = fused_lasso(5)
    sol = run_path(model, cs)
    for rho in sol.rho_grid(per_segment=5):
        cfg = sol.config_at(rho)
        res = cs.eq_residuals(sol.beta_at(rho))
        for i in cfg.zero_eq:
            assert abs(res[i]) < 1e-7


def test_path_continuity_at_kinks():
    model = QuadraticLoss.from_target([2.5, -1.0, 0.5, 3.0])
    sol = run_path(model, fused_lasso(4))
    for prev, nxt in zip(sol.segments, sol.segments[1:]):
        assert np.abs(prev.beta_end - nxt.beta_start).max() < 1e-7


def test_rho_grid_spacing():
    sol = run_path(soft_path_model(), lasso(2))
    grid = sol.rho_grid(per_segment=20)
    assert grid[0] == 0.0
    # Every kink appears on the grid.
    for k in sol.kinks:
        assert np.abs(grid - k.rho).min() < 1e-9
    spans = np.diff(grid)
    assert spans.max() <= (2.0 / 20) * 1.001


def test_rho_max_stops_the_sweep():
    sol = run_path(soft_path_model(), lasso(2), rho_max=0.6)
    assert sol.status == "rho_max"
    assert len(sol.kinks) == 0
    assert sol.rho_end == pytest.approx(0.6)
    assert np.abs(sol.beta_at(0.6) - [1.4, -0.4]).max() < 1e-7


def test_divergence_guard_fires():
    # Unbounded from the start: f linear in the penalized direction would
    # need a non-strictly-convex loss, so instead shrink the guard bound.
    model = soft_path_model()
    with pytest.raises(PathDivergence):
        run_path(model, lasso(2), beta_bound=1.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mode", ["direct", "nullspace"])
def test_non_finite_hessian_raises_typed_error(mode):
    # A concave-density fit whose iterate reaches a point where the loss's
    # Hessian overflows to NaN: the error must be a PenPathError.
    draws = np.random.default_rng(0).gumbel(0.0, 1.0, size=50)
    model = LogConcaveLoss.from_samples(draws)
    cs = shape(model.dim, kind="concave", grid=model.support)
    with pytest.raises(NonFiniteDerivative, match="non-finite"):
        run_path(model, cs, mode=mode)


class OdeQuadratic(QuadraticLoss):
    """A quadratic loss that the ODE engine traces, as it would a non-quadratic one."""

    constant_hessian = False


def row_system(row):
    return ConstraintSystem(np.array([row]), np.zeros(1), np.zeros((0, len(row))), np.zeros(0))


# beta_2 pinned and beta_1 free: the non-finite entries lie in H's column
# at the free coordinate, the negative one on the free coordinate.
@pytest.mark.parametrize(
    "hessian, error",
    [(np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteDerivative),
     (np.diag([-1.0, 1.0]), NotStrictlyConvex)],
    ids=["non_finite", "indefinite"],
)
def test_direct_factor_error_types(hessian, error):
    model = OdeQuadratic(np.eye(2), [2.0, -1.0])
    model.hessian = lambda x: hessian
    cs = lasso(2)
    cfg = SetConfiguration(zero_eq=(1,), pos_eq=(0,))
    beta = np.array([0.5, 0.0])
    ctx = _SegmentContext(model, cs, cfg, beta)
    with pytest.raises(error):
        ctx.rhs(0.5, beta)
    with pytest.raises(error):
        active_coefficients(model, cs, cfg, beta, 0.5)


def test_direct_factor_needs_no_hessian_on_pinned_coordinates():
    # The range-space method needs Z^T H Z positive definite, and Z^T H Z
    # never reads H on the pinned beta_2: a Hessian indefinite only there
    # gives the direction and coefficients of the one that is not.
    cs = lasso(2)
    cfg = SetConfiguration(zero_eq=(1,), pos_eq=(0,))
    beta = np.array([0.5, 0.0])
    answers = []
    for hessian in (np.diag([1.0, -1.0]), np.eye(2)):
        model = OdeQuadratic(np.eye(2), [2.0, -1.0])
        model.hessian = lambda x, hessian=hessian: hessian
        ctx = _SegmentContext(model, cs, cfg, beta)
        answers.append((ctx.rhs(0.5, beta), active_coefficients(model, cs, cfg, beta, 0.5).r_z))
    (rhs, coef), (rhs_pd, coef_pd) = answers
    assert rhs.tolist() == rhs_pd.tolist() == [-1.0, 0.0]
    np.testing.assert_allclose(coef, coef_pd, rtol=1e-15)


@pytest.mark.parametrize("loss", [QuadraticLoss, OdeQuadratic], ids=["exact", "ode"])
def test_indefinite_hessian_switches_to_nullspace(loss):
    # f = (3 x_2^2 - x_1^2) / 2 - x_1 - 3 x_2 with x_1 + x_2 penalized: the
    # Hessian is indefinite, but positive on the active row's null space,
    # and the saddle point (-1, 1) lies on the row, with coefficient 0.
    model = loss(np.diag([-1.0, 3.0]), [1.0, 3.0])
    with pytest.warns(UserWarning, match="nullspace"):
        sol = run_path(model, row_system([1.0, 1.0]), direction="backward",
                       start_beta=[-1.0, 1.0], rho_start=1.0, rho_min=0.05)
    assert sol.mode == "nullspace" and sol.status == "rho_min"
    assert np.abs(sol.beta_at(0.1) - [-1.0, 1.0]).max() < 1e-12


@pytest.mark.parametrize("loss", [QuadraticLoss, OdeQuadratic], ids=["exact", "ode"])
def test_hessian_indefinite_on_pinned_coordinates_only(loss):
    # f = ((x_2 - 1)^2 - x_1^2) / 2 with x_1 pinned: H is indefinite only on
    # x_1.  The exact engine checks all of its constant H once per path and
    # switches; the ODE engine's direct mode needs only Z^T H Z = H_22 and
    # keeps going.
    model = loss(np.diag([-1.0, 1.0]), [0.0, 1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = run_path(model, row_system([1.0, 0.0]), direction="backward",
                       start_beta=[0.0, 1.0], rho_start=1.0, rho_min=0.05)
    switched = loss is QuadraticLoss
    assert sol.mode == ("nullspace" if switched else "direct") and sol.status == "rho_min"
    assert any("nullspace" in str(w.message) for w in caught) == switched
    assert np.abs(sol.beta_at(0.1) - [0.0, 1.0]).max() < 1e-12


@pytest.mark.parametrize("mode", ["direct", "nullspace"])
@pytest.mark.parametrize("loss", [QuadraticLoss, OdeQuadratic], ids=["exact", "ode"])
def test_non_finite_gradient_raises_typed_error(loss, mode):
    model = loss(np.eye(2), [2.0, -1.0])
    model.gradient = lambda x: np.array([np.nan, 0.0])
    with pytest.raises(NonFiniteDerivative, match="gradient"):
        run_path(model, lasso(2), mode=mode, direction="backward",
                 start_beta=[0.0, 0.0], rho_start=3.0)


@pytest.mark.parametrize("mode", ["direct", "nullspace"])
@pytest.mark.parametrize("loss", [QuadraticLoss, OdeQuadratic], ids=["exact", "ode"])
def test_divergence_guard_fires_mid_segment(loss, mode):
    # Backward from beta = 0 at rho = 3 toward the target (2, -1): beta_1 =
    # 2 - rho reaches the bound 1.5 at rho = 0.5, inside the last segment.
    model = loss(np.eye(2), [2.0, -1.0])
    with pytest.raises(PathDivergence, match=r"exceeded beta_bound=1\.5 at rho=0\.5;"):
        run_path(model, lasso(2), mode=mode, direction="backward",
                 start_beta=[0.0, 0.0], rho_start=3.0, beta_bound=1.5)


def logistic_lasso_model():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(80, 5))
    eta = x @ np.array([1.0, -1.0, 0.5, 0.0, 0.25])
    y = (rng.random(80) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return GlmLoss(x, y, family="logistic")


def test_direct_mode_factors_once_per_point(monkeypatch):
    # One Hessian evaluation per distinct point: the coefficient events at a
    # step end reuse the factor of the Runge-Kutta step's last stage there,
    # so outside rhs the Hessian is evaluated only at a segment's first point
    # and where brentq locates an event.
    model = logistic_lasso_model()
    calls = {"hessian": 0, "outside_rhs": 0, "rhs": 0, "brentq": 0}
    in_rhs = []

    hessian_columns = model.hessian_columns

    def counted_hessian(beta, cols):
        calls["hessian"] += 1
        calls["outside_rhs"] += not in_rhs
        return hessian_columns(beta, cols)

    rhs = _SegmentContext.rhs

    def counted_rhs(self, t, beta):
        calls["rhs"] += 1
        in_rhs.append(True)
        try:
            return rhs(self, t, beta)
        finally:
            in_rhs.pop()

    brentq = penpath.odeint.brentq

    def counted_brentq(f, *args, **kwargs):
        def g(t):
            calls["brentq"] += 1
            return f(t)
        return brentq(g, *args, **kwargs)

    monkeypatch.setattr(model, "hessian_columns", counted_hessian)
    monkeypatch.setattr(_SegmentContext, "rhs", counted_rhs)
    monkeypatch.setattr(penpath.odeint, "brentq", counted_brentq)
    sol = run_path(model, lasso(5), mode="direct")
    assert sol.mode == "direct" and sol.status == "terminated" and len(sol.kinks) >= 5
    assert 0 < calls["hessian"] <= calls["rhs"] + calls["brentq"]
    assert calls["outside_rhs"] <= len(sol.segments) + calls["brentq"]


def test_segments_evaluate_only_the_free_columns(monkeypatch):
    # Inside a segment the ODE engine asks for H's columns at the free
    # coordinates alone; the whole Hessian is evaluated by the Newton start
    # and nowhere else, also not by lookups on the finished path.
    model = logistic_lasso_model()
    calls = {"hessian": 0, "in_start": 0}
    widths = []
    in_start = []

    hessian, hessian_columns = model.hessian, model.hessian_columns

    def counted_hessian(beta):
        calls["hessian"] += 1
        calls["in_start"] += bool(in_start)
        return hessian(beta)

    def counted_columns(beta, cols):
        widths.append(len(cols))
        return hessian_columns(beta, cols)

    start = penpath.path.unconstrained_minimum

    def marked_start(loss):
        in_start.append(True)
        try:
            return start(loss)
        finally:
            in_start.pop()

    monkeypatch.setattr(model, "hessian", counted_hessian)
    monkeypatch.setattr(model, "hessian_columns", counted_columns)
    monkeypatch.setattr(penpath.path, "unconstrained_minimum", marked_start)
    sol = run_path(model, lasso(5), mode="direct")
    assert sol.mode == "direct" and sol.status == "terminated" and len(sol.kinks) >= 5
    for a, b in zip(sol.kinks[:-1], sol.kinks[1:]):
        sol.coefficients_at(0.5 * (a.rho + b.rho))
    assert calls["hessian"] > 0 and calls["hessian"] == calls["in_start"]
    # The path starts with every coordinate free and pins them one by one.
    assert max(widths) == 5 and set(range(1, 5)) <= set(widths)


def test_nullspace_coefficients_need_no_hessian(monkeypatch):
    # The null-space coefficients are Hessian-free: inside the segments the
    # Hessian is evaluated only for the path derivative (rhs) and the
    # rho -> 0 limit.
    model = logistic_lasso_model()
    calls = {"hessian": 0, "outside": 0}
    inside = []

    hessian_columns = model.hessian_columns

    def counted_hessian(beta, cols):
        calls["hessian"] += 1
        calls["outside"] += not inside
        return hessian_columns(beta, cols)

    def marked(fn):
        def run(*args, **kwargs):
            inside.append(True)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(model, "hessian_columns", counted_hessian)
    monkeypatch.setattr(_SegmentContext, "rhs", marked(_SegmentContext.rhs))
    monkeypatch.setattr(_SegmentContext, "limit", marked(_SegmentContext.limit))
    sol = run_path(model, lasso(5), mode="nullspace")
    assert sol.mode == "nullspace" and sol.status == "terminated" and len(sol.kinks) >= 5
    assert calls["hessian"] > 0 and calls["outside"] == 0
    sol.coefficients_at(0.5 * (sol.kinks[-1].rho + sol.kinks[-2].rho))
    assert calls["outside"] == 0


def test_options_validation():
    with pytest.raises(ValueError, match="mode"):
        PathOptions(mode="magic")
    with pytest.raises(ValueError, match="direction"):
        PathOptions(direction="sideways")
    with pytest.raises(ValueError, match="rho_min"):
        PathOptions(rho_min=2.0, rho_max=1.0)
    with pytest.raises(ValueError, match="event_tol"):
        PathOptions(event_tol=0.0)
    with pytest.raises(ValueError, match="max_kinks"):
        PathOptions(max_kinks=0)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "event_tol", "beta_bound",
                                  "residual_tol", "max_step"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_options_reject_non_finite_or_non_positive_tolerances(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        PathOptions(**{name: value})


@pytest.mark.parametrize("options, message", [
    ({"rho_max": math.inf}, "rho_max < inf"),
    ({"rho_start": math.inf}, "rho_start must be finite and nonnegative"),
    ({"rho_start": math.nan}, "rho_start must be finite and nonnegative"),
    ({"rho_start": -1.0}, "rho_start must be finite and nonnegative"),
    ({"max_kinks": math.nan}, "max_kinks must be an integer"),
    ({"max_kinks": 2.5}, "max_kinks must be an integer"),
    ({"max_kinks": True}, "max_kinks must be an integer"),
], ids=["rho_max_inf", "rho_start_inf", "rho_start_nan", "rho_start_negative",
        "max_kinks_nan", "max_kinks_fraction", "max_kinks_bool"])
def test_options_reject_unbounded_starts_ends_and_caps(options, message):
    with pytest.raises(ValueError, match=message):
        PathOptions(**options)


def test_options_accept_integer_caps_and_a_zero_start():
    assert PathOptions(max_kinks=np.int64(3), rho_start=0).rho_start == 0.0


def test_options_leave_optional_tolerances_unset():
    opts = PathOptions(residual_tol=None, max_step=None)
    assert opts.residual_tol is None and opts.max_step is None
    assert PathOptions(residual_tol=1e-7, max_step=2).max_step == 2.0


def test_run_path_argument_handling():
    model = soft_path_model()
    with pytest.raises(TypeError, match="not both"):
        run_path(model, lasso(2), PathOptions(), rho_max=2.0)
    with pytest.raises(ValueError, match="dimension"):
        run_path(model, lasso(3))
