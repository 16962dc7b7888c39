"""Eliminated pins and ties: exact output, reduced factors, no wasted algebra."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

import penpath.path
import penpath.sweeplin
from penpath.constraints import (
    GENERAL,
    PIN,
    TIE,
    ConstraintSystem,
    fused_lasso,
    graph_guided,
    isotone,
    lasso,
    shape,
    trend_filter,
)
from penpath.errors import NotStrictlyConvex, RankDeficientActiveSet
from penpath.losses import GaussianGraphicalLoss, GlmLoss, QuadraticLoss
from penpath.oracles import solve_fixed_rho
from penpath.path import MODES, SetConfiguration, _SegmentContext, run_path
from penpath.sweeplin import (
    EliminatedFactor,
    Elimination,
    KKTFactor,
    NullspaceFactor,
    hessian_factor,
    null_basis,
)


class OdeQuadratic(QuadraticLoss):
    """A quadratic loss that the ODE engine traces, as it would a non-quadratic one."""

    constant_hessian = False


# -- row shapes ---------------------------------------------------------------

def test_row_shapes_of_the_builders():
    assert (lasso(3).row_shapes.kind == PIN).all()
    assert (fused_lasso(4).row_shapes.kind == TIE).all()
    assert (isotone(4, "nonincreasing").row_shapes.kind == TIE).all()
    assert (shape(5).row_shapes.kind == GENERAL).all()
    assert (trend_filter(8).row_shapes.kind == GENERAL).all()
    # Order 2 has a first difference at each boundary.
    assert trend_filter(8, order=2).row_shapes.kind.tolist() == [TIE] + [GENERAL] * 5 + [TIE]
    # Graph edges tie only adjacent coordinates of equal degree and positive
    # correlation; the identity block pins.
    kinds = graph_guided(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, -1.0), (0, 3, 1.0)]).row_shapes.kind
    assert kinds.tolist() == [TIE, TIE, GENERAL, GENERAL] + [PIN] * 4
    kinds = graph_guided(4, [(0, 1, 1.0), (1, 2, 1.0)]).row_shapes.kind
    assert kinds.tolist() == [GENERAL, GENERAL] + [PIN] * 4


def test_pin_values():
    rows = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    cs = ConstraintSystem(rows[:2], [3.0, 0.0], rows[2:], [0.0])
    shapes = cs.row_shapes
    assert shapes.kind.tolist() == [PIN, PIN, GENERAL]
    assert shapes.value[0] == 1.5
    # A zero offset over a negative coefficient pins at 0.0, not -0.0.
    assert np.signbit(shapes.value[1]) == np.False_


# -- the elimination ----------------------------------------------------------

def mixed_system(p=9):
    """Pins, ties and general rows, with duplicates that close cycles."""
    rows = [
        np.eye(p)[1],                       # pin 1
        fused_lasso(p).v_mat[1],            # tie 1-2: pinned run
        fused_lasso(p).v_mat[4],            # tie 4-5
        fused_lasso(p).v_mat[5],            # tie 5-6
        -fused_lasso(p).v_mat[4],           # tie 4-5 again: general
        2.0 * np.eye(p)[2],                 # second pin of run 1-2: general
        trend_filter(p, order=1).v_mat[6],  # general
    ]
    return ConstraintSystem(np.array(rows), np.zeros(len(rows)), np.zeros((0, p)), np.zeros(0))


def test_elimination_structure():
    cs = mixed_system()
    elim = Elimination(cs.dim, cs.row_shapes, np.arange(cs.n_eq))
    assert elim.general.tolist() == [4, 5, 6]
    assert sorted(elim.structured.tolist()) == [0, 1, 2, 3]
    assert elim.pinned.tolist() == [1, 2]
    assert elim.order.tolist() == [0, 3, 4, 5, 6, 7, 8]
    assert elim.sizes.tolist() == [1, 1, 3, 1, 1]
    z = elim.z
    np.testing.assert_allclose(z.T @ z, np.eye(5), atol=1e-15)
    beta = np.arange(9.0)
    snapped = elim.snap(beta.copy())
    assert snapped.tolist() == [0, 0, 0, 3, 5, 5, 5, 7, 8]
    # An exact group keeps its value (a mean could round it).
    again = np.full(9, 0.1)
    assert (elim.snap(again.copy())[3:] == 0.1).all()


def random_problem(rng, cs):
    p = cs.dim
    a = rng.standard_normal((p + 3, p))
    return a.T @ a + 0.5 * np.eye(p)


@pytest.mark.parametrize("seed", range(4))
def test_eliminated_factor_matches_the_full_factors(seed):
    # Pins and ties in several runs plus independent general rows: the
    # range-space and null-space answers on every row, for any vec.
    rng = np.random.default_rng(seed)
    p = 10
    rows = np.vstack([
        np.eye(p)[[0, 7]],
        fused_lasso(p).v_mat[[2, 3, 4, 7, 8]],
        rng.standard_normal((2, p)),
    ])
    order = rng.permutation(rows.shape[0])
    rows = rows[order]
    cs = ConstraintSystem(rows, np.zeros(len(rows)), np.zeros((0, p)), np.zeros(0))
    h = random_problem(rng, cs)
    elim = Elimination(p, cs.row_shapes, np.arange(len(rows)))
    assert elim.general.size == 2 and elim.z is not None
    general = rows[elim.general]
    reduced = elim.reduce_rows(general)
    vec = rng.standard_normal((p, 3))
    u = rng.standard_normal(p)

    full = KKTFactor(cho_factor(h), rows)
    direct = EliminatedFactor(
        elim, KKTFactor(cho_factor(elim.reduce_hessian(h)), reduced), general, lambda: h
    )
    np.testing.assert_allclose(direct.direction(u), full.direction(u), atol=1e-10)
    np.testing.assert_allclose(direct.multipliers(vec), full.multipliers(vec), atol=1e-10)

    qr = null_basis(rows, p)
    nullspace = EliminatedFactor(
        elim, NullspaceFactor(null_basis(reduced, elim.size), lambda: elim.reduce_hessian(h)),
        general,
    )
    np.testing.assert_allclose(nullspace.direction(u), full.direction(u), atol=1e-10)
    np.testing.assert_allclose(nullspace.multipliers(vec), qr.multipliers(vec), atol=1e-10)

    d = direct.direction(u)
    assert d[[0, 7, 8, 9]].tolist() == [0.0] * 4
    assert d[2] == d[3] == d[4] == d[5]


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Active rows with no pin or tie among them: three-term curvature rows, the
# order-2 trend filter's interior rows beside its boundary ties, and dense
# rows.  At this size a gather of the rows' columns, which changes their
# memory layout, moves the Schur factor's bits.
GENERAL_ROWS = {
    "shape": lambda rng: (shape(40, "convex"), list(range(0, 38, 2))),
    "trend_interior": lambda rng: (trend_filter(40, order=2), list(range(1, 38, 2))),
    "dense": lambda rng: (
        ConstraintSystem(rng.standard_normal((20, 40)), np.zeros(20), np.zeros((0, 40)),
                         np.zeros(0)),
        list(range(0, 20, 2)),
    ),
}


@pytest.mark.parametrize("case", sorted(GENERAL_ROWS))
@pytest.mark.parametrize("mode, h_factor", [("direct", True), ("direct", False),
                                            ("nullspace", False)],
                         ids=["direct_exact", "direct_ode", "nullspace"])
def test_identity_elimination_equals_the_unreduced_factors(case, mode, h_factor):
    # With no pin or tie active the elimination is the identity: a
    # segment's factor equals, bitwise, the mode's own factor of the
    # unreduced active rows, built here as the reference.
    rng = np.random.default_rng(sorted(GENERAL_ROWS).index(case))
    cs, active = GENERAL_ROWS[case](rng)
    h = random_problem(rng, cs)
    kind = "eq" if cs.n_eq else "ineq"
    n_rows = cs.n_eq + cs.n_ineq
    config = SetConfiguration(**{f"zero_{kind}": active,
                                 f"pos_{kind}": sorted(set(range(n_rows)) - set(active))})
    # The runner hands the exact engine its per-path factor of H.
    ctx = _SegmentContext(QuadraticLoss(h, np.zeros(cs.dim)), cs, config, np.zeros(cs.dim),
                          mode=mode, hessian=h, h_factor=hessian_factor(h) if h_factor else None)
    factor = ctx._factor(0.5, ctx.beta0)
    assert isinstance(factor, EliminatedFactor) and factor.elim.structured.size == 0
    rows = config.active_rows(cs)
    if mode == "direct":
        reference = KKTFactor(hessian_factor(h), rows)
    else:
        reference = NullspaceFactor(null_basis(rows, cs.dim), lambda: h)
    for vec in (rng.standard_normal(cs.dim), rng.standard_normal((cs.dim, 2))):
        assert bitwise(factor.direction(vec), reference.direction(vec))
        assert bitwise(factor.multipliers(vec), reference.multipliers(vec))


def leaf_to_root_sums(p, pins, ties, w):
    """Each eliminated row's subtree sum of w, added one coordinate at a time
    from the leaf: pins (coordinates) at a run's end and ties (left
    coordinates) of adjacent coordinates."""
    sums = {}
    starts = [j for j in range(p) if j - 1 not in ties]
    for start in starts:
        end = start
        while end in ties:
            end += 1
        pin = [j for j in pins if start <= j <= end]
        # Walked from the end away from the root, which is the pin or else
        # the run's first coordinate.
        walk = range(start, end + 1) if pin and pin[0] == end else range(end, start - 1, -1)
        total = None
        for j in walk:
            total = w[j] if total is None else total + w[j]
            if j in pins:
                sums[("pin", j)] = total
            elif j - 1 in ties and walk.step < 0:
                sums[("tie", j - 1)] = total
            elif j in ties and walk.step > 0:
                sums[("tie", j)] = total
    return sums


@pytest.mark.parametrize("seed", range(20))
def test_run_sums_add_from_the_leaf(seed):
    # The multipliers of pins and ties are subtree sums of w, added as the
    # leaf-to-root solve adds them when each node has one child.
    rng = np.random.default_rng(seed)
    p = 30
    ties = sorted(rng.choice(p - 1, size=18, replace=False).tolist())
    runs = list(zip([j for j in range(p) if j - 1 not in ties],
                    [j for j in range(p) if j not in ties]))
    # One pin at one end of each of some runs.
    pins = sorted(int(run[rng.integers(2)]) for run in rng.permutation(runs)[:5])
    fused = fused_lasso(p).v_mat
    rows = np.vstack([3.0 * np.eye(p)[pins], -2.0 * fused[ties]])
    cs = ConstraintSystem(rows, np.zeros(len(rows)), np.zeros((0, p)), np.zeros(0))
    elim = Elimination(p, cs.row_shapes, np.arange(len(rows)))
    assert elim.tree is None and elim.general.size == 0
    keys = [("pin", j) for j in pins] + [("tie", j) for j in ties]
    for w in (rng.normal(size=p) * 10.0 ** rng.integers(-4, 5, size=p), rng.normal(size=(p, 2))):
        r = elim.multipliers(np.zeros((0,) + w.shape[1:]), w)
        oracle = leaf_to_root_sums(p, pins, ties, w)
        for position, key in enumerate(keys):
            # A row's entry at its child: coef at its first coordinate.
            coef = cs.row_shapes.coef[position]
            if elim.child[elim.structured == position] != cs.row_shapes.first[position]:
                coef = -coef
            assert np.array_equal(r[position], -oracle[key] / coef), key


@pytest.mark.parametrize("rows", [[0, 3], [0, 3, 5]], ids=["pins", "pins_and_a_tie"])
def test_reduced_hessian_factor_checks_the_whole_hessian(rows):
    # Pins only: one factor of H, free coordinates first, whose leading
    # block factors H_FF; with a tie, H is checked on its own.
    p = 6
    cs = ConstraintSystem(np.vstack([np.eye(p)[:5], fused_lasso(p).v_mat[4]]),
                          np.zeros(6), np.zeros((0, p)), np.zeros(0))
    h = random_problem(np.random.default_rng(2), cs)
    elim = Elimination(p, cs.row_shapes, np.array(rows))
    b = np.arange(elim.size, dtype=float)
    np.testing.assert_allclose(
        cho_solve(elim.hessian_factor(h), b), np.linalg.solve(elim.reduce_hessian(h), b), atol=1e-12
    )
    # Indefinite on the pinned coordinates only: the range-space method
    # still refuses it.
    h[0, 0] = -1.0
    cho_factor(elim.reduce_hessian(h))
    with pytest.raises(NotStrictlyConvex):
        elim.hessian_factor(h)


def test_diagonal_hessian_shortcuts_match_the_dense_algebra():
    h = np.diag(np.arange(1.0, 10.0))
    factor, dense = hessian_factor(h), cho_factor(h)
    assert np.array_equal(factor[0], dense[0]) and factor[1] == dense[1]
    with pytest.raises(NotStrictlyConvex):
        hessian_factor(np.diag([1.0, 0.0]))
    cs = mixed_system()
    elim = Elimination(cs.dim, cs.row_shapes, np.arange(cs.n_eq))
    np.testing.assert_allclose(elim.reduce_hessian(h), elim.z.T @ h @ elim.z, atol=1e-14)
    # With pins only (or nothing) eliminated, the free block of the factor
    # stays diagonal, with cho_solve's bits.
    for pins in ([1, 4], []):
        elim = Elimination(9, lasso(9).row_shapes, np.array(pins, dtype=int))
        factor, b = elim.hessian_factor(h), np.arange(1.0, elim.size + 1.0)
        assert isinstance(factor, penpath.sweeplin._DiagonalFactor)
        assert penpath.sweeplin._solve(factor, b).tobytes() == cho_solve(
            cho_factor(elim.reduce_hessian(h)), b).tobytes()


@pytest.mark.parametrize("pin_all", [False, True], ids=["some_free", "none_free"])
def test_dependent_pins_and_ties_are_rank_deficient(pin_all):
    cs = mixed_system()
    if pin_all:
        # Every coordinate pinned, and a general row left over.
        cs = ConstraintSystem(np.vstack([np.eye(3), np.ones(3)]), np.zeros(4),
                              np.zeros((0, 3)), np.zeros(0))
    h = random_problem(np.random.default_rng(1), cs)
    elim = Elimination(cs.dim, cs.row_shapes, np.arange(cs.n_eq))
    general = cs.v_mat[elim.general]
    reduced = elim.reduce_rows(general)
    with pytest.raises(RankDeficientActiveSet):
        KKTFactor(cho_factor(elim.reduce_hessian(h)), reduced)
    factor = EliminatedFactor(elim, NullspaceFactor(null_basis(reduced, elim.size), None), general)
    with pytest.raises(RankDeficientActiveSet):
        factor.multipliers(np.ones(cs.dim))


# -- exact pins and ties along whole paths ------------------------------------

def logistic(seed=7, n=60, p=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    eta = x @ np.array([1.0, 1.0, 0.0, 0.0, -1.0, -1.0][:p])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return GlmLoss(x, y, family="logistic")


def blocky_target(p=9):
    rng = np.random.default_rng(5)
    return np.repeat([1.0, -0.5, 2.0], p // 3) + 0.3 * rng.standard_normal(p)


def ggm_model():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((4, 4)) * 0.4 + np.eye(4)
    cov = np.linalg.inv(a @ a.T + 0.5 * np.eye(4))
    xs = rng.multivariate_normal(np.zeros(4), cov, size=80)
    model = GaussianGraphicalLoss(xs.T @ xs / 80)
    idx = model.offdiagonal_coordinates()
    v = np.eye(model.dim)[idx]
    return model, ConstraintSystem(v, np.zeros(len(idx)), np.zeros((0, model.dim)), np.zeros(0))


def lasso_case(loss):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 6))
    y = x @ np.array([1.5, 0.0, -1.0, 0.0, 0.5, 0.0]) + 0.5 * rng.normal(size=30)
    return loss.from_least_squares(x, y), lasso(6)


PATHS = {
    "lasso-exact": lambda: lasso_case(QuadraticLoss),
    "lasso-ode": lambda: (logistic(), lasso(6)),
    "fused-exact": lambda: (QuadraticLoss.from_target(blocky_target()), fused_lasso(9)),
    "fused-ode": lambda: (logistic(), fused_lasso(6)),
    "isotone-exact": lambda: (QuadraticLoss.from_target(blocky_target()), isotone(9)),
    "isotone-ode": lambda: (OdeQuadratic.from_target(blocky_target()), isotone(9)),
    "ggm-ode": ggm_model,
}


def exact_cells(sol):
    """Check every sampled point; returns how many pins and ties it checked."""
    shapes = sol.constraints.row_shapes
    n_eq = sol.constraints.n_eq
    checked = 0
    for rho in sol.rho_grid(per_segment=5):
        beta, cfg = sol.beta_at(rho), sol.config_at(rho)
        rows = np.array(cfg.zero_eq + tuple(n_eq + j for j in cfg.zero_ineq), dtype=int)
        pins = rows[shapes.kind[rows] == PIN]
        ties = rows[shapes.kind[rows] == TIE]
        assert np.array_equal(beta[shapes.first[pins]], shapes.value[pins]), rho
        assert np.array_equal(beta[shapes.first[ties]], beta[shapes.second[ties]]), rho
        checked += pins.size + ties.size
    return checked


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(PATHS))
def test_active_pins_and_ties_hold_exactly(case, mode):
    model, cs = PATHS[case]()
    sol = run_path(model, cs, mode=mode)
    assert sol.status == "terminated" and sol.mode == mode
    assert exact_cells(sol) > 0
    # The terminal point satisfies every equality row exactly too.
    if case.startswith(("lasso", "ggm")):
        assert not np.any(sol.terminal_beta[cs.row_shapes.first])


@pytest.mark.parametrize("mode", MODES)
def test_backward_path_starts_exact(mode):
    model = QuadraticLoss.from_target(blocky_target())
    sol = run_path(model, fused_lasso(9), mode=mode, direction="backward", rho_min=1e-3)
    assert np.unique(sol.segments[0].beta_start).size == 1
    assert exact_cells(sol) > 0


@pytest.mark.filterwarnings("ignore::penpath.errors.SimultaneousEventWarning")
@pytest.mark.parametrize("mode", MODES)
def test_graph_guided_runs_with_several_pins(mode):
    # Unit edges between neighbours of equal degree are ties, so pins and
    # ties share runs.  A residual event that starts a segment within
    # event_tol of zero fires event_tol past it; the pinned run is put back
    # on its pin, so the run's second pin never fires and the active rows
    # stay independent (the direct mode used to raise RankDeficientActiveSet).
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 12))
    y = x @ np.repeat([1.0, 0.0, -1.0], 4) + 0.3 * rng.normal(size=40)
    model = QuadraticLoss.from_least_squares(x, y)
    cs = graph_guided(12, [(i, i + 1, 1.0) for i in range(11)])
    sol = run_path(model, cs, mode=mode)
    assert exact_cells(sol) > 0
    for rho in np.linspace(0.05, 1.2 * sol.kinks[-1].rho, 5):
        oracle = solve_fixed_rho(model, cs, float(rho), tol=1e-11)
        assert np.abs(sol.beta_at(rho) - oracle.beta).max() < 1e-8


# -- no wasted algebra --------------------------------------------------------

def test_forward_fused_nullspace_path_forms_no_qr(monkeypatch):
    calls = []
    null_basis_ = penpath.path.null_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return null_basis_(*args, **kwargs)

    monkeypatch.setattr(penpath.path, "null_basis", counted)
    sol = run_path(QuadraticLoss.from_target(blocky_target()), fused_lasso(9), mode="nullspace")
    assert sol.status == "terminated" and len(sol.kinks) >= 8
    assert calls == []


def test_forward_lasso_direct_path_builds_no_schur_factor(monkeypatch):
    schur = []
    init = penpath.sweeplin.KKTFactor.__init__

    def counted(self, h_factor, u_active):
        init(self, h_factor, u_active)
        schur.append(self.s_factor is not None)

    monkeypatch.setattr(penpath.sweeplin.KKTFactor, "__init__", counted)
    model, cs = lasso_case(QuadraticLoss)
    sol = run_path(model, cs, mode="direct")
    assert sol.status == "terminated" and len(sol.kinks) >= 6
    assert schur and not any(schur)


def test_general_row_direct_path_factors_the_hessian_once(monkeypatch):
    # With nothing eliminated, the exact engine's segments reuse the
    # runner's factor of H, and each takes one direction solve: the general
    # rows' multipliers need no second.
    factors, directions = [], []
    hessian_factor_ = penpath.path.hessian_factor
    direction = penpath.sweeplin.KKTFactor.direction

    def counted_factor(h):
        factors.append(h.shape)
        return hessian_factor_(h)

    def counted_direction(self, u):
        directions.append(np.shape(u))
        return direction(self, u)

    monkeypatch.setattr(penpath.path, "hessian_factor", counted_factor)
    monkeypatch.setattr(penpath.sweeplin.KKTFactor, "direction", counted_direction)
    target = np.sin(np.linspace(0.0, 6.0, 12)) + 0.3 * np.random.default_rng(4).normal(size=12)
    sol = run_path(QuadraticLoss.from_target(target), shape(12, "convex"), mode="direct")
    assert sol.status == "terminated" and len(sol.kinks) >= 4
    assert factors == [(12, 12)]
    assert len(directions) <= len(sol.segments)
