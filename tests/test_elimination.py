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


def dense_z(elim):
    """The p x groups matrix Z that an Elimination holds as index slices:
    group g's coordinates, heads[g] alone or, for g = multi[i], the slice
    of spans from span_starts[i] of span_sizes[i], each with entry one over
    the square root of their number."""
    z = np.zeros((elim.p, elim.size))
    z[elim.heads, np.arange(elim.size)] = 1.0
    for g, start, size in zip(elim.multi, elim.span_starts, elim.span_sizes):
        z[elim.spans[start:start + size], g] = 1.0 / np.sqrt(size)
    return z


def test_elimination_structure():
    cs = mixed_system()
    elim = Elimination(cs.dim, cs.row_shapes, np.arange(cs.n_eq))
    assert elim.general.tolist() == [4, 5, 6]
    assert sorted(elim.structured.tolist()) == [0, 1, 2, 3]
    assert elim.pinned.tolist() == [1, 2]
    assert elim.heads.tolist() == [0, 3, 4, 7, 8]
    assert elim.multi.tolist() == [2] and elim.spans.tolist() == [4, 5, 6]
    assert elim.span_sizes.tolist() == [3]
    z = dense_z(elim)
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
    assert elim.general.size == 2 and elim.multi.size
    general = rows[elim.general]
    reduced = elim.reduce_rows(general)
    vec = rng.standard_normal((p, 3))
    u = rng.standard_normal(p)

    full = KKTFactor(cho_factor(h), rows)
    # From all of H, as the exact engine has it, and from its columns at
    # the free coordinates, as the ODE engine evaluates them.
    columns = h[:, elim.free]
    for reduced_h, times in [(elim.reduce_hessian(h), h.__matmul__),
                             (elim.reduce_columns(columns), lambda v: columns @ v[elim.free])]:
        direct = EliminatedFactor(elim, KKTFactor(cho_factor(reduced_h), reduced), general, times)
        np.testing.assert_allclose(direct.direction(u), full.direction(u), atol=1e-10)
        np.testing.assert_allclose(direct.multipliers(vec), full.multipliers(vec), atol=1e-10)

    qr = null_basis(rows)
    nullspace = EliminatedFactor(
        elim, NullspaceFactor(null_basis(reduced), lambda: elim.reduce_hessian(h)),
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
        reference = NullspaceFactor(null_basis(rows), lambda: h)
    for vec in (rng.standard_normal(cs.dim), rng.standard_normal((cs.dim, 2))):
        assert bitwise(factor.direction(vec), reference.direction(vec))
        assert bitwise(factor.multipliers(vec), reference.multipliers(vec))


def leaf_to_root_sums(p, pins, ties, w):
    """Each eliminated row's child (its end away from its run's root) and
    the sum of w over the child's subtree, added one coordinate at a time
    from a leaf: pins (coordinates, at most one per run) and ties (left
    coordinates) of adjacent coordinates.  A run's root is its pin, else its
    first coordinate; the coordinates before the root are added from the
    run's first, those after it from its last, and a pin's subtree is the
    whole run, the first of these sums plus the second."""
    sums = {}
    for start in [j for j in range(p) if j - 1 not in ties]:
        end = start
        while end in ties:
            end += 1
        root = next((j for j in pins if start <= j <= end), start)
        up, down = {}, {}
        for leg, coordinates in ((up, range(start, root + 1)), (down, range(end, root, -1))):
            total = None
            for j in coordinates:
                total = w[j] if total is None else total + w[j]
                leg[j] = total
        for j in range(start, end):
            if j in ties:
                child = j if j < root else j + 1
                sums[("tie", j)] = child, up[child] if child <= root else down[child]
        if root in pins:
            sums[("pin", root)] = root, up[root] + down[root + 1] if root < end else up[root]
    return sums


@pytest.mark.parametrize("seed", range(20))
def test_run_sums_add_from_the_leaf(seed):
    # The multipliers of pins and ties are subtree sums of w, added from the
    # run's ends towards its root, wherever in its run a pin sits.
    rng = np.random.default_rng(seed)
    p = 30
    ties = sorted(rng.choice(p - 1, size=18, replace=False).tolist())
    runs = list(zip([j for j in range(p) if j - 1 not in ties],
                    [j for j in range(p) if j not in ties]))
    # One pin anywhere in each of some runs, inside it too.
    pins = sorted(int(rng.integers(start, end + 1)) for start, end in rng.permutation(runs)[:7])
    fused = fused_lasso(p).v_mat
    rows = np.vstack([3.0 * np.eye(p)[pins], -2.0 * fused[ties]])
    cs = ConstraintSystem(rows, np.zeros(len(rows)), np.zeros((0, p)), np.zeros(0))
    elim = Elimination(p, cs.row_shapes, np.arange(len(rows)))
    assert elim.general.size == 0
    keys = [("pin", j) for j in pins] + [("tie", j) for j in ties]
    for w in (rng.normal(size=p) * 10.0 ** rng.integers(-4, 5, size=p), rng.normal(size=(p, 2))):
        r = elim.multipliers(np.zeros((0,) + w.shape[1:]), w)
        oracle = leaf_to_root_sums(p, pins, ties, w)
        for position, key in enumerate(keys):
            # A row's entry at its child: coef at its first coordinate.
            child, total = oracle[key]
            coef = cs.row_shapes.coef[position]
            if child != cs.row_shapes.first[position]:
                coef = -coef
            assert np.array_equal(r[position], -total / coef), key


REDUCTIONS = {
    "mixed": lambda: (mixed_system(), None),
    "pins": lambda: (lasso(9), [1, 4, 8]),
    "identity": lambda: (lasso(9), []),
}


@pytest.mark.parametrize("case", sorted(REDUCTIONS))
def test_index_slices_act_as_the_dense_z(case):
    # Each product of the elimination against the same product with a
    # dense Z: bitwise when no group has more than one coordinate, whose
    # sums have one term and whose scale is 1.
    cs, rows = REDUCTIONS[case]()
    rows = np.arange(cs.n_eq) if rows is None else np.array(rows, dtype=int)
    elim = Elimination(cs.dim, cs.row_shapes, rows)
    z = dense_z(elim)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((cs.dim + 3, cs.dim))
    h = a.T @ a + 0.5 * np.eye(cs.dim)
    x, g = rng.standard_normal((cs.dim, 2)), rng.standard_normal((elim.size, 2))
    u = rng.standard_normal((4, cs.dim))
    diagonal = rng.random(cs.dim) + 0.5
    pairs = [
        (elim.reduce(x), z.T @ x),
        (elim.reduce(x[:, 0]), z.T @ x[:, 0]),
        (elim.expand(g), z @ g),
        (elim.expand(g[:, 0]), z @ g[:, 0]),
        (elim.reduce_diagonal(diagonal), np.diagonal(z.T @ np.diag(diagonal) @ z)),
        (elim.reduce_hessian(h), z.T @ h @ z),
        (elim.reduce_hessian(np.diag(diagonal)), z.T @ np.diag(diagonal) @ z),
        (elim.reduce_rows(u), u @ z),
    ]
    grouped = elim.multi.size > 0
    assert grouped == (case == "mixed")
    for ours, dense in pairs:
        if grouped:
            np.testing.assert_allclose(ours, dense, rtol=0.0, atol=1e-14)
        else:
            assert bitwise(ours, dense)


@pytest.mark.parametrize("rows", [[0, 3], [0, 3, 5]], ids=["pins", "pins_and_a_tie"])
def test_reduced_hessian_factor_checks_the_free_block(rows):
    # Z^T H Z from H's columns at the free coordinates, summed over the
    # tie, equals it from all of H; the range-space method factors it and
    # needs only it positive definite.
    p = 6
    cs = ConstraintSystem(np.vstack([np.eye(p)[:5], fused_lasso(p).v_mat[4]]),
                          np.zeros(6), np.zeros((0, p)), np.zeros(0))
    h = random_problem(np.random.default_rng(2), cs)
    elim = Elimination(p, cs.row_shapes, np.array(rows))
    assert elim.free.tolist() == [1, 2, 4, 5]
    reduced = elim.reduce_columns(h[:, elim.free])
    assert bitwise(reduced, elim.reduce_hessian(h))
    b = np.arange(elim.size, dtype=float)
    np.testing.assert_allclose(
        cho_solve(hessian_factor(reduced), b), np.linalg.solve(elim.reduce_hessian(h), b), atol=1e-12
    )
    # Indefinite on the pinned coordinates only: Z^T H Z never reads them.
    h[0, 0] = -1.0
    hessian_factor(elim.reduce_columns(h[:, elim.free]))
    # Indefinite on a free coordinate: the range-space method refuses it.
    h[1, 1] = -1.0
    with pytest.raises(NotStrictlyConvex):
        hessian_factor(elim.reduce_columns(h[:, elim.free]))


def test_diagonal_hessian_shortcuts_match_the_dense_algebra():
    h = np.diag(np.arange(1.0, 10.0))
    factor, dense = hessian_factor(h), cho_factor(h)
    assert np.array_equal(factor[0], dense[0]) and factor[1] == dense[1]
    with pytest.raises(NotStrictlyConvex):
        hessian_factor(np.diag([1.0, 0.0]))
    cs = mixed_system()
    elim = Elimination(cs.dim, cs.row_shapes, np.arange(cs.n_eq))
    z = dense_z(elim)
    np.testing.assert_allclose(elim.reduce_hessian(h), z.T @ h @ z, atol=1e-14)
    # With pins only (or nothing) eliminated, the free block of the factor
    # stays diagonal, with cho_solve's bits.
    for pins in ([1, 4], []):
        elim = Elimination(9, lasso(9).row_shapes, np.array(pins, dtype=int))
        factor = hessian_factor(elim.reduce_columns(h[:, elim.free]))
        b = np.arange(1.0, elim.size + 1.0)
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
    factor = EliminatedFactor(elim, NullspaceFactor(null_basis(reduced), None), general)
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
