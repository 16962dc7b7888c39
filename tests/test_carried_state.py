"""The runner's set state, carried across kinks, against a rebuild from the
configuration and against the rows' sides, sums and gathers done by hand at
every segment; the size of what a finished path keeps of it; and
SetConfiguration.move against a fresh configuration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penpath.path
from penpath.constraints import (
    equalities,
    fused_lasso,
    graph_guided,
    isotone,
    lasso,
    shape,
    trend_filter,
)
from penpath.losses import QuadraticLoss
from penpath.path import (
    MODES,
    SetConfiguration,
    _EventTable,
    _SegmentContext,
    _SetState,
    run_path,
)
from penpath.sweeplin import Elimination

SET_FIELDS = ("neg_eq", "zero_eq", "pos_eq", "neg_ineq", "zero_ineq", "pos_ineq")
TABLE_FIELDS = ("codes", "rows", "res_sign", "res_rows", "res_offsets", "coef_pos", "coef_sign",
                "coef_bound")


class OdeQuadratic(QuadraticLoss):
    """A quadratic loss that the ODE engine traces."""

    constant_hessian = False


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def smooth_target(p, seed):
    rng = np.random.default_rng(seed)
    return np.sin(np.linspace(0.0, 6.0, p)) + 0.3 * rng.normal(size=p)


def least_squares(p, signal, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4 * p, p))
    return QuadraticLoss.from_least_squares(x, x @ signal + 0.3 * rng.normal(size=4 * p))


PATHS = {
    "lasso": lambda: (least_squares(6, np.array([2.0, 0.0, -1.0, 0.0, 0.5, 0.0]), 0), lasso(6)),
    "fused": lambda: (QuadraticLoss.from_target(np.repeat([1.0, -1.0, 2.0], 4)
                                                + 0.3 * np.random.default_rng(1).normal(size=12)),
                      fused_lasso(12)),
    "isotone": lambda: (QuadraticLoss.from_target(smooth_target(10, 2)), isotone(10)),
    "trend_filter_2": lambda: (QuadraticLoss.from_target(smooth_target(12, 3)),
                               trend_filter(12, order=2)),
    # On an uneven grid the rows' entries are not integers, so the order in
    # which u adds them shows in its bits.
    "convex_shape": lambda: (QuadraticLoss.from_target(smooth_target(10, 4)),
                             shape(10, "convex", grid=np.cumsum(np.linspace(0.6, 1.4, 10) ** 2))),
    # Dense rows: every row touches every column of the row that moves.
    "dense": lambda: (least_squares(8, np.array([1.0, -1.0, 0.5, 0.0, 2.0, 0.0, -0.5, 1.0]), 5),
                      equalities(np.random.default_rng(6).normal(size=(6, 8)))),
    # Pins and ties share runs, so a pin can sit inside a tied run.
    "graph_guided": lambda: (least_squares(12, np.repeat([1.0, 0.0, -1.0], 4), 3),
                             graph_guided(12, [(i, i + 1, 1.0) for i in range(11)])),
}


SIDES = {"neg": -1.0, "zero": 0.0, "pos": 1.0}


def stacked(cs, name, members):
    return np.add(members, cs.n_eq if name.endswith("_ineq") else 0).astype(int)


def check_u_by_hand(cs, cfg, u):
    """u against the signed inactive rows added one by one."""
    total, scale = np.zeros(cs.dim), np.zeros(cs.dim)
    for mat, neg, pos in ((cs.v_mat, cfg.neg_eq, cfg.pos_eq), (cs.w_mat, (), cfg.pos_ineq)):
        for sign, members in ((-1.0, neg), (1.0, pos)):
            for i in members:
                total += sign * mat[i]
                scale += np.abs(mat[i])
    rows = cs.stacked_rows[0]
    if np.array_equal(rows, np.round(rows)):
        # Sums of integers are exact in any order.
        assert bitwise(u, total)
    else:
        assert (np.abs(u - total) <= 1e-15 * scale).all()


def check_against_rebuild(cs, sets, ctx):
    cfg = sets.config
    # The spliced configuration is the one its own sets build: sorted tuples
    # of int, disjoint.
    assert cfg == SetConfiguration(**{name: getattr(cfg, name) for name in SET_FIELDS})
    assert all(type(i) is int for name in SET_FIELDS for i in getattr(cfg, name))
    fresh = _SetState.of(cs, cfg)
    for name in ("side", "u", "active", "residual"):
        assert bitwise(getattr(sets, name), getattr(fresh, name)), name
    assert bitwise(sets.u, cfg.inactive_subgradient(cs))
    check_u_by_hand(cs, cfg, sets.u)
    # The sides, the active rows and the residual rows by hand.
    side = np.zeros(cs.n_eq + cs.n_ineq)
    for name in SET_FIELDS:
        side[stacked(cs, name, getattr(cfg, name))] = SIDES[name.split("_")[0]]
    assert bitwise(sets.side, side)
    active = np.concatenate([stacked(cs, "zero_eq", cfg.zero_eq),
                             stacked(cs, "zero_ineq", cfg.zero_ineq)])
    assert bitwise(sets.active, active)
    residual = np.sort(np.concatenate([stacked(cs, name, getattr(cfg, name))
                                       for name in SET_FIELDS if not name.startswith("zero")]))
    assert bitwise(sets.residual, residual)
    table, rebuilt = _EventTable(sets), _EventTable(fresh)
    for name in TABLE_FIELDS:
        assert bitwise(getattr(table, name), getattr(rebuilt, name)), name
    assert (table.n_res, table.size) == (rebuilt.n_res, rebuilt.size)
    # The residual events' arrays as the stacked system's, gathered by hand.
    rows, offsets = cs.stacked_rows
    assert bitwise(table.res_rows, np.array([rows[i] for i in residual]).reshape(-1, cs.dim))
    assert bitwise(table.res_offsets, np.array([offsets[i] for i in residual], dtype=float))
    assert bitwise(table.res_sign, np.array([side[i] for i in residual], dtype=float))
    elim = Elimination(cs.dim, cs.row_shapes, active)
    assert vars(ctx.elim).keys() == vars(elim).keys()
    for name, value in vars(elim).items():
        if value is None or np.isscalar(value):
            assert getattr(ctx.elim, name) == value, name
        else:
            assert bitwise(getattr(ctx.elim, name), value), name


def backward_options(model, cs, mode):
    # Backward from inside a late segment of the forward path.
    forward = run_path(model, cs, mode=mode)
    seg = forward.segments[3 * len(forward.segments) // 4]
    rho = 0.5 * (seg.rho_start + seg.rho_end)
    return {"start_beta": forward.beta_at(rho), "rho_start": rho}


# Every path in both modes and directions on the exact engine, and two on
# the ODE engine, which carries the same state.  A backward start on the
# graph-guided path activates a tie and both of its pins, which are
# dependent rows (RankDeficientActiveSet), so that path runs forward only.
CASES = [
    (case, mode, direction, engine)
    for case in sorted(PATHS)
    for mode in MODES
    for direction in ("forward", "backward")
    for engine in ("exact", "ode")
    if (engine == "exact" or case in ("fused", "isotone"))
    and not (case == "graph_guided" and direction == "backward")
]


@pytest.mark.filterwarnings("ignore::penpath.errors.SimultaneousEventWarning")
@pytest.mark.parametrize("case, mode, direction, engine", CASES)
def test_carried_state_equals_a_rebuild_at_every_segment(
    monkeypatch, case, mode, direction, engine
):
    model, cs = PATHS[case]()
    if engine == "ode":
        model = OdeQuadratic(model.a_mat, model.b, model.c)
    options = {"mode": mode, "direction": direction}
    if direction == "backward":
        options.update(backward_options(model, cs, mode))
    real_context = penpath.path._PathRunner._context
    checked = []

    def context(runner):
        ctx = real_context(runner)
        check_against_rebuild(runner.cs, runner.sets, ctx)
        checked.append(ctx.config)
        return ctx

    monkeypatch.setattr(penpath.path._PathRunner, "_context", context)
    sol = run_path(model, cs, **options)
    assert len(sol.kinks) >= 4
    # Every segment's configuration was checked, one per kink and the first.
    assert len(checked) >= len(sol.kinks)


@pytest.mark.filterwarnings("ignore::penpath.errors.SimultaneousEventWarning")
@pytest.mark.parametrize("case", ["fused", "dense"])
def test_a_finished_ode_path_keeps_only_small_set_states(case):
    # Each ODE segment keeps its context, and with it a set state, for
    # lookups; each of that state's arrays is one entry per row or column.
    model, cs = PATHS[case]()
    sol = run_path(OdeQuadratic(model.a_mat, model.b, model.c), cs)
    assert len(sol.kinks) >= 4
    contexts = [getattr(seg._eval, "ctx", seg._eval) for seg in sol.segments]
    states = [ctx.sets for ctx in contexts if isinstance(ctx, _SegmentContext)]
    assert len(states) == len(sol.segments)
    bound = cs.n_eq + cs.n_ineq + cs.dim
    for sets in states:
        for name, value in vars(sets).items():
            assert not isinstance(value, np.ndarray) or value.size <= bound, name


# -- SetConfiguration.move ----------------------------------------------------

N_EQ, N_INEQ = 6, 5


@st.composite
def configurations(draw):
    """A partition of N_EQ equality and N_INEQ inequality rows."""
    eq = draw(st.lists(st.sampled_from(SET_FIELDS[:3]), min_size=N_EQ, max_size=N_EQ))
    ineq = draw(st.lists(st.sampled_from(SET_FIELDS[3:]), min_size=N_INEQ, max_size=N_INEQ))
    sets = {name: [i for i, to in enumerate(eq) if to == name] for name in SET_FIELDS[:3]}
    sets.update({name: [j for j, to in enumerate(ineq) if to == name] for name in SET_FIELDS[3:]})
    return SetConfiguration(**sets)


targets = st.sampled_from(("neg", "zero", "pos"))
moves = st.lists(
    st.one_of(
        st.tuples(st.just("eq"), st.integers(0, N_EQ - 1), targets),
        st.tuples(st.just("ineq"), st.integers(0, N_INEQ - 1), targets),
    ),
    max_size=12,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(configurations(), moves)
def test_move_equals_a_fresh_configuration(cfg, sequence):
    for row_kind, index, to in sequence:
        moved = cfg.move(row_kind, np.int64(index), f"{to}_{row_kind}")
        sets = {name: set(getattr(cfg, name)) for name in SET_FIELDS}
        for name in SET_FIELDS:
            if name.endswith(f"_{row_kind}"):
                sets[name].discard(index)
        sets[f"{to}_{row_kind}"].add(index)
        fresh = SetConfiguration(**sets)
        assert moved == fresh
        for name in SET_FIELDS:
            members = getattr(moved, name)
            assert type(members) is tuple and list(members) == sorted(members)
            assert all(type(i) is int for i in members)
        moved.check_partition(N_EQ, N_INEQ)
        cfg = moved


@settings(derandomize=True, max_examples=50, deadline=None)
@given(configurations())
def test_move_rejects_what_it_always_rejected(cfg):
    with pytest.raises(ValueError, match="bad target set 'zero_ineq' for eq row"):
        cfg.move("eq", 0, "zero_ineq")
    with pytest.raises(ValueError, match="unknown row kind 'both'"):
        cfg.move("both", 0, "zero_eq")
    with pytest.raises(ValueError, match=f"eq row {N_EQ} is not classified"):
        cfg.move("eq", N_EQ, "zero_eq")
    with pytest.raises(ValueError, match=f"ineq row {N_INEQ} is not classified"):
        cfg.move("ineq", N_INEQ, "pos_ineq")
