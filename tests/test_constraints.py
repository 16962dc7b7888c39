"""Constraint system validation and the structured-penalty builders."""

import numpy as np
import pytest

from penpath.constraints import (
    ConstraintSystem,
    concat,
    equalities,
    fused_lasso,
    graph_guided,
    inequalities,
    isotone,
    lasso,
    shape,
    trend_filter,
)
from penpath.errors import (
    DimensionTooSmall,
    InvalidEdge,
    NonIncreasingGrid,
    OverlapError,
)


# ---------------------------------------------------------------------------
# The container.

def test_system_shapes_and_residuals():
    cs = ConstraintSystem(
        np.array([[1.0, -1.0]]), np.array([0.5]),
        np.array([[0.0, 1.0]]), np.array([2.0]),
    )
    assert cs.dim == 2 and cs.n_eq == 1 and cs.n_ineq == 1
    beta = np.array([1.0, 3.0])
    assert cs.eq_residuals(beta) == pytest.approx([-2.5])
    assert cs.ineq_residuals(beta) == pytest.approx([1.0])
    # penalty = rho * (|V beta - d| + max(0, W beta - e))
    assert cs.penalty(beta, 2.0) == pytest.approx(2.0 * (2.5 + 1.0))
    assert cs.penalty(np.array([2.0, 0.5]), 2.0) == pytest.approx(2.0 * 1.0)
    stacked, offsets = cs.stacked()
    assert stacked.shape == (2, 2)
    assert offsets == pytest.approx([0.5, 2.0])


def test_system_validation():
    with pytest.raises(ValueError, match="different widths"):
        ConstraintSystem(np.eye(2), np.zeros(2), np.ones((1, 3)), np.zeros(1))
    with pytest.raises(ValueError, match="offset lengths"):
        ConstraintSystem(np.eye(2), np.zeros(3), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="non-finite"):
        equalities(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError, match="all-zero row"):
        inequalities(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_default_offsets_are_zero():
    cs = equalities(np.eye(3))
    assert cs.d == pytest.approx(np.zeros(3))
    cs = inequalities(np.ones((2, 3)))
    assert cs.e == pytest.approx(np.zeros(2))


# ---------------------------------------------------------------------------
# Builders.

def test_lasso_rows():
    cs = lasso(3)
    assert cs.v_mat == pytest.approx(np.eye(3))
    assert cs.n_ineq == 0
    with pytest.raises(DimensionTooSmall):
        lasso(0)


def test_fused_lasso_rows():
    cs = fused_lasso(4)
    expected = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    assert cs.v_mat == pytest.approx(expected)
    with pytest.raises(DimensionTooSmall):
        fused_lasso(1)


def test_cubic_trend_filter_rows():
    # One second-difference boundary row each end, fourth differences inside.
    cs = trend_filter(8, order=3)
    assert cs.v_mat.shape == (6, 8)
    assert cs.v_mat[0, :4] == pytest.approx([-1.0, 2.0, -1.0, 0.0])
    interior = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
    for k in range(4):
        assert cs.v_mat[1 + k, k : k + 5] == pytest.approx(interior)
        assert np.count_nonzero(cs.v_mat[1 + k]) == 5
    assert cs.v_mat[5, -4:] == pytest.approx([0.0, -1.0, 2.0, -1.0])


def test_trend_filter_order_zero_is_fused_lasso():
    assert trend_filter(6, order=0).v_mat == pytest.approx(fused_lasso(6).v_mat)


def test_trend_filter_annihilates_polynomials():
    # Interior rows of an order-k filter kill degree-k polynomials.
    t = np.arange(9, dtype=float)
    for order in (1, 2, 3):
        cs = trend_filter(9, order=order)
        lo = 1 if order >= 2 else 0
        hi = cs.n_eq - 1 if order >= 2 else cs.n_eq
        for deg in range(order + 1):
            res = cs.v_mat[lo:hi] @ t ** deg
            assert np.abs(res).max() < 1e-9


def test_trend_filter_validation():
    with pytest.raises(ValueError):
        trend_filter(8, order=-1)
    with pytest.raises(DimensionTooSmall):
        trend_filter(4, order=3)


def test_isotone_rows():
    up = isotone(3)
    assert up.w_mat == pytest.approx(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    assert up.n_eq == 0
    # Feasible means W beta <= 0: increasing vectors have no penalty.
    assert up.penalty(np.array([1.0, 2.0, 3.0]), 5.0) == 0.0
    assert up.penalty(np.array([3.0, 2.0, 1.0]), 5.0) == pytest.approx(10.0)
    down = isotone(3, direction="nonincreasing")
    assert down.w_mat == pytest.approx(-up.w_mat)
    with pytest.raises(ValueError):
        isotone(3, direction="zigzag")
    with pytest.raises(DimensionTooSmall):
        isotone(1)


def test_shape_rows_uniform():
    cc = shape(5, kind="concave")
    assert cc.w_mat.shape == (3, 5)
    assert cc.w_mat[1, 1:4] == pytest.approx([1.0, -2.0, 1.0])
    # Concave sequences are feasible, convex ones are penalized.
    hump = np.array([0.0, 2.0, 3.0, 2.0, 0.0])
    assert cc.penalty(hump, 1.0) == 0.0
    assert cc.penalty(-hump, 1.0) > 0.0
    cv = shape(5, kind="convex")
    assert cv.w_mat == pytest.approx(-cc.w_mat)
    with pytest.raises(ValueError):
        shape(5, kind="wiggly")
    with pytest.raises(DimensionTooSmall):
        shape(2)


@pytest.mark.parametrize("kind", ["concave", "convex"])
def test_shape_default_grid_is_the_unit_grid(kind):
    # The default rows are the divided differences at unit gaps, bit for
    # bit, and so the (1, -2, 1) stencil (negated for convex).
    p = 6
    rows = shape(p, kind=kind).w_mat
    np.testing.assert_array_equal(rows, shape(p, kind=kind, grid=np.arange(p)).w_mat)
    stencil = np.zeros((p - 2, p))
    for i in range(p - 2):
        stencil[i, i : i + 3] = (1.0, -2.0, 1.0)
    np.testing.assert_array_equal(rows, stencil if kind == "concave" else -stencil)


def test_shape_rows_on_grid():
    # Divided differences: row i is (1/g_i, -1/g_i - 1/g_{i+1}, 1/g_{i+1}).
    grid = np.array([0.0, 1.0, 3.0, 4.0])
    cs = shape(4, kind="concave", grid=grid)
    assert cs.w_mat[0, :3] == pytest.approx([1.0, -1.5, 0.5])
    assert cs.w_mat[1, 1:] == pytest.approx([0.5, -1.5, 1.0])
    # Any linear function of the grid sits exactly on the boundary.
    assert np.abs(cs.w_mat @ (2.0 * grid + 1.0)).max() < 1e-12
    with pytest.raises(NonIncreasingGrid):
        shape(4, grid=np.array([0.0, 2.0, 1.0, 3.0]))
    with pytest.raises(ValueError, match="grid length"):
        shape(4, grid=np.array([0.0, 1.0, 2.0]))


def test_graph_guided_rows():
    cs = graph_guided(4, [(0, 1, 0.8), (1, 2, -0.5)], ratio=2.0)
    # Degrees: node 0 and 2 have one edge, node 1 has two.
    assert cs.v_mat.shape == (6, 4)
    assert cs.v_mat[0] == pytest.approx([2.0, -2.0 / np.sqrt(2.0), 0.0, 0.0])
    assert cs.v_mat[1] == pytest.approx([0.0, 2.0 / np.sqrt(2.0), 2.0, 0.0])
    assert cs.v_mat[2:] == pytest.approx(np.eye(4))


def test_graph_guided_edge_validation():
    with pytest.raises(InvalidEdge, match="self edge"):
        graph_guided(3, [(1, 1, 0.5)])
    with pytest.raises(InvalidEdge, match="out of range"):
        graph_guided(3, [(0, 3, 0.5)])
    # No edges leaves just the identity block.
    assert graph_guided(3, []).v_mat == pytest.approx(np.eye(3))


# ---------------------------------------------------------------------------
# Block assembly.

def test_concat_contiguous():
    cs = concat([lasso(2), isotone(3)])
    assert cs.dim == 5 and cs.n_eq == 2 and cs.n_ineq == 2
    assert cs.v_mat[:, :2] == pytest.approx(np.eye(2))
    assert cs.v_mat[:, 2:] == pytest.approx(np.zeros((2, 3)))
    assert cs.w_mat[:, :2] == pytest.approx(np.zeros((2, 2)))
    assert cs.w_mat[0, 2:] == pytest.approx([1.0, -1.0, 0.0])


def test_concat_gap_leaves_columns_unpenalized():
    cs = concat([lasso(2), lasso(1)], offsets=[0, 3])
    assert cs.dim == 4
    assert np.abs(cs.v_mat[:, 2]).max() == 0.0


def test_concat_overlap_rejected():
    with pytest.raises(OverlapError, match="overlap"):
        concat([lasso(2), lasso(2)], offsets=[0, 1])
    with pytest.raises(OverlapError, match="negative"):
        concat([lasso(2)], offsets=[-1])
    with pytest.raises(ValueError, match="one offset per system"):
        concat([lasso(2), lasso(2)], offsets=[0])
    with pytest.raises(ValueError, match="at least one"):
        concat([])


def test_concat_preserves_offsets():
    a = equalities(np.eye(2), d=np.array([1.0, 2.0]))
    b = inequalities(np.array([[1.0, -1.0]]), e=np.array([0.5]))
    cs = concat([a, b])
    assert cs.d == pytest.approx([1.0, 2.0])
    assert cs.e == pytest.approx([0.5])
