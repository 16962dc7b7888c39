"""Constraint systems and builders for structured penalties.

A ConstraintSystem holds equality rows (V, d), entering the objective as
rho * ||V beta - d||_1, and inequality rows (W, e), entering as
rho * sum(max(0, W beta - e)).  Inequalities are oriented so that feasible
means W beta <= e.

Most rows the structured builders emit have one of two simple shapes, which
the path solver eliminates instead of treating as general rows (RowShapes):
a pin, one nonzero a at column j, holds beta_j = offset / a while active;
a tie, a at column j and -a at column j + 1 with offset 0, holds beta_j =
beta_{j+1}.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import DimensionTooSmall, InvalidEdge, NonIncreasingGrid, OverlapError

# Row shapes (RowShapes.kind).
GENERAL, PIN, TIE = 0, 1, 2


@dataclass(frozen=True)
class RowShapes:
    """The shape of each row of [V; W] (equality rows first).

    kind is PIN for a row with one nonzero, coef, at column first: it pins
    beta_first to value = offset / coef.  It is TIE for a row with offset 0
    and two nonzeros at adjacent columns, coef at first and -coef at second
    = first + 1: it ties beta_first to beta_second.  Every other row is
    GENERAL, also a two-term row on columns further apart.
    """

    kind: np.ndarray
    first: np.ndarray
    second: np.ndarray
    coef: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, rows, offsets):
        nonzero = rows != 0.0
        count = nonzero.sum(axis=1)
        first = nonzero.argmax(axis=1)
        second = rows.shape[1] - 1 - nonzero[:, ::-1].argmax(axis=1)
        at = np.arange(rows.shape[0])
        coef = rows[at, first]
        pin = count == 1
        tie = (count == 2) & (offsets == 0.0) & (second == first + 1) & (rows[at, second] == -coef)
        kind = np.where(pin, PIN, np.where(tie, TIE, GENERAL))
        # + 0.0 turns the -0.0 of a zero offset over a negative coefficient
        # into 0.0.
        value = np.where(pin, offsets / coef, 0.0) + 0.0
        return cls(kind, first, second, coef, value)


@dataclass(frozen=True)
class ConstraintSystem:
    v_mat: np.ndarray
    d: np.ndarray
    w_mat: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.v_mat, dtype=float))
        w = np.atleast_2d(np.asarray(self.w_mat, dtype=float))
        d = np.asarray(self.d, dtype=float).ravel()
        e = np.asarray(self.e, dtype=float).ravel()
        if v.size == 0:
            v = v.reshape(0, w.shape[1] if w.size else v.shape[-1])
        if w.size == 0:
            w = w.reshape(0, v.shape[1])
        if v.shape[1] != w.shape[1]:
            raise ValueError("equality and inequality rows have different widths")
        if d.shape[0] != v.shape[0] or e.shape[0] != w.shape[0]:
            raise ValueError("offset lengths do not match row counts")
        for name, mat in (("equality", v), ("inequality", w)):
            if mat.shape[0] and not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} rows contain non-finite entries")
            if mat.shape[0] and np.any(np.abs(mat).max(axis=1) == 0.0):
                raise ValueError(f"{name} system contains an all-zero row")
        object.__setattr__(self, "v_mat", v)
        object.__setattr__(self, "w_mat", w)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)

    @property
    def dim(self):
        return self.v_mat.shape[1]

    @property
    def n_eq(self):
        return self.v_mat.shape[0]

    @property
    def n_ineq(self):
        return self.w_mat.shape[0]

    def eq_residuals(self, beta):
        return self.v_mat @ beta - self.d

    def ineq_residuals(self, beta):
        return self.w_mat @ beta - self.e

    def penalty(self, beta, rho):
        """rho * (l1 part + positive part)."""
        eq = np.abs(self.eq_residuals(beta)).sum() if self.n_eq else 0.0
        ineq = np.maximum(self.ineq_residuals(beta), 0.0).sum() if self.n_ineq else 0.0
        return rho * (eq + ineq)

    def stacked(self):
        """All rows [V; W] and offsets [d; e] as one (m, p) system."""
        return np.vstack([self.v_mat, self.w_mat]), np.concatenate([self.d, self.e])

    @cached_property
    def stacked_rows(self):
        """stacked(), formed once per system and read-only, for the solver."""
        rows, offsets = self.stacked()
        rows.flags.writeable = offsets.flags.writeable = False
        return rows, offsets

    @cached_property
    def row_shapes(self):
        """RowShapes of the stacked rows, classified once per system."""
        return RowShapes.of(*self.stacked_rows)


def equalities(v_mat, d=None):
    """System with only l1-penalized rows."""
    v_mat = np.atleast_2d(np.asarray(v_mat, dtype=float))
    p = v_mat.shape[1]
    d = np.zeros(v_mat.shape[0]) if d is None else d
    return ConstraintSystem(v_mat, d, np.zeros((0, p)), np.zeros(0))


def inequalities(w_mat, e=None):
    """System with only positive-part-penalized rows."""
    w_mat = np.atleast_2d(np.asarray(w_mat, dtype=float))
    p = w_mat.shape[1]
    e = np.zeros(w_mat.shape[0]) if e is None else e
    return ConstraintSystem(np.zeros((0, p)), np.zeros(0), w_mat, e)


def lasso(p):
    """Identity equality rows: rho * ||beta||_1."""
    if p < 1:
        raise DimensionTooSmall("lasso needs p >= 1")
    return equalities(np.eye(p))


def fused_lasso(p):
    """First-difference rows: rho * sum |beta_{i+1} - beta_i|."""
    if p < 2:
        raise DimensionTooSmall("fused lasso needs p >= 2")
    v = np.zeros((p - 1, p))
    idx = np.arange(p - 1)
    v[idx, idx] = -1.0
    v[idx, idx + 1] = 1.0
    return equalities(v)


def _difference_row(order, sign=1.0):
    return sign * np.array([(-1) ** (order - j) * comb(order, j) for j in range(order + 1)])


def trend_filter(p, order=3):
    """Difference-penalty rows of the given order (cubic by default).

    Interior rows carry the (order+1)-th differences; for order >= 2 one
    boundary row at each end carries the (order-1)-th difference at the
    extreme positions with flipped sign, so unpenalized solutions are
    polynomial inside and relaxed to a lower degree at the boundary.
    order=0 reduces to the fused lasso.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if p < order + 2:
        raise DimensionTooSmall(f"trend filter of order {order} needs p >= {order + 2}")
    rows = []
    if order >= 2:
        stencil = _difference_row(order - 1, sign=-1.0)
        top = np.zeros(p)
        top[: order] = stencil
        rows.append(top)
    interior = _difference_row(order + 1)
    for i in range(p - order - 1):
        row = np.zeros(p)
        row[i : i + order + 2] = interior
        rows.append(row)
    if order >= 2:
        stencil = _difference_row(order - 1, sign=-1.0)
        bottom = np.zeros(p)
        bottom[p - order :] = stencil
        rows.append(bottom)
    return equalities(np.vstack(rows))


def isotone(p, direction="nondecreasing"):
    """Monotonicity rows: W beta <= 0 encodes the requested ordering."""
    if p < 2:
        raise DimensionTooSmall("isotone needs p >= 2")
    w = np.zeros((p - 1, p))
    idx = np.arange(p - 1)
    if direction == "nondecreasing":
        w[idx, idx] = 1.0
        w[idx, idx + 1] = -1.0
    elif direction == "nonincreasing":
        w[idx, idx] = -1.0
        w[idx, idx + 1] = 1.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return inequalities(w)


def shape(p, kind="concave", grid=None):
    """Curvature rows: concavity or convexity of beta over a grid.

    On the default unit-spaced grid, concave rows are (1, -2, 1) with
    W beta <= 0; convex is the negation.  On an explicit grid the rows
    compare successive divided differences.
    """
    if p < 3:
        raise DimensionTooSmall("shape constraints need p >= 3")
    if kind not in ("concave", "convex"):
        raise ValueError(f"unknown shape kind {kind!r}")
    grid = np.arange(p, dtype=float) if grid is None else np.asarray(grid, dtype=float).ravel()
    if grid.shape[0] != p:
        raise ValueError("grid length must equal p")
    gaps = np.diff(grid)
    if np.any(gaps <= 0):
        raise NonIncreasingGrid("grid points must be strictly increasing")
    rows = []
    for i in range(p - 2):
        row = np.zeros(p)
        row[i] = 1.0 / gaps[i]
        row[i + 1] = -1.0 / gaps[i] - 1.0 / gaps[i + 1]
        row[i + 2] = 1.0 / gaps[i + 1]
        rows.append(row)
    w = np.vstack(rows)
    if kind == "convex":
        w = -w
    return inequalities(w)


def graph_guided(p, edges, ratio=1.0):
    """Degree-normalized edge-difference rows plus identity lasso rows.

    Each edge (i, j, corr) contributes an l1 row with ratio/sqrt(deg_i) at
    position i and -ratio*sign(corr)/sqrt(deg_j) at position j, encouraging
    correlated neighbors toward equal (or opposite) values; the identity
    block keeps the plain sparsity penalty.
    """
    degree = np.zeros(p)
    checked = []
    for edge in edges:
        i, j, corr = int(edge[0]), int(edge[1]), float(edge[2])
        if i == j:
            raise InvalidEdge(f"self edge at node {i}")
        if not (0 <= i < p and 0 <= j < p):
            raise InvalidEdge(f"edge ({i}, {j}) out of range for p={p}")
        degree[i] += 1
        degree[j] += 1
        checked.append((i, j, corr))
    rows = []
    for i, j, corr in checked:
        row = np.zeros(p)
        row[i] = ratio / np.sqrt(degree[i])
        row[j] = -ratio * np.sign(corr) / np.sqrt(degree[j])
        rows.append(row)
    v = np.vstack(rows + [np.eye(p)]) if rows else np.eye(p)
    return equalities(v)


def concat(systems, offsets=None):
    """Assemble block systems acting on disjoint parameter ranges.

    offsets gives each block's starting column; by default blocks are laid
    out contiguously.  Overlapping blocks raise OverlapError.  Columns not
    covered by any block are left unpenalized.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("need at least one system")
    dims = [cs.dim for cs in systems]
    if offsets is None:
        offsets = np.concatenate([[0], np.cumsum(dims)[:-1]]).astype(int)
    else:
        offsets = np.asarray(offsets, dtype=int)
        if offsets.shape[0] != len(systems):
            raise ValueError("one offset per system required")
    total = int(max(o + q for o, q in zip(offsets, dims)))
    occupied = np.zeros(total, dtype=bool)
    for o, q in zip(offsets, dims):
        if o < 0:
            raise OverlapError("negative block offset")
        if occupied[o : o + q].any():
            raise OverlapError("constraint blocks overlap")
        occupied[o : o + q] = True

    v_parts, d_parts, w_parts, e_parts = [], [], [], []
    for cs, o in zip(systems, offsets):
        v = np.zeros((cs.n_eq, total))
        v[:, o : o + cs.dim] = cs.v_mat
        w = np.zeros((cs.n_ineq, total))
        w[:, o : o + cs.dim] = cs.w_mat
        v_parts.append(v)
        d_parts.append(cs.d)
        w_parts.append(w)
        e_parts.append(cs.e)
    return ConstraintSystem(
        np.vstack(v_parts), np.concatenate(d_parts),
        np.vstack(w_parts), np.concatenate(e_parts),
    )
