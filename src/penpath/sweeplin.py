"""Linear algebra for bordered KKT systems.

The path derivative dbeta/drho = -P u and the active multipliers -Q^T vec
come from the bordered KKT matrix [[H, U^T], [U, 0]] of the active rows U.
Both textbook methods for equality-constrained quadratic programs live
here, behind the same two methods, direction(u) and multipliers(vec): the
range-space method (KKTFactor: Cholesky factors of H and of the Schur
complement U H^-1 U^T) and the null-space method (NullspaceFactor: a QR
factorization of the active rows, NullBasis, and the Cholesky factor of the
reduced Hessian Y^T H Y).

Every segment's KKT system goes through one Elimination of its active pins
and ties (constraints.RowShapes) before either method runs: with beta = c +
Z gamma, pinned coordinates are constants in c and each run of tied
coordinates is one coordinate of gamma, so the method sees only the
remaining general rows, Z^T H Z and Z^T u; Z is held as index slices,
never as a matrix.  With no general row active that is one Cholesky factor
of Z^T H Z, with no QR and no Schur complement.  The direction Z dgamma is
exactly 0 on pinned coordinates and exactly equal across a run.  The pins'
and ties' multipliers then follow from stationarity, by running sums along
the two legs of each run that end at its root (EliminatedFactor).  With no
pin or tie active the elimination is the identity, and the rows,
the factors and the multipliers are the method's own, bitwise.  Symmetric
matrices are plain numpy arrays, validated on entry (check_symmetric).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .constraints import PIN, TIE
from .errors import (
    NonFiniteDerivative,
    NotStrictlyConvex,
    RankDeficientActiveSet,
    ReducedHessianSingular,
)

PIVOT_RTOL = 1e-10
SYMMETRY_RTOL = 1e-12


def check_symmetric(a, rtol=SYMMETRY_RTOL, name="matrix"):
    """Validate that `a` is square and symmetric to relative tolerance."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = 1.0 + (np.abs(a).max() if a.size else 0.0)
    if a.size and np.abs(a - a.T).max() > rtol * scale:
        raise ValueError(f"{name} is not symmetric")
    return a


def _require_finite(vec):
    if not np.isfinite(vec).all():
        raise NonFiniteDerivative("gradient has non-finite entries at the current point")


class _DiagonalFactor(tuple):
    """The Cholesky factor (np.diag(s), False) that cho_factor computes for
    the diagonal matrix diag(s**2), with 1 / s kept: _solve applies it in
    O(n) by multiplying twice by 1 / s, the arithmetic of OpenBLAS's
    triangular solves, so it gives cho_solve's bits without its O(n^2)
    work."""

    def __new__(cls, root):
        factor = super().__new__(cls, (np.diag(root), False))
        factor.inverse = 1.0 / root
        return factor


def _solve(factor, b):
    """cho_solve(factor, b) for a Cholesky factor from _factor_hessian."""
    if isinstance(factor, _DiagonalFactor):
        inverse = factor.inverse.reshape((-1,) + (1,) * (np.ndim(b) - 1))
        return b * inverse * inverse
    return cho_solve(factor, b, check_finite=False)


def _factor_hessian(mat, singular_error, message):
    """Cholesky factor of a Hessian or its null-space restriction, or of the
    diagonal matrix whose diagonal the 1-D mat holds.

    Non-finite entries raise NonFiniteDerivative (a loss evaluated where
    its derivatives overflow), a failed factorization `singular_error`.
    """
    if not np.isfinite(mat).all():
        raise NonFiniteDerivative("Hessian has non-finite entries at the current point")
    diagonal = mat if mat.ndim == 1 else np.diagonal(mat)
    if mat.ndim == 1 or np.count_nonzero(mat) == np.count_nonzero(diagonal):
        # The factor that cho_factor computes, without its O(n^3) work.
        if (diagonal > 0.0).all():
            return _DiagonalFactor(np.sqrt(diagonal))
        if mat.ndim == 1:
            raise singular_error(message)
    try:
        return cho_factor(mat, check_finite=False)
    except np.linalg.LinAlgError:
        raise singular_error(message) from None


def hessian_factor(h):
    """Cholesky factor of the Hessian h (or of the diagonal matrix whose
    diagonal the 1-D h holds); raises NotStrictlyConvex unless h is positive
    definite."""
    return _factor_hessian(
        h, NotStrictlyConvex, "Hessian is not positive definite at the current point"
    )


class KKTFactor:
    """The bordered KKT matrix [[H, U^T], [U, 0]] in factored form.

    Built from the Cholesky factor of the positive definite Hessian H (as
    returned by cho_factor, computed from finite entries) and the active
    rows U (m, p; may have m = 0).  It keeps H^-1 U^T from one multi-column
    solve and the Cholesky factor of S = U H^-1 U^T, and applies the blocks
    of the inverse bordered matrix through solves; no inverse is formed.

    Raises RankDeficientActiveSet when S is numerically singular or the
    projection residual P U^T exceeds 1e-8 relative to H^-1 U^T.
    """

    def __init__(self, h_factor, u_active):
        p = h_factor[0].shape[0]
        u_active = np.asarray(u_active, dtype=float)
        if u_active.ndim != 2:
            u_active = u_active.reshape(-1, p)
        if u_active.ndim != 2 or u_active.shape[1] != p:
            raise ValueError("active rows do not match state dimension")
        m = u_active.shape[0]
        self.h_factor = h_factor
        self.s_factor = None
        self.h_inv_ut = np.zeros((p, 0))
        if m == 0:
            return
        # Constraint rows are validated finite, and so is H's factor.
        self.h_inv_ut = _solve(h_factor, u_active.T)
        s = u_active @ self.h_inv_ut
        s = 0.5 * (s + s.T)
        try:
            self.s_factor = cho_factor(s, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise RankDeficientActiveSet(
                f"active constraint matrix has dependent rows ({m} rows): {exc}"
            ) from None
        # P U^T without P: H^-1 U^T - H^-1 U^T S^-1 S vanishes unless the
        # rows are numerically dependent.
        s_inv_s = cho_solve(self.s_factor, s, check_finite=False)
        resid = np.abs(self.h_inv_ut - self.h_inv_ut @ s_inv_s).max()
        tol = 1e-8 * max(1.0, np.abs(self.h_inv_ut).max())
        if resid > tol:
            raise RankDeficientActiveSet(
                f"projection residual {resid:.3e} exceeds {tol:.3e}; "
                "active rows are numerically dependent"
            )

    def direction(self, u):
        """-P u with P = H^-1 - H^-1 U^T S^-1 U H^-1, for a finite vector u
        or for each column of u.

        P projects onto directions feasible for the active rows (P U^T = 0).
        """
        h_inv_u = _solve(self.h_factor, u)
        if self.s_factor is None:
            return -h_inv_u
        coef = cho_solve(self.s_factor, self.h_inv_ut.T @ u, check_finite=False)
        return self.h_inv_ut @ coef - h_inv_u

    def multipliers(self, vec):
        """-S^-1 U H^-1 vec for a vector vec or for each of its columns.

        A non-finite vec (a gradient that overflowed) raises
        NonFiniteDerivative.
        """
        _require_finite(vec)
        if self.s_factor is None:
            return np.zeros((0,) + np.shape(vec)[1:])
        return -cho_solve(self.s_factor, self.h_inv_ut.T @ vec, check_finite=False)


@dataclass(frozen=True)
class NullBasis:
    """Complete QR factorization U^T = [Q_1 Q_2] R of the active rows U.

    basis (Q_2) is an orthonormal basis of the null space of U, and
    range_basis (Q_1) with r_factor (the leading m rows of R) solves for
    multipliers.
    """

    active_matrix: np.ndarray
    basis: np.ndarray
    range_basis: np.ndarray
    r_factor: np.ndarray

    def multipliers(self, vec):
        """The r with U^T r = -vec, for vec in the range of U^T (a vector or
        each column of vec): solves R r = -Q_1^T vec.

        Raises RankDeficientActiveSet when the rows are dependent (min |diag R|
        below 1e-10 max |diag R|, or more rows than columns) and
        NonFiniteDerivative for a non-finite vec.
        """
        _require_finite(vec)
        m, p = self.active_matrix.shape
        if m == 0:
            return np.zeros((0,) + np.shape(vec)[1:])
        pivots = np.abs(np.diag(self.r_factor))
        if m > p or pivots.min() < PIVOT_RTOL * pivots.max():
            raise RankDeficientActiveSet(
                f"active constraint matrix has dependent rows ({m} rows in {p} columns)"
            )
        return solve_triangular(self.r_factor, -(self.range_basis.T @ vec), check_finite=False)


def null_basis(u_active, p=None):
    """Complete QR of the (m, p) active row matrix's transpose.

    With m = 0 rows the null-space basis is the identity; with m = p it is
    empty.  Uses a complete Householder QR of U^T, which is deterministic
    for identical input.
    """
    u_active = np.asarray(u_active, dtype=float)
    if u_active.ndim != 2:
        u_active = u_active.reshape(-1, p or 0)
    m, p = u_active.shape
    if m == 0:
        return NullBasis(u_active, np.eye(p), np.zeros((p, 0)), np.zeros((0, 0)))
    q, r = np.linalg.qr(u_active.T, mode="complete")
    return NullBasis(u_active, q[:, m:], q[:, :m], r[:m])


class NullspaceFactor:
    """The bordered KKT matrix by the null-space method.

    Built from the active rows' NullBasis (U^T = [Q_1 Q_2] R, Y = Q_2), or
    None when no row is active (Y = I, and no QR is formed), and a
    zero-argument callable giving the Hessian H (or, for a diagonal H, its
    diagonal), which is evaluated only when direction() is first asked for;
    multipliers() needs no Hessian.
    """

    def __init__(self, qr, hessian):
        self.qr = qr
        self.hessian = hessian
        self._reduced = None

    def direction(self, u):
        """-Y (Y^T H Y)^-1 Y^T u, the -P u of KKTFactor.direction; raises
        ReducedHessianSingular when Y^T H Y is not positive definite."""
        y_b = None if self.qr is None else self.qr.basis
        if y_b is not None and y_b.shape[1] == 0:
            return np.zeros(np.shape(u))
        if self._reduced is None:
            reduced = self.hessian()
            if y_b is not None:
                reduced = y_b.T @ (np.diag(reduced) if reduced.ndim == 1 else reduced) @ y_b
            self._reduced = _factor_hessian(
                0.5 * (reduced + reduced.T),
                ReducedHessianSingular,
                "Hessian restricted to the active null space is singular",
            )
        # u is a sum of validated constraint rows, so finite.
        if y_b is None:
            return -_solve(self._reduced, u)
        return -(y_b @ _solve(self._reduced, y_b.T @ u))

    def multipliers(self, vec):
        """The r with U^T r = -vec (see NullBasis.multipliers)."""
        if self.qr is None:
            _require_finite(vec)
            return np.zeros((0,) + np.shape(vec)[1:])
        return self.qr.multipliers(vec)


class Elimination:
    """beta = c + Z gamma for the pins and ties among one segment's active rows.

    rows are the active rows' indices into shapes (a constraints.RowShapes),
    in active order.  Ties join adjacent coordinates, so the tied groups are
    runs, slices of consecutive coordinates.  A pinned run (one with a pin)
    is constant in c, at the pin's value.  Every other run, a single free
    coordinate included, is one coordinate of gamma, in coordinate order:
    group g starts at heads[g], and Z holds 1 / sqrt(n) at each of its n
    coordinates, so Z^T Z = I and the null-space method's least-squares
    multipliers carry over.  Z is never formed.  A one-coordinate group is
    its head, gathered and scattered with its bits.  The longer groups,
    multi, are slices of spans: group multi[i] is spans[span_starts[i] :
    span_starts[i] + span_sizes[i]].  Only they are summed, as reduceat
    costs about as much per group as a gather does per entry, and only
    when there are some: with pins alone, numpy calls on their empty
    slices made the logistic_cv benchmark 8-14% slower end to end.

    The pins and ties form a forest, rooted at each free run's first
    coordinate and at a ground node that joins each pin.  A row that would
    close a cycle depends on the others and stays general: a second tie of
    the same pair, and a second pin in a run (the first in active order
    stays).  general and structured hold the positions (in active order)
    of the rows that stay general and of the eliminated ones.  Each
    eliminated row hangs by its child, its end away from the root (a pin's
    own coordinate), from the node on the root's side (the ground for a
    pin).  With no pin or tie among the rows, structured is empty and Z = I.
    """

    def __init__(self, p, shapes, rows):
        self.p = p
        kind, first = shapes.kind[rows], shapes.first[rows]
        pins = (kind == PIN).nonzero()[0]
        ties = (kind == TIE).nonzero()[0]
        left = first[ties]
        # unlinked[j]: coordinate j is not tied to j - 1, so starts a run.
        unlinked = np.ones(p, dtype=bool)
        unlinked[left + 1] = False
        if p - np.count_nonzero(unlinked) < ties.size:
            left, keep = np.unique(left, return_index=True)
            ties = ties[keep]
        run = unlinked.cumsum() - 1
        # Each run's first and last coordinate, and its root: its pin, else
        # its first coordinate.
        start = unlinked.nonzero()[0]
        end = np.concatenate((start[1:], [p])) - 1
        root = start.copy()
        pin_runs = run[first[pins]]
        pinned = np.zeros(start.size, dtype=bool)
        pinned[pin_runs] = True
        if np.count_nonzero(pinned) < pins.size:
            pin_runs, keep = np.unique(pin_runs, return_index=True)
            pins = pins[keep]
        root[pin_runs] = first[pins]
        run_value = np.zeros(start.size)
        run_value[pin_runs] = shapes.value[rows[pins]]

        # A pin's child is its coordinate, a tie's the end away from the root.
        child = np.concatenate([first[pins], left + 1 - (root[run[left]] > left)])
        self.structured = np.concatenate([pins, ties])
        # An eliminated row's multiplier needs the sum of w over its child's
        # subtree (multipliers).  Each run is two legs of subtrees ending at
        # its root: up from its first coordinate to the root, and down from
        # its last to just past the root.  walk[i, leg] is the coordinate i
        # steps along a leg (the n up legs first), so the running sums down
        # walk's columns are the subtree sums, read at `at`.  A pin's subtree
        # is its run: it adds the down leg's sum (at past_at) to the up leg's.
        # Past a leg's end the walk runs on through coordinates (a negative
        # index counts from the end) whose sums no child reads.
        n = start.size
        leaf = np.concatenate((start, end))
        steps = np.arange((end - start).max() + 1)[:, None]
        self.walk = np.minimum(np.concatenate((start + steps, end - steps), 1), p - 1)
        leg = run[child]
        leg += n * (child > root[leg])
        self.at = np.abs(child - leaf[leg]) * (2 * n) + leg
        self.past = (root[pin_runs] < end[pin_runs]).nonzero()[0]
        r = pin_runs[self.past]
        self.past_at = (end[r] - root[r] - 1) * (2 * n) + r + n

        general = np.ones(rows.size, dtype=bool)
        general[self.structured] = False
        self.general = general.nonzero()[0]
        # Each eliminated row's entry at its child: coef at first, -coef at
        # a tie's second.
        self.child_coef = shapes.coef[rows[self.structured]]
        self.child_coef[child != first[self.structured]] *= -1.0

        on_pinned = pinned[run]
        self.pinned = on_pinned.nonzero()[0]
        self.pin_values = run_value[run[self.pinned]]
        free = ~pinned
        self.heads = start[free]
        self.size = self.heads.size
        sizes = (end - start + 1)[free]
        self.multi = (sizes > 1).nonzero()[0]
        self.spans = (free & (end > start))[run].nonzero()[0]
        self.span_sizes = sizes[self.multi]
        self.span_starts = self.span_sizes.cumsum() - self.span_sizes
        self.span_scale = 1.0 / np.sqrt(self.span_sizes)

    def _sums(self, x, axis, scale):
        # Each group's entry as it is, or a longer group's sum times scale.
        sums = x.take(self.heads, axis)
        if self.multi.size:
            scale = scale.reshape((-1,) + (1,) * (x.ndim - 1 - axis))
            sums[(slice(None),) * axis + (self.multi,)] = scale * np.add.reduceat(
                x.take(self.spans, axis), self.span_starts, axis)
        return sums

    def reduce(self, x, axis=0):
        """Z^T x for a vector or for each column of x; along axis 1, x Z
        for each row of x."""
        return self._sums(x, axis, self.span_scale)

    def expand(self, g):
        """Z g: exactly 0 on pinned coordinates and one value across a
        group."""
        out = np.zeros((self.p,) + g.shape[1:])
        out[self.heads] = g
        if self.multi.size:
            scale = self.span_scale.reshape((-1,) + (1,) * (g.ndim - 1))
            out[self.spans] = (scale * g[self.multi]).repeat(self.span_sizes, 0)
        return out

    def reduce_hessian(self, h):
        """Z^T H Z: H on the free coordinates, summed over each group."""
        return self.reduce(self.reduce(h), 1)

    def reduce_diagonal(self, diagonal):
        """The diagonal of Z^T H Z for the diagonal H with this diagonal:
        each group's mean."""
        return self._sums(diagonal, 0, 1.0 / self.span_sizes)

    def hessian_factor(self, h):
        """The Cholesky factor of Z^T H Z, for the range-space method, which
        needs H itself positive definite (else NotStrictlyConvex)."""
        if self.multi.size:
            hessian_factor(h)
            return hessian_factor(self.reduce_hessian(h))
        # With no group of more than one coordinate, Z^T H Z is H's free
        # block, the leading block of H's factor with the free coordinates
        # first, so one factorization both checks H and factors Z^T H Z.
        first = np.concatenate([self.heads, self.pinned])
        factor = hessian_factor(h.take(first, 0).take(first, 1))
        if isinstance(factor, _DiagonalFactor):
            return _DiagonalFactor(np.diagonal(factor[0])[: self.size])
        return factor[0][: self.size, : self.size], factor[1]

    def reduce_rows(self, rows):
        """U Z for rows U (one per row)."""
        return self.reduce(rows, 1)

    def snap(self, beta):
        """beta, in place, with the pins and ties held exactly: each pinned
        coordinate at its pin's value, and each group whose values differ at
        their mean."""
        beta[self.pinned] = self.pin_values
        if self.multi.size:
            values = beta[self.spans]
            lo = np.minimum.reduceat(values, self.span_starts)
            hi = np.maximum.reduceat(values, self.span_starts)
            if (lo != hi).any():
                mean = np.add.reduceat(values, self.span_starts) / self.span_sizes
                beta[self.spans] = np.where(lo == hi, lo, mean).repeat(self.span_sizes)
        return beta

    def multipliers(self, r_general, w):
        """All active multipliers (in active order), given the general rows'
        r_general and w = vec + U_G^T r_general + H dbeta, which sums to 0
        over each group: the eliminated rows' r solves U_S^T r = -w, and the
        r of the edge above coordinate c is minus the sum of w over c's
        subtree divided by its entry at c."""
        legs = w.take(self.walk, 0).cumsum(0).reshape((-1,) + w.shape[1:])
        sums = legs[self.at]
        sums[self.past] += legs[self.past_at]
        r = np.empty((self.general.size + self.structured.size,) + np.shape(w)[1:])
        r[self.general] = r_general
        r[self.structured] = -sums / self.child_coef.reshape((-1,) + (1,) * (np.ndim(w) - 1))
        return r


class EliminatedFactor:
    """The bordered KKT matrix of every active row through an Elimination.

    inner is the mode's own factor (KKTFactor or NullspaceFactor) of the
    reduced system: Z^T H Z, the general rows U_G Z and vectors Z^T v.
    general_rows are U_G themselves.  hessian, a zero-argument callable
    giving H, selects the range-space multipliers (those of KKTFactor on
    every row); without it they are the null-space method's least-squares
    ones, which need no Hessian.
    """

    def __init__(self, elim, inner, general_rows, hessian=None):
        self.elim = elim
        self.inner = inner
        self.general_rows = general_rows
        self.hessian = hessian

    def direction(self, u):
        """-P u (see KKTFactor.direction), from the reduced system."""
        return self.elim.expand(self.inner.direction(self.elim.reduce(u)))

    def multipliers(self, vec):
        """The r of KKTFactor.multipliers (with hessian) or of
        NullBasis.multipliers (without) for every active row.

        The general rows' r comes from the reduced system.  The rest of
        stationarity, H delta + U^T r = -vec with delta the reduced step,
        gives the eliminated rows' r: delta is the reduced direction of vec
        in the range-space method, and minus the projection of vec + U_G^T
        r_general onto the range of Z in the null-space one.
        """
        _require_finite(vec)
        elim = self.elim
        reduced = elim.reduce(vec)
        r_general = self.inner.multipliers(reduced)
        if elim.structured.size == 0:
            return r_general
        w = vec + self.general_rows.T @ r_general
        if self.hessian is None:
            w = w - elim.expand(elim.reduce(w))
        else:
            w = w + self.hessian() @ elim.expand(self.inner.direction(reduced))
        return elim.multipliers(r_general, w)
