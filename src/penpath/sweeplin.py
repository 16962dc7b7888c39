"""Linear algebra for bordered KKT systems.

The path derivative dbeta/drho = -P u and the active multipliers -Q^T vec
come from the bordered KKT matrix [[H, U^T], [U, 0]] of the active rows U.
Both textbook methods for equality-constrained quadratic programs live
here, behind the same two methods, direction(u) and multipliers(vec): the
range-space method (KKTFactor: Cholesky factors of H and of the Schur
complement U H^-1 U^T) and the null-space method (NullspaceFactor: a QR
factorization of the active rows, NullBasis, and the Cholesky factor of the
reduced Hessian Y^T H Y).  The sweep operator acts on a symmetric matrix and is its own inverse up to
sign bookkeeping; sweeping every diagonal position of a positive definite
matrix yields its negated inverse.  Symmetric matrices are plain numpy
arrays, validated on entry and kept exactly symmetric by construction.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .errors import (
    NonFiniteDerivative,
    NotStrictlyConvex,
    PivotTooSmall,
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


def _sweep(a, k, col_sign):
    # Shared kernel: sweep and inverse sweep differ only in the sign of the
    # pivot row/column written back.
    a = check_symmetric(a)
    scale = np.abs(np.diag(a)).max() if a.size else 0.0
    tol = PIVOT_RTOL * (1.0 + scale)
    piv = a[k, k]
    if abs(piv) <= tol:
        raise PivotTooSmall(f"pivot {piv:.3e} at position {k} below tolerance {tol:.3e}")
    col = a[:, k].copy()
    out = a - np.outer(col, col) / piv
    out[k, :] = col_sign * col / piv
    out[:, k] = col_sign * col / piv
    out[k, k] = -1.0 / piv
    return out


def sweep(a, k):
    """Sweep the symmetric matrix `a` on diagonal position `k` (0-based).

    Returns a new array; `a` is not modified.  Raises PivotTooSmall when
    |a[k, k]| is below 1e-10 relative to the diagonal scale.
    """
    return _sweep(a, k, 1.0)


def inverse_sweep(a, k):
    """Undo a sweep on position `k`.  inverse_sweep(sweep(a, k), k) == a."""
    return _sweep(a, k, -1.0)


def _require_finite(vec):
    if not np.all(np.isfinite(vec)):
        raise NonFiniteDerivative("gradient has non-finite entries at the current point")


def _factor_hessian(mat, singular_error, message):
    """Cholesky factor of a Hessian or its null-space restriction.

    Non-finite entries raise NonFiniteDerivative (a loss evaluated where
    its derivatives overflow), a failed factorization `singular_error`.
    """
    if not np.all(np.isfinite(mat)):
        raise NonFiniteDerivative("Hessian has non-finite entries at the current point")
    try:
        return cho_factor(mat, check_finite=False)
    except np.linalg.LinAlgError:
        raise singular_error(message) from None


def hessian_factor(h):
    """Cholesky factor of the Hessian h; raises NotStrictlyConvex unless h
    is positive definite."""
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
        if u_active.size == 0:
            u_active = u_active.reshape(0, p)
        if u_active.ndim != 2 or u_active.shape[1] != p:
            raise ValueError("active rows do not match state dimension")
        m = u_active.shape[0]
        self.h_factor = h_factor
        self.s_factor = None
        self.h_inv_ut = np.zeros((p, 0))
        if m == 0:
            return
        # Constraint rows are validated finite, and so is H's factor.
        self.h_inv_ut = cho_solve(h_factor, u_active.T, check_finite=False)
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
        h_inv_u = cho_solve(self.h_factor, u, check_finite=False)
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
    if u_active.size == 0:
        if p is None:
            p = u_active.shape[1] if u_active.ndim == 2 else 0
        u_active = u_active.reshape(0, p)
    m, p = u_active.shape
    if m == 0:
        return NullBasis(u_active, np.eye(p), np.zeros((p, 0)), np.zeros((0, 0)))
    q, r = np.linalg.qr(u_active.T, mode="complete")
    return NullBasis(u_active, q[:, m:], q[:, :m], r[:m])


class NullspaceFactor:
    """The bordered KKT matrix by the null-space method.

    Built from the active rows' NullBasis (U^T = [Q_1 Q_2] R, Y = Q_2) and
    a zero-argument callable giving the Hessian H, which is evaluated only
    when direction() is first asked for; multipliers() needs no Hessian.
    """

    def __init__(self, qr, hessian):
        self.qr = qr
        self.hessian = hessian
        self._reduced = None

    def direction(self, u):
        """-Y (Y^T H Y)^-1 Y^T u, the -P u of KKTFactor.direction; raises
        ReducedHessianSingular when Y^T H Y is not positive definite."""
        y_b = self.qr.basis
        if y_b.shape[1] == 0:
            return np.zeros(np.shape(u))
        if self._reduced is None:
            reduced = y_b.T @ self.hessian() @ y_b
            self._reduced = _factor_hessian(
                0.5 * (reduced + reduced.T),
                ReducedHessianSingular,
                "Hessian restricted to the active null space is singular",
            )
        # u is a sum of validated constraint rows, so finite.
        return -(y_b @ cho_solve(self._reduced, y_b.T @ u, check_finite=False))

    def multipliers(self, vec):
        """The r with U^T r = -vec (see NullBasis.multipliers)."""
        return self.qr.multipliers(vec)
