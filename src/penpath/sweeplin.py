"""Sweep-operator linear algebra for bordered KKT systems.

Symmetric matrices are plain numpy arrays, validated on entry and kept
exactly symmetric by construction.  The sweep operator acts on a symmetric
tableau and is its own inverse up to sign bookkeeping; sweeping every
diagonal position of a positive definite matrix yields its negated inverse.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import PivotTooSmall, RankDeficientActiveSet

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


def _pivot_tol(scale):
    return PIVOT_RTOL * (1.0 + abs(scale))


def _sweep_core(a, k, col_sign, scale):
    # Shared kernel: sweep and inverse sweep differ only in the sign of the
    # pivot row/column written back.
    piv = a[k, k]
    if abs(piv) <= _pivot_tol(scale):
        raise PivotTooSmall(
            f"pivot {piv:.3e} at position {k} below tolerance {_pivot_tol(scale):.3e}"
        )
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
    a = check_symmetric(a)
    scale = np.abs(np.diag(a)).max() if a.size else 0.0
    return _sweep_core(a.copy(), k, 1.0, scale)


def inverse_sweep(a, k):
    """Undo a sweep on position `k`.  inverse_sweep(sweep(a, k), k) == a."""
    a = check_symmetric(a)
    scale = np.abs(np.diag(a)).max() if a.size else 0.0
    return _sweep_core(a.copy(), k, -1.0, scale)


def kkt_blocks(h_inv, u_active):
    """Blocks of the inverse bordered KKT matrix [[H, U^T], [U, 0]].

    Parameters
    ----------
    h_inv : (p, p) array, inverse of the positive definite Hessian H.
    u_active : (m, p) array of active constraint rows U (may have m = 0).

    Returns
    -------
    p_block : (p, p) array, H^-1 - H^-1 U^T (U H^-1 U^T)^-1 U H^-1.
        Projects onto directions feasible for the active rows: p_block @ U^T = 0.
    q_block : (p, m) array, H^-1 U^T (U H^-1 U^T)^-1 (multiplier map).
    r_block : (m, m) array, -(U H^-1 U^T)^-1.

    Raises RankDeficientActiveSet when U H^-1 U^T is numerically singular.
    """
    h_inv = check_symmetric(h_inv, name="h_inv")
    p = h_inv.shape[0]
    u_active = np.asarray(u_active, dtype=float)
    if u_active.size == 0:
        u_active = u_active.reshape(0, p)
    m = u_active.shape[0]
    if m == 0:
        return h_inv.copy(), np.zeros((p, 0)), np.zeros((0, 0))
    if u_active.shape[1] != p:
        raise ValueError("active rows do not match state dimension")

    uh = u_active @ h_inv
    inner = uh @ u_active.T
    inner = 0.5 * (inner + inner.T)
    try:
        factor = cho_factor(inner)
    except np.linalg.LinAlgError as exc:
        raise RankDeficientActiveSet(
            f"active constraint matrix has dependent rows ({m} rows): {exc}"
        ) from None
    q_block = cho_solve(factor, uh).T
    p_block = h_inv - q_block @ uh
    p_block = 0.5 * (p_block + p_block.T)
    r_block = -cho_solve(factor, np.eye(m))
    r_block = 0.5 * (r_block + r_block.T)

    resid = np.abs(p_block @ u_active.T).max()
    tol = 1e-8 * max(1.0, np.abs(p_block).max()) * max(1.0, np.abs(u_active).max())
    if resid > tol:
        raise RankDeficientActiveSet(
            f"projection residual {resid:.3e} exceeds {tol:.3e}; "
            "active rows are numerically dependent"
        )
    return p_block, q_block, r_block


@dataclass(frozen=True)
class NullBasis:
    """Orthonormal basis of the null space of the active constraint rows."""

    active_matrix: np.ndarray
    basis: np.ndarray


def null_basis(u_active, p=None):
    """Orthonormal null-space basis of the (m, p) active row matrix.

    With m = 0 rows the basis is the identity; with m = p it is empty.
    Uses a complete Householder QR of U^T, which is deterministic for
    identical input.
    """
    u_active = np.asarray(u_active, dtype=float)
    if u_active.size == 0:
        if p is None:
            p = u_active.shape[1] if u_active.ndim == 2 else 0
        u_active = u_active.reshape(0, p)
    m, p = u_active.shape
    if m == 0:
        return NullBasis(u_active, np.eye(p))
    q, _ = np.linalg.qr(u_active.T, mode="complete")
    return NullBasis(u_active, q[:, m:])


class SweepTableau:
    """Bordered tableau [[H^-1, H^-1 U^T], [U H^-1, U H^-1 U^T]] with sweep state.

    Sweeping the diagonal position of constraint k (tableau index p + k)
    moves that constraint into the active set; the swept tableau then holds
    the KKT blocks for the active rows.  Operations return new tableaus.
    """

    def __init__(self, h_inv, constraint_rows):
        h_inv = check_symmetric(h_inv, name="h_inv")
        self.p = h_inv.shape[0]
        rows = np.asarray(constraint_rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, self.p)
        self.n_constraints = rows.shape[0]
        if rows.shape[1] != self.p:
            raise ValueError("constraint rows do not match state dimension")
        hu = h_inv @ rows.T
        self.matrix = np.block([[h_inv, hu], [hu.T, rows @ hu]])
        self.matrix = 0.5 * (self.matrix + self.matrix.T)
        self.swept = np.zeros(self.n_constraints, dtype=bool)
        self.scale = np.abs(np.diag(self.matrix)).max() if self.matrix.size else 0.0

    def _raw_clone(self, matrix, swept):
        obj = object.__new__(SweepTableau)
        obj.p = self.p
        obj.n_constraints = self.n_constraints
        obj.matrix = matrix
        obj.swept = swept
        obj.scale = self.scale
        return obj

    def with_matrix(self, matrix):
        """Same sweep state, new entries (used by the tableau-mode integrator)."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != self.matrix.shape:
            raise ValueError("tableau shape mismatch")
        return self._raw_clone(0.5 * (matrix + matrix.T), self.swept.copy())

    @property
    def active_indices(self):
        return np.flatnonzero(self.swept)

    @property
    def p_block(self):
        return self.matrix[: self.p, : self.p]

    @property
    def q_block(self):
        """Columns for active constraints, in ascending constraint order."""
        return self.matrix[: self.p, self.p + self.active_indices]

    @property
    def r_block(self):
        idx = self.p + self.active_indices
        return self.matrix[np.ix_(idx, idx)]

    def inactive_columns(self, indices):
        return self.matrix[: self.p, self.p + np.asarray(indices, dtype=int)]

    def sweep_constraint(self, k, activate=True):
        if not 0 <= k < self.n_constraints:
            raise IndexError(f"constraint index {k} out of range")
        if self.swept[k] == activate:
            state = "active" if activate else "inactive"
            raise ValueError(f"constraint {k} is already {state}")
        pos = self.p + k
        piv = self.matrix[pos, pos]
        if abs(piv) <= _pivot_tol(self.scale):
            raise PivotTooSmall(
                f"tableau pivot {piv:.3e} for constraint {k} below tolerance; "
                "constraint is linearly dependent on the active set"
            )
        sign = 1.0 if activate else -1.0
        matrix = _sweep_core(self.matrix.copy(), pos, sign, self.scale)
        swept = self.swept.copy()
        swept[k] = activate
        return self._raw_clone(0.5 * (matrix + matrix.T), swept)
