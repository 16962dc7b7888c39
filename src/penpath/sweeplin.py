"""Sweep-operator linear algebra for bordered KKT systems.

Symmetric matrices are plain numpy arrays, validated on entry and kept
exactly symmetric by construction.  The sweep operator acts on a symmetric
matrix and is its own inverse up to sign bookkeeping; sweeping every
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

