"""Gaussian graphical model loss over lower-triangular precision coordinates.

The parameter vector x holds the lower triangle of the symmetric precision
matrix Omega in column-major order: (0,0), (1,0), ..., (p-1,0), (1,1), ...
The loss is f(Omega) = -log det Omega + trace(S Omega) for a sample
covariance S, restricted to the positive definite cone; gradient components
pick up a factor 2 on off-diagonal coordinates because each moves a
symmetric pair of entries.
"""

import numpy as np

from .._lapack import cho_factor, cho_solve
from ..errors import DomainError
from ..sweeplin import check_symmetric
from .base import LossModel


def tri_indices(p):
    """Row/column index arrays of the lower triangle, column-major."""
    rows, cols = [], []
    for j in range(p):
        for i in range(j, p):
            rows.append(i)
            cols.append(j)
    return np.array(rows), np.array(cols)


class GaussianGraphicalLoss(LossModel):
    def __init__(self, sample_cov):
        self.sample_cov = check_symmetric(sample_cov, rtol=1e-10, name="sample covariance")
        self.p = self.sample_cov.shape[0]
        if np.any(np.diag(self.sample_cov) <= 0):
            raise ValueError("sample covariance has nonpositive diagonal entries")
        self.rows, self.cols = tri_indices(self.p)
        self._mult = np.where(self.rows == self.cols, 1.0, 2.0)
        self._last = (None, None)  # _inverse's last point, by its bytes, and its inverse

    @property
    def dim(self):
        return self.p * (self.p + 1) // 2

    def to_matrix(self, x):
        x = self._as_param(x)
        m = np.zeros((self.p, self.p))
        m[self.rows, self.cols] = x
        m[self.cols, self.rows] = x
        return m

    def from_matrix(self, m):
        m = np.asarray(m, dtype=float)
        return m[self.rows, self.cols].copy()

    def offdiagonal_coordinates(self):
        """Coordinate indices of strictly-lower-triangle (off-diagonal) entries."""
        return np.flatnonzero(self.rows != self.cols)

    def _inverse(self, x):
        key = self._as_param(x).tobytes()
        if key != self._last[0]:
            try:
                factor = cho_factor(self.to_matrix(x))
            except np.linalg.LinAlgError:
                raise DomainError("precision matrix is not positive definite") from None
            inv = cho_solve(factor, np.eye(self.p))
            self._last = (key, 0.5 * (inv + inv.T))
        return self._last[1]

    def value(self, x):
        omega = self.to_matrix(x)
        try:
            factor, _ = cho_factor(omega)
        except np.linalg.LinAlgError:
            raise DomainError("precision matrix is not positive definite") from None
        logdet = 2.0 * np.sum(np.log(np.diag(factor)))
        return float(-logdet + np.sum(self.sample_cov * omega))

    def gradient(self, x):
        inv = self._inverse(x)
        grad_mat = self.sample_cov - inv
        return self._mult * grad_mat[self.rows, self.cols]

    def _rows(self, inv, k):
        """Rows k (an index array) of the Hessian, a (len(k), dim) array.

        Entry (k, a) is trace(inv E_k inv E_a), with E the coordinates'
        basis matrices (e_i e_j^T + e_j e_i^T off the diagonal, e_i e_i^T on
        it): entries of the Kronecker product inv (x) inv, two of them for
        an off-diagonal k, times 2 for an off-diagonal a (Boyd and
        Vandenberghe, Convex Optimization, App. A.4).
        """
        rk, ck = self.rows[k], self.cols[k]
        at_rows, at_cols = inv.take(self.rows, 1), inv.take(self.cols, 1)
        h = at_rows.take(rk, 0) * at_cols.take(ck, 0)
        off = (rk != ck).nonzero()[0]
        h[off] += at_cols.take(rk[off], 0) * at_rows.take(ck[off], 0)
        h *= self._mult
        return h

    def hessian(self, x):
        inv = self._inverse(x)
        h = self._rows(inv, np.arange(self.dim))
        return 0.5 * (h + h.T)

    def hessian_columns(self, x, cols):
        # inv is exactly symmetric, so _rows is too: its rows cols are the
        # columns cols of hessian's matrix, bit for bit.
        inv = self._inverse(x)
        return self._rows(inv, np.asarray(cols, dtype=int)).T

    def newton_start(self):
        return self.from_matrix(np.diag(1.0 / np.diag(self.sample_cov)))
