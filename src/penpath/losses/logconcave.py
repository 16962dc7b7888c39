"""Discrete log-concave maximum likelihood loss.

Parameters are the log-density values phi at the ordered support points.
With knot gaps delta_k and empirical frequencies freq, the loss is

    f(phi) = -sum_i freq_i phi_i + sum_k delta_k J_00(phi_k, phi_{k+1}),

the negative log-likelihood plus the integral of the piecewise log-linear
density (its Lagrangian normalization term).  At the optimum the density
exp(phi) interpolated log-linearly integrates to exactly one.  Derivatives
reduce to the moment integrals J_ab via d J_ab / dr = J_{a+1,b} and
d J_ab / ds = J_{a,b+1}.
"""

import numpy as np

from .base import LossModel
from .jkernel import j_table


class LogConcaveLoss(LossModel):
    def __init__(self, support, freq):
        self.support = np.asarray(support, dtype=float).ravel()
        self.freq = np.asarray(freq, dtype=float).ravel()
        if self.support.shape != self.freq.shape:
            raise ValueError("support and frequency lengths differ")
        if self.support.size < 2:
            raise ValueError("need at least two support points")
        self.delta = np.diff(self.support)
        if np.any(self.delta <= 0):
            raise ValueError("support points must be strictly increasing")
        if np.any(self.freq <= 0):
            raise ValueError("frequencies must be positive")
        if abs(self.freq.sum() - 1.0) > 1e-8:
            raise ValueError("frequencies must sum to one")

    @classmethod
    def from_samples(cls, samples):
        """Empirical support and frequencies from raw draws."""
        values, counts = np.unique(np.asarray(samples, dtype=float).ravel(),
                                   return_counts=True)
        return cls(values, counts / counts.sum())

    @property
    def dim(self):
        return self.support.shape[0]

    def _pairs(self, phi):
        return j_table(phi[:-1], phi[1:])

    def value(self, x):
        phi = self._as_param(x)
        tab = self._pairs(phi)
        return float(-self.freq @ phi + self.delta @ tab[0, 0])

    def gradient(self, x):
        phi = self._as_param(x)
        tab = self._pairs(phi)
        g = -self.freq.copy()
        g[:-1] += self.delta * tab[1, 0]
        g[1:] += self.delta * tab[0, 1]
        return g

    def hessian(self, x):
        phi = self._as_param(x)
        tab = self._pairs(phi)
        n = self.dim
        h = np.zeros((n, n))
        off = self.delta * tab[1, 1]
        idx = np.arange(n - 1)
        h[idx, idx + 1] = off
        h[idx + 1, idx] = off
        diag = np.zeros(n)
        diag[:-1] += self.delta * tab[2, 0]
        diag[1:] += self.delta * tab[0, 2]
        h[np.arange(n), np.arange(n)] = diag
        return h

    def newton_start(self):
        # Histogram-style log density: mass divided by the local gap.
        width = np.empty(self.dim)
        width[0] = self.delta[0]
        width[-1] = self.delta[-1]
        if self.dim > 2:
            width[1:-1] = 0.5 * (self.delta[:-1] + self.delta[1:])
        return np.log(self.freq / width)

    def density_integral(self, x):
        """Integral of the piecewise log-linear density exp(phi)."""
        phi = self._as_param(x)
        return float(self.delta @ self._pairs(phi)[0, 0])
