"""Quadratic losses: f(x) = x^T A x / 2 - b^T x + c with A positive definite."""

import numpy as np

from ..sweeplin import check_symmetric, diagonal_of
from .base import LossModel


class QuadraticLoss(LossModel):
    constant_hessian = True

    def __init__(self, a_mat, b, c=0.0):
        self.a_mat = check_symmetric(a_mat, name="quadratic form")
        self.b = np.asarray(b, dtype=float).ravel()
        if self.b.shape[0] != self.a_mat.shape[0]:
            raise ValueError("linear term does not match quadratic form dimension")
        self.c = float(c)
        self._diagonal = diagonal_of(self.a_mat)  # A's diagonal when A is diagonal, else None

    @classmethod
    def from_target(cls, target):
        """f(x) = ||x - target||^2 / 2."""
        target = np.asarray(target, dtype=float).ravel()
        return cls(np.eye(target.shape[0]), target, 0.5 * target @ target)

    @classmethod
    def from_least_squares(cls, design, response):
        """f(x) = ||response - design @ x||^2 / 2."""
        design = np.asarray(design, dtype=float)
        response = np.asarray(response, dtype=float).ravel()
        if design.shape[0] != response.shape[0]:
            raise ValueError("design and response row counts differ")
        return cls(design.T @ design, design.T @ response, 0.5 * response @ response)

    @property
    def dim(self):
        return self.b.shape[0]

    def value(self, x):
        x = self._as_param(x)
        return float(0.5 * x @ self.a_mat @ x - self.b @ x + self.c)

    def values(self, xs):
        # One stacked product per term, in value's order; each row's sums
        # come out bitwise value's (tests/test_sampling.py checks it).  A
        # diagonal A scales (0.5 * x) elementwise instead: the products with
        # A's zeros only add zeros to value's sums, which with finite x
        # leaves their bits.
        xs = self._as_params(xs)
        if self._diagonal is not None and np.isfinite(xs).all():
            half_xa = (0.5 * xs)[:, None, :] * self._diagonal
        else:
            half_xa = (0.5 * xs)[:, None, :] @ self.a_mat
        quadratic = half_xa @ xs[:, :, None]
        return quadratic[:, 0, 0] - (xs[:, None, :] @ self.b)[:, 0] + self.c

    def gradient(self, x):
        x = self._as_param(x)
        return self.a_mat @ x - self.b

    def hessian(self, x):
        self._as_param(x)
        return self.a_mat.copy()
