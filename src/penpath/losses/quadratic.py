"""Quadratic losses: f(x) = x^T A x / 2 - b^T x + c with A positive definite."""

import numpy as np

from ..sweeplin import check_symmetric
from .base import LossModel


class QuadraticLoss(LossModel):
    constant_hessian = True

    def __init__(self, a_mat, b, c=0.0):
        self.a_mat = check_symmetric(a_mat, name="quadratic form")
        self.b = np.asarray(b, dtype=float).ravel()
        if self.b.shape[0] != self.a_mat.shape[0]:
            raise ValueError("linear term does not match quadratic form dimension")
        self.c = float(c)

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

    def gradient(self, x):
        x = self._as_param(x)
        return self.a_mat @ x - self.b

    def hessian(self, x):
        self._as_param(x)
        return self.a_mat.copy()

    def dhessian(self, x, v):
        self._as_param(x)
        return np.zeros_like(self.a_mat)
