"""Loss model interface: smooth convex losses with third-order information."""

import abc

import numpy as np


class LossModel(abc.ABC):
    """Smooth convex loss f with derivatives used by the path solver.

    Implementations provide the value, gradient, Hessian, and the action of
    the Hessian's directional derivative: dhessian(x, v) is the matrix
    d/de H(x + e v) at e = 0.  constant_hessian declares that H does not
    depend on x (so dhessian is identically zero); run_path then traces the
    path with its exact piecewise-linear engine instead of integrating it.
    """

    constant_hessian = False

    @property
    @abc.abstractmethod
    def dim(self):
        """Number of parameters."""

    @abc.abstractmethod
    def value(self, x):
        ...

    @abc.abstractmethod
    def gradient(self, x):
        ...

    @abc.abstractmethod
    def hessian(self, x):
        ...

    @abc.abstractmethod
    def dhessian(self, x, v):
        ...

    def newton_start(self):
        """Starting point for Newton minimization (must be in the domain)."""
        return np.zeros(self.dim)

    def _as_param(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter of shape ({self.dim},), got {x.shape}")
        return x
