"""Loss model interface: smooth convex losses with value, gradient and Hessian."""

import abc

import numpy as np


class LossModel(abc.ABC):
    """Smooth convex loss f with derivatives used by the path solver.

    Implementations provide dim and the value, gradient and Hessian of f.
    The path solver calls these and hessian_columns, whose default takes
    the columns from hessian; a loss overrides it where a few columns cost
    less than all of them.  `penpath solve` takes path.csv's negloglik
    column from values, whose default calls value on each row; a loss
    overrides it where a batch costs less.  constant_hessian declares that
    H does not depend on x; run_path then traces the path with its exact
    piecewise-linear engine instead of integrating it.
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

    def values(self, xs):
        """value at each row of xs, an (n, dim) array: an array of n floats,
        each bitwise the value of its row."""
        return np.array([self.value(x) for x in xs], dtype=float)

    def hessian_columns(self, x, cols):
        """H[:, cols], the Hessian's columns at the coordinates cols (an
        integer array, in any order): a (dim, len(cols)) array.

        The path solver asks for the same cols at every point of a segment
        (its free coordinates), so a loss may keep what depends on cols
        alone for the next call with equal cols, as the design losses keep
        their transposed block X[:, cols].T (losses/glm.py)."""
        return self.hessian(x)[:, cols]

    def newton_start(self):
        """Starting point for Newton minimization (must be in the domain)."""
        return np.zeros(self.dim)

    def _as_param(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected parameter of shape ({self.dim},), got {x.shape}")
        return x

    def _as_params(self, xs):
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected parameters of shape (n, {self.dim}), got {xs.shape}")
        return xs
