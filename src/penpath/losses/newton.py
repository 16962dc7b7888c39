"""Damped Newton minimization of smooth convex objectives."""

import numpy as np

from .._lapack import cho_factor, cho_solve
from ..errors import DivergenceError, DomainError

ARMIJO_SLOPE = 1e-4
BACKTRACK = 0.5
GRAD_RTOL = 1e-9
MAX_ITER = 200


def minimize_smooth(value, gradient, hessian, x0, max_iter=MAX_ITER):
    """Newton iteration with Armijo backtracking on callables.

    Stops when ||gradient||_inf <= 1e-9 * (1 + |f(x)|).  DomainError from a
    trial point shortens the step, and a step shortened until x no longer
    moves is replaced by the full Newton step; a failed line search, a
    singular Hessian, or an exhausted iteration budget raise DivergenceError.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = value(x)
    for _ in range(max_iter):
        g = gradient(x)
        if np.abs(g).max() <= GRAD_RTOL * (1.0 + abs(fx)):
            return x
        h = hessian(x)
        try:
            step = -cho_solve(cho_factor(h), g)
        except np.linalg.LinAlgError:
            raise DivergenceError("Hessian is singular away from the minimum") from None
        slope = float(g @ step)
        if slope >= 0:
            raise DivergenceError("Newton step is not a descent direction")
        t = 1.0
        while t >= 1e-14:
            try:
                f_new = value(x + t * step)
            except DomainError:
                t *= BACKTRACK
                continue
            if f_new <= fx + ARMIJO_SLOPE * t * slope:
                break
            t *= BACKTRACK
        else:
            raise DivergenceError("line search failed; objective may be unbounded")
        x_new = x + t * step
        if np.array_equal(x_new, x):
            # Near the minimum f(x + t step) can exceed f(x) by rounding
            # alone, and the search then shrinks t until the step vanishes.
            # A step that does not move repeats until the cap, so take the
            # full Newton step instead.
            x_new = x + step
            f_new = value(x_new)
        x, fx = x_new, f_new
    raise DivergenceError(f"no convergence in {max_iter} Newton iterations")


def unconstrained_minimum(model, x0=None, max_iter=MAX_ITER):
    """Minimize model.value from its suggested starting point.

    Returns x with ||gradient||_inf <= 1e-9 * (1 + |f(x)|).  Raises
    DivergenceError when the iteration cap is hit or the line search fails
    (e.g. the objective is unbounded below, as for separable logistic data).
    """
    x0 = model._as_param(model.newton_start() if x0 is None else x0)
    return minimize_smooth(model.value, model.gradient, model.hessian, x0, max_iter)
