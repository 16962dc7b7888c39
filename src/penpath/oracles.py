"""Independent reference solvers used to certify the path solver.

Nothing here touches the KKT linear algebra, the ODE engine, or
the path iteration: fixed-penalty solutions come from ADMM with exact
proximal steps, isotonic projections from pool-adjacent-violators, sparse
precision matrices from coordinate descent with exact one-dimensional
minimization, and the moment integrals from adaptive Simpson quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .losses.quadratic import QuadraticLoss

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature for the moment integrals.

def quadrature_j(a, b, r, s, tol=1e-11):
    """J_ab(r, s) by adaptive Simpson quadrature to absolute tolerance."""
    if a < 0 or b < 0:
        raise ValueError("orders must be nonnegative")

    def f(t):
        return (1.0 - t) ** a * t ** b * math.exp((1.0 - t) * r + t * s)

    fl, fm, fh = f(0.0), f(0.5), f(1.0)
    whole = (fl + 4.0 * fm + fh) / 6.0
    return _simpson(f, 0.0, 1.0, fl, fm, fh, whole, tol, 60)


def _simpson(f, lo, hi, fl, fm, fh, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
    flm, frm = f(lm), f(rm)
    left = (mid - lo) / 6.0 * (fl + 4.0 * flm + fm)
    right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fh)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson(f, lo, mid, fl, flm, fm, left, tol / 2.0, depth - 1) + _simpson(
        f, mid, hi, fm, frm, fh, right, tol / 2.0, depth - 1
    )


# ---------------------------------------------------------------------------
# Pool-adjacent-violators for isotonic least squares.

def pava(y, direction="nondecreasing"):
    """Equal-weight isotonic projection of y."""
    y = np.asarray(y, dtype=float).ravel()
    if direction == "nonincreasing":
        return -pava(-y)
    if direction != "nondecreasing":
        raise ValueError(f"unknown direction {direction!r}")
    sums, counts = [], []
    for value in y:
        sums.append(value)
        counts.append(1)
        while len(sums) > 1 and sums[-1] / counts[-1] <= sums[-2] / counts[-2]:
            s, c = sums.pop(), counts.pop()
            sums[-1] += s
            counts[-1] += c
    out = np.empty_like(y)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = s / c
        pos += c
    return out


# ---------------------------------------------------------------------------
# ADMM for the penalized objective at a fixed rho.

@dataclass
class OracleResult:
    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool


def penalized_objective(model, cs, rho, beta):
    return model.value(beta) + cs.penalty(beta, rho)


def _soft_threshold(x, c):
    return np.sign(x) * np.maximum(np.abs(x) - c, 0.0)


def _pospart_prox(x, c):
    # prox of c * max(x, 0): shift the part above c, zero the band [0, c].
    out = x.copy()
    out[(x >= 0.0) & (x <= c)] = 0.0
    out[x > c] -= c
    return out


def _local_newton(value, gradient, hessian, x0, max_iter=100):
    """Damped Newton minimization of a smooth convex function from x0.

    Iterates until a step can no longer improve x in floating point: when
    the Newton step leaves x unchanged, or when the decrease it predicts
    (half the squared Newton decrement) is below the rounding of f, where
    the line search could no longer judge it.  Then the full step, accurate
    this close to the minimum, is taken as the last one.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = value(x)
    for _ in range(max_iter):
        g = gradient(x)
        step = -np.linalg.solve(hessian(x), g)
        slope = float(g @ step)
        x_full = x + step
        if -slope <= _EPS * (1.0 + abs(fx)) or np.array_equal(x_full, x):
            return x_full
        t = 1.0
        while t >= 1e-14:
            try:
                f_new = value(x + t * step)
            except DomainError:
                t *= 0.5
                continue
            if f_new <= fx + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return x
        x = x + t * step
        fx = f_new
    return x


def solve_fixed_rho(model, cs, rho, tol=1e-9, max_iter=100000):
    """Minimize f(beta) + rho * penalty(beta) by ADMM with exact prox steps.

    Splits z = [V; W] beta; the beta update is a Newton solve of the
    augmented objective (a single linear solve for quadratic losses), the z
    update applies soft-thresholding on equality rows and the positive-part
    prox on inequality rows.  Raises NoConvergence at the iteration cap.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    if cs.dim != model.dim:
        raise ValueError("constraint system dimension does not match the loss")
    c_mat, offsets = cs.stacked()
    m = c_mat.shape[0]
    beta = _local_newton(model.value, model.gradient, model.hessian, model.newton_start())
    if m == 0 or rho == 0.0:
        return OracleResult(beta, penalized_objective(model, cs, rho, beta), 0, True)

    n_eq = cs.n_eq
    tau = max(1.0, rho)
    z = c_mat @ beta
    u = np.zeros(m)
    ctc = c_mat.T @ c_mat
    is_quadratic = isinstance(model, QuadraticLoss)
    factor = None

    def beta_step(target, beta_warm):
        nonlocal factor
        if is_quadratic:
            if factor is None:
                factor = np.linalg.cholesky(model.a_mat + tau * ctc)
            rhs = model.b + tau * (c_mat.T @ target)
            w = np.linalg.solve(factor, rhs)
            return np.linalg.solve(factor.T, w)
        aug_value = lambda x: model.value(x) + 0.5 * tau * np.sum((c_mat @ x - target) ** 2)
        aug_grad = lambda x: model.gradient(x) + tau * (c_mat.T @ (c_mat @ x - target))
        aug_hess = lambda x: model.hessian(x) + tau * ctc
        return _local_newton(aug_value, aug_grad, aug_hess, beta_warm)

    for it in range(1, max_iter + 1):
        beta = beta_step(z - u, beta)
        cb = c_mat @ beta
        arg = cb + u - offsets
        z_new = np.empty(m)
        z_new[:n_eq] = offsets[:n_eq] + _soft_threshold(arg[:n_eq], rho / tau)
        z_new[n_eq:] = offsets[n_eq:] + _pospart_prox(arg[n_eq:], rho / tau)
        u += cb - z_new
        r_prim = np.abs(cb - z_new).max()
        r_dual = tau * np.abs(c_mat.T @ (z_new - z)).max()
        z = z_new
        if r_prim < tol and r_dual < tol:
            return OracleResult(
                beta, penalized_objective(model, cs, rho, beta), it, True
            )
        if it % 100 == 0:
            if r_prim > 10.0 * r_dual and tau < 1e8:
                tau *= 2.0
                u *= 0.5
                factor = None
            elif r_dual > 10.0 * r_prim and tau > 1e-6:
                tau *= 0.5
                u *= 2.0
                factor = None
    raise NoConvergence(f"ADMM did not reach tol={tol} in {max_iter} iterations")


# ---------------------------------------------------------------------------
# Coordinate descent for the l1-penalized Gaussian graphical model.

def _glasso_offdiag_update(omega, inv, sigma, i, j, rho):
    """Exact minimizer step for the symmetric pair (i, j), i != j."""
    # scipy's brentq, not the solver's port, keeps the oracle independent;
    # imported here so that importing the package does not load
    # scipy.optimize.
    from scipy.optimize import brentq

    aii, ajj, aij = inv[i, i], inv[j, j], inv[i, j]
    sij = sigma[i, j]
    w = omega[i, j]
    c2 = aij * aij - aii * ajj  # < 0 for positive definite inverses

    def dsmooth(theta):
        det = 1.0 + 2.0 * aij * theta + c2 * theta * theta
        return -(2.0 * aij + 2.0 * c2 * theta) / det + 2.0 * sij

    # Positive-definiteness bounds: roots of the determinant polynomial.
    disc = math.sqrt(aij * aij - c2)
    t1 = (-aij + disc) / c2
    t2 = (-aij - disc) / c2
    t_lo, t_hi = min(t1, t2), max(t1, t2)

    theta0 = -w  # kink of |w + theta|
    slope0 = dsmooth(theta0)
    if abs(slope0) <= rho:
        return theta0
    if slope0 + rho < 0.0:
        g = lambda t: dsmooth(t) + rho
        b = theta0 + 0.9 * (t_hi - theta0)
        while g(b) < 0.0:
            b = b + 0.9 * (t_hi - b)
        return brentq(g, theta0, b, xtol=1e-14)
    g = lambda t: dsmooth(t) - rho
    b = theta0 - 0.9 * (theta0 - t_lo)
    while g(b) > 0.0:
        b = b - 0.9 * (b - t_lo)
    return brentq(g, b, theta0, xtol=1e-14)


def glasso_kkt_residual(sigma, omega, rho, zero_tol=1e-12):
    """Largest violation of the stationarity conditions of the glasso objective."""
    grad = sigma - np.linalg.inv(omega)
    p = sigma.shape[0]
    worst = np.abs(np.diag(grad)).max()
    for i in range(p):
        for j in range(i + 1, p):
            g2 = 2.0 * grad[i, j]
            if abs(omega[i, j]) > zero_tol:
                worst = max(worst, abs(g2 + rho * np.sign(omega[i, j])))
            else:
                worst = max(worst, max(0.0, abs(g2) - rho))
    return worst


def glasso_coordinate(sigma, rho, tol=1e-8, max_sweeps=2000):
    """l1-penalized precision estimate by cyclic exact coordinate descent.

    Minimizes -log det(Omega) + tr(S Omega) + rho * sum_{i<j} |Omega_ij|
    over positive definite matrices.  Off-diagonal steps solve their
    one-dimensional subproblem exactly inside the positive-definite
    interval; diagonal steps have a closed form.  Convergence is declared
    on the KKT residual.
    """
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    omega = np.diag(1.0 / np.diag(sigma))
    for _ in range(max_sweeps):
        inv = np.linalg.inv(omega)
        for i in range(p):
            theta = 1.0 / sigma[i, i] - 1.0 / inv[i, i]
            if theta != 0.0:
                omega[i, i] += theta
                inv = np.linalg.inv(omega)
        for i in range(p):
            for j in range(i + 1, p):
                theta = _glasso_offdiag_update(omega, inv, sigma, i, j, rho)
                if theta != 0.0:
                    omega[i, j] += theta
                    omega[j, i] += theta
                    inv = np.linalg.inv(omega)
        if glasso_kkt_residual(sigma, omega, rho) <= tol:
            return omega
    raise NoConvergence(f"coordinate descent did not reach tol={tol} in {max_sweeps} sweeps")
