"""Generalized linear model and quasi-likelihood losses.

GlmLoss covers the canonical families (normal, logistic, poisson), where
the negative log-likelihood is sum_i [psi(eta_i) - y_i eta_i] / scale with
eta = X beta and mean mu = psi'.  QuasiLoss covers user-supplied mean
functions mu(eta) and variance functions V(mu): the loss is the negative
quasi-likelihood -sum_i Q_i with dQ_i/dmu = (y_i - mu)/(scale V(mu)), and
its derivatives follow the exact chain rule including the variance
derivative terms, so the Hessian is the true second derivative, not the
Fisher approximation.  With a canonical pairing (V = mu' composed with the
inverse link) the two classes produce identical gradients and Hessians.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .base import LossModel


class Family:
    """Canonical exponential family: cumulant psi and mean derivatives."""

    def __init__(self, name, psi, mean, dmean, check_response):
        self.name = name
        self.psi = psi
        self.mean = mean
        self.dmean = dmean
        self.check_response = check_response


def _check_binary(y):
    if np.any((y < 0) | (y > 1)):
        raise ValueError("logistic responses must lie in [0, 1]")


def _check_counts(y):
    if np.any(y < 0):
        raise ValueError("poisson responses must be nonnegative")


def _checked_scale(scale):
    # An infinite scale passes "> 0" and divides every derivative to zero.
    scale = float(scale)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")
    return scale


def _logistic_dmean(mu):
    """The logistic mean's derivative, from the mean mu = expit(eta)."""
    return mu * (1.0 - mu)


def _logistic_d2mean(mu):
    """The logistic mean's second derivative, from the mean mu = expit(eta)."""
    return mu * (1.0 - mu) * (1.0 - 2.0 * mu)


FAMILIES = {
    "normal": Family(
        "normal",
        psi=lambda eta: 0.5 * eta ** 2,
        mean=lambda eta: eta,
        dmean=lambda eta: np.ones_like(eta),
        check_response=lambda y: None,
    ),
    "logistic": Family(
        "logistic",
        psi=lambda eta: np.logaddexp(0.0, eta),
        mean=expit,
        dmean=lambda eta: _logistic_dmean(expit(eta)),
        check_response=_check_binary,
    ),
    "poisson": Family(
        "poisson",
        psi=np.exp,
        mean=np.exp,
        dmean=np.exp,
        check_response=_check_counts,
    ),
}


class GlmLoss(LossModel):
    """Canonical-link GLM negative log-likelihood (up to constants in y).

    Parameters
    ----------
    design : (n, p) array.
    response : (n,) array.
    family : "normal", "logistic", "poisson", or a Family instance.
    scale : dispersion divisor (sigma^2 for the normal family, 1 otherwise).
    """

    def __init__(self, design, response, family="logistic", scale=1.0):
        self.design = np.asarray(design, dtype=float)
        self.response = np.asarray(response, dtype=float).ravel()
        if self.design.ndim != 2 or self.design.shape[0] != self.response.shape[0]:
            raise ValueError("design and response shapes are inconsistent")
        if isinstance(family, str):
            if family not in FAMILIES:
                raise ValueError(
                    f"unknown glm family {family!r}; expected one of {sorted(FAMILIES)}"
                )
            family = FAMILIES[family]
        self.family = family
        self.family.check_response(self.response)
        self.scale = _checked_scale(scale)
        # psi'' is constant only for the built-in normal family
        self.constant_hessian = self.family is FAMILIES["normal"]

    @property
    def dim(self):
        return self.design.shape[1]

    def value(self, x):
        eta = self.design @ self._as_param(x)
        return float(np.sum(self.family.psi(eta) - self.response * eta) / self.scale)

    def gradient(self, x):
        eta = self.design @ self._as_param(x)
        return self.design.T @ (self.family.mean(eta) - self.response) / self.scale

    def hessian(self, x):
        eta = self.design @ self._as_param(x)
        w = self.family.dmean(eta) / self.scale
        return (self.design * w[:, None]).T @ self.design


class QuasiLoss(LossModel):
    """Negative quasi-likelihood with user mean and variance functions.

    mean_fn is a tuple (mu, dmu, d2mu) of vectorized functions of the linear
    predictor; variance_fn is (V, dV) of vectorized functions of the mean.  Convexity is not guaranteed for arbitrary pairings.
    """

    def __init__(self, design, response, mean_fn, variance_fn, scale=1.0):
        self.design = np.asarray(design, dtype=float)
        self.response = np.asarray(response, dtype=float).ravel()
        if self.design.ndim != 2 or self.design.shape[0] != self.response.shape[0]:
            raise ValueError("design and response shapes are inconsistent")
        self.mu, self.dmu, self.d2mu = mean_fn
        self.var, self.dvar = variance_fn
        self.scale = _checked_scale(scale)

    @property
    def dim(self):
        return self.design.shape[1]

    def value(self, x):
        # -Q_i = -int_{y_i}^{mu_i} (y_i - t) / (scale V(t)) dt, by quadrature.
        eta = self.design @ self._as_param(x)
        mus = self.mu(eta)
        total = 0.0
        for yi, mi in zip(self.response, np.atleast_1d(mus)):
            val, _ = quad(lambda t: (yi - t) / self.var(np.asarray(t)), yi, mi,
                          limit=200)
            total -= val
        return total / self.scale

    def _weights(self, eta, order):
        y = self.response
        mu = self.mu(eta)
        d1 = self.dmu(eta)
        v = self.var(mu)
        resid = y - mu
        # g = mu'(eta) (y - mu) / V(mu); loss derivatives flip the sign.
        g = d1 * resid / v
        if order == 1:
            return -g
        d2 = self.d2mu(eta)
        dv = self.dvar(mu)
        g1 = d2 * resid / v - d1 ** 2 / v - d1 ** 2 * resid * dv / v ** 2
        return -g1

    def gradient(self, x):
        eta = self.design @ self._as_param(x)
        return self.design.T @ self._weights(eta, 1) / self.scale

    def hessian(self, x):
        eta = self.design @ self._as_param(x)
        w = self._weights(eta, 2) / self.scale
        return (self.design * w[:, None]).T @ self.design


# Named links and variance functions for spec-file construction.
LINKS = {
    "identity": (
        lambda eta: eta,
        lambda eta: np.ones_like(eta),
        lambda eta: np.zeros_like(eta),
    ),
    "logit": (
        expit,
        FAMILIES["logistic"].dmean,
        lambda eta: _logistic_d2mean(expit(eta)),
    ),
    "log": (np.exp, np.exp, np.exp),
}

VARIANCES = {
    "constant": (lambda mu: np.ones_like(mu), lambda mu: np.zeros_like(mu)),
    "identity": (lambda mu: mu, lambda mu: np.ones_like(mu)),
    "binomial": (lambda mu: mu * (1.0 - mu), lambda mu: 1.0 - 2.0 * mu),
}
