"""Moment integrals of log-linear segments.

J_ab(r, s) = integral_0^1 (1-t)^a t^b exp((1-t) r + t s) dt, for orders
a + b <= 2.  These are the building blocks of piecewise log-linear density
losses: J_00 integrates the density over a knot interval, orders 1 and 2
give its gradient and Hessian.

Two branches, split at u = |s - r| = 0.5 after exploiting the symmetry
J_ab(r, s) = J_ba(s, r) so that u >= 0:

* u <= 0.5: the series e^r a! sum_k (b+k)!/(a+b+k+1)! u^k/k!, whose terms
  are all positive, so no cancellation at any u in range.
* u > 0.5: closed forms for orders up to (1, 1) and upward recurrences for
  (2, 0) and (0, 2).  The recurrences divide by u, which is safe away from
  the series region.
"""

import math

import numpy as np

SERIES_SPLIT = 0.5

ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _series_value(a, b, lo, u):
    # e^lo * a! * sum_k (b+k)!/(a+b+k+1)! * u^k / k!, terms all positive.
    term = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
    term = np.full_like(u, term)
    total = term.copy()
    for k in range(60):
        term = term * u * (b + k + 1) / ((k + 1) * (a + b + k + 2))
        total += term
        if np.all(term < 1e-19):
            break
    return np.exp(lo) * total


def _closed_table(lo, hi, u):
    er, es = np.exp(lo), np.exp(hi)
    d = es - er
    j = {}
    j[0, 0] = d / u
    j[1, 0] = (d / u - er) / u
    j[0, 1] = (es - d / u) / u
    j[1, 1] = ((es + er) - 2.0 * d / u) / u ** 2
    j[2, 0] = ((2.0 + u) * j[1, 0] - j[0, 0]) / u
    j[0, 2] = ((u - 2.0) * j[0, 1] + j[0, 0]) / u
    return j


def _series_table(lo, u):
    return {(a, b): _series_value(a, b, lo, u) for a, b in ORDERS}


def j_table(r, s):
    """All J_ab with a + b <= 2 at elementwise argument pairs.

    Returns a dict keyed by (a, b) of arrays broadcast to the common shape
    of r and s.
    """
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    shape = r.shape
    r, s = r.ravel(), s.ravel()
    lo, hi = np.minimum(r, s), np.maximum(r, s)
    u = hi - lo
    swapped = r > s
    near = u <= SERIES_SPLIT

    out = {ab: np.empty(r.shape) for ab in ORDERS}
    if np.any(near):
        tab = _series_table(lo[near], u[near])
        for a, b in ORDERS:
            vals = np.where(swapped[near], tab[b, a], tab[a, b])
            out[a, b][near] = vals
    far = ~near
    if np.any(far):
        tab = _closed_table(lo[far], hi[far], u[far])
        for a, b in ORDERS:
            vals = np.where(swapped[far], tab[b, a], tab[a, b])
            out[a, b][far] = vals
    return {ab: out[ab].reshape(shape) for ab in ORDERS}


def j_kernel(a, b, r, s):
    """Scalar J_ab(r, s) for integer orders with a + b <= 2."""
    if (a, b) not in ORDERS:
        raise ValueError(f"orders must satisfy a, b >= 0 and a + b <= 2, got ({a}, {b})")
    table = j_table(np.array([r]), np.array([s]))
    return float(table[a, b][0])
