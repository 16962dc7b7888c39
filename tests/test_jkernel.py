"""Moment integral J_ab: branches, symmetry, and quadrature agreement."""

import math

import numpy as np
import pytest

from penpath.losses.jkernel import ORDERS, SERIES_SPLIT, _closed_table, _series_table, j_kernel, j_table
from penpath.oracles import quadrature_j


def test_exact_values_at_equal_arguments():
    # J_ab(r, r) = e^r a! b! / (a+b+1)!.
    for a, b in ORDERS:
        for r in (-1.0, 0.0, 2.0):
            expected = (
                math.exp(r) * math.factorial(a) * math.factorial(b)
                / math.factorial(a + b + 1)
            )
            assert j_kernel(a, b, r, r) == pytest.approx(expected, rel=1e-13)


def test_hand_computed_values():
    # Closed-form integrals at (r, s) = (0, 1), checked by parts.
    e = math.e
    expected = {
        (0, 0): e - 1.0,
        (1, 0): e - 2.0,
        (0, 1): 1.0,
        (1, 1): 3.0 - e,
        (2, 0): 2.0 * e - 5.0,
        (0, 2): e - 2.0,
    }
    for a, b in ORDERS:
        assert j_kernel(a, b, 0.0, 1.0) == pytest.approx(expected[a, b], rel=1e-12)


def test_symmetry_swap():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r, s = rng.uniform(-3, 3, size=2)
        for a, b in ORDERS:
            assert j_kernel(a, b, r, s) == pytest.approx(
                j_kernel(b, a, s, r), rel=1e-12
            )


def test_branches_agree_at_split():
    rng = np.random.default_rng(1)
    lo = rng.uniform(-3, 3, size=20)
    u = np.full_like(lo, SERIES_SPLIT)
    series = _series_table(lo, u)
    closed = _closed_table(lo, lo + u, u)
    for ab in ORDERS:
        np.testing.assert_allclose(series[ab], closed[ab], rtol=1e-10)


def test_agreement_with_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r, s = rng.uniform(-3, 3, size=2)
        a, b = ORDERS[rng.integers(len(ORDERS))]
        ref = quadrature_j(a, b, r, s, tol=1e-13)
        assert j_kernel(a, b, r, s) == pytest.approx(ref, rel=1e-9)


def test_agreement_with_quadrature_nearly_equal_arguments():
    # |r - s| down to 1e-12: the cancellation-prone corner.
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.uniform(-3, 3)
        s = r + rng.uniform(-1, 1) * 10.0 ** rng.uniform(-12, -6)
        a, b = ORDERS[rng.integers(len(ORDERS))]
        ref = quadrature_j(a, b, r, s, tol=1e-13)
        assert j_kernel(a, b, r, s) == pytest.approx(ref, rel=1e-9)


def test_vectorized_matches_scalar():
    rng = np.random.default_rng(4)
    r = rng.uniform(-2, 2, size=15)
    s = rng.uniform(-2, 2, size=15)
    table = j_table(r, s)
    for a, b in ORDERS:
        for k in range(15):
            assert table[a, b][k] == pytest.approx(j_kernel(a, b, r[k], s[k]), rel=1e-13)


def test_derivative_identity():
    # dJ_ab/dr = J_{a+1,b} and dJ_ab/ds = J_{a,b+1}, by finite differences,
    # wherever both derivatives are orders the kernel computes.
    h = 1e-6
    pairs = [(a, b) for a, b in ORDERS if (a + 1, b) in ORDERS and (a, b + 1) in ORDERS]
    for a, b in pairs:
        for r, s in ((0.3, -0.9), (1.1, 1.4)):
            dr = (j_kernel(a, b, r + h, s) - j_kernel(a, b, r - h, s)) / (2 * h)
            ds = (j_kernel(a, b, r, s + h) - j_kernel(a, b, r, s - h)) / (2 * h)
            assert dr == pytest.approx(j_kernel(a + 1, b, r, s), rel=1e-7)
            assert ds == pytest.approx(j_kernel(a, b + 1, r, s), rel=1e-7)


def test_order_validation():
    with pytest.raises(ValueError):
        j_kernel(2, 1, 0.0, 1.0)
    with pytest.raises(ValueError):
        j_kernel(2, 2, 0.0, 1.0)
    with pytest.raises(ValueError):
        j_kernel(-1, 0, 0.0, 1.0)
