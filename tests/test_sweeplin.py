"""KKT factor and null basis."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from penpath.errors import NonFiniteDerivative, RankDeficientActiveSet
from penpath.sweeplin import KKTFactor, NullBasis, null_basis


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


def bordered_inverse(h, u):
    """Oracle: dense inverse of the bordered matrix [[H, U^T], [U, 0]]."""
    p, m = h.shape[0], u.shape[0]
    k = np.block([[h, u.T], [u, np.zeros((m, m))]])
    kinv = np.linalg.inv(k)
    return kinv[:p, :p], kinv[:p, p:], kinv[p:, p:]


def kkt_factor(h, u):
    return KKTFactor(cho_factor(h), u)


def dense_blocks(kkt, p):
    """The blocks P and Q of the inverse bordered matrix, from a KKT factor:
    direction(e_j) = -P e_j and multipliers(e_j) = -Q^T e_j."""
    eye = np.eye(p)
    return -kkt.direction(eye), -kkt.multipliers(eye).T


def test_kkt_blocks_against_dense_inverse():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = int(rng.integers(3, 9))
        m = int(rng.integers(1, p))
        h = random_spd(rng, p)
        u = rng.standard_normal((m, p))
        kkt = kkt_factor(h, u)
        p_blk, q_blk = dense_blocks(kkt, p)
        r_blk = -cho_solve(kkt.s_factor, np.eye(m))
        p_ref, q_ref, r_ref = bordered_inverse(h, u)
        np.testing.assert_allclose(p_blk, p_ref, atol=1e-9)
        np.testing.assert_allclose(q_blk, q_ref, atol=1e-9)
        np.testing.assert_allclose(r_blk, r_ref, atol=1e-9)


def test_kkt_projection_annihilates_active_rows():
    rng = np.random.default_rng(4)
    h = random_spd(rng, 7)
    u = rng.standard_normal((3, 7))
    kkt = kkt_factor(h, u)
    p_blk, _ = dense_blocks(kkt, 7)
    assert np.abs(kkt.direction(u.T)).max() < 1e-8 * max(1.0, np.abs(p_blk).max())


def test_kkt_blocks_empty_active_set():
    kkt = kkt_factor(np.eye(4), np.zeros((0, 4)))
    p_blk, q_blk = dense_blocks(kkt, 4)
    np.testing.assert_array_equal(p_blk, np.eye(4))
    assert q_blk.shape == (4, 0)
    assert kkt.s_factor is None


def test_kkt_blocks_dependent_rows():
    u = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(RankDeficientActiveSet):
        kkt_factor(np.eye(3), u)


@pytest.mark.parametrize("rows", ["none", "some", "all"])
def test_kkt_factor_against_inverse_formulas(rows):
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = int(rng.integers(3, 9))
        m = {"none": 0, "some": int(rng.integers(2, p)), "all": p}[rows]
        h = random_spd(rng, p)
        u = rng.standard_normal((m, p))
        kkt = kkt_factor(h, u)
        h_inv = np.linalg.inv(h)
        q_t = np.zeros((0, p))
        if m:
            q_t = np.linalg.inv(u @ h_inv @ u.T) @ u @ h_inv
        proj = h_inv - h_inv @ u.T @ q_t
        vec, cols = rng.standard_normal(p), rng.standard_normal((p, 2))
        np.testing.assert_allclose(kkt.direction(vec), -(proj @ vec), atol=1e-9)
        np.testing.assert_allclose(kkt.multipliers(vec), -(q_t @ vec), atol=1e-9)
        np.testing.assert_allclose(kkt.multipliers(cols), -(q_t @ cols), atol=1e-9)
        assert kkt.multipliers(cols).shape == (m, 2)


def test_multipliers_reject_non_finite_vectors():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((2, 4))
    bad = np.array([1.0, np.nan, 0.0, 2.0])
    for factor in (kkt_factor(random_spd(rng, 4), u), null_basis(u)):
        with pytest.raises(NonFiniteDerivative):
            factor.multipliers(bad)
        with pytest.raises(NonFiniteDerivative):
            factor.multipliers(np.column_stack([np.ones(4), np.full(4, np.inf)]))


def test_null_basis_multipliers_match_least_squares():
    rng = np.random.default_rng(10)
    for _ in range(10):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(0, p + 1))
        u = rng.standard_normal((m, p))
        cols = u.T @ rng.standard_normal((m, 2))
        expect = np.linalg.lstsq(u.T, -cols, rcond=None)[0]
        np.testing.assert_allclose(null_basis(u).multipliers(cols), expect, atol=1e-9)
        np.testing.assert_allclose(null_basis(u).multipliers(cols[:, 0]), expect[:, 0], atol=1e-9)


@pytest.mark.parametrize(
    "u",
    [np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), np.vstack([np.eye(3), [[1.0, 1.0, 0.0]]])],
    ids=["dependent", "more_rows_than_columns"],
)
def test_null_basis_multipliers_dependent_rows(u):
    with pytest.raises(RankDeficientActiveSet):
        null_basis(u).multipliers(np.ones(3))


def test_null_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(0, p))
        u = rng.standard_normal((m, p))
        nb = null_basis(u)
        assert isinstance(nb, NullBasis)
        assert nb.basis.shape == (p, p - m)
        np.testing.assert_allclose(nb.basis.T @ nb.basis, np.eye(p - m), atol=1e-12)
        if m:
            assert np.abs(u @ nb.basis).max() < 1e-12 * max(1.0, np.abs(u).max())


def test_null_basis_edge_sizes():
    assert null_basis(np.zeros((0, 3))).basis.shape == (3, 3)
    nb = null_basis(np.eye(4))
    assert nb.basis.shape == (4, 0)


def test_null_basis_deterministic():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((2, 5))
    b1 = null_basis(u).basis
    b2 = null_basis(u.copy()).basis
    np.testing.assert_array_equal(b1, b2)
