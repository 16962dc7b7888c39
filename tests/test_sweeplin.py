"""Sweep operator, KKT blocks, null basis, and tableau algebra."""

import numpy as np
import pytest

from penpath.errors import PivotTooSmall, RankDeficientActiveSet
from penpath.sweeplin import (
    NullBasis,
    SweepTableau,
    inverse_sweep,
    kkt_blocks,
    null_basis,
    sweep,
)


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


def bordered_inverse(h, u):
    """Oracle: dense inverse of the bordered matrix [[H, U^T], [U, 0]]."""
    p, m = h.shape[0], u.shape[0]
    k = np.block([[h, u.T], [u, np.zeros((m, m))]])
    kinv = np.linalg.inv(k)
    return kinv[:p, :p], kinv[:p, p:], kinv[p:, p:]


def test_sweep_scalar():
    out = sweep(np.array([[2.0]]), 0)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(-0.5, abs=1e-15)


def test_sweep_known_2x2():
    # Sweeping both positions of an SPD matrix must give its negated inverse.
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    swept = sweep(sweep(a, 0), 1)
    np.testing.assert_allclose(swept, -np.linalg.inv(a), atol=1e-14)


def test_sweep_inverse_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_spd(rng, 5)
        k = rng.integers(5)
        back = inverse_sweep(sweep(a, k), k)
        np.testing.assert_allclose(back, a, atol=1e-10 * np.abs(a).max())


def test_full_sweep_is_negated_inverse():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = int(rng.integers(2, 8))
        a = random_spd(rng, p)
        out = a
        for k in range(p):
            out = sweep(out, k)
        np.testing.assert_allclose(out, -np.linalg.inv(a), atol=1e-9)


def test_sweep_order_irrelevant():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 6)
    ab = sweep(sweep(a, 1), 4)
    ba = sweep(sweep(a, 4), 1)
    np.testing.assert_allclose(ab, ba, atol=1e-11)


def test_sweep_rejects_tiny_pivot():
    a = np.diag([1.0, 0.0])
    with pytest.raises(PivotTooSmall):
        sweep(a, 1)


def test_sweep_rejects_asymmetric():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sweep(a, 0)


def test_kkt_blocks_against_dense_inverse():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = int(rng.integers(3, 9))
        m = int(rng.integers(1, p))
        h = random_spd(rng, p)
        u = rng.standard_normal((m, p))
        h_inv = np.linalg.inv(h)
        p_blk, q_blk, r_blk = kkt_blocks(h_inv, u)
        p_ref, q_ref, r_ref = bordered_inverse(h, u)
        np.testing.assert_allclose(p_blk, p_ref, atol=1e-9)
        np.testing.assert_allclose(q_blk, q_ref, atol=1e-9)
        np.testing.assert_allclose(r_blk, r_ref, atol=1e-9)


def test_kkt_projection_annihilates_active_rows():
    rng = np.random.default_rng(4)
    h = random_spd(rng, 7)
    u = rng.standard_normal((3, 7))
    p_blk, _, _ = kkt_blocks(np.linalg.inv(h), u)
    assert np.abs(p_blk @ u.T).max() < 1e-8 * max(1.0, np.abs(p_blk).max())


def test_kkt_blocks_empty_active_set():
    h_inv = np.eye(4)
    p_blk, q_blk, r_blk = kkt_blocks(h_inv, np.zeros((0, 4)))
    np.testing.assert_array_equal(p_blk, np.eye(4))
    assert q_blk.shape == (4, 0)
    assert r_blk.shape == (0, 0)


def test_kkt_blocks_dependent_rows():
    h_inv = np.eye(3)
    u = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
    with pytest.raises(RankDeficientActiveSet):
        kkt_blocks(h_inv, u)


def test_null_basis_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = int(rng.integers(2, 9))
        m = int(rng.integers(0, p))
        u = rng.standard_normal((m, p))
        nb = null_basis(u, p=p)
        assert isinstance(nb, NullBasis)
        assert nb.basis.shape == (p, p - m)
        np.testing.assert_allclose(nb.basis.T @ nb.basis, np.eye(p - m), atol=1e-12)
        if m:
            assert np.abs(u @ nb.basis).max() < 1e-12 * max(1.0, np.abs(u).max())


def test_null_basis_edge_sizes():
    assert null_basis(np.zeros((0, 3)), p=3).basis.shape == (3, 3)
    nb = null_basis(np.eye(4))
    assert nb.basis.shape == (4, 0)


def test_null_basis_deterministic():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((2, 5))
    b1 = null_basis(u).basis
    b2 = null_basis(u.copy()).basis
    np.testing.assert_array_equal(b1, b2)


def test_tableau_matches_kkt_blocks():
    rng = np.random.default_rng(7)
    p, m = 5, 3
    h = random_spd(rng, p)
    rows = rng.standard_normal((m, p))
    h_inv = np.linalg.inv(h)

    tab = SweepTableau(h_inv, rows)
    tab = tab.sweep_constraint(0, True)
    tab = tab.sweep_constraint(2, True)

    active = rows[[0, 2]]
    p_ref, q_ref, r_ref = kkt_blocks(h_inv, active)
    np.testing.assert_allclose(tab.p_block, p_ref, atol=1e-9)
    np.testing.assert_allclose(tab.q_block, q_ref, atol=1e-9)
    np.testing.assert_allclose(tab.r_block, r_ref, atol=1e-9)
    # Inactive column carries the projected row: P @ u_1^T.
    np.testing.assert_allclose(
        tab.inactive_columns([1])[:, 0], p_ref @ rows[1], atol=1e-9
    )


def test_tableau_sweep_roundtrip():
    rng = np.random.default_rng(8)
    h = random_spd(rng, 4)
    rows = rng.standard_normal((2, 4))
    tab = SweepTableau(np.linalg.inv(h), rows)
    fwd = tab.sweep_constraint(1, True)
    back = fwd.sweep_constraint(1, False)
    np.testing.assert_allclose(back.matrix, tab.matrix, atol=1e-10)
    assert not back.swept.any()


def test_tableau_dependent_activation():
    h_inv = np.eye(3)
    v = np.array([1.0, -1.0, 0.5])
    rows = np.vstack([v, 2.0 * v])
    tab = SweepTableau(h_inv, rows).sweep_constraint(0, True)
    with pytest.raises(PivotTooSmall):
        tab.sweep_constraint(1, True)


def test_tableau_double_activation_rejected():
    tab = SweepTableau(np.eye(2), np.array([[1.0, 0.0]]))
    tab = tab.sweep_constraint(0, True)
    with pytest.raises(ValueError):
        tab.sweep_constraint(0, True)
