import math

import numpy as np
import pytest

from greensign.errors import IntegratorFailure
from greensign.fundamental import (TRANSFER_BLOCK_ENTRIES, FundamentalSolutions,
                                   _step_table, cumulative_products,
                                   transfer_matrix)
from greensign.potentials import constant, sampled


def rk4_step_matrices(q0, qm, q1, h):
    """The RK4 step matrices as a (..., n, 2, 2) stack; oracle."""
    q0, qm, q1 = np.broadcast_arrays(q0, qm, q1)
    out = np.empty(q0.shape + (2, 2))
    h2, h3, h4 = h * h, h**3, h**4
    out[..., 0, 0] = 1.0 - h2 * (q0 + 2.0 * qm) / 6.0 + h4 * qm * q0 / 24.0
    out[..., 0, 1] = h - h3 * qm / 6.0
    out[..., 1, 0] = -h * (q0 + 4.0 * qm + q1) / 6.0 + h3 * qm * (q0 + q1) / 12.0
    out[..., 1, 1] = 1.0 - h2 * (2.0 * qm + q1) / 6.0 + h4 * q1 * qm / 24.0
    return out


def q_samples(potential, lam, grid_size):
    T = potential.interval.T
    n = grid_size - 1
    ts = np.linspace(0.0, T, grid_size)
    a_nodes = potential(ts)
    a_mids = potential(ts[:-1] + 0.5 * (T / n))
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        return ts, a_nodes[:-1] + lam, a_mids + lam, a_nodes[1:] + lam
    return (ts, a_nodes[None, :-1] + lam[:, None], a_mids[None, :] + lam[:, None],
            a_nodes[None, 1:] + lam[:, None])


def matmul_transfer(potential, lam, grid_size):
    """Phi(T) by a product tree of np.matmul on padded 2x2 stacks; oracle."""
    ts, q0, qm, q1 = q_samples(potential, lam, grid_size)
    mats = rk4_step_matrices(q0, qm, q1, ts[1] - ts[0])
    n = mats.shape[-3]
    target = 1 << (n - 1).bit_length()
    if target != n:
        eye = np.broadcast_to(np.eye(2), mats.shape[:-3] + (target - n, 2, 2))
        mats = np.concatenate([mats, eye], axis=-3)
    while mats.shape[-3] > 1:
        mats = np.matmul(mats[..., 1::2, :, :], mats[..., 0::2, :, :])
    return mats[..., 0, :, :]


def scalar_cumulative(mats):
    """Node products from an (n, 2, 2) stack by numpy scalar indexing; oracle."""
    out = np.empty((len(mats) + 1, 2, 2))
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    out[0] = ((a, b), (c, d))
    for i in range(len(mats)):
        m = mats[i]
        m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        a, b, c, d = (m11 * a + m12 * c, m11 * b + m12 * d,
                      m21 * a + m22 * c, m21 * b + m22 * d)
        out[i + 1] = ((a, b), (c, d))
    return out


def trig(seed, n=2001):
    rng = np.random.default_rng(seed)
    g = np.linspace(0.0, 1.0, n)
    a = np.full_like(g, rng.uniform(0.0, 100.0))
    for k in range(1, 5):
        a += (rng.uniform(-4, 4) * np.cos(2 * math.pi * k * g)
              + rng.uniform(-4, 4) * np.sin(2 * math.pi * k * g))
    return sampled(g, a)


def wavy():
    g = np.linspace(0.0, 1.0, 2001)
    return sampled(g, 60 + 10 * np.sin(2 * math.pi * g))


POTENTIALS = {"wavy": wavy, "trig": lambda: trig(3),
              "constant": lambda: constant(3 * math.pi / 2)}


def assert_close_per_matrix(got, want, rtol):
    """Entrywise rtol, measured against the largest entry of each matrix:
    near an eigenvalue an entry of Phi(T) cancels to nearly zero, and both
    sides then carry the same absolute rounding, not the same relative one."""
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


class TestTransferMatrix:
    @pytest.mark.parametrize("grid", [9, 801, 2001])
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_matches_matmul_tree(self, name, grid):
        pot = POTENTIALS[name]()
        lams = np.linspace(-pot.sup_norm - 1.0, 400.0, 65)
        got = transfer_matrix(pot, lams, grid)
        assert got.shape == (65, 2, 2)
        assert_close_per_matrix(got, matmul_transfer(pot, lams, grid), 1e-12)
        one = transfer_matrix(pot, 3.25, grid)
        assert one.shape == (2, 2)
        assert_close_per_matrix(one, matmul_transfer(pot, 3.25, grid), 1e-12)

    def test_blocks_give_the_bits_of_single_shifts(self):
        pot = trig(5)
        lams = np.linspace(-110.0, 500.0, 3 * TRANSFER_BLOCK_ENTRIES // 2048 + 7)
        batched = transfer_matrix(pot, lams, 2001)
        assert np.array_equal(batched,
                              np.stack([transfer_matrix(pot, lam, 2001) for lam in lams]))
        assert transfer_matrix(pot, lams[:1], 2001).shape == (1, 2, 2)
        assert transfer_matrix(pot, lams[:0], 2001).shape == (0, 2, 2)

    def test_overflow_raises(self):
        g = np.linspace(0.0, 1.0, 201)
        pot = sampled(g, np.full_like(g, -1e8))
        with pytest.raises(IntegratorFailure):
            transfer_matrix(pot, 0.0, 201)
        with pytest.raises(IntegratorFailure):
            transfer_matrix(pot, np.array([0.0, 1.0]), 201)
        with pytest.raises(IntegratorFailure):
            FundamentalSolutions(pot, 0.0, 201)

    @pytest.mark.parametrize("grid", [1, 3, 5, 8])
    def test_too_few_nodes_raise(self, grid):
        pot = wavy()
        with pytest.raises(ValueError, match="at least 9"):
            transfer_matrix(pot, 0.0, grid)
        with pytest.raises(ValueError, match="at least 9"):
            FundamentalSolutions(pot, 0.0, grid)
        assert transfer_matrix(pot, 0.0, 9).shape == (2, 2)

    @pytest.mark.parametrize("amp", [10.0, 2000.0])
    def test_lift_is_the_node_angle_unwrapped(self, amp):
        # from node to node the angle of (u2, u2') turns by less than pi
        g = np.linspace(0.0, 1.0, 2001)
        pot = sampled(g, 60.0 + amp * np.sin(2 * math.pi * g))
        lams = np.linspace(-pot.sup_norm - 50.0, 3000.0, 9)
        phi, theta = transfer_matrix(pot, lams, 2001, lift=True)
        assert np.array_equal(phi, transfer_matrix(pot, lams, 2001))
        assert theta.shape == (9, 2)
        for lam, got in zip(lams, theta):
            fs = FundamentalSolutions(pot, lam, 2001)
            want = [np.unwrap(np.arctan2(fs.u1, fs.p1))[-1],
                    np.unwrap(np.arctan2(fs.u2, fs.p2))[-1]]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert np.array_equal(transfer_matrix(pot, lams[0], 2001, lift=True)[1],
                              theta[0])

    def test_lift_refuses_a_half_turn_step(self):
        # h**2 (a + lam) >= 6 makes the RK4 step entry M12 nonpositive
        with pytest.raises(IntegratorFailure):
            transfer_matrix(wavy(), 6.0 * 2000**2, 2001, lift=True)

    def test_table_is_built_once_per_grid(self, monkeypatch):
        pot = trig(7)
        calls = []
        original = type(pot).__call__
        monkeypatch.setattr(type(pot), "__call__",
                            lambda self, t: calls.append(np.size(t)) or original(self, t))
        transfer_matrix(pot, np.linspace(-100.0, 0.0, 65), 2001)
        transfer_matrix(pot, 1.5, 2001)
        FundamentalSolutions(pot, -20.0, 2001)
        assert sum(calls) == 2001 + 2000
        transfer_matrix(pot, 1.5, 801)
        assert sum(calls) == 2001 + 2000 + 801 + 800
        assert len(pot.cache) == 2

    def test_cache_leaves_equality_and_hash(self):
        a, b = constant(2.0), constant(2.0)
        transfer_matrix(a, 0.0, 101)
        assert a == b and hash(a) == hash(b)
        assert "cache" not in repr(a)


class TestFundamentalSolutions:
    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_cumulative_product_of_the_table_entries(self, name):
        pot = POTENTIALS[name]()
        lam = -17.5
        fs = FundamentalSolutions(pot, lam, 2001)
        # the same entries through the old scalar-indexing loop: same bits
        steps = np.empty((4, 1, 2000))
        _step_table(pot, 2001).entries(np.array([lam]), steps)
        phis = scalar_cumulative(steps[:, 0].T.reshape(2000, 2, 2))
        for got, (i, j) in zip((fs.u1, fs.u2, fs.p1, fs.p2),
                               ((0, 0), (0, 1), (1, 0), (1, 1))):
            assert np.array_equal(got, phis[:, i, j])
        # and the old entries agree to rounding
        ts, q0, qm, q1 = q_samples(pot, lam, 2001)
        old = scalar_cumulative(rk4_step_matrices(q0, qm, q1, ts[1] - ts[0]))
        scale = np.max(np.abs(old))
        for got, (i, j) in zip((fs.u1, fs.u2, fs.p1, fs.p2),
                               ((0, 0), (0, 1), (1, 0), (1, 1))):
            assert np.max(np.abs(got - old[:, i, j])) <= 1e-12 * scale
        assert np.array_equal(fs.ts, ts)
        assert np.array_equal(fs.dp1, -(pot(ts) + lam) * fs.u1)

    def test_last_node_is_the_transfer_matrix(self):
        pot = wavy()
        fs = FundamentalSolutions(pot, 4.0, 2001)
        end = np.array([[fs.u1[-1], fs.u2[-1]], [fs.p1[-1], fs.p2[-1]]])
        assert_close_per_matrix(end, transfer_matrix(pot, 4.0, 2001), 1e-12)

    def test_shared_nodes_are_read_only(self):
        fs = FundamentalSolutions(wavy(), 0.0, 2001)
        with pytest.raises(ValueError):
            fs.ts[0] = 1.0

    def test_python_float_loop(self):
        out = cumulative_products([2.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert out.shape == (4, 3) and out.flags.c_contiguous
        # M1 @ M0 = [[1, 1], [0, 1]] @ [[2, 0], [0, 1]] = [[2, 1], [0, 1]]
        assert out[:, -1].tolist() == [2.0, 1.0, 0.0, 1.0]
