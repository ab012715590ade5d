import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import greensign
from greensign import fundamental
from greensign.errors import IntegratorFailure
from greensign.fundamental import (PRODUCT_BLOCK, ROOT_HALVINGS, TRANSFER_BLOCK_ENTRIES,
                                   FundamentalSolutions, _newton, _step_table,
                                   cumulative_products, transfer_matrix)
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.spectral import _char_of, _counts


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


def scalar_cumulative(mats, start=((1.0, 0.0), (0.0, 1.0))):
    """Node products from an (n, 2, 2) stack by numpy scalar indexing, from
    the node start (the identity by default); oracle."""
    out = np.empty((len(mats) + 1, 2, 2))
    (a, b), (c, d) = start
    out[0] = ((a, b), (c, d))
    for i in range(len(mats)):
        m = mats[i]
        m11, m12, m21, m22 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        a, b, c, d = (m11 * a + m12 * c, m11 * b + m12 * d,
                      m21 * a + m22 * c, m21 * b + m22 * d)
        out[i + 1] = ((a, b), (c, d))
    return out


# [[+-1, 0], [0, +-1]] and [[0, +-1], [+-1, 0]]: every product of these is
# exact in any association, and the order of the factors still matters
SIGNED_PERMUTATIONS = np.array([np.array(signs)[:, None] * perm
                                for perm in (np.eye(2), np.eye(2)[::-1])
                                for signs in itertools.product((1.0, -1.0), repeat=2)])


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
        pot = replace(POTENTIALS[name](), grid_size=grid)
        lams = np.linspace(-pot.sup_norm - 1.0, 400.0, 65)
        got = transfer_matrix(pot, lams)
        assert got.shape == (65, 2, 2)
        assert_close_per_matrix(got, matmul_transfer(pot, lams, grid), 1e-12)
        one = transfer_matrix(pot, 3.25)
        assert one.shape == (2, 2)
        assert_close_per_matrix(one, matmul_transfer(pot, 3.25, grid), 1e-12)

    def test_blocks_give_the_bits_of_single_shifts(self):
        pot = trig(5)
        lams = np.linspace(-110.0, 500.0, 3 * TRANSFER_BLOCK_ENTRIES // 2048 + 7)
        batched = transfer_matrix(pot, lams)
        assert np.array_equal(batched,
                              np.stack([transfer_matrix(pot, lam) for lam in lams]))
        # the lifted pass gives the plain pass's Phi, in one block and in
        # several, and each shift's angles as that shift alone gets them;
        # the eigenvalue search reads bracket ends off the lifted pass
        assert len(lams[:5]) * 2048 <= TRANSFER_BLOCK_ENTRIES < len(lams) * 2048
        for part in (lams[:5], lams):
            phi, theta = transfer_matrix(pot, part, lift=True)
            assert np.array_equal(phi, transfer_matrix(pot, part))
            assert np.array_equal(theta, np.stack(
                [transfer_matrix(pot, lam, lift=True)[1] for lam in part]))
        assert transfer_matrix(pot, lams[:1]).shape == (1, 2, 2)
        assert transfer_matrix(pot, lams[:0]).shape == (0, 2, 2)

    def test_overflow_raises(self):
        g = np.linspace(0.0, 1.0, 201)
        pot = sampled(g, np.full_like(g, -1e8), grid_size=201)
        with pytest.raises(IntegratorFailure):
            transfer_matrix(pot, 0.0)
        with pytest.raises(IntegratorFailure):
            transfer_matrix(pot, np.array([0.0, 1.0]))
        with pytest.raises(IntegratorFailure):
            FundamentalSolutions(pot, 0.0)

    @pytest.mark.parametrize("grid", [1, 3, 5, 8])
    def test_too_few_nodes_raise(self, grid):
        # the grid belongs to the potential, which refuses it at construction
        pot = wavy()
        with pytest.raises(ValueError, match="at least 9"):
            replace(pot, grid_size=grid)
        with pytest.raises(ValueError, match="at least 9"):
            constant(2.0, grid_size=grid)
        with pytest.raises(ValueError, match="at least 9"):
            sampled(pot.grid, pot.values, grid_size=grid)
        assert transfer_matrix(replace(pot, grid_size=9), 0.0).shape == (2, 2)

    def test_grid_must_be_an_integer(self):
        # refused where the potential is made, not at its first RK4 table
        for grid in (101.0, "101"):
            with pytest.raises(TypeError):
                constant(2.0, grid_size=grid)
            with pytest.raises(TypeError):
                replace(wavy(), grid_size=grid)
        assert transfer_matrix(constant(2.0, grid_size=np.int64(101)), 0.0).shape == (2, 2)

    @pytest.mark.parametrize("amp", [10.0, 2000.0])
    def test_lift_is_the_node_angle_unwrapped(self, amp):
        # from node to node the angle of (u2, u2') turns by less than pi
        g = np.linspace(0.0, 1.0, 2001)
        pot = sampled(g, 60.0 + amp * np.sin(2 * math.pi * g))
        lams = np.linspace(-pot.sup_norm - 50.0, 3000.0, 9)
        phi, theta = transfer_matrix(pot, lams, lift=True)
        assert np.array_equal(phi, transfer_matrix(pot, lams))
        assert theta.shape == (9, 2)
        for lam, got in zip(lams, theta):
            fs = FundamentalSolutions(pot, lam)
            want = [np.unwrap(np.arctan2(fs.u1, fs.p1))[-1],
                    np.unwrap(np.arctan2(fs.u2, fs.p2))[-1]]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert np.array_equal(transfer_matrix(pot, lams[0], lift=True)[1],
                              theta[0])

    def test_lift_refuses_a_half_turn_step(self):
        # h**2 (a + lam) >= 6 makes the RK4 step entry M12 nonpositive
        with pytest.raises(IntegratorFailure):
            transfer_matrix(wavy(), 6.0 * 2000**2, lift=True)

    def test_table_is_built_once_per_grid(self, monkeypatch):
        pot = trig(7)
        calls = []
        original = type(pot).__call__
        monkeypatch.setattr(type(pot), "__call__",
                            lambda self, t: calls.append(np.size(t)) or original(self, t))
        transfer_matrix(pot, np.linspace(-100.0, 0.0, 65))
        transfer_matrix(pot, 1.5)
        FundamentalSolutions(pot, -20.0)
        assert sum(calls) == 2001 + 2000
        # another grid is another potential, with a table of its own
        coarse = replace(pot, grid_size=801)
        transfer_matrix(coarse, 1.5)
        assert sum(calls) == 2001 + 2000 + 801 + 800
        assert len(pot.cache) == len(coarse.cache) == 1

    def test_cache_leaves_equality_and_hash(self):
        a, b = constant(2.0, grid_size=101), constant(2.0, grid_size=101)
        transfer_matrix(a, 0.0)
        assert a == b and hash(a) == hash(b)
        assert "cache" not in repr(a)


def leaf_up_lift(potential, lams):
    """Phi(T) and the Pruefer angles theta(T) of u1 and u2, shape
    (shifts, 2), by the product tree of transfer_matrix with the angle of
    u2 carried from every step up through every level; oracle."""
    table = _step_table(potential)
    n = len(table.ts) - 1
    width = 1 << (n - 1).bit_length()
    m = np.empty((2, 2, len(lams), width))
    m[..., n:] = np.eye(2)[:, :, None, None]
    table.entries(lams, m.reshape(4, len(lams), width)[..., :n])
    theta = np.arctan2(m[0, 1], m[1, 1])
    while m.shape[-1] > 1:
        left, right = m[..., 0::2], m[..., 1::2]
        product = right[:, :1] * left[:1] + right[:, 1:] * left[1:]
        r, rl, theta_l = right[:, 1], product[:, 1], theta[..., 0::2]
        # the turn of R on L e2 lies in [k pi, (k + 1) pi), k = floor(theta_l / pi)
        delta = np.arctan2(r[1] * rl[0] - r[0] * rl[1], r[0] * rl[0] + r[1] * rl[1])
        mid = (np.floor(theta_l / np.pi) + 0.5) * np.pi
        theta = theta[..., 1::2] + (delta + 2.0 * np.pi * np.round((mid - delta) / (2.0 * np.pi)))
        m = product
    phi = m[..., 0].transpose(2, 0, 1)
    theta2 = theta[:, 0]
    theta1 = theta2 + np.arctan2(
        np.abs(phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 0, 1] * phi[:, 1, 0]),
        phi[:, 0, 0] * phi[:, 0, 1] + phi[:, 1, 0] * phi[:, 1, 1])
    return phi, np.stack([theta1, theta2], axis=-1)


def random_trig(rng):
    """A trigonometric potential of mean in [-300, 300] and amplitude in
    [4, 2000], sampled on 2001 nodes."""
    g = np.linspace(0.0, 1.0, 2001)
    k = np.arange(1, 5)[:, None]
    coef = rng.uniform(-1.0, 1.0, (2, 4, 1))
    wave = np.sum(coef[0] * np.cos(2 * math.pi * k * g) + coef[1] * np.sin(2 * math.pi * k * g),
                  axis=0)
    amp = rng.uniform(4.0, 2000.0)
    return sampled(g, rng.uniform(-300.0, 300.0) + amp * wave / np.max(np.abs(wave)))


def assert_same_lift(pot, lams):
    """transfer_matrix's lift against leaf_up_lift: Phi bit for bit, theta
    to 1e-15 max(1, |theta|), and the same eigenvalue counts under every
    condition."""
    phi, theta = transfer_matrix(pot, lams, lift=True)
    want_phi, want_theta = leaf_up_lift(pot, lams)
    assert np.array_equal(phi, want_phi)
    assert np.all(np.abs(theta - want_theta) <= 1e-15 * np.maximum(1.0, np.abs(want_theta)))
    for bc in BoundaryKind:
        f = _char_of(phi, bc)
        assert np.array_equal(_counts(theta, f, bc), _counts(want_theta, f, bc))
    return phi, theta


class TestLiftStart:
    """The lift starts, per shift, at the first level of the product tree
    where a subtree can pass a zero; below it each subtree's angle is its
    column's arctan2."""

    @pytest.mark.parametrize("grid", [2001, 10, 9])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_leaf_up_lift(self, seed, grid):
        rng = np.random.default_rng(seed)
        pot = replace(random_trig(rng), grid_size=grid)
        lams = rng.uniform(-2000.0, 3000.0, 64)
        # a coarse grid refuses the shifts whose steps turn by half a turn
        steps = np.empty((4, len(lams), grid - 1))
        _step_table(pot).entries(lams, steps)
        fine = np.all(steps[1] > 0.0, axis=1)
        if not fine.all():
            with pytest.raises(IntegratorFailure):
                transfer_matrix(pot, lams, lift=True)
        assert_same_lift(pot, lams[fine])
        # each shift's angles are its own, whatever batch it shares
        _, theta = transfer_matrix(pot, lams[fine], lift=True)
        for i in np.flatnonzero(fine)[:4]:
            one = transfer_matrix(pot, lams[i], lift=True)[1]
            assert np.array_equal(one, theta[np.count_nonzero(fine[:i])])

    @pytest.mark.parametrize("grid", [2001, 10, 9])
    def test_no_start_reads_the_root_column(self, grid, monkeypatch):
        # a + lam < 0 everywhere: no subtree of u2 reaches a zero
        pot = replace(flat(-400.0), grid_size=grid)
        lams = np.linspace(-2000.0, 300.0, 17)
        monkeypatch.setattr(fundamental, "_turn", lambda *_: pytest.fail("lift started"))
        phi, theta = assert_same_lift(pot, lams)
        assert np.array_equal(theta[:, 1], np.arctan2(phi[:, 0, 1], phi[:, 1, 1]))

    def test_start_at_the_first_level(self, monkeypatch):
        # h**2 (a + lam) just under 6: each step turns by just under half a
        # turn, so a pair of steps passes a zero and the lift starts at
        # level 1, seeded by the steps' own angles, as the oracle's
        pot = flat(60.0)
        lams = 6.0 * 2000**2 * (1.0 - np.array([1e-3, 1e-6, 1e-9])) - 60.0
        levels = []
        turn = fundamental._turn
        monkeypatch.setattr(fundamental, "_turn",
                            lambda *args: levels.append(1) or turn(*args))
        phi, theta = transfer_matrix(pot, lams, lift=True)
        assert len(levels) == (2000 - 1).bit_length()
        want_phi, want_theta = leaf_up_lift(pot, lams)
        assert np.array_equal(phi, want_phi) and np.array_equal(theta, want_theta)


def longdouble_cumulative(mats):
    """Node products from an (n, 2, 2) stack, sequentially in np.longdouble
    arithmetic; oracle for the rounding of the float64 products."""
    out = np.empty((len(mats) + 1, 2, 2), dtype=np.longdouble)
    phi = np.eye(2, dtype=np.longdouble)
    out[0] = phi
    for i, m in enumerate(mats.astype(np.longdouble)):
        phi = m @ phi
        out[i + 1] = phi
    return out


def flat(value, n=2001):
    g = np.linspace(0.0, 1.0, n)
    return sampled(g, np.full_like(g, value))


# a constant step matrix makes every block product the same, so the
# rounding of the blocked product adds up coherently over the blocks
LONG_POTENTIALS = {**POTENTIALS, "minus400": lambda: flat(-400.0),
                   "minus900": lambda: flat(-900.0)}
LONGDOUBLE_EXTENDED = np.finfo(np.longdouble).eps < 1e-18


class TestFundamentalSolutions:
    @pytest.mark.parametrize("name", sorted(LONG_POTENTIALS))
    def test_cumulative_product_of_the_table_entries(self, name):
        pot = LONG_POTENTIALS[name]()
        lam = -17.5
        fs = FundamentalSolutions(pot, lam)
        got = np.stack([fs.u1, fs.u2, fs.p1, fs.p2], axis=-1).reshape(-1, 2, 2)
        # the same entries through the old scalar-indexing loop
        steps = np.empty((4, 1, 2000))
        _step_table(pot).entries(np.array([lam]), steps)
        mats = steps[:, 0].T.reshape(2000, 2, 2)
        phis = scalar_cumulative(mats)
        # its bits up to the end of the first block
        assert np.array_equal(got[:PRODUCT_BLOCK + 1], phis[:PRODUCT_BLOCK + 1])
        # and inside every block the loop's step of the node before, bit
        # for bit, from the library's own value at the block start
        for start in range(0, 2000, PRODUCT_BLOCK):
            stop = min(start + PRODUCT_BLOCK - 1, 2000)
            assert np.array_equal(scalar_cumulative(mats[start:stop], got[start]),
                                  got[start:stop + 1])
        # every node, and every node of the loop, within 1e-13 of the running
        # max of |Phi| of the sequential product in extended precision
        if LONGDOUBLE_EXTENDED:
            exact = longdouble_cumulative(mats)
            scale = np.maximum.accumulate(np.max(np.abs(exact), axis=(1, 2)))[:, None, None]
            for nodes in (got, phis):
                assert np.all(np.abs(nodes - exact) <= 1e-13 * scale)
        # and the old entries agree to rounding
        ts, q0, qm, q1 = q_samples(pot, lam, 2001)
        old = scalar_cumulative(rk4_step_matrices(q0, qm, q1, ts[1] - ts[0]))
        scale = np.max(np.abs(old))
        for got, (i, j) in zip((fs.u1, fs.u2, fs.p1, fs.p2),
                               ((0, 0), (0, 1), (1, 0), (1, 1))):
            assert np.max(np.abs(got - old[:, i, j])) <= 1e-12 * scale
        assert np.array_equal(fs.ts, ts)

    def test_last_node_is_the_transfer_matrix(self):
        pot = wavy()
        fs = FundamentalSolutions(pot, 4.0)
        end = np.array([[fs.u1[-1], fs.u2[-1]], [fs.p1[-1], fs.p2[-1]]])
        assert_close_per_matrix(end, transfer_matrix(pot, 4.0), 1e-12)

    def test_shared_nodes_are_read_only(self):
        fs = FundamentalSolutions(wavy(), 0.0)
        with pytest.raises(ValueError):
            fs.ts[0] = 1.0

    @pytest.mark.parametrize("n", [1, PRODUCT_BLOCK - 1, PRODUCT_BLOCK,
                                   PRODUCT_BLOCK + 1, 2000])
    def test_block_product_of_signed_permutations(self, n):
        mats = SIGNED_PERMUTATIONS[np.random.default_rng(n).integers(0, 8, n)]
        out = cumulative_products(*mats.reshape(n, 4).T)
        assert out.shape == (4, n + 1) and out.flags.c_contiguous
        want = scalar_cumulative(mats).reshape(n + 1, 4).T
        # bit for bit once + 0.0 has made every zero positive: the sign of
        # a zero entry depends on the association
        assert np.array_equal((out + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))

    def test_overflow_raises_without_warnings(self):
        pot = replace(flat(-1e8, 201), grid_size=201)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam, lift in ((0.0, False), (np.array([0.0, 1.0]), False),
                              (np.array([0.0, 1.0]), True)):
                with pytest.raises(IntegratorFailure):
                    transfer_matrix(pot, lam, lift=lift)
            with pytest.raises(IntegratorFailure):
                FundamentalSolutions(pot, 0.0)

    def test_newton_steps_that_leave_the_bracket_halve_it(self):
        # from x = 0 a flat end divides by zero, and a shallow one steps far
        # past 1; the zeros are where the cubics turn to the sign of y1
        y0, y1 = np.array([1.0, -1.0, -1.0]), np.array([-1.0, 1.0, 1.0])
        d0, d1 = np.array([0.0, 0.0, 0.01]), np.array([0.0, 0.01, 0.01])
        # the cubics of those end values and slopes in monomial form
        c = np.stack([y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, 2.0 * (y0 - y1) + d0 + d1])
        x, rounds = _newton(c, y1 > 0.0, np.zeros(3))
        assert rounds < ROOT_HALVINGS
        assert np.all((x > 0.0) & (x < 1.0))
        left, right = (1.0 - x) ** 2, x * x
        cubic = ((1.0 + 2.0 * x) * left * y0 + x * left * d0
                 + right * (3.0 - 2.0 * x) * y1 + right * (x - 1.0) * d1)
        assert np.all(np.abs(cubic) <= 1e-15)
        assert x[0] == pytest.approx(0.5, abs=1e-15)

    def test_python_float_loop(self):
        out = cumulative_products([2.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
        assert out.shape == (4, 3) and out.flags.c_contiguous
        # M1 @ M0 = [[1, 1], [0, 1]] @ [[2, 0], [0, 1]] = [[2, 1], [0, 1]]
        assert out[:, -1].tolist() == [2.0, 1.0, 0.0, 1.0]


def random_layout(ts, rng):
    """Edges of a table over the grid ts: every node, and one to three
    random points in about half of the cells, which they split."""
    cuts = [rng.uniform(lo, hi, rng.integers(1, 4))
            for lo, hi in zip(ts[:-1], ts[1:]) if rng.random() < 0.5]
    return np.unique(np.concatenate([ts, *cuts]))


def layout_q(edges, order, pair):
    """pair at the Gauss nodes of the cells between edges times the
    half-widths and weights, as quadrature.CellSums forms its q."""
    nodes, gw = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * nodes
    return pair(edges, xs) * (half[:, None] * gw)


CUBIC_CASES = {"wavy": wavy,
               "trig-201": lambda: replace(trig(3), grid_size=201),
               "wavy-T2.5": lambda: sampled(np.linspace(0.0, 2.5, 2001), 60 + 10 * np.sin(
                   2 * math.pi * np.linspace(0.0, 1.0, 2001)), T=2.5)}


class TestCubics:
    """FundamentalSolutions.cubics, the one coefficient table of the pair
    between nodes, against the node samples and between its readers."""

    @pytest.mark.parametrize("grid", [41, 251, 333, 2001, 5001])
    @pytest.mark.parametrize("case", sorted(CUBIC_CASES))
    def test_nodes_read_their_own_samples(self, case, grid):
        fs = FundamentalSolutions(replace(CUBIC_CASES[case](), grid_size=grid), 0.3)
        u1, u2 = fs.eval_pair(fs.ts)
        assert np.array_equal(u1, fs.u1) and np.array_equal(u2, fs.u2)
        assert fs.eval_pair(fs.ts[-1]) == (fs.u1[-1], fs.u2[-1])

    @pytest.mark.parametrize("order", [4, 8, 12])
    @pytest.mark.parametrize("case", sorted(CUBIC_CASES))
    def test_cell_pair_matches_eval_pair(self, case, order):
        # on whole and split cells alike, the cubic re-expanded on a cell
        # against Horner's rule at each node, to 4 (1 + T) roundings of
        # max |q| per solution: eval_pair reads the nodes as rounded points
        # of [0, T], cell_pair at the rule's exact reference nodes
        pot = CUBIC_CASES[case]()
        fs = FundamentalSolutions(pot, 0.0)
        ulps = 4 * (1 + pot.interval.T)
        rng = np.random.default_rng(order)
        for _ in range(3):
            edges = random_layout(fs.ts, rng)
            got = layout_q(edges, order, fs.cell_pair)
            want = layout_q(edges, order, lambda e, xs: np.stack(fs.eval_pair(xs)))
            scale = np.max(np.abs(want), axis=(1, 2))
            err = np.max(np.abs(got - want), axis=(1, 2))
            assert np.all(err <= ulps * np.finfo(float).eps * scale), err / scale

    def test_cell_pair_reads_no_point(self, monkeypatch):
        fs = FundamentalSolutions(wavy(), 0.0)
        monkeypatch.setattr(fs, "eval_pair", lambda x: pytest.fail("eval_pair called"))
        edges = random_layout(fs.ts, np.random.default_rng(1))
        for order in (4, 8, 12):
            assert layout_q(edges, order, fs.cell_pair).shape == (2, len(edges) - 1, order)

    def test_one_read_only_table(self):
        fs = FundamentalSolutions(wavy(), 0.0)
        assert fs.cubics is fs.cubics
        assert fs.cubics.shape == (len(fs.ts), 2, 4) and not fs.cubics.flags.writeable


def test_only_the_potential_takes_a_grid():
    # the RK4 grid is a field of the potential: no other public callable
    # takes one
    takes = set()
    for name in greensign.__all__:
        try:
            params = inspect.signature(getattr(greensign, name)).parameters
        except (TypeError, ValueError):  # not callable, or no signature
            continue
        if "grid_size" in params:
            takes.add(name)
    assert takes == {"constant", "sampled", "ConstantPotential", "SampledPotential"}
