import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign.errors import ResonantPotential
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import (SCAN_BLOCK_POINTS, default_max_len,
                                  scan_kernel_roots, scan_kernel_roots_many,
                                  slice_panels)

RHO = 3 * math.pi / 2


def wavy(n=2001, T=1.0):
    g = np.linspace(0.0, T, n)
    return sampled(g, 60 + 10 * np.sin(2 * np.pi * g / T), T=T)


def random_trig(rng, mean, n=2001):
    """mean + three random cos/sin modes of amplitude up to 2.5, sampled."""
    g = np.linspace(0.0, 1.0, n)
    a = np.full(n, mean)
    for k in (1, 2, 3):
        al, be = rng.uniform(-2.5, 2.5, 2)
        a = a + al * np.cos(2 * np.pi * k * g) + be * np.sin(2 * np.pi * k * g)
    return sampled(g, a)


def slice_integrals(kernel, ts, weight=None):
    """Integral of G(t, s) w(s) over s in [0, T] at every t in ts, on the
    panels of slice_panels."""
    ts = np.asarray(ts, dtype=float)
    plan, g = slice_panels(kernel, ts, kernel.s_roots_many(ts),
                           default_max_len(kernel.potential))
    if weight is not None:
        g = g * weight(plan.xs)
    panel = np.sum(g * plan.weights, axis=1)
    return np.add.reduceat(panel, plan.offsets[:-1])


def scan_one_t(kernel, t, n_scan=512, tol=1e-12):
    """The per-t root scan the batched one replaced, kept as its oracle."""
    T = kernel.T
    base = np.linspace(0.0, T, n_scan + 1)
    extra = np.asarray([t] + list(kernel.potential.breakpoints), dtype=float)
    ss = np.unique(np.concatenate([base, extra[(extra >= 0) & (extra <= T)]]))
    g = np.asarray(kernel(np.full(ss.shape, t), ss), dtype=float)

    roots = [ss[i] for i in range(1, len(ss) - 1) if g[i] == 0.0]

    flips = np.nonzero(g[:-1] * g[1:] < 0.0)[0]
    if flips.size:
        lo = ss[flips].copy()
        hi = ss[flips + 1].copy()
        glo = g[flips].copy()
        it = max(1, int(math.ceil(math.log2(max(T / n_scan / tol, 2.0)))))
        for _ in range(it):
            mid = 0.5 * (lo + hi)
            gm = np.asarray(kernel(np.full(mid.shape, t), mid), dtype=float)
            same = (gm > 0) == (glo > 0)
            lo = np.where(same, mid, lo)
            glo = np.where(same, gm, glo)
            hi = np.where(same, hi, mid)
        roots.extend((0.5 * (lo + hi)).tolist())

    roots = np.array([r for r in roots if 0.0 < r < T], dtype=float)
    return np.unique(roots)


class TestPeriodicClosed:
    def test_corner_value(self):
        # rho = 3pi/2: G(0, 0) = -1/(3pi), a negative corner
        assert_allclose(PeriodicConstantKernel(RHO, 1.0)(0.0, 0.0),
                        -1.0 / (3 * math.pi), rtol=1e-14)

    def test_boundary_slice_simplification(self):
        # G(0, s) collapses to cos(rho (s - T/2)) / (2 rho sin(rho T / 2))
        rho, T = 2.6, 1.3
        s = np.linspace(0.0, T, 101)
        expected = np.cos(rho * (s - T / 2)) / (2 * rho * math.sin(rho * T / 2))
        assert_allclose(PeriodicConstantKernel(rho, T)(0.0, s), expected, atol=1e-13)

    @pytest.mark.parametrize("rho,T", [(RHO, 1.0), (2.0, 1.0), (5.5, 2.0)])
    def test_integral_identity(self, rho, T):
        # int_0^T G(t, s) ds = 1 / rho^2 for every t
        k = PeriodicConstantKernel(rho, T)
        vals = slice_integrals(k, [0.0, 0.31 * T, 0.77 * T, T])
        assert np.all(np.abs(vals - 1.0 / rho**2) < 1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, t, s, h):
        k = PeriodicConstantKernel(RHO, 1.0)
        tt, ss = t + h, s + h
        if tt > 1.0:
            tt, ss = tt - 1.0, ss - 1.0
        if not (0.0 <= ss <= 1.0):
            return
        assert abs(k(t, s) - k(tt, ss)) < 1e-10

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_reflection_invariance(self, t, s):
        k = PeriodicConstantKernel(RHO, 1.0)
        assert abs(k(t, s) - k(1.0 - t, 1.0 - s)) < 1e-10

    def test_sign_change_for_large_rho(self):
        k = PeriodicConstantKernel(RHO, 1.0)
        ss = np.linspace(0, 1, 401)
        vals = k(np.zeros_like(ss), ss)
        assert vals.min() < 0 < vals.max()


class TestDirichletClosed:
    def test_midpoint_value(self):
        expected = -math.sin(1.0) ** 2 / (2 * math.sin(2.0))
        assert_allclose(DirichletConstantKernel(2.0, 1.0)(0.5, 0.5),
                        expected, rtol=1e-14)

    def test_vanishes_on_boundary(self):
        k = DirichletConstantKernel(math.sqrt(60), 1.0)
        s = np.linspace(0, 1, 17)
        assert_allclose(k(np.zeros_like(s), s), 0.0, atol=1e-15)
        assert_allclose(k(np.ones_like(s), s), 0.0, atol=1e-15)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, t, s):
        k = DirichletConstantKernel(math.sqrt(60), 1.0)
        assert abs(k(t, s) - k(s, t)) < 1e-12

    def test_single_sign_below_first_resonance(self):
        # rho T < pi: kernel strictly negative inside the square
        k = DirichletConstantKernel(2.0, 1.0)
        tt = np.linspace(0.05, 0.95, 40)
        assert np.all(k.grid_eval(tt, tt) < 0)


class TestNumericKernel:
    @pytest.mark.parametrize("rho,bc", [
        (RHO, BoundaryKind.PERIODIC),
        (math.sqrt(60), BoundaryKind.DIRICHLET),
    ])
    def test_matches_closed_form(self, rho, bc):
        pot = constant(rho, 1.0)
        kc = build_kernel(pot, bc)
        kn = NumericKernel(pot, bc)
        assert kc.form == "closed" and kn.form == "numeric"
        tt = np.linspace(0, 1, 50)
        assert np.max(np.abs(kn.grid_eval(tt, tt) - kc.grid_eval(tt, tt))) < 1e-8

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_boundary_conditions_hold(self, bc):
        pot = wavy()
        k = NumericKernel(pot, bc)
        h = 1e-3
        stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        for s in (0.25, 0.6):
            g0 = k(h * np.arange(5), np.full(5, s))
            g1 = k(1.0 - h * np.arange(5), np.full(5, s))
            d0 = float(stencil @ g0)
            d1 = float(-stencil @ g1)
            if bc is BoundaryKind.PERIODIC:
                assert abs(g0[0] - g1[0]) < 1e-10 and abs(d0 - d1) < 1e-6
            elif bc is BoundaryKind.ANTIPERIODIC:
                assert abs(g0[0] + g1[0]) < 1e-10 and abs(d0 + d1) < 1e-6
            elif bc is BoundaryKind.DIRICHLET:
                assert abs(g0[0]) < 1e-12 and abs(g1[0]) < 1e-12
            elif bc is BoundaryKind.NEUMANN:
                assert abs(d0) < 1e-6 and abs(d1) < 1e-6
            elif bc is BoundaryKind.MIXED1:
                assert abs(d0) < 1e-6 and abs(g1[0]) < 1e-12
            else:
                assert abs(g0[0]) < 1e-12 and abs(d1) < 1e-6

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_unit_derivative_jump_across_diagonal(self, bc):
        k = NumericKernel(wavy(), bc)
        s = 0.4
        h = 1e-3
        stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        right = float(stencil @ k(s + h * np.arange(5), np.full(5, s)))
        left = float(-stencil @ k(s - h * np.arange(5), np.full(5, s)))
        assert abs(right - left - 1.0) < 1e-5

    def test_weighted_integral_identity(self):
        # int_0^T G(t, s) a(s) ds = 1 under periodic and Neumann conditions
        pot = wavy()
        for bc in (BoundaryKind.PERIODIC, BoundaryKind.NEUMANN):
            k = NumericKernel(pot, bc)
            vals = slice_integrals(k, [0.0, 0.3, 0.9], pot)
            assert np.all(np.abs(vals - 1.0) < 1e-6)

    def test_sampled_constant_matches_closed(self):
        g = np.linspace(0.0, 1.0, 1501)
        pot = sampled(g, np.full_like(g, 60.0))
        k = NumericKernel(pot, BoundaryKind.DIRICHLET)
        kc = DirichletConstantKernel(math.sqrt(60), 1.0)
        tt = np.linspace(0, 1, 29)
        assert np.max(np.abs(k.grid_eval(tt, tt) - kc.grid_eval(tt, tt))) < 1e-8


def is_resonant(potential, bc, grid_size=None):
    """Whether build_kernel refuses the pairing as resonant."""
    try:
        build_kernel(potential, bc, grid_size)
    except ResonantPotential:
        return True
    return False


class TestResonance:
    @pytest.mark.parametrize("rho,bc,expect", [
        (2 * math.pi, BoundaryKind.PERIODIC, True),
        (4 * math.pi, BoundaryKind.PERIODIC, True),
        (RHO, BoundaryKind.PERIODIC, False),
        (math.pi, BoundaryKind.ANTIPERIODIC, True),
        (3 * math.pi, BoundaryKind.ANTIPERIODIC, True),
        (2.0, BoundaryKind.ANTIPERIODIC, False),
        (math.pi, BoundaryKind.DIRICHLET, True),
        (2 * math.pi, BoundaryKind.DIRICHLET, True),
        (math.sqrt(60), BoundaryKind.DIRICHLET, False),
        (math.pi, BoundaryKind.NEUMANN, True),
        (2.0, BoundaryKind.NEUMANN, False),
        (math.pi / 2, BoundaryKind.MIXED1, True),
        (3 * math.pi / 2, BoundaryKind.MIXED2, True),
        (2.0, BoundaryKind.MIXED1, False),
        (2.0, BoundaryKind.MIXED2, False),
    ])
    def test_constant_table(self, rho, bc, expect):
        assert is_resonant(constant(rho, 1.0), bc, grid_size=801) == expect

    def test_scales_with_interval(self):
        assert is_resonant(constant(math.pi, 2.0), BoundaryKind.PERIODIC)
        assert not is_resonant(constant(math.pi, 1.0), BoundaryKind.PERIODIC)

    def test_construction_raises(self):
        with pytest.raises(ResonantPotential):
            PeriodicConstantKernel(2 * math.pi, 1.0)
        with pytest.raises(ResonantPotential):
            DirichletConstantKernel(math.pi, 1.0)
        with pytest.raises(ResonantPotential):
            NumericKernel(constant(math.pi, 1.0), BoundaryKind.DIRICHLET)

    def test_sampled_agrees_with_constant_rule(self):
        g = np.linspace(0.0, 1.0, 2001)
        pot = sampled(g, np.full_like(g, (2 * math.pi) ** 2))
        assert is_resonant(pot, BoundaryKind.PERIODIC)
        assert is_resonant(pot, BoundaryKind.DIRICHLET)
        assert not is_resonant(pot, BoundaryKind.MIXED1)


class TestKernelSurface:
    def test_scan_matches_analytic_roots(self):
        k = PeriodicConstantKernel(RHO, 1.0)
        for t in (0.0, 0.41, 0.98):
            assert_allclose(scan_kernel_roots(k, t), k.s_roots(t), atol=1e-9)
        kd = DirichletConstantKernel(math.sqrt(60), 1.0)
        for t in (0.2, 0.5):
            assert_allclose(scan_kernel_roots(kd, t), kd.s_roots(t), atol=1e-9)

    def test_scalar_and_array_calls_agree(self):
        k = NumericKernel(wavy(), BoundaryKind.MIXED1)
        tt = np.linspace(0, 1, 11)
        ss = np.linspace(0, 1, 7)
        grid = k.grid_eval(tt, ss)
        loop = np.array([[k(float(a), float(b)) for b in ss] for a in tt])
        assert_allclose(grid, loop, atol=1e-14)


# the mean of each condition's potential sits between two resonances
SCAN_MEANS = {BoundaryKind.PERIODIC: 62.0, BoundaryKind.NEUMANN: 63.0,
              BoundaryKind.DIRICHLET: 64.0, BoundaryKind.MIXED1: 41.0,
              BoundaryKind.MIXED2: 42.0}


class TestBatchedRootScan:
    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_matches_per_t_scan_bit_for_bit(self, bc):
        rng = np.random.default_rng(list(KERNEL_KINDS).index(bc))
        k = NumericKernel(random_trig(rng, SCAN_MEANS[bc]), bc)
        nodes = k.potential.grid
        ts = np.concatenate([[0.0, 1.0], nodes[rng.choice(len(nodes), 30)],
                             rng.uniform(0.0, 1.0, 30)])
        block = SCAN_BLOCK_POINTS // (len(nodes) + 512)
        assert len(ts) > 2 * block   # the t spread over at least three blocks
        batched = k.s_roots_many(ts)
        assert len(batched) == len(ts)
        for t, got in zip(ts, batched):
            assert np.array_equal(got, scan_one_t(k, float(t))), t

    def test_single_t_paths_agree(self):
        k = NumericKernel(wavy(), BoundaryKind.NEUMANN)
        for t in (0.0, 0.37, 1.0):
            many = k.s_roots_many([t])[0]
            assert np.array_equal(k.s_roots(t), many)
            assert np.array_equal(scan_kernel_roots(k, t), many)
        assert scan_kernel_roots_many(k, []) == []

    def test_closed_forms_loop_their_analytic_roots(self):
        ts = np.linspace(0.0, 1.0, 9)
        for k in (PeriodicConstantKernel(RHO, 1.0),
                  DirichletConstantKernel(math.sqrt(60), 1.0)):
            for got, t in zip(k.s_roots_many(ts), ts):
                assert np.array_equal(got, k.s_roots(float(t)))

    def test_memory_is_bounded_by_the_block(self):
        k = NumericKernel(wavy(), BoundaryKind.PERIODIC)
        ts = np.linspace(0.0, 1.0, 2001)
        tracemalloc.start()
        try:
            roots = k.s_roots_many(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(roots) == len(ts)
        assert peak < 16 * 2**20, peak


def periodic_roots_one_t(k, t):
    """The per-t analytic roots the vectorized ones replaced, kept as
    their oracle (periodic constant kernel)."""
    rho, T = k.rho, k.T
    jmax = int(rho * T / math.pi) + 2
    us = T / 2 + (2 * np.arange(-jmax, jmax + 1) + 1) * math.pi / (2 * rho)
    us = us[(us > 0) & (us < T)]
    roots = np.concatenate([t - us, t + us])
    roots = roots[(roots > 0) & (roots < T)]
    return np.unique(roots)


def dirichlet_roots_one_t(k, t):
    """As periodic_roots_one_t, for the Dirichlet constant kernel."""
    rho, T = k.rho, k.T
    j = np.arange(1, int(rho * T / math.pi) + 1)
    left = j * math.pi / rho
    right = T - j * math.pi / rho
    roots = np.concatenate([left[left < t], right[right > t]])
    roots = roots[(roots > 0) & (roots < T)]
    return np.unique(roots)


class TestClosedFormRoots:
    @pytest.mark.parametrize("rho, T", [(RHO, 1.0), (4.5 * math.pi, 1.0),
                                        (21.4, 1.0), (7.0, 2.5), (0.5, 1.0)])
    def test_vectorized_match_per_t_formula(self, rho, T):
        rng = np.random.default_rng(4)
        kernels = [(PeriodicConstantKernel(rho, T), periodic_roots_one_t)]
        if abs(math.sin(rho * T)) > 1e-6:
            kernels.append((DirichletConstantKernel(rho, T), dirichlet_roots_one_t))
        for k, one_t in kernels:
            ts = np.concatenate([[0.0, T], np.linspace(0.0, T, 101),
                                 rng.uniform(0.0, T, 50),
                                 one_t(k, 0.3 * T), one_t(k, 0.8 * T)])
            got = k.s_roots_many(ts)
            assert len(got) == len(ts)
            for t, r in zip(ts, got):
                assert np.array_equal(r, one_t(k, float(t))), t
            assert k.s_roots_many([]) == []
