import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign.errors import IntegratorFailure, ResonantPotential
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import default_max_len, scan_kernel_roots
from slice_oracle import slice_panels, split_roots

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


def scan_slices(kernel, ts, n_scan=512, tol=1e-12, block=64):
    """A sampled root scan of every slice G(t, .), kept as the oracle of
    s_roots_many.

    Slice t is sampled at n_scan + 1 uniform points, the potential's break
    points and t itself; exact zeros are kept and every sign flip between
    neighbours is bisected down to tol.  Slices go block rows at a time,
    each row on its own samples, so a row is what a scan of its slice alone
    gives: a t that is already a sample is repeated, which adds no flip.
    """
    T = kernel.T
    bps = np.asarray(kernel.potential.breakpoints, dtype=float)
    common = np.unique(np.concatenate([np.linspace(0.0, T, n_scan + 1),
                                       bps[(bps >= 0) & (bps <= T)]]))
    it = max(1, int(math.ceil(math.log2(max(T / n_scan / tol, 2.0)))))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    out = []
    for start in range(0, len(ts), block):
        bt = ts[start:start + block]
        ss = np.sort(np.concatenate(
            [np.broadcast_to(common, (len(bt), len(common))), bt[:, None]], axis=1), axis=1)
        g = np.asarray(kernel(bt[:, None], ss), dtype=float)
        zr, zc = np.nonzero((g == 0.0) & (ss > 0.0) & (ss < T))
        fr, fc = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
        lo, hi, glo = ss[fr, fc], ss[fr, fc + 1], g[fr, fc]
        for _ in range(it if fr.size else 0):
            mid = 0.5 * (lo + hi)
            gm = np.asarray(kernel(bt[fr], mid), dtype=float)
            same = (gm > 0) == (glo > 0)
            lo = np.where(same, mid, lo)
            glo = np.where(same, gm, glo)
            hi = np.where(same, hi, mid)
        row = np.concatenate([zr, fr])
        val = np.concatenate([ss[zr, zc], 0.5 * (lo + hi)])
        keep = (val > 0.0) & (val < T)
        out += [np.unique(val[keep & (row == i)]) for i in range(len(bt))]
    return out


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
            assert_allclose(scan_slices(k, [t])[0], k.s_roots(t), atol=1e-9)
        kd = DirichletConstantKernel(math.sqrt(60), 1.0)
        for t in (0.2, 0.5):
            assert_allclose(scan_slices(kd, [t])[0], kd.s_roots(t), atol=1e-9)

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


def trig(a):
    """a(t) sampled on 2001 nodes of [0, 1]."""
    g = np.linspace(0.0, 1.0, 2001)
    return sampled(g, a(g))


def assert_same_roots(got, want, t):
    """Equal root counts, and roots within 1e-12."""
    assert len(got) == len(want), (t, got, want)
    assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=str(t))


class TestBatchedRootScan:
    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_matches_per_t_scan_bit_for_bit(self, bc):
        """The angle-placed roots against the sampled scan, on every
        interior t of a 1001-point grid, for four potentials."""
        rng = np.random.default_rng(list(KERNEL_KINDS).index(bc))
        potentials = [
            wavy(),
            trig(lambda t: 30 + 0.01 * np.cos(2 * np.pi * t) + 5 * np.cos(6 * np.pi * t)),
            trig(lambda t: 400 + 50 * np.sin(2 * np.pi * t)),
            random_trig(rng, SCAN_MEANS[bc]),
        ]
        ts = np.linspace(0.0, 1.0, 1001)[1:-1]
        for pot in potentials:
            k = NumericKernel(pot, bc)
            got = k.s_roots_many(ts)
            assert len(got) == len(ts)
            for t, r, want in zip(ts, got, scan_slices(k, ts)):
                assert_same_roots(r, want, t)

    def test_single_t_paths_agree(self):
        k = NumericKernel(wavy(), BoundaryKind.NEUMANN)
        for t in (0.0, 0.37, 1.0):
            many = k.s_roots_many([t])[0]
            assert np.array_equal(k.s_roots(t), many)
            assert np.array_equal(scan_kernel_roots(k, t), many)
            assert_same_roots(many, scan_slices(k, [t])[0], t)
        assert k.s_roots_many([]) == []

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1])
    def test_no_root_at_a_pinned_end(self, bc):
        # G(t, T) = 0 here, up to rounding that a sign-change search on
        # this coarse grid takes for a crossing within 1.2e-13 of T
        k = NumericKernel(wavy(), bc, grid_size=251)
        ts = np.linspace(0.0, 1.0, 401)[1:-1]
        for t, r in zip(ts, k.s_roots_many(ts)):
            assert not np.any(r > 1.0 - 1e-9), (t, r)

    def test_half_turn_in_a_cell_raises(self):
        k = NumericKernel(trig(lambda t: 400 + 50 * np.sin(2 * np.pi * t)),
                          BoundaryKind.PERIODIC, grid_size=9)
        with pytest.raises(IntegratorFailure):
            k.s_roots_many([0.5])

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
    """As periodic_roots_one_t, for the Dirichlet constant kernel; none at
    t = 0 and T, where the condition pins the slice to zero."""
    rho, T = k.rho, k.T
    if t in (0.0, T):
        return np.zeros(0)
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


class TestPinnedSlices:
    """A slice that the condition pins to zero, G(t, .) = 0 at t = 0 or T,
    has no roots through any entry point; the others keep their finder's."""

    def test_closed_form_dirichlet_ends(self):
        k = DirichletConstantKernel(math.sqrt(60), 1.0)
        for t in (0.0, 1.0):
            assert k.s_roots(t).shape == (0,)
            assert scan_kernel_roots(k, t).shape == (0,)

    @pytest.mark.parametrize("bc, ends", [(BoundaryKind.DIRICHLET, (0.0, 1.0)),
                                          (BoundaryKind.MIXED1, (1.0,)),
                                          (BoundaryKind.MIXED2, (0.0,))])
    def test_numeric_wavy_ends(self, bc, ends):
        k = NumericKernel(wavy(), bc)
        for t in ends:
            assert k.s_roots(t).shape == (0,)
            assert scan_kernel_roots(k, t).shape == (0,)

    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_interior_rows_are_the_finders(self, bc):
        ts = np.linspace(0.0, 1.0, 41)
        kernels = [NumericKernel(wavy(), bc)]
        if bc is BoundaryKind.DIRICHLET:
            kernels.append(DirichletConstantKernel(math.sqrt(60), 1.0))
        if bc is BoundaryKind.PERIODIC:
            kernels.append(PeriodicConstantKernel(RHO, 1.0))
        left, right = bc.pinned_ends
        for k in kernels:
            got = k.s_roots_many(ts)
            live = ts[int(left):len(ts) - int(right)]
            for r, want in zip(got[int(left):len(ts) - int(right)],
                               split_roots(k._live_roots(live))):
                assert np.array_equal(r, want)
            assert all(got[i].shape == (0,) for i, pin in ((0, left), (-1, right)) if pin)


def hermite_per_solution(fs, x):
    """(u1(x), u2(x)) with the Hermite basis built once per solution, the
    form eval_pair replaced, kept as its oracle."""
    x = np.asarray(x, dtype=float)
    i = np.clip((x / fs.h).astype(int), 0, len(fs.ts) - 2)
    xi = (x - fs.ts[i]) / fs.h

    def one(y, dy):
        h00 = (1.0 + 2.0 * xi) * (1.0 - xi) ** 2
        h10 = xi * (1.0 - xi) ** 2
        h01 = xi * xi * (3.0 - 2.0 * xi)
        h11 = xi * xi * (xi - 1.0)
        return (h00 * y[i] + h10 * fs.h * dy[i]
                + h01 * y[i + 1] + h11 * fs.h * dy[i + 1])
    return one(fs.u1, fs.p1), one(fs.u2, fs.p2)


def grid_by_outer(k, ts, ss):
    """The np.outer copy of the kernel formula that grid_eval replaced."""
    u1t, u2t = k._pair(ts)
    u1s, u2s = k._pair(ss)
    C = k._C
    g = (np.outer(C[0, 0] * u1t + C[1, 0] * u2t, u1s)
         + np.outer(C[0, 1] * u1t + C[1, 1] * u2t, u2s))
    cauchy = np.outer(u2t, u1s) - np.outer(u1t, u2s)
    return g + np.where(ts[:, None] >= ss[None, :], cauchy, 0.0)


def single_path_kernels():
    """NumericKernel on wavy under the five kernel conditions, and both
    closed forms."""
    return ([pytest.param(NumericKernel(wavy(), bc), id=f"wavy-{bc}")
             for bc in KERNEL_KINDS]
            + [pytest.param(PeriodicConstantKernel(RHO), id="periodic-closed"),
               pytest.param(DirichletConstantKernel(math.sqrt(60)),
                            id="dirichlet-closed")])


def awkward_points(n=300):
    """Random points plus the ends, grid nodes and a diagonal t = s."""
    rng = np.random.default_rng(5)
    return np.concatenate([[0.0, 1.0, 0.5, 1e-3, 1.0 - 1e-3],
                           np.linspace(0.0, 1.0, 41), rng.uniform(0.0, 1.0, n)])


class TestSingleEvaluationPath:
    """The kernel evaluates its fundamental pair once per given point;
    every value is bit for bit that of the broadcast-first forms."""

    @pytest.mark.parametrize("k", single_path_kernels())
    def test_rows_against_nodes_match_broadcast_first(self, k):
        x = awkward_points()
        ts, ss = x[:37], x[:37 * 8].reshape(37, 8)
        got = k(ts[:, None], ss)
        assert got.shape == (37, 8)
        assert np.array_equal(got, k(*np.broadcast_arrays(ts[:, None], ss)))
        got = k(ss, ts[:, None])
        assert np.array_equal(got, k(*np.broadcast_arrays(ss, ts[:, None])))
        assert k(0.3, 0.7) == k(np.array([0.3]), np.array([0.7]))[0]

    def test_pair_evaluated_once_per_given_point(self, monkeypatch):
        k = NumericKernel(wavy(), BoundaryKind.PERIODIC)
        sizes = []
        pair = k.fs.eval_pair
        monkeypatch.setattr(k.fs, "eval_pair",
                            lambda x: sizes.append(np.size(x)) or pair(x))
        k(np.zeros((37, 1)), np.zeros((37, 8)))
        k.grid_eval(np.zeros(5), np.zeros(7))
        assert sizes == [37, 37 * 8, 5, 7]

    @pytest.mark.parametrize("k", single_path_kernels())
    def test_grid_eval_matches_outer_formula(self, k):
        x = awkward_points(60)
        got = k.grid_eval(x, x[::-1])
        assert got.shape == (len(x), len(x))
        tt, ss = np.meshgrid(x, x[::-1], indexing="ij")
        assert np.array_equal(got, k(tt, ss))
        if isinstance(k, NumericKernel):
            assert np.array_equal(got, grid_by_outer(k, x, x[::-1]))

    def test_eval_pair_matches_per_solution_basis(self):
        fs = NumericKernel(wavy(), BoundaryKind.PERIODIC).fs
        x = awkward_points()
        for got, want in zip(fs.eval_pair(x), hermite_per_solution(fs, x)):
            assert np.array_equal(got, want)
        u1, u2 = fs.eval_pair(0.37)
        assert (u1, u2) == hermite_per_solution(fs, 0.37)
