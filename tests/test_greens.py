import functools
import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import fundamental
from greensign.errors import (IntegratorFailure, OutOfRange, ResonantPotential,
                              UnsupportedBoundaryKind)
from greensign.fundamental import ROOT_HALVINGS, FundamentalSolutions
from greensign.gamma import pointwise_ratio
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, _times, build_kernel,
                              require_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import default_max_len, scan_kernel_roots
from closed_oracle import (closed_roots_many, dirichlet_green, periodic_green,
                           require_nonresonant)
from slice_oracle import bisect_place, flat_roots, row_roots, slice_panels, split_roots

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

    # the exact pair's G is read at (max(t, s), min(t, s)) under every
    # condition, so it is symmetric to the bit
    @pytest.mark.parametrize("bc", list(BoundaryKind), ids=str)
    @given(t=st.floats(0.0, 1.0), s=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, bc, t, s):
        k = build_kernel(constant(math.sqrt(60), 1.0), bc)
        assert k.form == "closed"
        assert k(t, s) == k(s, t)

    @pytest.mark.parametrize("bc, rho, T", [
        pytest.param(BoundaryKind.DIRICHLET, rho, T, id=f"{rho}-{T}")
        for rho, T in [(math.sqrt(60), 1.0), (2.0, 1.0), (21.4, 1.0), (7.0, 2.5), (0.5, 0.4)]
    ] + [pytest.param(BoundaryKind.PERIODIC, RHO, 1.0, id="periodic")])
    def test_separable_form_matches_closed_formula(self, bc, rho, T):
        k = build_kernel(constant(rho, T), bc)
        x = np.concatenate([[0.0, T], np.random.default_rng(1).uniform(0.0, T, 400)])
        green = periodic_green if bc is BoundaryKind.PERIODIC else dirichlet_green
        want = green(rho, T, x[:, None], x[None, :])
        assert np.max(np.abs(k.grid_eval(x, x) - want)) <= 1e-14 * np.max(np.abs(want))

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


def load_reference():
    """perfbench/reference.py, loaded from its file and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXACT_ONLY_KINDS = [BoundaryKind.NEUMANN, BoundaryKind.MIXED1, BoundaryKind.MIXED2,
                    BoundaryKind.ANTIPERIODIC]


class TestExactConstantKernels:
    """Constant potentials stand on the exact pair under every condition;
    those with no closed formula of their own are checked against the
    finite-difference Green's matrix of the benchmark's references (no
    antiperiodic one there) and against the RK4 kernel."""

    @pytest.mark.parametrize("rho", [2.0, 7.0, 11.3])
    @pytest.mark.parametrize("bc", EXACT_ONLY_KINDS, ids=str)
    def test_match_finite_differences_and_rk4(self, rho, bc):
        k = build_kernel(constant(rho), bc)
        assert k.form == "closed"
        nodes = np.arange(0, 3201, 160)
        t = nodes / 3200.0
        if bc is not BoundaryKind.ANTIPERIODIC:
            fd = load_reference().FDKernel(lambda x: np.full_like(x, rho * rho), str(bc))
            g = k.grid_eval(t, fd.t)
            # second order on 3200 cells: 2e-5 of max |G| at rho = 11.3
            assert np.max(np.abs(fd.rows(list(nodes)).T - g)) <= 1e-4 * np.max(np.abs(g))
        numeric = NumericKernel(constant(rho), bc)
        assert numeric.form == "numeric"
        assert np.max(np.abs(numeric.grid_eval(t, t) - k.grid_eval(t, t))) < 1e-8

    def test_antiperiodic_condition_holds(self):
        # G(0, s) = -G(T, s) and the same for the slopes in t, by the
        # one-sided stencil of test_boundary_conditions_hold
        k = build_kernel(constant(7.0), BoundaryKind.ANTIPERIODIC)
        h = 1e-3
        stencil = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12 * h)
        for s in (0.25, 0.6):
            g0 = k(h * np.arange(5), np.full(5, s))
            g1 = k(1.0 - h * np.arange(5), np.full(5, s))
            assert abs(g0[0] + g1[0]) < 1e-14
            assert abs(float(stencil @ g0) - float(stencil @ g1)) < 1e-6


def is_resonant(potential, bc):
    """Whether build_kernel refuses the pairing as resonant."""
    try:
        build_kernel(potential, bc)
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
        assert is_resonant(constant(rho, 1.0, grid_size=801), bc) == expect

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

    def test_condition_by_name_refused(self):
        with pytest.raises(UnsupportedBoundaryKind):
            build_kernel(constant(2.0), "periodic")


# the mean of each condition's potential sits between two resonances
SCAN_MEANS = {BoundaryKind.PERIODIC: 62.0, BoundaryKind.NEUMANN: 63.0,
              BoundaryKind.DIRICHLET: 64.0, BoundaryKind.MIXED1: 41.0,
              BoundaryKind.MIXED2: 42.0}


def trig(a):
    """a(t) sampled on 2001 nodes of [0, 1]."""
    g = np.linspace(0.0, 1.0, 2001)
    return sampled(g, a(g))


def trig_draw(mean, modes, T):
    """mean / T**2 plus the (cos, sin) modes of period T, on 2001 nodes of
    [0, T]: the potential of a hypothesis draw."""
    g = np.linspace(0.0, T, 2001)
    a = np.full(len(g), mean / T**2)
    for j, (alpha, beta) in enumerate(modes, 1):
        a += alpha * np.cos(2 * np.pi * j * g / T) + beta * np.sin(2 * np.pi * j * g / T)
    return sampled(g, a, T=T)


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
        # the sides of one t are those of many, bit for bit, on a full C too
        ts = np.linspace(0.0, 1.0, 1001)
        for k in (k, NumericKernel(wavy(), BoundaryKind.PERIODIC)):
            sides = k._sides(ts)
            for i in range(len(ts)):
                assert np.array_equal(k._sides(ts[i:i + 1]), sides[:, [i, len(ts) + i]])

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1])
    def test_no_root_at_a_pinned_end(self, bc):
        # G(t, T) = 0 here, up to rounding that a sign-change search on
        # this coarse grid takes for a crossing within 1.2e-13 of T
        k = NumericKernel(replace(wavy(), grid_size=251), bc)
        ts = np.linspace(0.0, 1.0, 401)[1:-1]
        for t, r in zip(ts, k.s_roots_many(ts)):
            assert not np.any(r > 1.0 - 1e-9), (t, r)

    def test_half_turn_in_a_cell_raises(self):
        k = NumericKernel(replace(trig(lambda t: 400 + 50 * np.sin(2 * np.pi * t)),
                                  grid_size=9), BoundaryKind.PERIODIC)
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


def scan_potentials(bc):
    """The four potentials of TestBatchedRootScan under bc."""
    rng = np.random.default_rng(list(KERNEL_KINDS).index(bc))
    return [wavy(),
            trig(lambda t: 30 + 0.01 * np.cos(2 * np.pi * t) + 5 * np.cos(6 * np.pi * t)),
            trig(lambda t: 400 + 50 * np.sin(2 * np.pi * t)),
            random_trig(rng, SCAN_MEANS[bc])]


class TestNewtonRootsAgainstBisection:
    """The Newton steps of FundamentalSolutions.place against bisect_place,
    the bisection they replaced, on every slice of a t-grid with its ends,
    where a pinned end gives the limit slice."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        taken = []

        def newton(*args):
            x, n = newton_rounds(*args)
            taken.append(n)
            return x, n

        newton_rounds = fundamental._newton
        monkeypatch.setattr(fundamental, "_newton", newton)
        return taken

    @staticmethod
    def assert_matches_bisection(k, ts, monkeypatch):
        got = row_roots(k, ts)
        with monkeypatch.context() as m:
            m.setattr(FundamentalSolutions, "place", bisect_place)
            want = row_roots(k, ts)
        assert np.array_equal(got[1], want[1])
        assert np.all(np.abs(got[0] - want[0]) <= 4 * np.finfo(float).eps * k.T)

    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_scan_potentials(self, bc, rounds, monkeypatch):
        ts = np.linspace(0.0, 1.0, 1001)
        for i, pot in enumerate(scan_potentials(bc)):
            rounds.clear()
            self.assert_matches_bisection(NumericKernel(pot, bc), ts, monkeypatch)
            assert max(rounds) <= 6 if i == 0 else max(rounds) < ROOT_HALVINGS

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1,
                                    BoundaryKind.MIXED2])
    def test_pinned_end_rows_on_a_coarse_grid(self, bc, monkeypatch):
        k = NumericKernel(replace(wavy(), grid_size=251), bc)
        ts = np.array([0.0, 1.0])
        assert np.all(flat_roots(k, ts)[1][k.pinned(ts)] > 0)
        self.assert_matches_bisection(k, np.linspace(0.0, 1.0, 1001), monkeypatch)

    @pytest.mark.parametrize("start", [0.0, 1.0])
    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_start_at_a_bracket_end(self, bc, start, rounds, monkeypatch):
        newton = fundamental._newton
        monkeypatch.setattr(fundamental, "_newton",
                            lambda *args: newton(*args[:-1], np.full(len(args[-1]), start)))
        self.assert_matches_bisection(NumericKernel(wavy(), bc), np.linspace(0.0, 1.0, 1001),
                                      monkeypatch)
        assert max(rounds) < ROOT_HALVINGS

    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_roots_zero_the_slice_cubic(self, bc, monkeypatch):
        # every zero placed leaves its slice, read off the pair's cubics,
        # within 4 roundings of the slice's scale of zero
        k = NumericKernel(wavy(), bc)
        fs, placed = k.fs, []
        place = FundamentalSolutions.place

        def recording(self, theta, keep, alpha, beta, k0):
            placed.append((place(self, theta, keep, alpha, beta, k0), alpha, beta))
            return placed[-1][0]

        monkeypatch.setattr(FundamentalSolutions, "place", recording)
        row_roots(k, np.linspace(0.0, 1.0, 201))
        (r, alpha, beta), = placed
        row, col = np.nonzero(np.isfinite(r))
        assert len(row) > 500
        a, b = np.abs(alpha[row]), np.abs(beta[row])
        u1, u2 = fs.sups[0]
        u1r, u2r = fs.eval_pair(r[row, col])
        residual = np.abs(alpha[row] * u1r + beta[row] * u2r)
        assert np.all(residual <= 4 * np.finfo(float).eps * (a * u1 + b * u2))


SEPARATED = [bc for bc in KERNEL_KINDS if not bc.multiplier]


def fixed_zero_grids(k):
    """(ts, on_zeros) for TestFixedZeros: 1001 and 3 uniform nodes with the
    ends (pinned ones among them), then every fixed zero and the floats
    next to each."""
    zeros = np.sort(np.concatenate(k._fixed_zeros))
    return [(np.linspace(0.0, k.T, 1001), False), (np.linspace(0.0, k.T, 3), False),
            (zeros, True), (np.nextafter(zeros, 0.0), True), (np.nextafter(zeros, k.T), True)]


class TestFixedZeros:
    """On a separated condition every slice has the zeros of u_c left of t
    and those of phi_R right of it, which the kernel finds once, on its
    limit rows (Kernel._fixed_zeros), and slice t holds those up to t and
    past it (Kernel._held): those rows (slice_oracle.flat_roots, which
    s_roots_many gives bit for bit off the pinned ends) against the search
    of every row on its own (slice_oracle.row_roots): the same counts, and
    zeros within 4 roundings of T.

    Where t is on a zero, a row's own search leaves two things undefined:
    a zero within rounding of t may fall on either side of it, and the
    slice on one side may read exactly zero (its coefficient is u_c(t) or
    phi_R(t)), so that the search has nothing to place.  There the zeros
    within 4 roundings of t, and those of a side whose coefficients are
    zero, are left out."""

    @staticmethod
    def assert_matches_rows(k, ts, on_zeros):
        tol = 4 * np.finfo(float).eps * k.T
        got, want = flat_roots(k, ts), row_roots(k, ts)
        for t, r, g in zip(ts, k.s_roots_many(ts), split_roots(got)):
            assert np.array_equal(r, g[:0] if k.pinned(t) else g)
        if not on_zeros:
            assert np.array_equal(got[1], want[1])
        live = np.any(got[2] != 0.0, axis=0).reshape(2, -1).T
        for t, (left, right), g, w in zip(ts, live, split_roots(got), split_roots(want)):
            g, w = ([z for z in r if (left and z < t - tol) or (right and z > t + tol)]
                    for r in (g, w))
            assert len(g) == len(w), t
            assert np.all(np.abs(np.subtract(g, w)) <= tol), t

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("bc", SEPARATED, ids=str)
    def test_constant_potentials(self, bc, T):
        for rho in (11.0, math.sqrt(60), 17.3):
            k = build_kernel(constant(rho, T), bc)
            assert k.form == "closed"
            for ts, on_zeros in fixed_zero_grids(k):
                self.assert_matches_rows(k, ts, on_zeros)

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("bc", SEPARATED, ids=str)
    def test_wavy(self, bc, T):
        k = NumericKernel(wavy(T=T), bc)
        for ts, on_zeros in fixed_zero_grids(k):
            self.assert_matches_rows(k, ts, on_zeros)

    @given(mean=st.floats(45.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           bc=st.sampled_from(SEPARATED),
           T=st.sampled_from([1.0, 2.0]))
    @settings(max_examples=20, deadline=None)
    def test_trig_draws(self, mean, modes, bc, T):
        k = NumericKernel(trig_draw(mean, modes, T), bc)
        for ts, on_zeros in fixed_zero_grids(k):
            self.assert_matches_rows(k, ts, on_zeros)

    @pytest.mark.parametrize("bc", SEPARATED, ids=str)
    def test_limit_rows_are_the_fixed_zeros(self, bc):
        # t = 0 has phi_R's zeros and t = T those of u_c; both ends are
        # limit slices where the condition pins them
        k = NumericKernel(wavy(), bc)
        left, right = k._fixed_zeros
        assert len(left) and len(right)
        assert np.all(np.diff(left) > 0.0) and np.all(np.diff(right) > 0.0)
        flat, counts, _ = flat_roots(k, np.array([0.0, k.T]))
        assert np.array_equal(flat, np.concatenate([right, left]))
        assert counts.tolist() == [len(right), len(left)]

    def test_paired_conditions_have_none(self):
        for bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC):
            assert NumericKernel(wavy(), bc)._fixed_zeros is None


def assert_factorization(k, ts):
    """G(t, s) = phi_R(t) u_c(s) for s <= t and u_c(t) phi_R(s) past t, bit
    for bit, at every t of ts (none of them pinned), with the factors of
    Kernel._separated: of the pair at t, and of the pair at s, exactly zero
    at a pinned end (Kernel._pair), as the kernel reads it.  Through
    Kernel.__call__ and grid_eval, on an outer grid of s and on the square
    one of ts."""
    assert not k.pinned(ts).any()
    phi_t, u_t = k._separated(k._limit_pair(ts))
    ss = np.unique(np.concatenate([np.linspace(0.0, k.T, 201), ts]))
    for s, got in [(ss, k(ts[:, None], ss[None, :])), (ss, k.grid_eval(ts, ss)),
                   (ts, k.grid_eval(ts, ts))]:
        phi_s, u_s = k._separated(np.array(k._pair(s)))
        want = np.where(s <= ts[:, None], phi_t[:, None] * u_s, u_t[:, None] * phi_s)
        assert np.array_equal(got, want)
    # scalar calls, on the anti-diagonal of the square grid
    assert np.array_equal([k(t, s) for t, s in zip(ts, ts[::-1])],
                          np.diag(want[:, ::-1]))


class TestSeparatedFactors:
    """On a separated condition G(t, s) = u_c(min(t, s)) phi_R(max(t, s)),
    with u_c = p[c] and phi_R = C[c] p, stated once by Kernel._separated."""

    @staticmethod
    def grids(k):
        """Interior t: a uniform grid, the fixed zeros and the floats next
        to them."""
        zeros = np.sort(np.concatenate(k._fixed_zeros))
        return [np.linspace(0.0, k.T, 101)[1:-1], zeros, np.nextafter(zeros, 0.0),
                np.nextafter(zeros, k.T)]

    @pytest.mark.parametrize("make", [
        lambda bc: build_kernel(constant(17.3, 1.0), bc),
        lambda bc: build_kernel(constant(8.65, 2.0), bc),
        lambda bc: NumericKernel(constant(17.3, 1.0), bc),
        lambda bc: NumericKernel(wavy(), bc),
        lambda bc: NumericKernel(wavy(T=2.0), bc),
    ], ids=["closed-17.3", "closed-T2", "rk4-17.3", "wavy", "wavy-T2"])
    @pytest.mark.parametrize("bc", SEPARATED, ids=str)
    def test_kernel_is_the_product_of_its_factors(self, bc, make):
        k = make(bc)
        for ts in self.grids(k):
            assert_factorization(k, ts)

    @given(mean=st.floats(10.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           bc=st.sampled_from(SEPARATED),
           T=st.sampled_from([1.0, 2.0]))
    @settings(max_examples=20, deadline=None)
    def test_trig_draws(self, mean, modes, bc, T):
        k = NumericKernel(trig_draw(mean, modes, T), bc)
        for ts in self.grids(k):
            assert_factorization(k, ts)

    @pytest.mark.parametrize("bc", SEPARATED, ids=str)
    def test_factors_are_those_of_the_sides(self, bc):
        # at every t, pinned ends too, the factors are what the sides of
        # the slice hold: phi_R(t) at c left of t, u_c(t) C[c] right of it,
        # and C[c] holds +-1 at 1 - c
        c = bc.entry[1]
        for k in (build_kernel(constant(17.3, 1.0), bc), NumericKernel(wavy(), bc)):
            ts = np.linspace(0.0, k.T, 1001)
            sides = k._sides(ts)
            phi, u = k._separated(k._limit_pair(ts))
            assert abs(k._C[c, 1 - c]) == 1.0
            assert np.array_equal(phi, sides[c, :len(ts)])
            assert np.array_equal(u, sides[1 - c, len(ts):] * k._C[c, 1 - c])


@pytest.mark.parametrize("make", [
    lambda bc: build_kernel(constant(17.3, 1.0), bc),
    lambda bc: NumericKernel(wavy(), bc),
], ids=["closed", "rk4"])
@pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN,
                                BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC], ids=str)
@pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
def test_slice_zeros_only_in_the_interval(t, bc, make):
    # a t outside [0, T], or NaN, has no slice: s_roots and s_roots_many
    # refuse it as pointwise_ratio does, before the pair is evaluated there
    # (a NaN in the RK4 pair's cell index warns)
    k = make(bc)
    with pytest.raises(OutOfRange) as want:
        pointwise_ratio(k, t)
    for roots in (lambda: k.s_roots(t), lambda: k.s_roots_many([0.5, t, 0.25])):
        with pytest.raises(OutOfRange) as got:
            roots()
        assert str(got.value) == str(want.value)
    assert str(want.value) == f"t = {t:.6g} is outside [0, 1]"


def periodic_roots_one_t(rho, T, t):
    """The per-t analytic roots the vectorized ones replaced, kept as
    their oracle (periodic constant kernel)."""
    jmax = int(rho * T / math.pi) + 2
    us = T / 2 + (2 * np.arange(-jmax, jmax + 1) + 1) * math.pi / (2 * rho)
    us = us[(us > 0) & (us < T)]
    roots = np.concatenate([t - us, t + us])
    roots = roots[(roots > 0) & (roots < T)]
    return np.unique(roots)


def dirichlet_roots_one_t(rho, T, t):
    """As periodic_roots_one_t, for the Dirichlet constant kernel; none at
    t = 0 and T, where the condition pins the slice to zero."""
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
        """The vectorized analytic roots of the oracle against its per-t
        ones, bit for bit."""
        rng = np.random.default_rng(4)
        kinds = [(BoundaryKind.PERIODIC, periodic_roots_one_t)]
        if abs(math.sin(rho * T)) > 1e-6:
            kinds.append((BoundaryKind.DIRICHLET, dirichlet_roots_one_t))
        for bc, one_t in kinds:
            ts = np.concatenate([[0.0, T], np.linspace(0.0, T, 101),
                                 rng.uniform(0.0, T, 50),
                                 one_t(rho, T, 0.3 * T), one_t(rho, T, 0.8 * T)])
            got = closed_roots_many(rho, T, bc, ts)
            assert len(got) == len(ts)
            for t, r in zip(ts, got):
                assert np.array_equal(r, one_t(rho, T, float(t))), t
            assert closed_roots_many(rho, T, bc, []) == []
            assert build_kernel(constant(rho, T), bc).s_roots_many([]) == []

    @given(st.floats(0.5, 22.0), st.sampled_from([0.4, 1.0, 2.5]),
           st.sampled_from([BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET]),
           st.integers(0, 2**32 - 1))
    @example(17.1 * math.pi / 2.5, 2.5, BoundaryKind.DIRICHLET, 0)
    @example(17.1 * math.pi, 1.0, BoundaryKind.DIRICHLET, 0)
    @example(17.1 * math.pi, 1.0, BoundaryKind.PERIODIC, 0)
    @settings(max_examples=60, deadline=None)
    def test_angle_roots_match_the_analytic_ones(self, rho, T, bc, seed):
        """The exact pair's angle roots against the analytic ones: equal
        counts and roots within 2e-15 T, on a 1001-point t-grid (its ends
        included) and random t."""
        try:
            kernel = build_kernel(constant(rho, T), bc)
        except ResonantPotential:
            return
        ts = np.concatenate([np.linspace(0.0, T, 1001),
                             np.random.default_rng(seed).uniform(0.0, T, 200)])
        for t, got, want in zip(ts, kernel.s_roots_many(ts),
                                closed_roots_many(rho, T, bc, ts)):
            assert len(got) == len(want), (t, got, want)
            assert_allclose(got, want, rtol=0, atol=2e-15 * T, err_msg=str(t))


class TestClosedFormResonance:
    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET])
    @pytest.mark.parametrize("T", [0.4, 1.0, 2.5])
    def test_boundary_matrix_agrees_with_the_closed_test(self, bc, T):
        """The one resonance rule and the closed forms' own test give the
        same verdict for rho T within 1e-8 relative of k pi."""
        offsets = np.concatenate([[0.0], np.geomspace(1e-16, 1e-8, 41)])
        for k in range(1, 9):
            for rel in np.concatenate([offsets, -offsets]):
                rho = k * math.pi * (1.0 + rel) / T
                verdicts = []
                for check in (lambda: require_kernel(constant(rho, T), bc),
                              lambda: require_nonresonant(rho, T, bc)):
                    try:
                        check()
                        verdicts.append(False)
                    except ResonantPotential:
                        verdicts.append(True)
                assert verdicts[0] == verdicts[1], (k, rel)


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
                               k.s_roots_many(live)):
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
    """The np.outer copy of the kernel formula p(min)^T C p(max) that
    grid_eval replaced."""
    (u1t, u2t), (u1s, u2s) = k._pair(ts), k._pair(ss)
    C = k._C
    c1t, c2t = C[0, 0] * u1t + C[0, 1] * u2t, C[1, 0] * u1t + C[1, 1] * u2t
    c1s, c2s = C[0, 0] * u1s + C[0, 1] * u2s, C[1, 0] * u1s + C[1, 1] * u2s
    return np.where(ts[:, None] >= ss[None, :],
                    np.outer(c1t, u1s) + np.outer(c2t, u2s),
                    np.outer(u1t, c1s) + np.outer(u2t, c2s))


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
        # one call per kernel call, on the points of both operands
        assert sizes == [37 + 37 * 8, 5 + 7]

    @pytest.mark.parametrize("k", single_path_kernels())
    def test_one_pair_call_matches_one_per_operand(self, k):
        x = awkward_points()
        for t, s in ((x[:37, None], x[:37 * 8].reshape(37, 8)), (x, x[::-1]),
                     (x[3], x[:40]), (np.float64(x[5]), x[6])):
            (u1t, u2t), (u1s, u2s) = pt, ps = k._pair(t), k._pair(s)
            (c1t, c2t), (c1s, c2s) = _times(k._C, pt), _times(k._C, ps)
            want = np.where(s <= t, u1s * c1t + u2s * c2t, u1t * c1s + u2t * c2s)
            got = k(t, s)
            assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("k", single_path_kernels())
    def test_grid_eval_matches_outer_formula(self, k):
        x = awkward_points(60)
        got = k.grid_eval(x, x[::-1])
        assert got.shape == (len(x), len(x))
        tt, ss = np.meshgrid(x, x[::-1], indexing="ij")
        assert np.array_equal(got, k(tt, ss))
        if isinstance(k, NumericKernel):
            assert np.array_equal(got, grid_by_outer(k, x, x[::-1]))

    @pytest.mark.parametrize("k", single_path_kernels())
    def test_square_grid_matches_outer_grid(self, k):
        # grid_eval(x, x) is one branch of the symmetric form and its
        # mirror: bit for bit the outer grid of x and a copy of it, signed
        # zeros too, on unsorted points with repeats
        x = awkward_points(60)
        got = k.grid_eval(x, x)
        assert np.array_equal(got.view(np.int64), k.grid_eval(x, x.copy()).view(np.int64))

    def test_eval_pair_matches_per_solution_basis(self):
        # the monomial cubics round otherwise than the Hermite basis: they
        # agree to a few roundings of each solution's max |u|
        fs = NumericKernel(wavy(), BoundaryKind.PERIODIC).fs
        tol = 4 * np.finfo(float).eps * np.max(np.abs([fs.u1, fs.u2]), axis=1)
        x = awkward_points()
        for got, want, t in zip(fs.eval_pair(x), hermite_per_solution(fs, x), tol):
            assert np.all(np.abs(got - want) <= t)
        u1, u2 = fs.eval_pair(0.37)
        assert np.all(np.abs(np.subtract((u1, u2), hermite_per_solution(fs, 0.37))) <= tol)


@functools.cache
def symmetric_case(bc, grid):
    """The wavy kernel of bc on an RK4 grid of grid nodes, or with grid
    None the exact kernel of a = 7.5**2, nonresonant under all six."""
    if grid is None:
        return build_kernel(constant(7.5), bc)
    return NumericKernel(replace(wavy(), grid_size=grid), bc)


class TestSymmetricForm:
    """Every kernel is p(min)^T C p(max): symmetric bit for bit, exactly
    zero at a pinned end, and its slices keep their shape next to one."""

    @pytest.mark.parametrize("grid", [41, 2001, None])
    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @given(x=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_bit_symmetric(self, bc, grid, x):
        k = symmetric_case(bc, grid)
        x = np.concatenate([[0.0, 1.0], x])
        g = k.grid_eval(x, x)
        assert np.array_equal(g.view(np.uint64), g.T.copy().view(np.uint64))
        for t, s in zip(x[:5], x[::-1]):
            assert k(t, s) == k(s, t)

    @pytest.mark.parametrize("grid", [41, 2001, None])
    @pytest.mark.parametrize("bc", [bc for bc in BoundaryKind if any(bc.pinned_ends)])
    def test_zero_at_a_pinned_end(self, bc, grid):
        k = symmetric_case(bc, grid)
        ends = np.array([0.0, 1.0])[list(bc.pinned_ends)]
        ss = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-9, 1.0 - 1e-9]])
        for end in ends:
            assert np.all(k(end, ss) == 0.0) and np.all(k(ss, end) == 0.0)
            assert np.all(k.grid_eval([end], ss) == 0.0)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1])
    def test_slice_next_to_a_pinned_end_has_the_limit_shape(self, bc):
        # G(t, .) for s <= t is u_c(s) phi_R(t): 1e-8 inside T its shape is
        # the limit slice's to rounding, with no cancellation of terms
        k = symmetric_case(bc, 2001)
        t = 1.0 - 1e-8
        ss = np.linspace(0.0, t, 1001)
        g = k(t, ss)
        (alpha, _), (beta, _) = k._sides(np.array([1.0]))
        u1, u2 = k._pair(ss)
        limit = alpha * u1 + beta * u2
        err = g / np.max(np.abs(g)) - limit / np.max(np.abs(limit))
        assert np.max(np.abs(err)) <= 1e-15
