import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from greensign.cone import _t_prefix, find_subinterval
from greensign.errors import EvaluationFailure, QuadratureFailure
from greensign.expressions import Expression
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.fundamental import ConstantPair
from greensign.quadrature import cell_edges, default_max_len, gauss_nodes
from slice_oracle import GAUSS_ORDER, Cumulative, shared_breaks, slice_panels
from greensign import solver
from greensign.solver import (CELL_ORDER, FINE_CELL_ORDER, TOL, Positivity,
                              _cell_values, _classify_positivity, _Cumulative,
                              solve_linear, solve_nonlinear, verify_solution)

RHO_D = math.sqrt(60.0)
RHO_P = 1.5 * math.pi


def exact_clamped_parabola_rhs(t):
    # u'' + 60 u = t(1-t), u(0) = u(1) = 0
    a1 = -1.0 / 1800.0
    b1 = -(1.0 / 1800.0) * (1 - math.cos(RHO_D)) / math.sin(RHO_D)
    t = np.asarray(t, dtype=float)
    return (1.0 / 1800.0 + t / 60.0 - t * t / 60.0
            + a1 * np.cos(RHO_D * t) + b1 * np.sin(RHO_D * t))


def exact_clamped_linear_rhs(t):
    # u'' + 60 u = t, u(0) = u(1) = 0
    t = np.asarray(t, dtype=float)
    return t / 60.0 - np.sin(RHO_D * t) / (60.0 * math.sin(RHO_D))


#: Gauss points per panel of the per-row oracle on a numeric kernel, whose
#: panels break at every node of its grid: between two nodes its pair is
#: one Hermite cubic, which these points integrate times a smooth sigma to
#: rounding on a cell that short
NODE_PANEL_ORDER = 4
#: output nodes per block of oracle_solve; bounds its memory
ORACLE_BLOCK = 128


class _NodeQuadrature:
    """The per-row oracle: every output node integrated on its own Gauss
    panels, split at the zeros of its slice G(t, .), at its diagonal, at
    the potential's break points and, on a numeric kernel, at the nodes of
    its grid, where the Hermite pair kinks; capped at default_max_len."""

    def __init__(self, kernel, ts: np.ndarray):
        roots = kernel.s_roots_many(ts)
        breaks, order = None, GAUSS_ORDER
        if kernel.form == "numeric":
            breaks = np.union1d(shared_breaks(kernel.potential), kernel.fs.ts[1:-1])
            order = NODE_PANEL_ORDER
        plan, g = slice_panels(kernel, ts, roots,
                               default_max_len(kernel.potential), order, breaks)
        self.xs = plan.xs.ravel()
        self.offsets = plan.offsets[:-1] * order
        self.coeff = plan.weights.ravel() * g.ravel()

    def apply(self, sigma_at_xs: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.coeff * sigma_at_xs, self.offsets)


def oracle_solve(kernel, sigma, grid) -> np.ndarray:
    ts = np.linspace(0.0, kernel.T, grid)
    out = []
    for a in range(0, grid, ORACLE_BLOCK):
        quad = _NodeQuadrature(kernel, ts[a:a + ORACLE_BLOCK])
        out.append(quad.apply(np.broadcast_to(sigma(quad.xs), quad.xs.shape)))
    return np.concatenate(out)


def const_sigma(value):
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


def cell_gauss_nodes(ts, order):
    """The order Gauss nodes of every cell between consecutive ts, flat, as
    CellSums places them."""
    half = 0.5 * np.diff(ts)
    return ((0.5 * (ts[:-1] + ts[1:]))[:, None] + half[:, None] * gauss_nodes(order)[0]).ravel()


def end_data_interp(ts, ders, xs):
    """The cell-local interpolant point by point; oracle.  Each x is placed
    in its cell [t_i, t_i + h] at y = (x - t_i) / h, and u there is the sum
    of the end data times the closed-form basis of the Lidstone cubic (ders
    u and u'') or of the quintic Hermite interpolant (u, u' and u'')."""
    i = np.clip(np.searchsorted(ts, xs, side="right") - 1, 0, len(ts) - 2)
    h = ts[i + 1] - ts[i]
    y = (xs - ts[i]) / h
    z = 1.0 - y
    if len(ders) == 2:
        u, upp = ders
        lid = lambda y: (y**3 - y) / 6.0
        return u[i] * z + u[i + 1] * y + h * h * (upp[i] * lid(z) + upp[i + 1] * lid(y))
    u, up, upp = ders
    return (u[i] * (1 - 10 * y**3 + 15 * y**4 - 6 * y**5)
            + h * up[i] * (y - 6 * y**3 + 8 * y**4 - 3 * y**5)
            + h * h * upp[i] * (y**2 - 3 * y**3 + 3 * y**4 - y**5) / 2
            + u[i + 1] * (10 * y**3 - 15 * y**4 + 6 * y**5)
            + h * up[i + 1] * (-4 * y**3 + 7 * y**4 - 3 * y**5)
            + h * h * upp[i + 1] * (y**3 - 2 * y**4 + y**5) / 2)


#: the end data of each width, as _cell_values takes them
END_DATA = {4: (0, 2), 6: (0, 1, 2)}


class TestCellStencil:
    """The cell-local stencil of the fixed-point solve: u at the Gauss nodes
    of a cell from the end data of that cell alone, the Lidstone cubic
    through u and h^2 u'' at the two edges (width 4) for the image map and
    the quintic Hermite interpolant of u, h u' and h^2 u'' (width 6) for its
    fine check, one reference matrix per rule for every cell."""

    @pytest.mark.parametrize("n", [5, 6, 7, 9, 41, 2001])
    @pytest.mark.parametrize("order,width", [(CELL_ORDER, 4), (FINE_CELL_ORDER, 6)])
    def test_matches_the_per_point_stencil(self, n, order, width):
        # uneven cells: one matrix serves every cell length.  The two read
        # at nodes that differ by their rounding, so they agree to a few ulp
        # of the largest datum
        ts = np.linspace(0.0, 1.0, n) ** 1.3
        xs = cell_gauss_nodes(ts, order)
        u = [np.sin(3.0 * ts + 0.3) + ts * ts, 3.0 * np.cos(3.0 * ts + 0.3) + 2.0 * ts,
             -9.0 * np.sin(3.0 * ts + 0.3) + 2.0]
        ders = {k: u[k] for k in END_DATA[width]}
        got = _cell_values(order, np.diff(ts), ders)
        want = end_data_interp(ts, list(ders.values()), xs)
        assert got.shape == want.shape
        scale = max(np.max(np.abs(d)) for d in ders.values())
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * scale

    def test_reproduces_a_polynomial_of_its_degree(self):
        # a cubic from u and u'', a quintic from u, u' and u''
        ts = np.linspace(0.0, 2.0, 11) ** 1.2
        for order, width in ((CELL_ORDER, 4), (FINE_CELL_ORDER, 6)):
            xs = cell_gauss_nodes(ts, order)
            poly = np.polynomial.Polynomial([0.3, -1.0, 0.5, 1.0, -0.4, 0.2][:width])
            ders = {k: poly.deriv(k)(ts) for k in END_DATA[width]}
            got = _cell_values(order, np.diff(ts), ders)
            assert np.max(np.abs(got - poly(xs))) <= 1e-14 * np.max(np.abs(poly(xs)))

    @pytest.mark.parametrize("kernel,f", [
        (DirichletConstantKernel(RHO_D), lambda s, x: s * (1.0 - s) + 5.0 * x),
        (PeriodicConstantKernel(7.5), lambda s, x: 1.0 + 41.0 * x)],
        ids=["dirichlet", "periodic-non-contractive"])
    def test_solve_matches_the_per_point_paths(self, monkeypatch, kernel, f):
        got = solve_nonlinear(kernel, f, 2001)
        # the pair at every Gauss node by eval_pair, not by angle addition
        with monkeypatch.context() as m:
            m.setattr(ConstantPair, "cell_pair",
                      lambda self, edges, xs: np.stack(self.eval_pair(xs)))
            want = solve_nonlinear(kernel, f, 2001)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


@pytest.fixture(scope="module")
def profile():
    return solve_linear(DirichletConstantKernel(RHO_D),
                        lambda s: s * (1.0 - s), 2001)


class TestLinearClamped:
    def test_matches_exact_solution(self, profile):
        err = np.max(np.abs(profile.values
                            - exact_clamped_parabola_rhs(profile.grid)))
        assert err < 1e-12

    def test_positive_interior(self, profile):
        assert profile.positivity is Positivity.POSITIVE
        assert float(np.min(profile.values[1:-1])) > 0

    def test_certified(self, profile):
        assert profile.bc_error <= 1e-9
        assert profile.residual_norm <= 1e-5
        assert profile.iterations == 0 and profile.converged

    def test_peak(self, profile):
        assert float(np.max(profile.values)) == pytest.approx(
            0.005468689590518452, abs=1e-12)
        assert profile.grid[int(np.argmax(profile.values))] == 0.5

    def test_sign_changing_example(self):
        p = solve_linear(DirichletConstantKernel(RHO_D), lambda s: s, 2001)
        err = np.max(np.abs(p.values - exact_clamped_linear_rhs(p.grid)))
        assert err < 1e-12
        assert p.positivity is Positivity.CHANGES_SIGN
        assert float(np.min(p.values)) < 0 < float(np.max(p.values))
        assert p.bc_error <= 1e-9


class TestLinearClosedForms:
    """The separable sum with the exact pairs of the constant kernels, on
    grids down to five nodes, where the length cap splits the cells."""

    @pytest.mark.parametrize("n", [5, 11, 101, 2001])
    @pytest.mark.parametrize("rho", [RHO_P, 7.5, 20.3])
    def test_periodic_matches_exact_solution(self, rho, n):
        # u'' + rho^2 u = cos 2 pi t + sin 4 pi t
        p = solve_linear(PeriodicConstantKernel(rho),
                         lambda s: np.cos(2 * math.pi * s) + np.sin(4 * math.pi * s), n)
        t = p.grid
        exact = (np.cos(2 * math.pi * t) / (rho**2 - 4 * math.pi**2)
                 + np.sin(4 * math.pi * t) / (rho**2 - 16 * math.pi**2))
        assert np.max(np.abs(p.values - exact)) < 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [5, 11, 101, 2001])
    @pytest.mark.parametrize("rho", [RHO_D, 7.5, 20.3])
    def test_dirichlet_matches_exact_solution(self, rho, n):
        # u'' + rho^2 u = sin pi t + sin 3 pi t, u(0) = u(1) = 0
        p = solve_linear(DirichletConstantKernel(rho),
                         lambda s: np.sin(math.pi * s) + np.sin(3 * math.pi * s), n)
        t = p.grid
        exact = (np.sin(math.pi * t) / (rho**2 - math.pi**2)
                 + np.sin(3 * math.pi * t) / (rho**2 - 9 * math.pi**2))
        assert np.max(np.abs(p.values - exact)) < 1e-12 * np.max(np.abs(exact))
        assert p.values[0] == 0.0 and p.values[-1] == 0.0


#: means of the numeric-report benchmark's potentials, between two
#: resonances of each condition; antiperiodic between pi^2 and (3 pi)^2
MEAN_WINDOWS = {BoundaryKind.PERIODIC: (45.0, 80.0), BoundaryKind.NEUMANN: (45.0, 82.0),
                BoundaryKind.DIRICHLET: (45.0, 82.0), BoundaryKind.MIXED1: (27.0, 56.0),
                BoundaryKind.MIXED2: (27.0, 56.0), BoundaryKind.ANTIPERIODIC: (15.0, 82.0)}


def wavy_rhs(s):
    return 1.0 + 0.3 * np.cos(2 * math.pi * s) - 0.5 * s


class TestSeparableAgainstOracle:
    """The cumulative separable solve against the per-row panel oracle:
    the same kernel, integrated two independent ways."""

    @pytest.mark.parametrize("n", [101, 2001])
    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_wavy(self, bc, n):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        k = build_kernel(pot, bc)
        got = solve_linear(k, wavy_rhs, n).values
        want = oracle_solve(k, wavy_rhs, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.MIXED2])
    def test_cells_follow_the_kernel_grid(self, bc):
        # on a coarse kernel grid the Hermite pair kinks at every grid
        # node; panels broken there too integrate it exactly, and a cell
        # that straddled a node would miss by about 1e-8
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid), grid_size=33)
        k = NumericKernel(pot, bc)
        ts = np.linspace(0.0, 1.0, 11)
        plan, g = slice_panels(k, ts, [k.fs.ts[1:-1]] * len(ts),
                               default_max_len(pot))
        want = np.add.reduceat((plan.weights * g * wavy_rhs(plan.xs)).ravel(),
                               plan.offsets[:-1] * plan.xs.shape[1])
        got = solve_linear(k, wavy_rhs, ts).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @given(bc=st.sampled_from(list(BoundaryKind)), place=st.floats(0.0, 1.0),
           modes=st.lists(st.floats(-2.5, 2.5), min_size=6, max_size=6),
           rhs=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    # Neumann at the top of its mean window: panels across the kernel's
    # grid nodes read this 1.37e-12 of max |u| off
    @example(bc=BoundaryKind.NEUMANN, place=1.0, modes=[0, 0, 0, 0.5, 0, -1],
             rhs=[0, 0, 0])
    def test_trig_potentials(self, bc, place, modes, rhs):
        lo, hi = MEAN_WINDOWS[bc]
        grid = np.linspace(0.0, 1.0, 2001)
        a = lo + place * (hi - lo) + sum(
            modes[2 * k] * np.cos(2 * math.pi * (k + 1) * grid)
            + modes[2 * k + 1] * np.sin(2 * math.pi * (k + 1) * grid) for k in range(3))
        k = build_kernel(sampled(grid, a), bc)
        sigma = lambda s: 1.5 + rhs[0] + rhs[1] * np.cos(2 * math.pi * s) + rhs[2] * s
        got = solve_linear(k, sigma, 101).values
        want = oracle_solve(k, sigma, 101)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCellSumsRead:
    """The solver's read of quadrature.CellSums against the prefix table
    that built its own cells (slice_oracle.Cumulative): the same nodes and
    the same sums, bit for bit, and u to rounding, from the kernel's
    separable read here and the Cauchy form there."""

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    @pytest.mark.parametrize("numeric", [True, False])
    @pytest.mark.parametrize("order", [CELL_ORDER, FINE_CELL_ORDER])
    @pytest.mark.parametrize("outside", [0.0, 1e-13])
    def test_matches_the_prefix_table(self, bc, numeric, order, outside):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = (sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid)) if numeric
               else constant(RHO_D))
        k = build_kernel(pot, bc)
        # uneven output nodes, the end nodes outside [0, T] by outside
        ts = np.linspace(0.0, 1.0, 57) ** 1.3
        ts[0], ts[-1] = -outside, 1.0 + outside
        edges = cell_edges(k, ts, default_max_len(k.potential))
        at = edges.searchsorted(np.clip(ts, 0.0, 1.0))
        got, want = _Cumulative(k, edges, at, order), Cumulative(k, ts, order)
        assert np.array_equal(got.xs, want.xs)
        assert np.array_equal(at, want.at)
        g = wavy_rhs(got.xs) + np.sin(9.0 * got.xs)
        for x in (g, 1.5):
            assert np.array_equal(got.sums(x), want.sums(x))
            u = want.apply(x)
            err = np.max(np.abs(got.apply(x) - u))
            assert err <= 4.0 * np.finfo(float).eps * np.max(np.abs(u))


class TestCancellationGuard:
    """On a strongly negative potential the pair grows like exp(sqrt(-a) t)
    and the terms of the separable sum cancel; a sum that cannot back half
    its digits raises."""

    @staticmethod
    def kernel(a, bc=BoundaryKind.DIRICHLET):
        grid = np.linspace(0.0, 1.0, 2001)
        return build_kernel(sampled(grid, np.full_like(grid, a)), bc)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.PERIODIC,
                                    BoundaryKind.NEUMANN])
    def test_steep_pair_raises(self, bc):
        k = self.kernel(-800.0, bc)
        with pytest.raises(QuadratureFailure):
            solve_linear(k, const_sigma(1.0), 2001)
        with pytest.raises(QuadratureFailure):
            solve_nonlinear(k, lambda s, x: 1.0 + 0.0 * x, 2001)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.PERIODIC,
                                    BoundaryKind.NEUMANN])
    def test_solve_and_cone_share_one_guard(self, bc):
        # one read of a separable integral, one bulk: its terms exceed the
        # values by 3.3e7 at a = -81 and by 2.4e8 at a = -100, in the solve
        # and in the cone's t-integrals alike.  By the symmetry of G the
        # t-integral of G(., s) over [0, T] is u(s) for sigma = 1.
        k = 9.0
        t = np.linspace(0.0, 1.0, 2001)
        exact = (np.full_like(t, -1.0 / k**2) if bc.keeps_constants
                 else (np.cosh(k * t) - 1.0 + (1.0 - math.cosh(k)) / math.sinh(k)
                       * np.sinh(k * t)) / k**2)
        kernel = self.kernel(-k * k, bc)
        u = solve_linear(kernel, const_sigma(1.0), t).values
        assert np.max(np.abs(u - exact)) <= 2e-8 * np.max(np.abs(exact))
        whole = _t_prefix(kernel, [1.0], t[::10])[0][0]
        assert np.max(np.abs(whole - exact[::10])) <= 2e-8 * np.max(np.abs(exact))
        find_subinterval(kernel)
        kernel = self.kernel(-100.0, bc)
        with pytest.raises(QuadratureFailure, match="grows too fast"):
            solve_linear(kernel, const_sigma(1.0), t)
        with pytest.raises(QuadratureFailure, match="grows too fast"):
            find_subinterval(kernel)

    def test_moderate_pair_matches_exact_solution(self):
        # u'' - 50 u = 1, u(0) = u(1) = 0
        r = math.sqrt(50.0)
        p = solve_linear(self.kernel(-50.0), const_sigma(1.0), 2001)
        t = p.grid
        exact = (np.cosh(r * t) - 1.0
                 + (1.0 - math.cosh(r)) / math.sinh(r) * np.sinh(r * t)) / 50.0
        assert np.max(np.abs(p.values - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_overflowing_sum_from_zero_refuses(self):
        # every cell sum is finite (the largest 2.9e307), so it is the sum
        # from 0 that overflows; it refuses without a RuntimeWarning
        kernel = self.kernel(-50.0)
        quad = _Cumulative(kernel, solver._as_grid(kernel, 2001)[1])
        assert np.all(np.isfinite(quad._cells(1e308)))
        with pytest.raises(QuadratureFailure, match="non-finite integrand in the solve"):
            solve_linear(kernel, const_sigma(1e308), 2001)


class TestLinearPeriodic:
    def test_sigma_a_gives_one_closed(self):
        p = solve_linear(PeriodicConstantKernel(RHO_P),
                         const_sigma(RHO_P**2), 501)
        assert np.max(np.abs(p.values - 1.0)) < 1e-12
        assert p.positivity is Positivity.POSITIVE

    def test_sigma_a_gives_one_sampled(self):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        p = solve_linear(build_kernel(pot, BoundaryKind.PERIODIC), pot, 501)
        assert np.max(np.abs(p.values - 1.0)) < 1e-7

    def test_zero_sigma(self):
        p = solve_linear(PeriodicConstantKernel(RHO_P), const_sigma(0.0), 101)
        assert np.max(np.abs(p.values)) == 0.0
        assert p.positivity is Positivity.NONNEGATIVE


class TestLinearity:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3))
    def test_superposition(self, alpha, beta):
        k = DirichletConstantKernel(RHO_D)
        s1 = lambda s: np.sin(3.0 * s)
        s2 = lambda s: s**2 - 0.5
        combo = lambda s: alpha * s1(s) + beta * s2(s)
        u1 = solve_linear(k, s1, 201).values
        u2 = solve_linear(k, s2, 201).values
        u12 = solve_linear(k, combo, 201).values
        assert np.max(np.abs(u12 - (alpha * u1 + beta * u2))) < 1e-9


class TestGridConvergence:
    def test_numeric_kernel_error_drops_fourth_order(self):
        # u == 1 reference; the kernel step is the only discretization
        errs = []
        for gs in (251, 501, 1001):
            k = NumericKernel(constant(RHO_P, grid_size=gs), BoundaryKind.PERIODIC)
            p = solve_linear(k, const_sigma(RHO_P**2), 101)
            errs.append(float(np.max(np.abs(p.values - 1.0))))
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0


class TestNonlinear:
    def test_x_independent_matches_linear(self):
        k = DirichletConstantKernel(RHO_D)
        lin = solve_linear(k, lambda s: s * (1.0 - s), 1001)
        non = solve_nonlinear(k, lambda s, x: s * (1.0 - s) + 0.0 * x, 1001)
        assert np.max(np.abs(non.values - lin.values)) < 1e-10
        assert non.iterations == 1
        assert non.converged
        assert non.fixed_point_residual <= 1e-9
        assert non.positivity is Positivity.POSITIVE

    def test_zero_f_in_one_step(self):
        k = DirichletConstantKernel(RHO_D)
        p = solve_nonlinear(k, lambda s, x: 0.0 * s, 101)
        assert p.iterations == 1 and p.converged
        assert np.max(np.abs(p.values)) == 0.0

    def test_periodic_bounded_oscillation(self):
        # f(t, x) = (2 + sin x)/3: sandwich ratio 3 within gamma ~ 3.414
        k = PeriodicConstantKernel(RHO_P)
        p = solve_nonlinear(k, lambda s, x: (2.0 + np.sin(x)) / 3.0, 1001)
        assert p.converged
        assert p.positivity is Positivity.POSITIVE
        assert p.fixed_point_residual <= 1e-9
        # fixed point of c = (2 + sin c)/(3 rho^2)
        c = float(np.mean(p.values))
        assert c == pytest.approx((2.0 + math.sin(c)) / (3.0 * RHO_P**2),
                                  abs=1e-10)
        assert np.max(np.abs(p.values - c)) < 1e-9

    @pytest.mark.parametrize("n,converged", [(101, False), (201, False),
                                             (401, True), (2001, True)])
    def test_fine_check_verdicts_on_the_non_contractive_dirichlet(self, n, converged):
        # u'' + 10 u = 1 written as u'' + 60 u = 1 + 50 u: the coarse
        # iterates settle on every grid, and the fine check, with its own
        # 6-point stencil, rejects those of the two coarsest
        p = solve_nonlinear(DirichletConstantKernel(RHO_D),
                            lambda s, x: 1.0 + 50.0 * x, n)
        assert p.fixed_point_residual is not None
        assert p.converged is converged

    @pytest.mark.parametrize("grid,stencil_error", [
        (101, 5.78e-6), (201, 3.61e-7), (401, 2.26e-8),
        (np.linspace(0.0, 1.0, 2001) ** 1.1, 4.20e-10), (5, 0.498)],
        ids=["101", "201", "401", "uneven-2001", "capped-5"])
    def test_non_contractive_dirichlet_against_the_closed_form(self, grid, stencil_error):
        # u'' + 10 u = 1, u(0) = u(1) = 0, written as u'' + 60 u = 1 + 50 u.
        # stencil_error is the error over max |u| with u between the output
        # nodes from a 4-point Lagrange stencil; the cell-local cubic is
        # held to 0.6 of it on uniform and uneven nodes and on 5 nodes,
        # whose cells the length cap cuts in two
        r = math.sqrt(10.0)
        p = solve_nonlinear(DirichletConstantKernel(RHO_D), lambda s, x: 1.0 + 50.0 * x, grid)
        t = p.grid
        exact = (1.0 - np.cos(r * t) - (1.0 - math.cos(r)) / math.sin(r) * np.sin(r * t)) / 10.0
        err = np.max(np.abs(p.values - exact)) / np.max(np.abs(exact))
        assert err <= 0.6 * stencil_error

    def test_coarse_numeric_solve_is_the_fine_one_at_its_nodes(self):
        # the iterate lives on every edge of the table, the nodes of a
        # numeric kernel's RK4 grid among them, so the 101-node solve of
        # the wavy potential iterates on the 2001-node one's unknowns
        grid = np.linspace(0.0, 1.0, 2001)
        k = build_kernel(sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid)),
                         BoundaryKind.PERIODIC)
        f = lambda s, x: 1.0 + x / (1.0 + x)
        coarse, fine = solve_nonlinear(k, f, 101), solve_nonlinear(k, f, 2001)
        assert coarse.converged and fine.converged
        scale = np.max(np.abs(fine.values))
        assert np.max(np.abs(coarse.values - fine.values[::20])) <= 1e-12 * scale

    def test_problem_without_solution_reports_not_raises(self):
        # f = 1 + rho^2 x turns the problem into u'' = 1, which has no
        # periodic solution: the iterates run off to the divergence cap
        k = PeriodicConstantKernel(RHO_P)
        p = solve_nonlinear(k, lambda s, x: 1.0 + RHO_P**2 * x, 101)
        assert p.converged is False
        assert p.fixed_point_residual is None

    def test_resonance_is_rejected_by_the_fine_check(self):
        # u'' + 4 pi^2 u = cos(2 pi t) has no periodic solution.  The
        # discrete map is only near-singular, so the coarse iterates settle
        # (a residual is measured only then), and the fine re-quadrature is
        # what rejects them, far above its 10 * tol bound
        rho = 7.5
        f = lambda s, x: np.cos(2 * math.pi * s) + (rho**2 - 4 * math.pi**2) * x
        p = solve_nonlinear(PeriodicConstantKernel(rho), f, 101)
        assert p.converged is False
        assert p.fixed_point_residual is not None
        assert p.fixed_point_residual > 1e-4

    def test_non_contractive_dirichlet_matches_the_shifted_kernel(self):
        # u'' + 60 u = 1 + 50 u is u'' + 10 u = 1; damped Picard diverges
        p = solve_nonlinear(DirichletConstantKernel(RHO_D),
                            lambda s, x: 1.0 + 50.0 * x, 2001)
        ref = solve_linear(DirichletConstantKernel(math.sqrt(10.0)),
                           const_sigma(1.0), 2001)
        assert p.converged
        assert p.fixed_point_residual <= 1e-9
        scale = float(np.max(np.abs(ref.values)))
        assert np.max(np.abs(p.values - ref.values)) <= 1e-9 * scale

    def test_non_contractive_periodic_finds_the_constant(self):
        # u'' + 56.25 u = 1 + 41 u is u'' + 15.25 u = 1, so u = 1/15.25
        p = solve_nonlinear(PeriodicConstantKernel(7.5),
                            lambda s, x: 1.0 + 41.0 * x, 201)
        assert p.converged
        assert p.fixed_point_residual <= 1e-9
        assert np.max(np.abs(p.values - 1.0 / 15.25)) <= 1e-9 / 15.25

    def test_contraction_needs_few_iterations(self):
        # the golden contraction, which damped Picard solved in 26
        # iterations; the count barely depends on the grid
        p = solve_nonlinear(DirichletConstantKernel(RHO_D),
                            lambda s, x: s * (1.0 - s) + 5.0 * x, 201)
        assert p.converged
        assert p.iterations <= 12

    @given(periodic=st.booleans(), place=st.floats(0.05, 0.95),
           factor=st.one_of(st.floats(0.3, 0.9), st.floats(1.2, 2.5)),
           damping=st.sampled_from([0.5, 0.8, 1.0]),
           p0=st.floats(0.5, 2.0), p1=st.floats(-1.0, 1.0),
           p2=st.floats(-1.0, 1.0))
    @settings(max_examples=12, deadline=None)
    def test_affine_f_matches_the_shifted_kernel(self, periodic, place, factor,
                                                 damping, p0, p1, p2):
        # f = p(t) + c x makes u'' + rho^2 u = f the linear problem
        # u'' + (rho^2 - c) u = p.  c sets the damped-Picard factor, the
        # largest |1 - damping + damping c / (rho^2 - omega_k^2)| over the
        # eigenfrequencies omega_k, so the map contracts or expands
        assume(factor > 1.0 - damping + 0.05)
        step = 2 if periodic else 1
        rho = step * math.pi * (1.05 + 0.9 * place)
        omega = step * math.pi * np.arange(0 if periodic else 1, 40)
        mu = 1.0 / (rho**2 - omega**2)
        c = min((factor - 1.0 + damping) / (damping * mu[mu > 0].max()),
                (factor + 1.0 - damping) / (damping * -mu[mu < 0].min()))
        shifted = rho**2 - c
        assume(shifted >= 1.0 and np.min(np.abs(shifted - omega**2)) >= 0.1 * shifted)
        kind = PeriodicConstantKernel if periodic else DirichletConstantKernel
        sigma = lambda s: p0 + p1 * np.cos(2 * math.pi * s) + p2 * s
        p = solve_nonlinear(kind(rho), lambda s, x: sigma(s) + c * x, 401,
                            damping=damping)
        ref = solve_linear(kind(math.sqrt(shifted)), sigma, 401)
        assert p.converged
        assert p.fixed_point_residual <= 1e-9
        scale = float(np.max(np.abs(ref.values)))
        assert np.max(np.abs(p.values - ref.values)) <= 1e-7 * scale

    def test_non_finite_f_raises(self):
        k = PeriodicConstantKernel(RHO_P)
        bad = lambda s, x: np.where(s > 0.5, np.nan, 1.0)
        with pytest.raises(EvaluationFailure):
            solve_nonlinear(k, bad, 101)

    def test_non_finite_f_in_the_fine_check_raises(self):
        # f is infinite only at one Gauss node of the fine check's rule on
        # the first cell, [0, 0.01], which no step reads
        ts = np.linspace(0.0, 1.0, 101)
        mid, half = 0.5 * (ts[0] + ts[1]), 0.5 * (ts[1] - ts[0])
        node = mid + half * gauss_nodes(FINE_CELL_ORDER)[0][3]
        bad = lambda s, x: np.where(s == node, np.inf, 1.0)
        with pytest.raises(EvaluationFailure):
            solve_nonlinear(DirichletConstantKernel(RHO_D), bad, 101)

    def test_damping_validation(self):
        k = PeriodicConstantKernel(RHO_P)
        with pytest.raises(ValueError):
            solve_nonlinear(k, lambda s, x: 0.0 * s, 101, damping=0.0)
        with pytest.raises(ValueError):
            solve_nonlinear(k, lambda s, x: 0.0 * s, 101, damping=1.5)

    def test_max_iter_validation(self):
        # a fixed-point profile has taken at least one step
        with pytest.raises(ValueError):
            solve_nonlinear(PeriodicConstantKernel(RHO_P), lambda s, x: 0.0 * s, 101,
                            max_iter=0)


def _wavy_kernel():
    grid = np.linspace(0.0, 1.0, 2001)
    return build_kernel(sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid)),
                        BoundaryKind.PERIODIC)


class TestOneLayout:
    """Each solve lays its cells out once; its tables, the shifted start's
    and the fine check's among them, are all built on those edges."""

    @staticmethod
    def layouts(monkeypatch, solve):
        """solve()'s profile and the number of cell_edges calls it made."""
        calls = []
        cell_edges = solver.cell_edges
        monkeypatch.setattr(solver, "cell_edges",
                            lambda *args: calls.append(args) or cell_edges(*args))
        return solve(), len(calls)

    @pytest.mark.parametrize("make", [lambda: DirichletConstantKernel(RHO_D), _wavy_kernel],
                             ids=["exact", "numeric"])
    def test_linear(self, monkeypatch, make):
        kernel = make()
        _, n = self.layouts(monkeypatch, lambda: solve_linear(kernel, const_sigma(1.0), 101))
        assert n == 1

    @pytest.mark.parametrize("make,text", [
        # the shifted start and the fine check each take a table
        (lambda: DirichletConstantKernel(RHO_D), "1 + 50*x"),
        (_wavy_kernel, "1 + x/(1+x)")], ids=["exact-shifted", "numeric"])
    def test_converged_nonlinear(self, monkeypatch, make, text):
        kernel, f = make(), Expression(text, variables=("t", "x"))
        profile, n = self.layouts(monkeypatch, lambda: solve_nonlinear(kernel, f, 2001))
        assert n == 1
        assert profile.converged and profile.fixed_point_residual is not None


class TestNewtonStart:
    """On an exact kernel the steps start from the solve on the kernel of
    rho^2 - c, c the secant slope of f along the first image."""

    @staticmethod
    def from_g0(monkeypatch, kernel, f, n):
        """The same solve with the shifted start patched out."""
        with monkeypatch.context() as m:
            m.setattr(solver, "_shifted_start", lambda kernel, quad, f, g0, f0: g0)
            return solve_nonlinear(kernel, f, n)

    @pytest.mark.parametrize("kind,rho,text,c,sigma", [
        (DirichletConstantKernel, RHO_D, "t*(1-t) + 5*x", 5.0, lambda s: s * (1.0 - s)),
        (PeriodicConstantKernel, 7.5, "1 + 41*x", 41.0, const_sigma(1.0)),
        (DirichletConstantKernel, RHO_D, "1+50*x", 50.0, const_sigma(1.0))],
        ids=["dirichlet-contraction", "periodic-41", "dirichlet-50"])
    def test_affine_golden_solves_in_one_step(self, kind, rho, text, c, sigma):
        p = solve_nonlinear(kind(rho), Expression(text, variables=("t", "x")), 2001)
        ref = solve_linear(kind(math.sqrt(rho**2 - c)), sigma, 2001)
        assert p.converged and p.iterations == 1
        scale = float(np.max(np.abs(ref.values)))
        assert np.max(np.abs(p.values - ref.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("make,text,n", [
        # x-independent: the slope is 0
        (lambda: DirichletConstantKernel(RHO_D), "t*(1-t)", 2001),
        # resonant shifts: rho^2 - c = 4 pi^2, whose kernel raises
        # ResonantPotential, and rho^2 - c = 0, which no exact pair takes
        (lambda: PeriodicConstantKernel(7.5), "cos(2*pi*t) + (7.5^2 - 4*pi^2)*x", 101),
        (lambda: PeriodicConstantKernel(RHO_P), "1 + (1.5*pi)^2*x", 101),
        # rho^2 - c = -10: the exact pair has no imaginary rho
        (lambda: DirichletConstantKernel(RHO_D), "1 + 70*x", 2001),
        (_wavy_kernel, "1 + x/(1+x)", 101)],
        ids=["x-independent", "resonant-cos", "resonant-constant", "nonpositive-shift",
             "numeric"])
    def test_fallbacks_are_todays_solve(self, monkeypatch, make, text, n):
        f = Expression(text, variables=("t", "x"))
        p, q = solve_nonlinear(make(), f, n), self.from_g0(monkeypatch, make(), f, n)
        assert p.values.tobytes() == q.values.tobytes()
        assert p.iterations == q.iterations
        assert p.fixed_point_residual == q.fixed_point_residual

    @pytest.mark.parametrize("f", [
        lambda s, x: np.exp(x), lambda s, x: 1.0 + 5.0 * x / (1.0 + np.abs(x)),
        lambda s, x: 1.0 + 30.0 * x - 50.0 * x**3, lambda s, x: (2.0 + np.sin(x)) / 3.0],
        ids=["exp", "saturating", "cubic", "bounded-sine"])
    @pytest.mark.parametrize("kind", [DirichletConstantKernel, PeriodicConstantKernel])
    def test_nonlinear_f_keeps_the_verdict(self, monkeypatch, kind, f):
        p, q = solve_nonlinear(kind(RHO_D), f, 401), self.from_g0(monkeypatch, kind(RHO_D), f, 401)
        assert p.converged is q.converged
        if q.converged:
            assert np.max(np.abs(p.values - q.values)) <= 10.0 * TOL


class TestVerification:
    def test_constant_solution_record(self):
        p = solve_linear(PeriodicConstantKernel(RHO_P),
                         const_sigma(RHO_P**2), 501)
        rec = verify_solution(p, constant(RHO_P), const_sigma(RHO_P**2))
        assert rec.residual_norm <= 1e-6
        assert rec.bc_error <= 1e-10
        assert rec.positivity is Positivity.POSITIVE
        assert rec.cone_ok is None

    def test_two_argument_rhs_accepted(self):
        k = DirichletConstantKernel(RHO_D)
        p = solve_nonlinear(k, lambda s, x: s * (1.0 - s) + 0.0 * x, 1001)
        rec = verify_solution(p, constant(RHO_D),
                              lambda s, x: s * (1.0 - s) + 0.0 * x)
        assert rec.residual_norm <= 1e-5
        assert rec.bc_error <= 1e-9

    def test_error_inside_a_two_variable_f_propagates(self):
        # the profile of a fixed-point solve calls f(t, x): a TypeError
        # raised inside f is not taken for a one-variable sigma
        k = DirichletConstantKernel(RHO_D)
        p = solve_nonlinear(k, lambda s, x: s * (1.0 - s) + 0.0 * x, 101)
        f = lambda t, x: t + "a"
        with pytest.raises(TypeError) as raised:
            f(p.grid, p.values)
        with pytest.raises(type(raised.value)) as got:
            verify_solution(p, constant(RHO_D), f)
        assert str(got.value) == str(raised.value)

    def test_one_variable_expression_accepted(self):
        # the library's own Expression refuses a wrong argument count with
        # ExpressionError, not TypeError
        k = DirichletConstantKernel(RHO_D)
        sigma = Expression("1+t")
        p = solve_linear(k, sigma, 101)
        rec = verify_solution(p, constant(RHO_D), sigma)
        assert rec.residual_norm == p.residual_norm
        assert rec.bc_error == p.bc_error

    def test_polynomial_sigma_residual(self):
        k = DirichletConstantKernel(RHO_D)
        sig = lambda s: 1.0 + s - 2.0 * s**2 + 0.5 * s**3
        p = solve_linear(k, sig, 2001)
        rec = verify_solution(p, constant(RHO_D), sig)
        assert rec.residual_norm <= 1e-5

    def test_cone_membership_checked_when_given(self):
        from greensign.cone import Subinterval, compute_cone_constants
        k = PeriodicConstantKernel(RHO_P)
        cone = compute_cone_constants(k, Subinterval(0.0, 1.0))
        p = solve_linear(k, const_sigma(RHO_P**2), 501)
        rec = verify_solution(p, constant(RHO_P), const_sigma(RHO_P**2),
                              cone=cone)
        assert rec.cone_ok is True

    def test_grid_validation(self):
        k = PeriodicConstantKernel(RHO_P)
        with pytest.raises(ValueError):
            solve_linear(k, const_sigma(1.0), 3)
        with pytest.raises(ValueError):
            solve_linear(k, const_sigma(1.0), np.array([0.0, 0.5, 0.5, 0.7, 1.0]))
        with pytest.raises(ValueError):
            solve_linear(k, const_sigma(1.0), np.linspace(0.0, 2.0, 11))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_mixed_bc_error_reads_the_pinned_ends(self, bc):
        # a pinned end has u = 0 and any other end of a separated condition
        # u' = 0 (mixed1 is u'(0) = u(T) = 0, mixed2 u(0) = u'(T) = 0); a
        # paired condition links the ends by its multiplier.  The free ends
        # carry values of order 0.02 and slopes of order 0.04
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, PINNED_MEANS[bc] + 10.0 * np.sin(2 * math.pi * grid))
        p = solve_linear(build_kernel(pot, bc), const_sigma(1.0), 201)
        assert p.bc_error <= 1e-6
        assert verify_solution(p, pot, const_sigma(1.0)).bc_error == p.bc_error

    @pytest.mark.parametrize("bc", [BoundaryKind.PERIODIC, BoundaryKind.DIRICHLET,
                                    BoundaryKind.MIXED1])
    @pytest.mark.parametrize("linear", [True, False])
    def test_record_reproduces_the_profile(self, bc, linear):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, PINNED_MEANS[bc] + 10.0 * np.sin(2 * math.pi * grid))
        k = build_kernel(pot, bc)
        if linear:
            rhs = lambda s: 1.0 + s
            p = solve_linear(k, rhs, 201)
        else:
            rhs = lambda s, x: 1.0 + s + 0.01 * np.sin(x)
            p = solve_nonlinear(k, rhs, 201)
            assert p.converged
        rec = verify_solution(p, pot, rhs)
        assert rec.residual_norm == p.residual_norm
        assert rec.bc_error == p.bc_error
        assert rec.positivity is p.positivity

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_positivity_skips_only_the_pinned_ends(self, bc):
        left, right = bc.pinned_ends
        neg_at_0 = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])
        assert _classify_positivity(neg_at_0, bc) is (
            Positivity.POSITIVE if left else Positivity.CHANGES_SIGN)
        assert _classify_positivity(neg_at_0[::-1], bc) is (
            Positivity.POSITIVE if right else Positivity.CHANGES_SIGN)

    def test_negative_free_end_changes_the_sign(self):
        # antiperiodic on 5 nodes: u(0) = -u(T) = -0.0052, interior positive
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        p = solve_linear(build_kernel(pot, BoundaryKind.ANTIPERIODIC),
                         const_sigma(1.0), 5)
        assert p.values[0] == pytest.approx(-0.0052, abs=1e-4)
        assert np.min(p.values[1:]) > 0
        assert p.positivity is Positivity.CHANGES_SIGN

    def test_profile_report_dict(self):
        p = solve_linear(DirichletConstantKernel(RHO_D), lambda s: s, 501)
        d = p.to_dict()
        assert d["positivity"] == "ChangesSign"
        assert d["bc"] == "dirichlet"
        assert d["grid_size"] == 501
        assert "u" not in d
        full = p.to_dict(include_values=True)
        assert len(full["u"]) == 501 and len(full["t"]) == 501


# the mean of each condition's potential sits between two resonances
PINNED_MEANS = {BoundaryKind.PERIODIC: 62.0, BoundaryKind.NEUMANN: 63.0,
                BoundaryKind.DIRICHLET: 64.0, BoundaryKind.MIXED1: 41.0,
                BoundaryKind.MIXED2: 42.0, BoundaryKind.ANTIPERIODIC: 60.0}


class TestPinnedEndSlices:
    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_pinned_rows_have_no_roots_others_unchanged(self, bc):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, PINNED_MEANS[bc] + 10.0 * np.sin(2 * math.pi * grid))
        k = NumericKernel(pot, bc)
        ts = np.linspace(0.0, 1.0, 11)
        got = k.s_roots_many(ts)
        scanned = [k.s_roots_many([t])[0] for t in ts]
        left, right = bc.pinned_ends
        for i, (r, s) in enumerate(zip(got, scanned)):
            if (i == 0 and left) or (i == len(ts) - 1 and right):
                assert r.shape == (0,)
            else:
                assert np.array_equal(r, s)

    def test_dirichlet_end_slices_get_ordinary_panels(self):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        k = NumericKernel(pot, BoundaryKind.DIRICHLET)
        quad = _NodeQuadrature(k, np.linspace(0.0, 1.0, 101))
        sizes = np.diff(np.append(quad.offsets, len(quad.xs)))
        assert sizes[0] <= np.max(sizes[1:-1])
        assert sizes[-1] <= np.max(sizes[1:-1])
        p = solve_linear(k, const_sigma(1.0), 101)
        assert p.values[0] == 0.0
        assert abs(p.values[-1]) < 1e-15

    def test_closed_form_pinned_rows(self):
        k = DirichletConstantKernel(RHO_D)
        ts = np.linspace(0.0, 1.0, 5)
        got = k.s_roots_many(ts)
        assert got[0].shape == (0,) and got[-1].shape == (0,)
        for r, s in zip(got[1:-1], k.s_roots_many(ts[1:-1])):
            assert np.array_equal(r, s)
