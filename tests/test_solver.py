import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from greensign.errors import EvaluationFailure, QuadratureFailure
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import default_max_len
from slice_oracle import GAUSS_ORDER, slice_panels
from greensign.solver import (Positivity, _classify_positivity, _Stencil,
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


class _NodeQuadrature:
    """The per-row oracle: every output node integrated on its own Gauss
    panels, split at the zeros of its slice G(t, .), at its diagonal and at
    the potential's break points, and capped at default_max_len."""

    def __init__(self, kernel, ts: np.ndarray, order: int = GAUSS_ORDER):
        roots = kernel.s_roots_many(ts)
        plan, g = slice_panels(kernel, ts, roots,
                               default_max_len(kernel.potential), order)
        self.xs = plan.xs.ravel()
        self.offsets = plan.offsets[:-1] * order
        self.coeff = plan.weights.ravel() * g.ravel()

    def apply(self, sigma_at_xs: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self.coeff * sigma_at_xs, self.offsets)


def oracle_solve(kernel, sigma, grid) -> np.ndarray:
    quad = _NodeQuadrature(kernel, np.linspace(0.0, kernel.T, grid))
    return quad.apply(np.broadcast_to(sigma(quad.xs), quad.xs.shape))


def const_sigma(value):
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


def cubic_interp_2d(ts, us, xs):
    """The interpolation before it dropped its (n, 4) index tables; oracle."""
    j = np.searchsorted(ts, xs, side="right") - 1
    j = np.clip(j, 1, len(ts) - 3)
    idx = j[:, None] + np.arange(-1, 3)[None, :]
    tn = ts[idx]
    out = np.zeros_like(xs)
    for k in range(4):
        w = np.ones_like(xs)
        for l in range(4):
            if l != k:
                w *= (xs - tn[:, l]) / (tn[:, k] - tn[:, l])
        out += w * us[idx[:, k]]
    return out


def test_cubic_interp_matches_index_table_form():
    rng = np.random.default_rng(5)
    ts = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 40)]))
    us = rng.normal(size=ts.shape)
    xs = np.concatenate([ts, rng.uniform(0.0, 1.0, 500)])
    # the stencil a Picard iteration builds once gives the same bits
    stencil = _Stencil(ts, xs)
    assert stencil.j.dtype == np.intp
    for vs in (us, rng.normal(size=ts.shape), np.zeros_like(ts)):
        assert np.array_equal(stencil(vs), cubic_interp_2d(ts, vs, xs))


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
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        k = NumericKernel(pot, bc, grid_size=33)
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

    def test_moderate_pair_matches_exact_solution(self):
        # u'' - 50 u = 1, u(0) = u(1) = 0
        r = math.sqrt(50.0)
        p = solve_linear(self.kernel(-50.0), const_sigma(1.0), 2001)
        t = p.grid
        exact = (np.cosh(r * t) - 1.0
                 + (1.0 - math.cosh(r)) / math.sinh(r) * np.sinh(r * t)) / 50.0
        assert np.max(np.abs(p.values - exact)) <= 1e-9 * np.max(np.abs(exact))


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
            k = NumericKernel(constant(RHO_P), BoundaryKind.PERIODIC,
                              grid_size=gs)
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

    def test_damping_validation(self):
        k = PeriodicConstantKernel(RHO_P)
        with pytest.raises(ValueError):
            solve_nonlinear(k, lambda s, x: 0.0 * s, 101, damping=0.0)
        with pytest.raises(ValueError):
            solve_nonlinear(k, lambda s, x: 0.0 * s, 101, damping=1.5)


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
