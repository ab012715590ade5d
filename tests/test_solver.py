import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greensign.errors import EvaluationFailure
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.solver import (Positivity, _cubic_interp, _NodeQuadrature,
                              _slice_roots, _Stencil, solve_linear,
                              solve_nonlinear, verify_solution)

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
    assert np.array_equal(_cubic_interp(ts, us, xs), cubic_interp_2d(ts, us, xs))
    # the stencil a Picard iteration builds once gives the same bits
    stencil = _Stencil(ts, xs)
    assert stencil.j.dtype == np.int32
    for vs in (us, rng.normal(size=ts.shape), np.zeros_like(ts)):
        assert np.array_equal(stencil(vs), _cubic_interp(ts, vs, xs))


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

    def test_divergent_iteration_reports_not_raises(self):
        # Lipschitz constant of the map is ~40, far from a contraction
        k = PeriodicConstantKernel(RHO_P)
        p = solve_nonlinear(k, lambda s, x: 1.0 + 500.0 * x, 101,
                            max_iter=60)
        assert not p.converged
        assert p.fixed_point_residual is None

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
                BoundaryKind.MIXED2: 42.0}


class TestPinnedEndSlices:
    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    def test_pinned_rows_have_no_roots_others_unchanged(self, bc):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, PINNED_MEANS[bc] + 10.0 * np.sin(2 * math.pi * grid))
        k = NumericKernel(pot, bc)
        ts = np.linspace(0.0, 1.0, 11)
        got = _slice_roots(k, ts)
        scanned = k.s_roots_many(ts)
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
        got = _slice_roots(k, ts)
        assert got[0].shape == (0,) and got[-1].shape == (0,)
        for r, s in zip(got[1:-1], k.s_roots_many(ts[1:-1])):
            assert np.array_equal(r, s)
