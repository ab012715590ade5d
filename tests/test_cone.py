import json
import math

import numpy as np
import pytest

from greensign.cone import (ConeConstants, Subinterval, _t_integrals,
                            build_report, check_H2, check_H3,
                            compute_cone_constants, cone_membership,
                            find_subinterval, max_kernel_value)
from greensign.errors import EvaluationFailure, NonpositiveEta
from greensign.gamma import GammaResult
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.quadrature import build_edges, default_max_len, gauss_nodes

RHO_P = 1.5 * math.pi
RHO_D = math.sqrt(60.0)

GAMMA_43 = GammaResult(4.0 / 3.0, 0.0, "Quadrature", "One")


def sin_weight(t):
    return np.sin(math.pi * np.asarray(t, dtype=float))


def parabola(t, x):
    return t * (1.0 - t) + 0.0 * x


def t_integral_one_s(kernel, s, c, d, order=16):
    """The per-s t-integral the batched one replaced, kept as its oracle."""
    if d <= c:
        return 0.0
    edges = build_edges(c, d, [s], default_max_len(kernel.potential))
    nodes, gw = gauss_nodes(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ts = mid[:, None] + half[:, None] * nodes[None, :]
    g = np.asarray(kernel(ts, np.full(ts.shape, s)), dtype=float)
    return float(np.sum(g * (half[:, None] * gw[None, :])))


class TestTIntegrals:
    @pytest.mark.parametrize("numeric", [False, True])
    def test_match_per_s_loop_bit_for_bit(self, numeric):
        grid = np.linspace(0.0, 1.0, 2001)
        wavy = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        kernel = (NumericKernel(wavy, BoundaryKind.MIXED1) if numeric
                  else DirichletConstantKernel(RHO_D))
        ss = np.linspace(0.0, 1.0, 41)
        cs = np.where(ss < 0.5, 0.1, 0.4)
        ds = np.where(ss < 0.9, 0.8, 0.3)    # the last s get d <= c
        got = _t_integrals(kernel, ss, cs, ds)
        want = [t_integral_one_s(kernel, float(s), float(c), float(d))
                for s, c, d in zip(ss, cs, ds)]
        assert np.array_equal(got, want)
        assert np.all(got[ss >= 0.9] == 0.0)


class TestSubinterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Subinterval(-0.1, 0.5)
        with pytest.raises(ValueError):
            Subinterval(0.7, 0.3)

    def test_width(self):
        assert Subinterval(0.25, 0.75).width == 0.5


class TestPeriodicConstants:
    # eta = 1/rho^2, max G = sqrt(2)/(2 rho) at |t-s| = T/2, sigma = eta/max
    def test_full_interval_found(self):
        sub = find_subinterval(PeriodicConstantKernel(RHO_P))
        assert sub == Subinterval(0.0, 1.0)

    def test_closed_values(self):
        cc = compute_cone_constants(PeriodicConstantKernel(RHO_P),
                                    Subinterval(0.0, 1.0))
        assert cc.eta == pytest.approx(1.0 / RHO_P**2, abs=1e-12)
        assert cc.max_G == pytest.approx(math.sqrt(2) / (3 * math.pi), abs=1e-12)
        assert cc.sigma == pytest.approx(4.0 / (3 * math.pi * math.sqrt(2)),
                                         abs=1e-12)

    def test_max_matches_dense_scan(self):
        k = PeriodicConstantKernel(RHO_P)
        xs = np.linspace(0.0, 1.0, 401)
        assert max_kernel_value(k) >= float(np.max(k.grid_eval(xs, xs))) - 1e-14

    def test_h3_passes(self):
        v = check_H3(PeriodicConstantKernel(RHO_P), Subinterval(0.0, 1.0))
        assert v.passed and v.witness_s is None
        assert v.min_over_all == pytest.approx(1.0 / RHO_P**2, abs=1e-12)


class TestDirichletConstants:
    def test_interior_window(self):
        sub = find_subinterval(DirichletConstantKernel(RHO_D))
        assert sub == Subinterval(0.25, 0.75)

    def test_h3_on_window(self):
        k = DirichletConstantKernel(RHO_D)
        v = check_H3(k, Subinterval(0.25, 0.75))
        assert v.passed
        assert v.min_over_sub > 0.008
        assert v.min_over_all >= -1e-12

    def test_h3_fails_on_full_interval(self):
        k = DirichletConstantKernel(RHO_D)
        v = check_H3(k, Subinterval(0.0, 1.0))
        assert not v.passed
        assert v.witness_s is not None and v.witness_s < 0.1
        assert v.min_over_all < 0

    def test_full_interval_eta_not_positive(self):
        with pytest.raises(NonpositiveEta):
            compute_cone_constants(DirichletConstantKernel(RHO_D),
                                   Subinterval(0.0, 1.0))

    def test_degenerate_subinterval(self):
        with pytest.raises(NonpositiveEta):
            compute_cone_constants(DirichletConstantKernel(RHO_D),
                                   Subinterval(0.4, 0.4))

    def test_subinterval_outside_domain(self):
        with pytest.raises(ValueError):
            compute_cone_constants(DirichletConstantKernel(RHO_D),
                                   Subinterval(0.5, 1.5))

    def test_window_constants_are_sane(self):
        cc = compute_cone_constants(DirichletConstantKernel(RHO_D),
                                    Subinterval(0.25, 0.75))
        assert cc.eta > 0
        assert 0 < cc.sigma < 1
        assert cc.max_G > 0
        assert cc.eta <= cc.subinterval.width * cc.max_G + 1e-12


class TestFindSubinterval:
    def test_nonpositive_kernel_has_none(self):
        grid = np.linspace(0.0, 1.0, 11)
        k = build_kernel(sampled(grid, np.full(11, -1.0)),
                         BoundaryKind.DIRICHLET)
        assert find_subinterval(k) is None

    def test_trace_records_candidates(self):
        sub, trace = find_subinterval(DirichletConstantKernel(RHO_D),
                                      with_trace=True)
        assert sub == Subinterval(0.25, 0.75)
        assert len(trace) > 1
        assert {"c", "d", "valid", "eta_hat"} <= set(trace[0])
        assert any(e["valid"] for e in trace)
        assert not trace[0]["valid"]  # the full interval is rejected first

    def test_endpoints_are_plain_floats(self):
        sub = find_subinterval(PeriodicConstantKernel(RHO_P))
        assert type(sub.c) is float and type(sub.d) is float

    def test_windows_without_samples_are_invalid(self):
        # on two s-samples, the ends, most windows hold none
        sub, trace = find_subinterval(DirichletConstantKernel(7.5), grid=2,
                                      with_trace=True)
        assert sub is None
        empty = [e for e in trace if 0.0 < e["c"] and e["d"] < 1.0]
        assert empty
        assert all(not e["valid"] and math.isnan(e["eta_hat"]) for e in empty)

    def test_periodic_stops_at_widest(self):
        sub, trace = find_subinterval(PeriodicConstantKernel(RHO_P),
                                      with_trace=True)
        assert sub.width == 1.0
        assert len(trace) == 1


class TestCheckH2:
    def test_sandwich_passes(self):
        v = check_H2(parabola, sin_weight, GAMMA_43)
        assert v.passed
        assert v.m == pytest.approx(0.25, abs=1e-12)
        assert v.M == pytest.approx(1.0 / math.pi, rel=1e-5)
        assert v.ratio <= 4.0 / 3.0 + 1e-9

    def test_linear_f_fails_at_boundary(self):
        v = check_H2(lambda t, x: t + 0.0 * x, sin_weight, GAMMA_43)
        assert not v.passed
        assert v.witness is not None and v.witness[0] == 1.0
        assert "vanishes" in v.reason

    def test_rescaling_f_is_invariant(self):
        a = check_H2(parabola, sin_weight, GAMMA_43)
        b = check_H2(lambda t, x: 1e-6 * parabola(t, x), sin_weight, GAMMA_43)
        assert b.passed
        assert b.ratio == pytest.approx(a.ratio, rel=1e-12)

    def test_ratio_failure_reported(self):
        f = lambda t, x: sin_weight(t) * (1.0 + x / (1.0 + x))
        v = check_H2(f, sin_weight, GAMMA_43)
        assert not v.passed
        assert "exceeds" in v.reason
        assert v.ratio == pytest.approx(2.0, rel=1e-2)
        big = GammaResult(2.1, 0.0, "Quadrature", "One")
        assert check_H2(f, sin_weight, big).passed

    def test_infinite_gamma_accepts_any_ratio(self):
        inf_gamma = GammaResult(math.inf, 0.0, "Quadrature", "One")
        f = lambda t, x: sin_weight(t) * (2.0 + np.sin(40 * t))
        assert check_H2(f, sin_weight, inf_gamma).passed

    def test_sign_changing_f_fails(self):
        f = lambda t, x: (t - 0.3) + 0.0 * x
        v = check_H2(f, lambda t: np.ones_like(np.asarray(t, dtype=float)),
                     GAMMA_43)
        assert not v.passed
        assert v.m is not None and v.m <= 0
        assert v.witness is not None and v.witness[0] < 0.3

    def test_non_finite_f_raises(self):
        f = lambda t, x: np.where(t == 0.5, np.nan, 1.0) + 0.0 * x
        with pytest.raises(EvaluationFailure):
            check_H2(f, sin_weight, GAMMA_43)

    def test_zero_weight_raises(self):
        with pytest.raises(EvaluationFailure):
            check_H2(parabola, lambda t: 0.0 * np.asarray(t, dtype=float),
                     GAMMA_43)


@pytest.fixture(scope="module")
def cone():
    return compute_cone_constants(PeriodicConstantKernel(RHO_P),
                                  Subinterval(0.0, 1.0))


class TestConeMembership:
    def test_examples(self, cone):
        ts = np.linspace(0.0, 1.0, 1001)
        assert cone_membership(ts, np.sin(math.pi * ts), cone)
        assert cone_membership(ts, np.ones_like(ts), cone)
        # narrow spike: integral far below sigma * sup
        assert not cone_membership(ts, np.exp(-1000 * (ts - 0.5) ** 2), cone)
        # dips negative
        assert not cone_membership(ts, np.sin(2 * math.pi * ts), cone)


class TestBuildReport:
    def test_dirichlet_pipeline(self):
        rep = build_report(constant(RHO_D), BoundaryKind.DIRICHLET, parabola,
                           gamma_t_grid=201)
        assert rep.all_passed
        assert rep.gamma_used.method == "ClosedFormDirichletT1"
        assert rep.h2.passed and rep.h2.ratio <= rep.gamma_used.value
        assert rep.h2_star is None
        assert rep.h3.passed
        assert rep.cone.subinterval == Subinterval(0.25, 0.75)
        assert rep.subinterval_trace

    def test_wavy_periodic_pipeline(self):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
        f = lambda t, x: pot(t) + 0.0 * x
        rep = build_report(pot, BoundaryKind.PERIODIC, f, gamma_t_grid=201)
        assert rep.all_passed
        assert rep.gamma_used.weight == "PrincipalEigenfunction"
        assert rep.gamma_used.value > 1.0
        assert rep.h2.passed
        # f equals the coefficient, so the coefficient-weighted ratio is 1
        assert rep.h2_star.passed
        assert rep.h2_star.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.cone is not None and rep.cone.eta > 0

    def test_report_serializes(self):
        rep = build_report(constant(RHO_D), BoundaryKind.DIRICHLET, parabola,
                           gamma_t_grid=101)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["all_passed"] is True
        assert blob["gamma"]["value"] == pytest.approx(1.3629, abs=5e-3)
        assert blob["h2"]["passed"] and blob["h3"]["passed"]
        assert blob["cone"]["eta"] > 0
        assert blob["notes"]

    def test_eigenfunction_weight_exactly_zero_at_pinned_end(self):
        # the computed principal Dirichlet eigenfunction of this potential
        # ends at -1.2e-14, which check_H2 used to reject as a negative weight
        grid = np.linspace(0.0, 1.0, 2001)
        alpha = (2.428227617854758, 2.1830115087843254, -0.5103769257105883)
        beta = (1.9511541042548322, 1.718929660680569, 0.8001779639214672)
        a = np.full_like(grid, 46.415785357467406)
        for k, (al, be) in enumerate(zip(alpha, beta), 1):
            a += al * np.cos(2 * math.pi * k * grid) + be * np.sin(2 * math.pi * k * grid)
        pot = sampled(grid, a)
        f = lambda t, x: 1.0 + 0.5 * x / (1.0 + x)
        rep = build_report(pot, BoundaryKind.DIRICHLET, f, gamma_t_grid=41)
        assert rep.h2 is not None
        assert rep.gamma_used.weight == "PrincipalEigenfunction"

    def test_failing_f_reported_not_raised(self):
        rep = build_report(constant(RHO_D), BoundaryKind.DIRICHLET,
                           lambda t, x: t + 0.0 * x, gamma_t_grid=101)
        assert not rep.all_passed
        assert not rep.h2.passed
        assert rep.h3.passed  # geometry is fine, only the sandwich fails
