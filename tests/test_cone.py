import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import greensign.cone as cone_module
from greensign.cone import (H3_TOL, N_CELLS, ZOOM_ROUNDS, ConeConstants,
                            Subinterval, _h3_rule, _t_integrals, _t_prefix,
                            build_report, check_H2, check_H3,
                            compute_cone_constants, cone_membership,
                            find_subinterval, max_kernel_value)
from greensign.errors import EvaluationFailure, NonpositiveEta
from greensign.gamma import GammaResult
from greensign.greens import (DirichletConstantKernel, NumericKernel,
                              PeriodicConstantKernel, build_kernel)
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.quadrature import build_edges, default_max_len, gauss_nodes
from slice_oracle import cell_integral_table, t_integrals

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
    # one row of the segmented sum, which adds a segment alike wherever it
    # lies (test_quadrature.test_segment_sum_depends_only_on_contents)
    vals = (g * (half[:, None] * gw[None, :])).ravel()
    return float(np.add.reduceat(vals, [0])[0])


def trig_potential(m, modes):
    """a = m + sum_k alpha_k cos 2 pi k t + beta_k sin 2 pi k t on 2001 nodes."""
    grid = np.linspace(0.0, 1.0, 2001)
    a = np.full_like(grid, m)
    for k, (alpha, beta) in enumerate(modes, 1):
        a += alpha * np.cos(2 * math.pi * k * grid) + beta * np.sin(2 * math.pi * k * grid)
    return sampled(grid, a)


WAVY = trig_potential(60.0, [(0.0, 10.0)])
KERNEL_KINDS = (BoundaryKind.PERIODIC, BoundaryKind.NEUMANN, BoundaryKind.DIRICHLET,
                BoundaryKind.MIXED1, BoundaryKind.MIXED2)


def lattice_max(kernel, n=1001, rows=100):
    """max of G on an n x n lattice of the square, evaluated in row blocks."""
    xs = np.linspace(0.0, kernel.T, n)
    return max(float(np.max(kernel.grid_eval(xs[i:i + rows], xs)))
               for i in range(0, n, rows))


def find_subinterval_per_candidate(kernel, grid=201, prefix=None):
    """The per-candidate window loop the batched search replaced, kept as
    its oracle: (window, trace).  It reads the t-integrals of every window
    off prefix[k, j], the integral of G(t, s_j) over the first k of the 64
    cells (the library's _t_prefix table by default)."""
    T = kernel.T
    ss = np.linspace(0.0, T, grid)
    if prefix is None:
        prefix = _t_prefix(kernel, np.linspace(0.0, T, N_CELLS + 1), ss)
    trace = []
    width = N_CELLS
    while width >= 1:
        best = None
        for start in range(0, N_CELLS - width + 1):
            c = float(T) * start / N_CELLS
            d = float(T) * (start + width) / N_CELLS
            w = prefix[start + width] - prefix[start]
            inner = w[(ss >= c) & (ss <= d)]
            ok = bool(inner.size and np.all(w >= -H3_TOL) and np.all(inner > H3_TOL))
            eta_hat = float(np.min(inner)) if inner.size else math.nan
            trace.append({"c": c, "d": d, "valid": ok, "eta_hat": eta_hat})
            if ok and (best is None or eta_hat > best[0]):
                best = (eta_hat, Subinterval(c, d))
        if best is not None:
            return best[1], trace
        width //= 2
    return None, trace


class CountingKernel:
    """A kernel that records the broadcast shape of every evaluation."""

    def __init__(self, kernel):
        self.kernel, self.T, self.shapes = kernel, kernel.T, []

    def __call__(self, t, s):
        self.shapes.append(np.broadcast_shapes(np.shape(t), np.shape(s)))
        return self.kernel(t, s)

    def grid_eval(self, ts, ss):
        return self(np.asarray(ts)[:, None], np.asarray(ss)[None, :])


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
        got = t_integrals(kernel, ss, cs, ds)
        want = [t_integral_one_s(kernel, float(s), float(c), float(d))
                for s, c, d in zip(ss, cs, ds)]
        assert np.array_equal(got, want)
        assert np.all(got[ss >= 0.9] == 0.0)


#: The mean windows of the numeric-report benchmark workload: each lies
#: between two resonances, above the first eigenvalue.
MEAN_WINDOWS = {
    BoundaryKind.PERIODIC: (45.0, 80.0),
    BoundaryKind.NEUMANN: (45.0, 82.0),
    BoundaryKind.DIRICHLET: (45.0, 82.0),
    BoundaryKind.MIXED1: (27.0, 56.0),
    BoundaryKind.MIXED2: (27.0, 56.0),
}


def panel_prefix(kernel, ss):
    """The table of _t_prefix at the 65 cell edges, summed from the panel
    cell integrals of the oracle."""
    M = cell_integral_table(kernel, ss)
    return np.vstack([np.zeros(len(ss)), np.cumsum(M, axis=0)])


def sinh_prefix(k, xs, ss):
    """Integral over t in [0, x] of G(t, s) for u'' - k^2 u under Dirichlet
    conditions on [0, 1], G = -sinh(k min) sinh(k (1 - max)) / (k sinh k),
    on the outer grid of xs and ss."""
    x, s = np.asarray(xs)[:, None], np.asarray(ss)[None, :]
    ks = k * k * math.sinh(k)
    below = -np.sinh(k * (1 - s)) * (np.cosh(k * np.minimum(x, s)) - 1) / ks
    above = -np.sinh(k * s) * (np.cosh(k * (1 - s))
                               - np.cosh(k * (1 - np.maximum(x, s)))) / ks
    return below + above


def assert_matches_panels(kernel, grid=201):
    """The separable t-integrals agree with the panel ones to 1e-12 of their
    largest value, and give the same window and the same H3 verdicts."""
    T = kernel.T
    ss = np.linspace(0.0, T, grid)
    want = panel_prefix(kernel, ss)
    scale = float(np.max(np.abs(want)))
    got = _t_prefix(kernel, np.linspace(0.0, T, N_CELLS + 1), ss)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale
    sub, _ = find_subinterval_per_candidate(kernel, grid, want)
    assert find_subinterval(kernel, grid) == sub
    for window in ([sub] if sub else []) + [Subinterval(0.0, T)]:
        c, d = window.c, window.d
        w = t_integrals(kernel, ss, c, d)
        assert np.max(np.abs(_t_integrals(kernel, ss, c, d) - w)) <= 1e-12 * scale
        passed, min_all, min_sub, witness = _h3_rule(ss, w, c, d)
        v = check_H3(kernel, window, grid)
        assert v.passed == passed
        assert v.witness_s == (None if math.isnan(witness) else witness)
        assert v.min_over_all == pytest.approx(min_all, abs=1e-12 * scale)
    if sub is not None:
        eta = float(np.min(t_integrals(kernel, np.linspace(sub.c, sub.d, grid),
                                       sub.c, sub.d)))
        got = compute_cone_constants(kernel, sub, grid).eta
        assert got == pytest.approx(eta, abs=1e-12 * scale)


class TestSeparableTIntegrals:
    @pytest.mark.parametrize("kernel", [
        *[pytest.param(NumericKernel(WAVY, bc), id=f"wavy-{bc}") for bc in BoundaryKind],
        pytest.param(PeriodicConstantKernel(RHO_P), id="periodic-closed"),
        pytest.param(DirichletConstantKernel(RHO_D), id="dirichlet-closed"),
    ])
    def test_match_panels(self, kernel):
        assert_matches_panels(kernel)

    @given(bc=st.sampled_from(list(MEAN_WINDOWS)), where=st.floats(0.0, 1.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_match_panels_on_random_potentials(self, bc, where, modes):
        lo, hi = MEAN_WINDOWS[bc]
        assert_matches_panels(NumericKernel(trig_potential(lo + (hi - lo) * where,
                                                           modes), bc))

    @pytest.mark.parametrize("kernel", [
        pytest.param(DirichletConstantKernel(RHO_D), id="dirichlet-closed"),
        *[pytest.param(NumericKernel(WAVY, bc), id=f"wavy-{bc}")
          for bc in (BoundaryKind.DIRICHLET, BoundaryKind.MIXED1, BoundaryKind.MIXED2)],
    ])
    def test_pinned_columns_read_zero(self, kernel):
        ss = np.linspace(0.0, 1.0, 201)
        P = _t_prefix(kernel, np.linspace(0.0, 1.0, N_CELLS + 1), ss)
        left, right = kernel.bc.pinned_ends
        assert np.all(P[:, 0] == 0.0) == left
        assert np.all(P[:, -1] == 0.0) == right

    def test_pinned_min_over_all_is_exactly_zero(self):
        # check --bc dirichlet --rho "sqrt(60)": G(., 0) and G(., 1) vanish
        rep = build_report(constant(RHO_D), BoundaryKind.DIRICHLET, parabola,
                           gamma_t_grid=101)
        assert rep.h3.min_over_all == 0.0

    @pytest.mark.parametrize("k", [5, 7, 10, 14])
    def test_sinh_dirichlet_no_worse_than_panels(self, k):
        # a = -k^2: the pair grows like e^{k t}, and both paths lose digits
        # to its cancellation (about 1e-11 of the largest value at k = 5,
        # 2e-4 at k = 14)
        grid = np.linspace(0.0, 1.0, 2001)
        kernel = build_kernel(sampled(grid, np.full(2001, -k * k)),
                              BoundaryKind.DIRICHLET)
        ss = np.linspace(0.0, 1.0, 201)
        edges = np.linspace(0.0, 1.0, N_CELLS + 1)
        exact = sinh_prefix(k, edges, ss)
        got = np.max(np.abs(_t_prefix(kernel, edges, ss) - exact))
        panels = np.max(np.abs(panel_prefix(kernel, ss) - exact))
        assert got <= 2.0 * panels


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

    @pytest.mark.parametrize("kernel", [
        pytest.param(DirichletConstantKernel(RHO_D), id="dirichlet-closed"),
        pytest.param(NumericKernel(WAVY, BoundaryKind.PERIODIC), id="wavy-periodic"),
    ])
    def test_h3_window_outside_domain(self, kernel):
        with pytest.raises(ValueError, match=r"leaves \[0, 1"):
            check_H3(kernel, Subinterval(0.5, 1.5))

    def test_window_constants_are_sane(self):
        cc = compute_cone_constants(DirichletConstantKernel(RHO_D),
                                    Subinterval(0.25, 0.75))
        assert cc.eta > 0
        assert 0 < cc.sigma < 1
        assert cc.max_G > 0
        assert cc.eta <= cc.subinterval.width * cc.max_G + 1e-12


class TestH3Rule:
    def test_h3_fails_on_a_window_without_samples(self):
        # G > 0 for this kernel, but no s-sample of the 201-point grid lies
        # in the window, so there is no evidence inside it
        v = check_H3(PeriodicConstantKernel(2.0), Subinterval(0.501, 0.504))
        assert not v.passed
        assert v.witness_s is None
        assert math.isnan(v.min_over_sub)
        assert v.min_over_all > 0

    def test_rule_fails_a_nan_integral_outside_the_window(self):
        ss = np.linspace(0.0, 1.0, 5)
        w = np.array([1.0, math.nan, 1.0, 1.0, 1.0])
        passed, min_all, min_sub, witness = _h3_rule(ss, w, 0.5, 1.0)
        assert not passed and witness == 0.25
        assert math.isnan(min_all) and min_sub == 1.0


class TestMaxKernelValue:
    @pytest.mark.parametrize("kernel, parent", [
        (NumericKernel(WAVY, BoundaryKind.PERIODIC), 0.10906222218926633),
        # the largest value of this kernel is near (0.988, 1.0)
        (NumericKernel(trig_potential(63.90270599356029, [
            (-1.0091845467128762, 1.2087834003466518),
            (1.1108240407105874, -1.4064228771559772),
            (1.6494343713715613, 0.7882610543662159)]), BoundaryKind.MIXED2),
         1.2297004782668737),
    ], ids=["wavy-periodic", "trig-mixed2"])
    def test_not_below_a_dense_lattice(self, kernel, parent):
        # the coordinate golden-section search read these maxima low
        dense = lattice_max(kernel)
        assert dense > parent
        assert max_kernel_value(kernel) >= dense

    def test_off_lattice_maximum_of_the_dirichlet_closed_form(self):
        # -sin(rho t) sin(rho (1 - s)) / (rho sin rho) peaks at 1/(rho sin rho)
        # where rho t = pi/2 and rho (1 - s) = 3 pi/2, between lattice nodes
        assert max_kernel_value(DirichletConstantKernel(RHO_D)) == pytest.approx(
            1.0 / (RHO_D * math.sin(RHO_D)), rel=1e-14)

    @pytest.mark.parametrize("bc", KERNEL_KINDS, ids=str)
    def test_matches_a_zoom_from_many_more_starts(self, bc, monkeypatch):
        k = NumericKernel(WAVY, bc)
        got = max_kernel_value(k)
        monkeypatch.setattr(cone_module, "ZOOM_STARTS", 200)
        assert got == pytest.approx(max_kernel_value(k, 401), rel=1e-12)

    @pytest.mark.parametrize("bc", KERNEL_KINDS, ids=str)
    def test_batched_kernel_calls(self, bc):
        k = CountingKernel(NumericKernel(WAVY, bc))
        max_kernel_value(k)
        assert len(k.shapes) <= 1 + ZOOM_ROUNDS
        assert all(len(shape) >= 2 for shape in k.shapes)


class TestGridValidation:
    CALLS = {
        "max_kernel_value": lambda k, g: max_kernel_value(k, g),
        "compute_cone_constants": lambda k, g: compute_cone_constants(
            k, Subinterval(0.25, 0.75), g),
        "find_subinterval": lambda k, g: find_subinterval(k, g),
        "check_H3": lambda k, g: check_H3(k, Subinterval(0.25, 0.75), g),
    }

    @pytest.mark.parametrize("grid", [1, 0, -3])
    @pytest.mark.parametrize("name", list(CALLS))
    def test_grid_below_two_raises(self, name, grid):
        with pytest.raises(ValueError, match="at least 2"):
            self.CALLS[name](DirichletConstantKernel(RHO_D), grid)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_grid_two_runs(self, name):
        self.CALLS[name](PeriodicConstantKernel(RHO_P), 2)


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

    @pytest.mark.parametrize("kernel, grid", [
        *[pytest.param(NumericKernel(WAVY, bc), 201, id=f"wavy-{bc}")
          for bc in KERNEL_KINDS],
        pytest.param(DirichletConstantKernel(RHO_D), 201, id="dirichlet-closed"),
        pytest.param(DirichletConstantKernel(7.5), 2, id="two-nodes"),
    ])
    def test_matches_the_per_candidate_loop(self, kernel, grid):
        want_sub, want = find_subinterval_per_candidate(kernel, grid)
        sub, trace = find_subinterval(kernel, grid, with_trace=True)
        assert sub == want_sub
        assert len(trace) == len(want)
        for got, exp in zip(trace, want):
            assert repr(got) == repr(exp)   # types too, and nan where nan

    def test_mixed1_searches_every_candidate(self):
        sub, trace = find_subinterval(NumericKernel(WAVY, BoundaryKind.MIXED1),
                                      with_trace=True)
        assert sub is None
        assert len(trace) == sum(N_CELLS - w + 1 for w in (64, 32, 16, 8, 4, 2, 1))

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
