import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import gamma as gamma_module
from greensign.errors import (InvalidWeight, NonpositiveWeightedIntegral,
                              OutOfRange, QuadratureFailure, ResonantPotential,
                              UnsupportedBoundaryKind)
from greensign.gamma import (CASE_2B_NOTE, GammaResult, _boundary_nodes,
                             _neville_to_zero, _ratio, _slice_parts,
                             gamma_closed, gamma_dirichlet_closed,
                             gamma_dirichlet_t_closed, gamma_periodic_closed,
                             gamma_quadrature, gamma_star, pointwise_ratio)
from greensign.greens import NumericKernel, build_kernel
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.quadrature import build_edges, default_max_len, gauss_nodes
from greensign.spectral import principal_eigenfunction

SIN_WEIGHT = lambda s: np.sin(np.pi * np.asarray(s))

# rho*T/pi values hitting each residue class of the piecewise form three times
TWELVE_X = [1.2, 1.5, 1.8, 2.2, 2.5, 2.8, 3.3, 3.6, 4.2, 4.7, 5.4, 6.6]

# Dirichlet closed-form values per interval, pinned from the quadrature oracle
DIRICHLET_TABLE = {
    4.0: 20.896167346,
    7.0: 1.292392556,
    10.8: 1.153150649,
    14.0: 1.086006905,
    17.0: 1.054823076,
}


def periodic_kernel(rho):
    return build_kernel(constant(rho, 1.0), BoundaryKind.PERIODIC)


def dirichlet_kernel(rho):
    return build_kernel(constant(rho, 1.0), BoundaryKind.DIRICHLET)


class TestPeriodicClosed:
    def test_named_values(self):
        assert_allclose(gamma_periodic_closed(3 * math.pi / 2).value,
                        1.0 / (1.0 - math.sqrt(2) / 2), rtol=1e-14)
        assert_allclose(gamma_periodic_closed(9 * math.pi / 2).value,
                        1.0 + math.sqrt(2) / 4, rtol=1e-14)

    def test_continuous_at_odd_multiples(self):
        # the adjacent piecewise expressions share the limit value 2 at 3 pi
        assert_allclose(gamma_periodic_closed(3 * math.pi).value, 2.0, rtol=1e-12)
        eps = 1e-9
        assert_allclose(gamma_periodic_closed(3 * math.pi - eps).value, 2.0, atol=1e-8)
        assert_allclose(gamma_periodic_closed(3 * math.pi + eps).value, 2.0, atol=1e-8)

    def test_metadata(self):
        res = gamma_periodic_closed(3 * math.pi / 2)
        assert res.method == "ClosedFormPeriodic"
        assert res.argmin_t == 0.0
        assert res.case == "rho*T/pi in (1,2), k=0"
        assert res.note is None

    def test_second_residue_interval_is_flagged(self):
        # on (4k+2, 4k+3) the published expression looks < 1 until one notes
        # sin(rho T/2) < 0 there; the result carries a note and stays > 1
        for x in (2.5, 6.3, 2.2):
            res = gamma_periodic_closed(x * math.pi)
            assert res.note is not None
            assert res.value > 1.0
        assert_allclose(gamma_periodic_closed(2.5 * math.pi).value,
                        1.0 + math.sqrt(2) / 2, rtol=1e-14)

    def test_general_interval_length(self):
        res = gamma_periodic_closed(3.0, T=2.0)  # rho*T/pi ~ 1.91
        assert res.value == 1.0 / (1.0 - math.sin(3.0))

    def test_out_of_range_and_resonant(self):
        with pytest.raises(OutOfRange):
            gamma_periodic_closed(0.5)
        with pytest.raises(OutOfRange):
            gamma_periodic_closed(math.pi)
        with pytest.raises(ResonantPotential):
            gamma_periodic_closed(2 * math.pi)
        with pytest.raises(ResonantPotential):
            gamma_periodic_closed(4 * math.pi)

    def test_quadrature_agreement_twelve_values(self):
        for x in TWELVE_X:
            rho = x * math.pi
            closed = gamma_periodic_closed(rho)
            quad = gamma_quadrature(periodic_kernel(rho))
            assert quad.value > 1.0
            assert abs(closed.value - quad.value) < 1e-6

    def test_ratio_is_t_independent(self):
        k = periodic_kernel(3 * math.pi / 2)
        rs = np.array([pointwise_ratio(k, t) for t in np.linspace(0, 1, 101)])
        assert rs.max() - rs.min() < 1e-8


class TestDirichletClosed:
    def test_reference_value(self):
        res = gamma_dirichlet_closed(math.sqrt(60))
        assert_allclose(res.value, 1.362541473923, atol=1e-9)
        assert res.value > 4.0 / 3.0
        assert res.method == "ClosedFormDirichletT1"
        assert res.argmin_t == 0.0

    @pytest.mark.parametrize("rho,expect", sorted(DIRICHLET_TABLE.items()))
    def test_interval_table(self, rho, expect):
        assert_allclose(gamma_dirichlet_closed(rho).value, expect, atol=1e-8)

    @pytest.mark.parametrize("rho", sorted(DIRICHLET_TABLE))
    def test_quadrature_agreement(self, rho):
        closed = gamma_dirichlet_closed(rho).value
        quad = gamma_quadrature(dirichlet_kernel(rho), SIN_WEIGHT)
        assert abs(closed - quad.value) < 1e-5
        assert quad.argmin_t == 0.0

    def test_matches_boundary_limit_of_pointwise_form(self):
        for rho in (10.8, math.sqrt(60)):
            hs = 1e-3 / 2.0 ** np.arange(6)
            vals = np.array([gamma_dirichlet_t_closed(h, rho) for h in hs])
            limit = _neville_to_zero(hs, vals)
            assert abs(limit - gamma_dirichlet_closed(rho).value) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            gamma_dirichlet_closed(2.0)
        with pytest.raises(OutOfRange):
            gamma_dirichlet_closed(20.0)
        with pytest.raises(ResonantPotential):
            gamma_dirichlet_closed(3 * math.pi)


class TestDirichletPointwise:
    def test_figure_point(self):
        v = gamma_dirichlet_t_closed(0.5, 10.8)
        assert_allclose(v, 1.8015193667594103, rtol=1e-12)
        quad = pointwise_ratio(dirichlet_kernel(10.8), 0.5, SIN_WEIGHT)
        assert abs(v - quad) < 1e-6

    @given(st.floats(0.02, 0.98))
    @settings(max_examples=40, deadline=None)
    def test_reflection_symmetry(self, t):
        v1 = gamma_dirichlet_t_closed(t, 10.8)
        v2 = gamma_dirichlet_t_closed(1.0 - t, 10.8)
        assert v1 == pytest.approx(v2, rel=1e-10)

    def test_infinite_where_slice_stays_positive(self):
        # first interval: the middle slices have no negative mass
        assert math.isinf(gamma_dirichlet_t_closed(0.5, 4.0))
        assert gamma_dirichlet_t_closed(0.05, 4.0) < math.inf

    def test_interior_domain_only(self):
        with pytest.raises(OutOfRange):
            gamma_dirichlet_t_closed(0.0, 10.8)
        with pytest.raises(OutOfRange):
            gamma_dirichlet_t_closed(1.0, 10.8)


class TestClosedDispatch:
    def test_covered_pairings(self):
        rho = 3 * math.pi / 2
        assert gamma_closed(constant(rho, 1.0), BoundaryKind.PERIODIC) == \
            gamma_periodic_closed(rho)
        assert gamma_closed(constant(3.0, 2.0), BoundaryKind.PERIODIC) == \
            gamma_periodic_closed(3.0, 2.0)
        assert gamma_closed(constant(10.8, 1.0), BoundaryKind.DIRICHLET) == \
            gamma_dirichlet_closed(10.8)

    @pytest.mark.parametrize("pot,bc", [
        (constant(0.5, 1.0), BoundaryKind.PERIODIC),      # rho*T <= pi
        (constant(2.0, 1.0), BoundaryKind.DIRICHLET),     # rho < pi
        (constant(20.0, 1.0), BoundaryKind.DIRICHLET),    # rho > 6 pi
        (constant(4.0, 2.0), BoundaryKind.DIRICHLET),     # T != 1
        (constant(4.0, 1.0), BoundaryKind.NEUMANN),
        (sampled(np.linspace(0.0, 1.0, 11), np.full(11, 30.0)),
         BoundaryKind.PERIODIC),
    ])
    def test_uncovered_pairings(self, pot, bc):
        assert gamma_closed(pot, bc) is None

    def test_to_dict(self):
        res = gamma_periodic_closed(2.5 * math.pi)
        assert res.to_dict() == {"value": res.value, "argmin_t": 0.0,
                                 "method": "ClosedFormPeriodic",
                                 "weight": "One", "case": res.case,
                                 "note": CASE_2B_NOTE}


class TestQuadrature:
    def test_infinity_sentinel_for_nonnegative_kernel(self):
        res = gamma_quadrature(periodic_kernel(0.5))
        assert math.isinf(res.value)
        assert res.weight == "One"
        assert res.method == "Quadrature"

    def test_nonpositive_weighted_integral_raises(self):
        # constant weight is the wrong pairing for a sign-changing Dirichlet
        # kernel: the plain integral of G dips negative
        with pytest.raises(NonpositiveWeightedIntegral):
            gamma_quadrature(dirichlet_kernel(math.sqrt(60)))

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=10, deadline=None)
    def test_weight_scaling_invariance(self, c):
        k = dirichlet_kernel(math.sqrt(60))
        base = gamma_quadrature(k, SIN_WEIGHT, t_grid_size=31)
        scaled = gamma_quadrature(k, lambda s: c * SIN_WEIGHT(s), t_grid_size=31)
        assert abs(base.value - scaled.value) <= 1e-12 * base.value

    def test_numeric_kernel_path(self):
        # same constant potential through the sampled-kernel machinery
        g = np.linspace(0.0, 1.0, 1201)
        pot = sampled(g, np.full_like(g, (3 * math.pi / 2) ** 2))
        k = NumericKernel(pot, BoundaryKind.PERIODIC)
        res = gamma_quadrature(k, t_grid_size=101)
        assert abs(res.value - gamma_periodic_closed(3 * math.pi / 2).value) < 1e-6


class TestGammaStar:
    def test_constant_coefficient_equals_plain_ratio(self):
        k = periodic_kernel(3 * math.pi / 2)
        res = gamma_star(k, constant(3 * math.pi / 2, 1.0))
        assert res.weight == "Coefficient"
        assert abs(res.value - gamma_periodic_closed(3 * math.pi / 2).value) < 1e-6

    def test_wavy_coefficient(self):
        g = np.linspace(0.0, 1.0, 2001)
        wavy = sampled(g, 60 + 10 * np.sin(2 * np.pi * g))
        k = NumericKernel(wavy, BoundaryKind.PERIODIC)
        res = gamma_star(k, wavy)
        assert 1.0 < res.value < math.inf
        assert_allclose(res.value, 1.6089263852111653, atol=1e-6)

    def test_rejects_other_kinds(self):
        with pytest.raises(UnsupportedBoundaryKind):
            gamma_star(dirichlet_kernel(math.sqrt(60)), constant(math.sqrt(60), 1.0))

    def test_rejects_signed_coefficient(self):
        g = np.linspace(0.0, 1.0, 501)
        signed = sampled(g, np.sin(2 * np.pi * g))
        k = periodic_kernel(3 * math.pi / 2)
        with pytest.raises(InvalidWeight):
            gamma_star(k, signed)


def slice_parts_one_t(kernel, t, roots, weight, order, max_len):
    """The per-t slice quadrature the batched one replaced, kept as its
    oracle: (N, D) at one t."""
    pts = np.append(roots, t)
    bps = kernel.potential.breakpoints
    if 0 < len(bps) <= 64:
        pts = np.append(pts, bps)
    edges = build_edges(0.0, kernel.T, pts, max_len)
    nodes, gw = gauss_nodes(order)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    g = np.asarray(kernel(np.full(xs.shape, t), xs), dtype=float)
    if weight is not None:
        g = g * np.asarray(weight(xs.ravel()), dtype=float).reshape(xs.shape)
    panel = np.sum(g * (half[:, None] * gw[None, :]), axis=1)
    sign = np.asarray(kernel(np.full(mid.shape, t), mid), dtype=float)
    return float(np.sum(panel[sign >= 0])), float(-np.sum(panel[sign < 0]))


def gamma_by_slice_loop(kernel, weight, t_grid_size, order=16):
    """(value, argmin) of the gamma_quadrature loop over slice_parts_one_t."""
    T = kernel.T
    max_len = default_max_len(kernel.potential)
    left, right = kernel.bc.pinned_ends
    ts = np.linspace(0.0, T, t_grid_size)
    ratios = []
    for i, t in enumerate(ts):
        if (i == 0 and left) or (i == t_grid_size - 1 and right):
            hs, bts = _boundary_nodes(T, i > 0)
            rs = [_ratio(*slice_parts_one_t(kernel, float(u), kernel.s_roots(u),
                                            weight, order, max_len))
                  for u in bts]
            ratios.append(_neville_to_zero(hs, rs)
                          if np.all(np.isfinite(rs)) else math.inf)
        else:
            ratios.append(_ratio(*slice_parts_one_t(
                kernel, float(t), kernel.s_roots(t), weight, order, max_len)))
    ratios = np.array(ratios)
    vmin = float(np.min(ratios))
    if math.isinf(vmin):
        return math.inf, 0.0
    i = int(np.argmax(ratios <= vmin * (1.0 + 1e-12)))
    return float(ratios[i]), float(ts[i])


def coarse_wavy(n):
    g = np.linspace(0.0, 1.0, n)
    return sampled(g, 60 + 10 * np.sin(2 * np.pi * g))


# (potential, condition, weight): closed and numeric kernels, pinned ends,
# shared break points (a 41-node potential), no weight and two weights.
# The oracle takes a panel's sign from G at its midpoint, the batched path
# from the panel's own integral.
FLAT_CASES = {
    "periodic-closed": (constant(4.5 * math.pi, 1.0), BoundaryKind.PERIODIC,
                        None),
    "dirichlet-closed": (constant(10.8, 1.0), BoundaryKind.DIRICHLET,
                         SIN_WEIGHT),
    "dirichlet-wavy": (coarse_wavy(2001), BoundaryKind.DIRICHLET, "eigen"),
    "periodic-wavy": (coarse_wavy(2001), BoundaryKind.PERIODIC, "eigen"),
    "neumann-wavy": (coarse_wavy(2001), BoundaryKind.NEUMANN, "eigen"),
    "mixed1-wavy": (coarse_wavy(2001), BoundaryKind.MIXED1, "eigen"),
    "mixed2-wavy": (coarse_wavy(2001), BoundaryKind.MIXED2, "eigen"),
    "mixed1-coarse": (coarse_wavy(41), BoundaryKind.MIXED1, "eigen"),
    "neumann-coarse": (coarse_wavy(41), BoundaryKind.NEUMANN, "potential"),
}


def flat_case(name):
    pot, bc, weight = FLAT_CASES[name]
    if weight == "eigen":
        weight = principal_eigenfunction(pot, bc)
    elif weight == "potential":
        weight = pot
    return build_kernel(pot, bc), weight


class TestFlattenedSlices:
    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_slice_parts_match_per_t_loop_bit_for_bit(self, name, monkeypatch):
        kernel, weight = flat_case(name)
        # small blocks, so that the slices spread over many of them
        monkeypatch.setattr(gamma_module, "SLICE_BLOCK_NODES", 4000)
        rng = np.random.default_rng(2)
        ts = np.concatenate([_boundary_nodes(1.0, False)[1],
                             rng.uniform(0.0, 1.0, 40),
                             _boundary_nodes(1.0, True)[1]])
        max_len = default_max_len(kernel.potential)
        pos, neg = _slice_parts(kernel, ts, kernel.s_roots_many(ts), weight,
                                16, max_len)
        for t, p, n in zip(ts, pos, neg):
            want = slice_parts_one_t(kernel, float(t), kernel.s_roots(t),
                                     weight, 16, max_len)
            assert (p, n) == want, t

    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_gamma_matches_per_t_loop(self, name):
        kernel, weight = flat_case(name)
        got = gamma_quadrature(kernel, weight, t_grid_size=61)
        assert (got.value, got.argmin_t) == gamma_by_slice_loop(kernel, weight, 61)

    def test_pointwise_ratio_matches_per_t_loop(self):
        kernel, weight = flat_case("dirichlet-wavy")
        max_len = default_max_len(kernel.potential)
        for t in (0.013, 0.5, 0.91):
            want = _ratio(*slice_parts_one_t(kernel, t, kernel.s_roots(t),
                                             weight, 16, max_len))
            assert pointwise_ratio(kernel, t, weight) == want

    def test_pointwise_ratio_domain(self):
        # outside [0, T], and at an end whose slice the condition pins to
        # zero, there is no ratio to give
        kernel, weight = flat_case("dirichlet-wavy")
        for t in (0.0, 1.0, -1e-3, 1.5):
            with pytest.raises(OutOfRange):
                pointwise_ratio(kernel, t, weight)
        kernel, weight = flat_case("mixed1-coarse")     # u'(0) = u(T) = 0
        with pytest.raises(OutOfRange):
            pointwise_ratio(kernel, 1.0, weight)
        assert math.isfinite(pointwise_ratio(kernel, 0.0, weight))
        pot = coarse_wavy(2001)
        kernel = build_kernel(pot, BoundaryKind.PERIODIC)
        weight = principal_eigenfunction(pot, BoundaryKind.PERIODIC)
        for t in (-0.5, 1.5):
            with pytest.raises(OutOfRange):
                pointwise_ratio(kernel, t, weight)
        assert pointwise_ratio(kernel, 0.0, weight) == pytest.approx(
            pointwise_ratio(kernel, 1.0, weight), rel=1e-9)

    def test_non_finite_weight_raises(self):
        kernel, _ = flat_case("periodic-closed")
        bad = lambda s: np.where(np.asarray(s) > 0.7, np.nan, 1.0)
        with pytest.raises(QuadratureFailure):
            gamma_quadrature(kernel, bad, t_grid_size=11)
