import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import gamma as gamma_module, quadrature
from greensign.cli import main as cli_main
from greensign.cone import _t_prefix
from greensign.errors import (InvalidWeight, NonpositiveWeightedIntegral,
                              OutOfRange, QuadratureFailure, ResonantPotential,
                              UnsupportedBoundaryKind)
from greensign.fundamental import ConstantPair
from greensign.gamma import (CASE_2B_NOTE, GammaResult, _ratio,
                             gamma_closed, gamma_dirichlet_closed,
                             gamma_dirichlet_t_closed, gamma_periodic_closed,
                             gamma_quadrature, gamma_star, pointwise_ratio)
from greensign.greens import Kernel, NumericKernel, build_kernel
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import build_edges, default_max_len, gauss_nodes
from greensign.spectral import Eigenfunction, principal_eigenfunction
from slice_oracle import (PINNED_STEP, antiderivative, boundary_nodes, flat_roots,
                          inside_pinned_ends, neville_to_zero, panel_slice_parts,
                          row_slice_parts, scattered_slice_parts, slice_parts)

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

    @pytest.mark.parametrize("x", TWELVE_X)
    def test_quadrature_agreement_own_weight(self, x):
        # the library's own weight, exactly one: at most 3.0e-15 relative
        # off the closed form over TWELVE_X
        rho = x * math.pi
        weight = principal_eigenfunction(constant(rho), BoundaryKind.PERIODIC)
        quad = gamma_quadrature(periodic_kernel(rho), weight)
        assert quad.value == pytest.approx(gamma_periodic_closed(rho).value,
                                           rel=5e-14, abs=0.0)

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
        # the quadrature reads the limit slice at t = 0: at most 8.2e-15
        # relative off the closed form over the table (at rho = 4)
        closed = gamma_dirichlet_closed(rho).value
        quad = gamma_quadrature(dirichlet_kernel(rho), SIN_WEIGHT)
        assert quad.value == pytest.approx(closed, rel=5e-14, abs=0.0)
        assert quad.argmin_t == 0.0

    @pytest.mark.parametrize("rho", sorted(DIRICHLET_TABLE))
    def test_quadrature_agreement_own_weight(self, rho):
        # the library's own weight, the exact sin(pi s): at most 7.6e-15
        # relative off the closed form over the table (at rho = 4)
        weight = principal_eigenfunction(constant(rho), BoundaryKind.DIRICHLET)
        quad = gamma_quadrature(dirichlet_kernel(rho), weight)
        assert quad.value == pytest.approx(gamma_dirichlet_closed(rho).value,
                                           rel=5e-14, abs=0.0)

    def test_matches_boundary_limit_of_pointwise_form(self):
        for rho in (10.8, math.sqrt(60)):
            hs = 1e-3 / 2.0 ** np.arange(6)
            vals = np.array([gamma_dirichlet_t_closed(h, rho) for h in hs])
            limit = neville_to_zero(hs, vals)
            assert abs(limit - gamma_dirichlet_closed(rho).value) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(OutOfRange):
            gamma_dirichlet_closed(2.0)
        with pytest.raises(OutOfRange):
            gamma_dirichlet_closed(20.0)
        with pytest.raises(ResonantPotential):
            gamma_dirichlet_closed(3 * math.pi)


# Both closed forms just above rho*T = pi, at the doubles rho*T = pi (1 + 10^-k)
# (halving rho for T = 2 is exact, so both T read one table), in 50 digits:
#
#   python -c "
#   import math, mpmath
#   mpmath.mp.dps = 60
#   for k in range(1, 13):
#       r = mpmath.mpf(math.pi * (1 + 10.0**-k))
#       print(k, mpmath.nstr(1 / (1 - mpmath.sin(r / 2)), 50))
#   for k in range(1, 9):
#       r, pi = mpmath.mpf(math.pi * (1 + 10.0**-k)), mpmath.pi
#       s = r * mpmath.sin(pi**2 / r)
#       print(k, mpmath.nstr(s / (s + pi * mpmath.sin(r)), 50))"
PERIODIC_NEAR_PI = {
    1: "81.223819398794088202427421031760850254813599119779",
    2: "8105.8613601100315895150651462976900249112234715426",
    3: "810569.63580555348868322859473892135011660863263682",
    4: "81056947.080564336022449624443812638007777724819289",
    5: "8105694691.4528962304380356871926963870770648783892",
    6: "810569469437.74195503318743350469158059636506442125",
    7: "81056946794388.157361646407649362980166008953257803",
    8: "8105694873810666.6660225176750994814541017946938893",
    9: "810569475508089165.98329867982933343702624981706766",
    10: "81056958593926470009.824775388584318044130885065131",
    11: "8105844401143656321087.9336160696831822268610261641",
    12: "810457997960856595550957.76544768494061991829800059",
}
DIRICHLET_NEAR_PI = {
    1: "348.67178658262892598232658047192573202563234965217",
    2: "308510.96441473317055253721221451078761074171126005",
    3: "304419372.60630115821187492687978596563697667704698",
    4: "304009144220.0776723766554307257884071704513982806",
    5: "303968110362207.05507728647045262231790545683306402",
    6: "303964007040331992.44165873257897047726047524854011",
    7: "303963595849457122493.59998865683902821051266672192",
    8: "303963565747796745274922.04675577966909583300661409",
}


class TestClosedFormsNearPi:
    """1 - sin(rho*T/2) and the Dirichlet denominator cancel as rho*T
    nears pi; both forms keep their digits there."""

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("k", sorted(PERIODIC_NEAR_PI))
    def test_periodic(self, k, T):
        res = gamma_periodic_closed(math.pi * (1 + 10.0**-k) / T, T)
        assert res.value == pytest.approx(float(PERIODIC_NEAR_PI[k]), rel=1e-13, abs=0.0)
        assert res.case == "rho*T/pi in (1,2), k=0"
        assert res.note is None

    @pytest.mark.parametrize("k", sorted(DIRICHLET_NEAR_PI))
    def test_dirichlet(self, k):
        res = gamma_dirichlet_closed(math.pi * (1 + 10.0**-k))
        assert res.value == pytest.approx(float(DIRICHLET_NEAR_PI[k]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("bc, rho, closed", [
    (BoundaryKind.PERIODIC, 2 * math.pi, gamma_periodic_closed),
    (BoundaryKind.PERIODIC, 4 * math.pi * (1 + 1e-12), gamma_periodic_closed),
    (BoundaryKind.DIRICHLET, 3 * math.pi, gamma_dirichlet_closed),
    (BoundaryKind.DIRICHLET, 2 * math.pi * (1 - 1e-12),
     lambda rho: gamma_dirichlet_t_closed(0.5, rho)),
])
def test_closed_forms_and_kernels_share_one_resonance_rule(bc, rho, closed):
    with pytest.raises(ResonantPotential) as by_kernel:
        build_kernel(constant(rho, 1.0), bc)
    with pytest.raises(ResonantPotential) as by_closed_form:
        closed(rho)
    assert str(by_closed_form.value) == str(by_kernel.value)
    # just off resonance, both go through
    build_kernel(constant(rho * (1 + 1e-3), 1.0), bc)
    closed(rho * (1 + 1e-3))


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

    @pytest.mark.parametrize("bc,rho", [(BoundaryKind.PERIODIC, 11.0),
                                        (BoundaryKind.DIRICHLET, 12.912377)])
    def test_checks_the_potential_given(self, bc, rho):
        # on the pair that a kernel of the potential shares; the public
        # closed forms check a potential of their own
        pot = constant(rho, 1.0)
        pair = build_kernel(pot, bc).fs
        closed = gamma_periodic_closed if bc is BoundaryKind.PERIODIC else gamma_dirichlet_closed
        assert gamma_closed(pot, bc) == closed(rho)
        assert pot.cache == {"pair": pair}

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


    @pytest.mark.parametrize("size", [0, -1])
    def test_t_grid_below_one_refused(self, size):
        with pytest.raises(ValueError, match=f"t_grid_size .* got {size}"):
            gamma_quadrature(dirichlet_kernel(10.8), SIN_WEIGHT, t_grid_size=size)
        with pytest.raises(ValueError, match=f"t_grid_size .* got {size}"):
            gamma_star(periodic_kernel(7.5), constant(7.5), t_grid_size=size)

    def test_one_t_node(self):
        res = gamma_quadrature(periodic_kernel(7.5), t_grid_size=1)
        assert res.argmin_t == 0.0
        assert res.value == pytest.approx(gamma_periodic_closed(7.5).value, rel=1e-13)


RESCALE_WEIGHTS = {"eigen": lambda pot, bc: principal_eigenfunction(pot, bc),
                   "one": lambda pot, bc: None,
                   "coefficient": lambda pot, bc: pot}
# rho on [0, 2] where the kernel changes sign and the weighted integral
# stays positive under both the eigenfunction and the weight one
RESCALE_RHO = {BoundaryKind.PERIODIC: 3.7, BoundaryKind.NEUMANN: 3.7,
               BoundaryKind.DIRICHLET: 2.5, BoundaryKind.MIXED1: 1.5,
               BoundaryKind.MIXED2: 1.5}


@pytest.mark.parametrize("bc, weight", [
    *[(bc, w) for bc in KERNEL_KINDS for w in ("eigen", "one")],
    (BoundaryKind.PERIODIC, "coefficient"), (BoundaryKind.NEUMANN, "coefficient")])
def test_rescaled_interval_keeps_gamma(bc, weight):
    # t -> 2 t takes a = rho^2 on [0, 1] to a = (rho / 2)^2 on [0, 2], its
    # kernel to twice itself at the doubled points and its weights to
    # themselves there (the coefficient to a quarter of itself), and
    # doubles the t-grid exactly: gamma(rho, T = 2) = gamma(2 rho, T = 1)
    results = []
    base = RESCALE_RHO[bc]
    for rho, T in ((base, 2.0), (2.0 * base, 1.0)):
        pot = constant(rho, T)
        kernel = build_kernel(pot, bc)
        w = RESCALE_WEIGHTS[weight](pot, bc)
        results.append(gamma_star(kernel, pot, 201) if weight == "coefficient"
                       else gamma_quadrature(kernel, w, 201))
    wide, unit = results
    assert 1.0 < unit.value < math.inf
    assert wide.argmin_t == 2.0 * unit.argmin_t
    assert wide.value == pytest.approx(unit.value, rel=1e-13)


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

    def test_rejects_negative_sample_between_probe_points(self):
        # t = 777/2000 lies between the 4097 points a probe grid would check
        a = coarse_wavy(2001).values.copy()
        a[777] = -1.0
        pot = sampled(np.linspace(0.0, 1.0, 2001), a)
        k = NumericKernel(pot, BoundaryKind.PERIODIC)
        with pytest.raises(InvalidWeight, match="-1.000e"):
            gamma_star(k, pot)


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
    # one row of the segmented sum, which adds a segment alike wherever it
    # lies (test_quadrature.test_segment_sum_depends_only_on_contents)
    pos = np.add.reduceat(np.where(sign >= 0, panel, 0.0), [0])[0]
    neg = -np.add.reduceat(np.where(sign >= 0, 0.0, panel), [0])[0]
    return float(pos), float(neg)


def gamma_by_slice_loop(kernel, weight, t_grid_size, order=16):
    """(value, argmin) of the gamma_quadrature loop over slice_parts_one_t,
    which reads a pinned end from the slices at inside_pinned_ends, PINNED_STEP
    T and twice that inside it, by the Richardson step of panel_slice_parts."""
    max_len = default_max_len(kernel.potential)
    ts = np.linspace(0.0, kernel.T, t_grid_size)

    def parts(u):
        return np.array(slice_parts_one_t(kernel, float(u), kernel.s_roots(u), weight,
                                          order, max_len))
    ratios = []
    for t, u, v in zip(ts, inside_pinned_ends(kernel, ts),
                       inside_pinned_ends(kernel, ts, 2.0 * PINNED_STEP)):
        pos_neg = parts(u)
        if u != t:
            pos_neg = 2.0 * pos_neg / abs(u - t) - parts(v) / abs(v - t)
        ratios.append(_ratio(*pos_neg))
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
    """The panel oracle of slice_oracle against its per-t loop, and the
    gamma_quadrature driver run on that oracle."""

    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_slice_parts_match_per_t_loop_bit_for_bit(self, name):
        kernel, weight = flat_case(name)
        rng = np.random.default_rng(2)
        ts = np.concatenate([boundary_nodes(1.0, False)[1],
                             rng.uniform(0.0, 1.0, 40),
                             boundary_nodes(1.0, True)[1]])
        max_len = default_max_len(kernel.potential)
        # small blocks, so that the slices spread over many of them
        pos, neg = slice_parts(kernel, ts, kernel.s_roots_many(ts), weight,
                               16, max_len, block_nodes=4000)
        for t, p, n in zip(ts, pos, neg):
            want = slice_parts_one_t(kernel, float(t), kernel.s_roots(t),
                                     weight, 16, max_len)
            assert (p, n) == want, t

    @given(mean=st.floats(45.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           nodes=st.sampled_from([41, 401]),
           bc=st.sampled_from(KERNEL_KINDS),
           eigen_weight=st.booleans(),
           block=st.integers(16, 1 << 15),
           ts=st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_slice_parts_match_per_t_loop_on_random_potentials(
            self, mean, modes, nodes, bc, eigen_weight, block, ts):
        # t stays off the ends: a slice the condition pins to zero is
        # rounding noise, whose panel signs the midpoint rule reads apart
        grid = np.linspace(0.0, 1.0, nodes)
        a = np.full(nodes, mean)
        for k, (alpha, beta) in enumerate(modes, 1):
            a += (alpha * np.cos(2 * np.pi * k * grid)
                  + beta * np.sin(2 * np.pi * k * grid))
        pot = sampled(grid, a)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        ts = np.array(ts)
        max_len = default_max_len(pot)
        pos, neg = slice_parts(kernel, ts, kernel.s_roots_many(ts), weight, 16,
                               max_len, block_nodes=block)
        for t, p, n in zip(ts, pos, neg):
            want = slice_parts_one_t(kernel, float(t), kernel.s_roots(t),
                                     weight, 16, max_len)
            assert (p, n) == want, t

    @pytest.mark.parametrize("name", sorted(FLAT_CASES))
    def test_gamma_matches_per_t_loop(self, name, monkeypatch):
        kernel, weight = flat_case(name)
        monkeypatch.setattr(gamma_module, "_slice_parts", panel_slice_parts())
        got = gamma_quadrature(kernel, weight, t_grid_size=61)
        assert (got.value, got.argmin_t) == gamma_by_slice_loop(kernel, weight, 61)

    def test_pointwise_ratio_matches_per_t_loop(self, monkeypatch):
        kernel, weight = flat_case("dirichlet-wavy")
        monkeypatch.setattr(gamma_module, "_slice_parts", panel_slice_parts())
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


def on_panels(fn, breaks=None):
    """fn() with gamma's slice integrals taken on the panels of the
    slice_oracle, broken also at breaks when given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_slice_parts", panel_slice_parts(breaks))
        return fn()


def trig_potential(mean, modes, nodes=2001):
    grid = np.linspace(0.0, 1.0, nodes)
    a = np.full(nodes, mean)
    for k, (alpha, beta) in enumerate(modes, 1):
        a += (alpha * np.cos(2 * np.pi * k * grid)
              + beta * np.sin(2 * np.pi * k * grid))
    return sampled(grid, a)


def assert_same_gamma(kernel, weight, t_grid_size, rtol=1e-12, breaks=None):
    """The separable gamma_quadrature against the panel oracle: the same
    value to rtol and the same argmin, or the same error from both."""
    def gamma():
        try:
            return gamma_quadrature(kernel, weight, t_grid_size)
        except NonpositiveWeightedIntegral as exc:
            return type(exc)
    got = gamma()
    want = on_panels(gamma, breaks)
    if isinstance(want, type):
        assert got is want
        return
    assert got.argmin_t == want.argmin_t
    assert got.value == pytest.approx(want.value, rel=rtol)


class TestSeparableSlices:
    """gamma through the kernel's separable form (quadrature.CellSums read
    at every slice's zeros and diagonal) against the panel oracle it
    replaced, and its table against the partial-cell one it replaced."""

    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    @pytest.mark.parametrize("eigen_weight", [True, False])
    def test_gamma_matches_panels_on_wavy(self, bc, eigen_weight):
        pot = coarse_wavy(2001)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        assert_same_gamma(kernel, weight, 61)
        ts = np.linspace(0.003, 0.997, 23)
        try:
            want = on_panels(lambda: pointwise_ratio(kernel, ts, weight))
        except NonpositiveWeightedIntegral:
            return
        assert_allclose(pointwise_ratio(kernel, ts, weight), want, rtol=1e-12)

    @given(mean=st.floats(45.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           bc=st.sampled_from(KERNEL_KINDS),
           eigen_weight=st.booleans())
    @settings(max_examples=15, deadline=None)
    # argmin at the pinned end t = 0, under the weight one
    @example(mean=45.0, modes=[(2.0, 0.0)], bc=BoundaryKind.DIRICHLET, eigen_weight=False)
    def test_gamma_matches_panels_on_random_potentials(self, mean, modes, bc,
                                                       eigen_weight):
        pot = trig_potential(mean, modes)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        assert_same_gamma(kernel, weight, 21)

    @given(mean=st.floats(45.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           bc=st.sampled_from(KERNEL_KINDS),
           eigen_weight=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_reads_match_partial_cells(self, mean, modes, bc, eigen_weight):
        # gamma's S and the cone's U, read at edges, against the table read
        # through a partial Gauss cell per point (slice_oracle.antiderivative):
        # at most 1.3e-15 of max |S| over 80 draws
        pot = trig_potential(mean, modes)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        reads = []
        both = quadrature.CellSums.both

        def spy(sums, g, x):
            reads.append((np.array(x, dtype=float), both(sums, g, x)))
            return reads[-1][1]

        ts = np.linspace(0.0, 1.0, 41)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quadrature.CellSums, "both", spy)
            gamma_module._slice_parts(kernel, ts, gamma_module._slice_rows(kernel, ts), weight)
            _t_prefix(kernel, np.linspace(0.0, 1.0, 65), np.linspace(0.0, 1.0, 201))
        (x, (S, left, total)), (y, (U, up_left, U_total)) = reads
        want, want_left, _ = antiderivative(kernel, weight, x)
        assert np.array_equal(left, want_left)
        assert np.all(np.abs(S - want) <= 1e-14 * np.max(np.abs(want), axis=1)[:, None])
        U = U + np.where(up_left, 0.0, U_total[:, None])
        V, V_left, V_total = antiderivative(kernel, None, y)
        V = V + np.where(V_left, 0.0, V_total[:, None])
        assert np.all(np.abs(U - V) <= 1e-14 * np.max(np.abs(V), axis=1)[:, None])

    @pytest.mark.parametrize("seed, nodes", [(0, 2001), (1, 2001), (2, 1201),
                                             (3, 1201)])
    def test_coefficient_weight_integrated_across_every_sample_kink(self, seed,
                                                                  nodes):
        # the coefficient kinks at each of its interior samples; the panel
        # path split its slices at none of them (more than
        # MAX_SHARED_BREAKS) and read 1e-9 to 4e-8 off panels split at all.
        # On 1201 samples most kinks are not nodes of the kernel's grid.
        rng = np.random.default_rng(seed)
        pot = trig_potential(rng.uniform(45.0, 75.0),
                             rng.uniform(-2.5, 2.5, (3, 2)), nodes)
        bc = (BoundaryKind.PERIODIC, BoundaryKind.NEUMANN)[seed % 2]
        kernel = build_kernel(pot, bc)
        got = gamma_star(kernel, pot, 21)
        want = on_panels(lambda: gamma_star(kernel, pot, 21), pot.grid[1:-1])
        assert got.argmin_t == want.argmin_t
        assert got.value == pytest.approx(want.value, rel=1e-12)

    @pytest.mark.parametrize("bc, grid, eigen_weight", [
        (BoundaryKind.DIRICHLET, 251, True), (BoundaryKind.PERIODIC, 41, False)])
    def test_coarse_kernel_grid_integrated_across_its_nodes(self, bc, grid,
                                                            eigen_weight):
        # on a coarse grid the Hermite pair (and an eigenfunction on that
        # grid) kink at every node: panels across them read 1.5e-10 off at
        # 251 nodes, and cells across them 7e-12 at 41; on cells between
        # the nodes the 4-point rule is exact
        pot = replace(coarse_wavy(2001), grid_size=grid)
        kernel = NumericKernel(pot, bc)
        weight = (principal_eigenfunction(pot, bc)
                  if eigen_weight else None)
        assert_same_gamma(kernel, weight, 41, rtol=1e-13,
                          breaks=kernel.fs.ts[1:-1])

    @pytest.mark.parametrize("rho", sorted(DIRICHLET_TABLE))
    def test_mirrored_boundary_slices_agree(self, rho):
        # G(t, s) = G(1 - t, 1 - s) and sin(pi s) is symmetric, so slices
        # at the same distance from either end read alike
        kernel = dirichlet_kernel(rho)
        left = pointwise_ratio(kernel, boundary_nodes(1.0, False)[1], SIN_WEIGHT)
        right = pointwise_ratio(kernel, boundary_nodes(1.0, True)[1], SIN_WEIGHT)
        assert_allclose(right, left, rtol=1e-14)

    def test_pointwise_ratio_takes_arrays(self):
        kernel, weight = flat_case("dirichlet-wavy")
        ts = np.array([[0.013, 0.5], [0.91, 0.2]])
        got = pointwise_ratio(kernel, ts, weight)
        assert got.shape == ts.shape
        for t, r in zip(ts.ravel(), got.ravel()):
            assert pointwise_ratio(kernel, float(t), weight) == pytest.approx(r, rel=1e-14)


def rng3_trig_draws(count=9):
    """count trig potentials from default_rng(3): a mean in [45, 75], then
    three (cos, sin) mode pairs in [-2.5, 2.5]."""
    rng = np.random.default_rng(3)
    return [trig_potential(rng.uniform(45.0, 75.0), rng.uniform(-2.5, 2.5, (3, 2)))
            for _ in range(count)]


def eigen_case(pot, bc):
    return NumericKernel(pot, bc), principal_eigenfunction(pot, bc)


PINNED_CASES = {
    **{f"wavy-{bc}": (lambda bc=bc: eigen_case(coarse_wavy(2001), bc))
       for bc in (BoundaryKind.DIRICHLET, BoundaryKind.MIXED1, BoundaryKind.MIXED2)},
    "wavy-dirichlet-251": lambda: eigen_case(replace(coarse_wavy(2001), grid_size=251),
                                             BoundaryKind.DIRICHLET),
    **{f"closed-dirichlet-{rho:.4g}": (lambda rho=rho: (dirichlet_kernel(rho), SIN_WEIGHT))
       for rho in (10.8, math.sqrt(60))},
    **{f"trig-{i}-mixed1": (lambda i=i: eigen_case(rng3_trig_draws()[i], BoundaryKind.MIXED1))
       for i in range(9)},
}


class TestPinnedEndLimit:
    """At an end that the condition pins, gamma reads the limit slice
    G(t, .) / |t - end| off the kernel's separable form.  Its ratio is that
    of the slice PINNED_STEP T inside the end, to rounding.  An
    extrapolation from the slices of boundary_nodes misses it on trig-8 by
    1.8e-12."""

    @pytest.mark.parametrize("name", sorted(PINNED_CASES))
    def test_end_ratio_is_the_slice_just_inside(self, name):
        kernel, weight = PINNED_CASES[name]()
        ends = np.array([0.0, kernel.T])[list(kernel.bc.pinned_ends)]
        got = gamma_module._slice_ratios(kernel, ends, gamma_module._slice_rows(kernel, ends),
                                         weight, need_positive=False)
        near = pointwise_ratio(kernel, inside_pinned_ends(kernel, ends), weight)
        assert_allclose(got, near, rtol=1e-14)
        # on every case here the infimum sits at a pinned end
        res = gamma_quadrature(kernel, weight, 41)
        assert res.argmin_t in ends
        assert res.value == pytest.approx(got[list(ends).index(res.argmin_t)],
                                          rel=1e-15)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1,
                                    BoundaryKind.MIXED2])
    def test_limit_slice_is_exact(self, bc):
        # C is zero but for its row c: the side of the limit slice that is
        # not empty is that row at 0, the solution meeting the condition at
        # T, and at T a multiple of u_c, the other coefficient exactly zero
        kernel = build_kernel(coarse_wavy(2001), bc)
        ends = np.array([0.0, kernel.T])[list(bc.pinned_ends)]
        alpha, beta = kernel._sides(ends)
        n = len(ends)
        c = bc.entry[1]
        for i, end in enumerate(ends):
            if end == 0.0:
                assert (alpha[n + i], beta[n + i]) == tuple(kernel._C[c])
            else:
                assert (alpha, beta)[1 - c][i] == 0.0
                assert (alpha, beta)[c][i] != 0.0


# (potential, condition, weight) of TestRowLayout: exact and RK4 pairs,
# pinned ends, T = 2, and Dirichlet rho = 4 and a low trig potential, whose
# slices about t = 1/2 have no zero
LAYOUT_CASES = {
    "dirichlet-closed": (constant(10.8, 1.0), BoundaryKind.DIRICHLET, SIN_WEIGHT),
    "dirichlet-closed-4": (constant(4.0, 1.0), BoundaryKind.DIRICHLET, "eigen"),
    "periodic-closed": (constant(4.5 * math.pi, 1.0), BoundaryKind.PERIODIC, None),
    "neumann-closed-T2": (constant(8.65, 2.0), BoundaryKind.NEUMANN, "eigen"),
    "mixed2-closed": (constant(17.3, 1.0), BoundaryKind.MIXED2, "eigen"),
    **{f"{bc}-wavy": (coarse_wavy(2001), bc, "eigen") for bc in KERNEL_KINDS},
    "dirichlet-low": (trig_potential(16.0, [(1.0, 0.5)]), BoundaryKind.DIRICHLET, "eigen"),
    "mixed1-coarse": (coarse_wavy(41), BoundaryKind.MIXED1, None),
    "neumann-coarse": (coarse_wavy(41), BoundaryKind.NEUMANN, "potential"),
}


def layout_case(name):
    """(kernel, weight) of LAYOUT_CASES[name]."""
    pot, bc, weight = LAYOUT_CASES[name]
    if weight == "eigen":
        weight = principal_eigenfunction(pot, bc)
    elif weight == "potential":
        weight = pot
    return build_kernel(pot, bc), weight


def layout_grids(kernel):
    """t-grids of TestRowLayout: 1001 and 3 uniform nodes, pinned ends
    among them, and t on zeros: a separated kernel's fixed ones, or the
    zeros of a paired kernel's slices at 0.3 T and 0.7 T."""
    T = kernel.T
    if kernel._fixed_zeros is None:
        zeros = np.concatenate(kernel.s_roots_many([0.3 * T, 0.7 * T]))
    else:
        zeros = np.sort(np.concatenate(kernel._fixed_zeros))
    return [np.linspace(0.0, T, 1001), np.linspace(0.0, T, 3), zeros]


#: Roundings, relative, by which a separated kernel's parts, summed once
#: per fixed piece, may stand off those summed piece by piece in every row
PIECE_ULPS = 4


def assert_within_ulps(got, want, ulps=PIECE_ULPS):
    """Each array of got within ulps roundings of its array of want,
    relative, elementwise (or equal, as where both are +inf)."""
    for g, w in zip(got, want):
        assert np.all((np.abs(g - w) <= ulps * np.finfo(float).eps * np.abs(w))
                      | (g == w))


class TestRowLayout:
    """gamma._slice_parts reads each distinct point once.  A paired
    kernel's slices are summed on one contiguous row layout: bit for bit
    what the scattered layout it replaced (slice_oracle.scattered_slice_parts)
    gives on the same zeros.  A separated kernel's fixed pieces are summed
    once per kernel (TestFixedPieces), within PIECE_ULPS roundings of it."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
    def test_matches_scattered_layout_bit_for_bit(self, name):
        kernel, weight = layout_case(name)
        for ts in layout_grids(kernel):
            got = gamma_module._slice_parts(kernel, ts, gamma_module._slice_rows(kernel, ts),
                                            weight)
            want = scattered_slice_parts(kernel, ts, flat_roots(kernel, ts), weight)
            if kernel._fixed_zeros is None:
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)
            else:
                assert_within_ulps(got, want)

    @pytest.mark.parametrize("name", ["dirichlet-closed-4", "dirichlet-low"])
    def test_rows_with_no_zero(self, name):
        kernel, _ = layout_case(name)
        counts = flat_roots(kernel, np.linspace(0.0, 1.0, 1001))[1]
        assert np.any(counts == 0) and np.any(counts > 0)

    @pytest.mark.parametrize("name", ["dirichlet-closed", "dirichlet-closed-4",
                                      "periodic-closed", "mixed2-closed", "dirichlet-wavy",
                                      "periodic-wavy", "neumann-coarse"])
    def test_gamma_at_three_nodes_matches_panels(self, name):
        # figure 1's t-grid: the ends and the middle
        kernel, weight = layout_case(name)
        assert_same_gamma(kernel, weight, 3)

    @pytest.mark.parametrize("pot", [constant(17.3, 1.0), coarse_wavy(2001)],
                             ids=["closed", "wavy"])
    @pytest.mark.parametrize("bc", KERNEL_KINDS, ids=str)
    def test_separated_gamma_searches_two_rows(self, bc, pot, monkeypatch):
        # a separated kernel searches its limit rows t = 0 and T, once; a
        # paired one every row of the t-grid, once per grid, but a constant
        # periodic one under a constant weight (its principal eigenfunction)
        # only the row t = 0 (TestOneSlice)
        searched = []
        search = Kernel._search_rows

        def counted(self, ts, sides):
            searched.append(len(ts))
            return search(self, ts, sides)

        monkeypatch.setattr(Kernel, "_search_rows", counted)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc)
        for _ in range(2):
            gamma_quadrature(kernel, weight, 1001)
        one_slice = bc is BoundaryKind.PERIODIC and kernel.form == "closed"
        assert searched == ([1] if one_slice else [1001] if bc.multiplier else [2])

    @pytest.mark.parametrize("rho", [17.3, 11.0, 8.65])
    @pytest.mark.parametrize("bc", KERNEL_KINDS, ids=str)
    def test_one_read_per_gamma(self, bc, rho, monkeypatch):
        # each gamma_quadrature reads W once: a separated sweep at its m + r
        # fixed zeros, 0, T and every t; the one slice of a constant periodic
        # kernel at its k zeros, t = 0, 0 and T
        reads = []
        read = gamma_module.read_both

        def counted(kernel, weight, x):
            reads.append(len(x))
            return read(kernel, weight, x)

        monkeypatch.setattr(gamma_module, "read_both", counted)
        pot = constant(rho, 1.0)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc)
        for _ in range(2):
            with contextlib.suppress(NonpositiveWeightedIntegral):
                gamma_quadrature(kernel, weight, 1001)
        if bc.multiplier:
            points = len(kernel.s_roots(0.0)) + 3
        else:
            points = len(np.concatenate(kernel._fixed_zeros)) + 1003
        assert reads == [points, points]
        sizes = {(BoundaryKind.DIRICHLET, 17.3): 1013, (BoundaryKind.PERIODIC, 11.0): 7}
        assert points == sizes.get((bc, rho), points)


SEPARATED_KINDS = [bc for bc in KERNEL_KINDS if not bc.multiplier]

# (kernel, potential) of TestFixedPieces: exact pairs, T = 2, Dirichlet
# rho = 4, whose slices about t = 1/2 have no zero, RK4 on a constant, on
# wavy and on a coarse grid
FIXED_KERNELS = {
    "closed-17.3": lambda bc: build_kernel(constant(17.3, 1.0), bc),
    "closed-4": lambda bc: build_kernel(constant(4.0, 1.0), bc),
    "closed-T2": lambda bc: build_kernel(constant(8.65, 2.0), bc),
    "rk4-17.3": lambda bc: NumericKernel(constant(17.3, 1.0), bc),
    "wavy": lambda bc: build_kernel(coarse_wavy(2001), bc),
    "wavy-41": lambda bc: build_kernel(coarse_wavy(41), bc),
}


def row_layout_parts(kernel, ts, roots, weight):
    """A stand-in for gamma._slice_parts that sums every piece of every
    slice on the row layout (slice_oracle.row_slice_parts), on the
    kernel's own zeros."""
    return row_slice_parts(kernel, ts, flat_roots(kernel, ts), weight)


def assert_gamma_as_row_layout(kernel, weight, t_grid_size):
    """gamma_quadrature against itself on the row layout: the same argmin
    and the value within PIECE_ULPS roundings, or the same error."""
    def gamma():
        try:
            return gamma_quadrature(kernel, weight, t_grid_size)
        except NonpositiveWeightedIntegral as exc:
            return str(exc)
    got = gamma()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_slice_parts", row_layout_parts)
        want = gamma()
    if isinstance(want, str):
        assert got == want
        return
    assert got.argmin_t == want.argmin_t
    assert_within_ulps([got.value], [want.value])


class TestFixedPieces:
    """A separated kernel sums the pieces between its fixed zeros once, by
    sign, from 0 and from T, and each slice adds its two partial pieces
    (gamma._fixed_parts): within PIECE_ULPS roundings of the row layout
    that summed every piece of every slice (slice_oracle.row_slice_parts),
    with the same errors."""

    @pytest.mark.parametrize("eigen_weight", [True, False], ids=["eigen", "one"])
    @pytest.mark.parametrize("name", sorted(FIXED_KERNELS))
    @pytest.mark.parametrize("bc", SEPARATED_KINDS, ids=str)
    def test_parts_match_row_layout(self, bc, name, eigen_weight):
        kernel = FIXED_KERNELS[name](bc)
        weight = principal_eigenfunction(kernel.potential, bc) if eigen_weight else None
        T = kernel.T
        zeros = np.sort(np.concatenate(kernel._fixed_zeros))
        # the grids of gamma and figure 1, then t on every fixed zero and
        # on the floats next to it
        for ts in (np.linspace(0.0, T, 1001), np.linspace(0.0, T, 3), zeros,
                   np.nextafter(zeros, 0.0), np.nextafter(zeros, T)):
            got = gamma_module._slice_parts(kernel, ts, gamma_module._slice_rows(kernel, ts),
                                            weight)
            assert_within_ulps(got, row_slice_parts(kernel, ts, flat_roots(kernel, ts),
                                                    weight))
        for size in (1001, 3):
            assert_gamma_as_row_layout(kernel, weight, size)

    def test_cases_meet_nonpositive_rows(self):
        # under the weight one Dirichlet rho = 17.3 and mixed1 and mixed2
        # rho = 4 have rows whose weighted integral is not positive, which
        # the row layout must refuse alike
        for name, bc in [("closed-17.3", BoundaryKind.DIRICHLET),
                         ("closed-4", BoundaryKind.MIXED1), ("closed-4", BoundaryKind.MIXED2)]:
            with pytest.raises(NonpositiveWeightedIntegral):
                gamma_quadrature(FIXED_KERNELS[name](bc), None, 1001)

    @pytest.mark.parametrize("bc", SEPARATED_KINDS, ids=str)
    def test_non_finite_weight_raises_as_row_layout(self, bc):
        # a NaN or an infinite weight past some s makes every row's sums
        # non-finite, on the row layout and on the fixed pieces alike
        kernel = FIXED_KERNELS["closed-17.3"](bc)
        for bad in (lambda s: np.where(np.asarray(s) > 0.7, np.nan, 1.0),
                    lambda s: np.where(np.asarray(s) > 0.2, np.inf, 1.0)):
            with pytest.raises(QuadratureFailure) as got, np.errstate(invalid="ignore"):
                gamma_quadrature(kernel, bad, 11)
            with (pytest.MonkeyPatch.context() as mp, pytest.raises(QuadratureFailure) as want,
                  np.errstate(invalid="ignore")):
                mp.setattr(gamma_module, "_slice_parts", row_layout_parts)
                gamma_quadrature(kernel, bad, 11)
            assert str(got.value) == str(want.value)

    @given(rho_T=st.floats(0.5 * math.pi, 6.0 * math.pi, exclude_min=True, exclude_max=True),
           T=st.sampled_from([1.0, 2.0]),
           bc=st.sampled_from(SEPARATED_KINDS),
           eigen_weight=st.booleans(),
           size=st.sampled_from([1001, 3]))
    @settings(max_examples=100, deadline=None)
    def test_exact_draws_match_row_layout(self, rho_T, T, bc, eigen_weight, size):
        # exact pairs at any rho off resonance, rho T in (pi / 2, 6 pi)
        pot = constant(rho_T / T, T)
        try:
            kernel = build_kernel(pot, bc)
        except ResonantPotential:
            assume(False)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        assert_gamma_as_row_layout(kernel, weight, size)

    @given(mean=st.floats(10.0, 75.0),
           modes=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                          min_size=1, max_size=3),
           bc=st.sampled_from(SEPARATED_KINDS),
           eigen_weight=st.booleans(),
           size=st.sampled_from([3, 41, 1001]))
    @settings(max_examples=20, deadline=None)
    def test_trig_draws_match_row_layout(self, mean, modes, bc, eigen_weight, size):
        pot = trig_potential(mean, modes)
        kernel = build_kernel(pot, bc)
        weight = principal_eigenfunction(pot, bc) if eigen_weight else None
        ts = np.linspace(0.0, 1.0, size)
        got = gamma_module._slice_parts(kernel, ts, gamma_module._slice_rows(kernel, ts), weight)
        assert_within_ulps(got, row_slice_parts(kernel, ts, flat_roots(kernel, ts), weight))
        assert_gamma_as_row_layout(kernel, weight, size)


def full_sweep(fn):
    """fn() with gamma_quadrature reading every slice of its t-grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gamma_module, "_t_independent", lambda kernel, weight: False)
        return fn()


def constant_weight_gamma(rho, T, weight):
    """gamma of the periodic kernel of rho**2 on [0, T] under a constant
    weight: one, its principal eigenfunction, or the coefficient rho**2."""
    pot = constant(rho, T)
    kernel = build_kernel(pot, BoundaryKind.PERIODIC)
    if weight == "coefficient":
        return gamma_star(kernel, pot)
    return gamma_quadrature(kernel, None if weight == "one" else
                            principal_eigenfunction(pot, BoundaryKind.PERIODIC))


def search_counts(fn):
    """The rows of every search of slice zeros (Kernel._search_rows) that
    fn() makes, whether or not it then finds a weighted integral that is
    not positive (as the antiperiodic one at t = 0 is under the weight
    one)."""
    searched = []
    search = Kernel._search_rows

    def counted(self, ts, sides):
        searched.append(len(ts))
        return search(self, ts, sides)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Kernel, "_search_rows", counted)
        with contextlib.suppress(NonpositiveWeightedIntegral):
            fn()
    return searched


class TestOneSlice:
    """On a constant potential's exact pair under periodic conditions every
    slice is a translate of one, so under a constant weight N and D do not
    depend on t: gamma_quadrature reads the slice at t = 0 alone, which the
    tie rule of the full sweep reports, bit for bit."""

    @pytest.mark.parametrize("weight", ["one", "eigen", "coefficient"])
    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_matches_full_sweep_bit_for_bit(self, T, weight):
        for rho in math.pi * np.linspace(1.05, 6.95, 40):
            got = constant_weight_gamma(rho, T, weight)
            want = full_sweep(lambda: constant_weight_gamma(rho, T, weight))
            assert got == want
            assert got.argmin_t == 0.0

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_kernel_without_negative_part(self, T):
        # rho T below pi: G > 0, so the ratio is the +inf sentinel
        kernel = build_kernel(constant(0.9 * math.pi / T, T), BoundaryKind.PERIODIC)
        got = gamma_quadrature(kernel)
        assert got == full_sweep(lambda: gamma_quadrature(kernel))
        assert (got.value, got.argmin_t) == (math.inf, 0.0)
        assert search_counts(lambda: gamma_quadrature(
            build_kernel(constant(0.9 * math.pi / T, T), BoundaryKind.PERIODIC))) == [1]

    def test_nonpositive_weighted_integral(self):
        # a negative constant weight: the weighted integral is negative at
        # every t, and both paths refuse it at t = 0
        kernel = periodic_kernel(11.0)
        weight = Eigenfunction(ConstantPair(0.0, 1.0), -1.0, 0.0, 0.0, BoundaryKind.PERIODIC)
        with pytest.raises(NonpositiveWeightedIntegral) as one:
            gamma_quadrature(kernel, weight)
        with pytest.raises(NonpositiveWeightedIntegral) as every:
            full_sweep(lambda: gamma_quadrature(kernel, weight))
        assert str(one.value) == str(every.value) == (
            "weighted integral of the kernel is not positive at t = 0.0")

    @pytest.mark.parametrize("make", [
        lambda: (NumericKernel(constant(11.0, 1.0), BoundaryKind.PERIODIC), None),
        lambda: (NumericKernel(coarse_wavy(2001), BoundaryKind.PERIODIC), None),
        lambda: (build_kernel(constant(11.0, 1.0), BoundaryKind.ANTIPERIODIC), None),
        lambda: (periodic_kernel(11.0), SIN_WEIGHT),
    ], ids=["rk4-constant", "rk4-wavy", "antiperiodic-closed", "closed-sin-weight"])
    def test_other_kernels_and_weights_search_every_row(self, make):
        kernel, weight = make()
        assert search_counts(lambda: gamma_quadrature(kernel, weight)) == [1001]
        assert search_counts(lambda: gamma_quadrature(periodic_kernel(11.0))) == [1]
        assert search_counts(lambda: full_sweep(
            lambda: gamma_quadrature(periodic_kernel(11.0)))) == [1001]

    def test_figure_1_unchanged(self, tmp_path):
        # figure 1 reads 300 periodic constant kernels at the default t-grid,
        # one slice each; the full sweep reads all 1001
        fast, full = tmp_path / "fast.csv", tmp_path / "full.csv"
        assert cli_main(["figure", "1", "--output", str(fast)]) == 0
        assert full_sweep(lambda: cli_main(["figure", "1", "--output", str(full)])) == 0
        assert fast.read_bytes() == full.read_bytes()
