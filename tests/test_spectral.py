import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import spectral
from greensign.errors import UndeterminedSign, UnsupportedBoundaryKind
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.spectral import (BISECT_REL_WIDTH, EigenResult,
                                smallest_eigenvalues,
                                SignClass, char_values, classify_sign,
                                principal_eigenfunction, smallest_eigenvalue)

RHO = 3 * math.pi / 2

# first eigenvalue of the 2001-node linear interpolant of 60 + 10 sin(2 pi t),
# cross-checked against an independent high-order adaptive integrator with
# steps aligned to the interpolation kinks (agreement 4e-13 / 4e-12)
WAVY_LAM_P = -61.23291658373091
WAVY_LAM_A = -55.4274771986655


def wavy(n=2001):
    g = np.linspace(0.0, 1.0, n)
    return sampled(g, 60 + 10 * np.sin(2 * np.pi * g))


def const_sampled(rho, n=2001, T=1.0):
    g = np.linspace(0.0, T, n)
    return sampled(g, np.full_like(g, rho * rho), T=T)


class TestSmallestEigenvalue:
    @pytest.mark.parametrize("bc,expect", [
        (BoundaryKind.PERIODIC, -RHO**2),
        (BoundaryKind.ANTIPERIODIC, math.pi**2 - RHO**2),
        (BoundaryKind.DIRICHLET, math.pi**2 - RHO**2),
        (BoundaryKind.NEUMANN, -RHO**2),
        (BoundaryKind.MIXED1, (math.pi / 2) ** 2 - RHO**2),
        (BoundaryKind.MIXED2, (math.pi / 2) ** 2 - RHO**2),
    ])
    def test_constant_closed_forms(self, bc, expect):
        res = smallest_eigenvalue(constant(RHO, 1.0), bc)
        assert res.method == "closed"
        assert_allclose(res.value, expect, rtol=1e-14)

    def test_interval_scaling(self):
        res = smallest_eigenvalue(constant(1.0, 2.0), BoundaryKind.DIRICHLET)
        assert_allclose(res.value, (math.pi / 2) ** 2 - 1.0, rtol=1e-14)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_shooting_matches_closed(self, bc):
        # the antiperiodic pair coincides for a constant potential, so the
        # characteristic function only touches zero there; looser tolerance
        closed = smallest_eigenvalue(constant(RHO, 1.0), bc).value
        shot = smallest_eigenvalue(const_sampled(RHO), bc)
        assert shot.method == "shooting"
        tol = 1e-6 if bc is BoundaryKind.ANTIPERIODIC else 1e-8
        assert abs(shot.value - closed) < tol * max(1.0, abs(closed))

    def test_wavy_reference_values(self):
        pot = wavy()
        assert_allclose(smallest_eigenvalue(pot, BoundaryKind.PERIODIC).value,
                        WAVY_LAM_P, atol=1e-9)
        assert_allclose(smallest_eigenvalue(pot, BoundaryKind.ANTIPERIODIC).value,
                        WAVY_LAM_A, atol=1e-9)

    def test_result_metadata(self):
        res = smallest_eigenvalue(wavy(), BoundaryKind.DIRICHLET)
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert res.iterations > 0

    def test_char_positive_below_spectrum(self):
        pot = wavy()
        lam = -pot.sup_norm - 1.0
        for bc in BoundaryKind:
            assert char_values(pot, bc, lam)[0] > 0

    @given(st.floats(0.6, 5.5), st.sampled_from(list(BoundaryKind)))
    @settings(max_examples=12, deadline=None)
    def test_shooting_property(self, rho, bc):
        closed = smallest_eigenvalue(constant(rho, 1.0), bc).value
        shot = smallest_eigenvalue(const_sampled(rho, n=801), bc).value
        tol = 1e-5 if bc is BoundaryKind.ANTIPERIODIC else 1e-7
        assert abs(shot - closed) < tol * max(1.0, abs(closed))


class TestClassifySign:
    @pytest.mark.parametrize("rho,bc,expect", [
        (1.0, BoundaryKind.PERIODIC, SignClass.NON_NEGATIVE),
        (RHO, BoundaryKind.PERIODIC, SignClass.CHANGES_SIGN),
        (2.0, BoundaryKind.DIRICHLET, SignClass.NON_POSITIVE),
        (math.sqrt(60), BoundaryKind.DIRICHLET, SignClass.CHANGES_SIGN),
        (1.0, BoundaryKind.NEUMANN, SignClass.NON_NEGATIVE),
        (2.0, BoundaryKind.NEUMANN, SignClass.CHANGES_SIGN),
        (1.0, BoundaryKind.MIXED1, SignClass.NON_POSITIVE),
        (1.0, BoundaryKind.MIXED2, SignClass.NON_POSITIVE),
        (2.0, BoundaryKind.MIXED2, SignClass.CHANGES_SIGN),
    ])
    def test_constant_table(self, rho, bc, expect):
        assert classify_sign(constant(rho, 1.0), bc) is expect

    def test_negative_potential_gives_nonpositive(self):
        g = np.linspace(0.0, 1.0, 801)
        neg = sampled(g, np.full_like(g, -1.0))
        assert classify_sign(neg, BoundaryKind.PERIODIC) is SignClass.NON_POSITIVE
        assert classify_sign(neg, BoundaryKind.NEUMANN) is SignClass.NON_POSITIVE

    def test_wavy_periodic_changes_sign(self):
        assert classify_sign(wavy(), BoundaryKind.PERIODIC) is SignClass.CHANGES_SIGN

    def test_classification_matches_kernel_sign(self):
        # the decision by eigenvalues must agree with a dense kernel sample
        from greensign.greens import build_kernel
        tt = np.linspace(0.02, 0.98, 60)
        for rho, bc in ((1.0, BoundaryKind.PERIODIC), (RHO, BoundaryKind.PERIODIC),
                        (2.0, BoundaryKind.DIRICHLET), (1.0, BoundaryKind.NEUMANN),
                        (2.0, BoundaryKind.NEUMANN)):
            g = build_kernel(constant(rho, 1.0), bc).grid_eval(tt, tt)
            cls = classify_sign(constant(rho, 1.0), bc)
            if cls is SignClass.NON_NEGATIVE:
                assert g.min() >= -1e-12
            elif cls is SignClass.NON_POSITIVE:
                assert g.max() <= 1e-12
            else:
                assert g.min() < 0 < g.max()

    def test_near_zero_eigenvalue_is_undetermined(self):
        with pytest.raises(UndeterminedSign):
            classify_sign(constant(1e-5, 1.0), BoundaryKind.PERIODIC)

    def test_antiperiodic_unsupported(self):
        with pytest.raises(UnsupportedBoundaryKind):
            classify_sign(constant(1.0, 1.0), BoundaryKind.ANTIPERIODIC)


class TestPrincipalEigenfunction:
    @pytest.mark.parametrize("bc,closed", [
        (BoundaryKind.PERIODIC, lambda t: np.ones_like(t)),
        (BoundaryKind.DIRICHLET, lambda t: np.sin(np.pi * t)),
        (BoundaryKind.NEUMANN, lambda t: np.ones_like(t)),
        (BoundaryKind.MIXED1, lambda t: np.cos(np.pi * t / 2)),
        (BoundaryKind.MIXED2, lambda t: np.sin(np.pi * t / 2)),
    ])
    def test_constant_closed_forms(self, bc, closed):
        ef = principal_eigenfunction(constant(2.0, 1.0), bc)
        tt = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(ef(tt) - closed(tt))) < 1e-6

    def test_normalized_to_unit_max(self):
        ef = principal_eigenfunction(wavy(), BoundaryKind.PERIODIC)
        assert_allclose(np.max(ef.values), 1.0, rtol=1e-12)
        assert np.min(ef.values) > 0

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.MIXED1,
                                    BoundaryKind.MIXED2])
    def test_pinned_ends_are_exact_zeros(self, bc):
        ef = principal_eigenfunction(wavy(), bc)
        pinned = list(bc.pinned_ends)
        assert [ef(0.0) == 0.0, ef(1.0) == 0.0] == pinned
        assert list(ef(np.array([0.0, 1.0])) == 0.0) == pinned
        assert list(ef.values[[0, -1]] == 0.0) == pinned

    def test_satisfies_equation(self):
        # second difference of the eigenfunction reproduces -(a + lam) u
        pot = wavy()
        ef = principal_eigenfunction(pot, BoundaryKind.DIRICHLET)
        t = np.linspace(0.1, 0.9, 33)
        h = 1e-4
        upp = (ef(t - h) - 2 * ef(t) + ef(t + h)) / h**2
        assert np.max(np.abs(upp + (pot(t) + ef.lam) * ef(t))) < 1e-4


class TestSmallestEigenvalues:
    def test_closed_family_shapes(self):
        for bc in BoundaryKind:
            rs = smallest_eigenvalues(constant(3.0), bc, 6)
            vals = [r.value for r in rs]
            assert len(vals) == 6
            assert vals == sorted(vals)
            assert all(r.method == "closed" for r in rs)

    def test_closed_periodic_multiplicities(self):
        vals = [r.value for r in smallest_eigenvalues(constant(3.0),
                                                      BoundaryKind.PERIODIC, 6)]
        pi2 = (2 * math.pi) ** 2
        expect = [-9.0, pi2 - 9, pi2 - 9, 4 * pi2 - 9, 4 * pi2 - 9,
                  9 * pi2 - 9]
        assert_allclose(vals, expect, rtol=1e-14)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_shooting_matches_closed(self, bc):
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, np.full(2001, 9.0))
        got = np.array([r.value for r in smallest_eigenvalues(pot, bc, 6)])
        ref = np.array([r.value for r in smallest_eigenvalues(constant(3.0),
                                                              bc, 6)])
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 2e-5

    def test_exact_grid_node_root_is_found(self):
        # char value is exactly zero at a scan node for this potential
        grid = np.linspace(0.0, 1.0, 2001)
        pot = sampled(grid, np.full(2001, 9.0))
        rs = smallest_eigenvalues(pot, BoundaryKind.NEUMANN, 2)
        assert rs[0].value == pytest.approx(-9.0, abs=1e-10)

    def test_wavy_gap_structure(self):
        rs = smallest_eigenvalues(wavy(), BoundaryKind.PERIODIC, 6)
        vals = [r.value for r in rs]
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(WAVY_LAM_P, abs=1e-9)
        # the first gap of a single-harmonic coefficient is open
        assert vals[2] - vals[1] > 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            smallest_eigenvalues(constant(1.0), BoundaryKind.DIRICHLET, 0)


def bisect(potential, bc, lo, hi, grid_size):
    """The scalar bisection the eigenvalue search used before; oracle."""
    char_values = spectral.char_values
    flo = float(char_values(potential, bc, lo, grid_size)[0])
    iterations = 0
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        fmid = float(char_values(potential, bc, mid, grid_size)[0])
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            break
    return EigenResult(0.5 * (lo + hi), bc, "shooting", iterations, (lo, hi))


def trig_potential(seed, n=2001):
    rng = np.random.default_rng(seed)
    g = np.linspace(0.0, 1.0, n)
    a = np.full_like(g, rng.uniform(0.0, 100.0))
    for k in range(1, 5):
        a += (rng.uniform(-4, 4) * np.cos(2 * math.pi * k * g)
              + rng.uniform(-4, 4) * np.sin(2 * math.pi * k * g))
    return sampled(g, a)


class TestRefinement:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_bisection_in_fewer_steps(self, seed, monkeypatch):
        pot = trig_potential(seed)
        calls = []
        refine = spectral._refine

        def recording(*args):
            calls.append((args, refine(*args)))
            return calls[-1][1]

        monkeypatch.setattr(spectral, "_refine", recording)
        for bc in BoundaryKind:
            smallest_eigenvalues(pot, bc, 6)
        assert len(calls) >= 30
        for (p, bc, lo0, hi0, flo, fhi, grid), got in calls:
            assert (flo > 0) != (fhi > 0)
            want = bisect(p, bc, lo0, hi0, grid)
            assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))
            lo, hi = got.bracket
            assert lo0 <= lo <= got.value <= hi <= hi0
            assert hi - lo <= BISECT_REL_WIDTH * max(1.0, abs(lo))
            assert got.iterations <= want.iterations

    def _fake(self, monkeypatch, f):
        monkeypatch.setattr(spectral, "char_values",
                            lambda pot, bc, lams, grid=None: np.atleast_1d(f(lams)))

    def test_exact_zero_ends_the_search(self, monkeypatch):
        self._fake(monkeypatch, lambda lam: 0.5 - np.asarray(lam))
        # the regula falsi point of the bracket is the root itself
        got = spectral._refine(None, BoundaryKind.DIRICHLET, 0.0, 1.0, 0.5, -0.5, None)
        assert (got.value, got.bracket, got.iterations) == (0.5, (0.5, 0.5), 1)
        got = spectral._refine(None, BoundaryKind.DIRICHLET, -1.0, 0.5, 1.5, 0.0, None)
        assert (got.value, got.bracket, got.iterations) == (0.5, (0.5, 0.5), 0)

    @pytest.mark.parametrize("f", [
        lambda lam: np.cbrt(0.3 - np.asarray(lam)) ** 9,          # flat root
        lambda lam: np.where(np.asarray(lam) < 0.3, 1.0, -1e-9),  # jump
        lambda lam: np.arctan(1e6 * (0.3 - np.asarray(lam))),     # steep
    ])
    def test_worst_case_is_bisection(self, f, monkeypatch):
        self._fake(monkeypatch, f)
        want = bisect(None, BoundaryKind.DIRICHLET, 0.0, 0.5, None)
        got = spectral._refine(None, BoundaryKind.DIRICHLET, 0.0, 0.5,
                               float(f(0.0)), float(f(0.5)), None)
        assert got.iterations <= want.iterations + 1
        lo, hi = got.bracket
        assert lo <= 0.3 <= hi
        assert hi - lo <= BISECT_REL_WIDTH
