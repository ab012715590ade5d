import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import spectral
from greensign.errors import (BracketingFailure, GreensignError, NotPositive,
                              ResonantPotential, UndeterminedSign,
                              UnsupportedBoundaryKind)
from greensign.greens import build_kernel
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.spectral import (BISECT_REL_WIDTH, SIGN_DECISION_TOL, EigenResult,
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
        with pytest.raises(UndeterminedSign, match=r"periodic eigenvalue .* 1e-08 of zero"):
            classify_sign(constant(1e-5, 1.0), BoundaryKind.PERIODIC)

    @pytest.mark.parametrize("rho,bc", [
        (2 * math.pi, BoundaryKind.PERIODIC),
        (2 * math.pi, BoundaryKind.DIRICHLET),
        (math.pi, BoundaryKind.NEUMANN),
        (1.5 * math.pi, BoundaryKind.MIXED1),
    ])
    def test_no_verdict_where_no_kernel_exists(self, rho, bc):
        # 0 is a higher eigenvalue of the condition: the first ones decide
        # changes_sign, but there is no Green's function to have that sign
        for pot in (constant(rho), const_sampled(rho)):
            with pytest.raises(ResonantPotential):
                build_kernel(pot, bc)
            with pytest.raises(ResonantPotential):
                classify_sign(pot, bc)

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
        # the exact pair: no grid, so its only nodes are the ends
        for T in (1.0, 2.0):
            ef = principal_eigenfunction(constant(2.0, T), bc)
            tt = np.linspace(0.0, T, 301)
            assert np.max(np.abs(ef(tt) - closed(tt / T))) <= 1e-15
            assert list(ef.ts) == [0.0, T]

    def test_constant_antiperiodic_is_not_positive(self):
        with pytest.raises(NotPositive):
            principal_eigenfunction(constant(2.0), BoundaryKind.ANTIPERIODIC)

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

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_one_pinned_end_rule(self, bc):
        # the kernel and the eigenfunction zero the ends BoundaryKind.pinned
        # marks: 0 and T exactly, as the condition pins them
        want = [bc.pinned_ends[0], False, False, False, bc.pinned_ends[1]]
        for T in (2.5, 1.0):
            ts = np.array([0.0, 5e-324, 0.5 * T, np.nextafter(T, 0.0), T])
            assert bc.pinned(ts, T).tolist() == want
            assert bc.pinned(T, T) == want[-1]
        # ts now lies on [0, 1], the interval of wavy()
        if bc is not BoundaryKind.ANTIPERIODIC:
            assert build_kernel(wavy(), bc).pinned(ts).tolist() == want
            ef = principal_eigenfunction(wavy(), bc)
            assert ((ef(ts) == 0.0) == want).tolist() == [True] * 5

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


def bisect(potential, bc, lo, hi):
    """The scalar bisection the eigenvalue search used before; oracle."""
    char_values = spectral.char_values
    flo = float(char_values(potential, bc, lo)[0])
    iterations = 0
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        fmid = float(char_values(potential, bc, mid)[0])
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            break
    return EigenResult(0.5 * (lo + hi), bc, "shooting", iterations, (lo, hi))


def itp(potential, bc, lo, hi, flo, fhi):
    """The ITP search on one bracket, one lam per char_values call, as the
    eigenvalue search ran it before its brackets were refined together:
    an inverse quadratic estimate through the ends and the end the last
    step replaced (regula falsi where it fails), kept half a stop width
    inside the ends; oracle."""
    if fhi == 0.0:
        return EigenResult(hi, bc, "shooting", 0, (hi, hi))
    width0 = hi - lo
    kappa1 = 0.2 / width0
    iterations = 0
    old = None
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        tol = BISECT_REL_WIDTH * max(1.0, abs(lo))
        large = BISECT_REL_WIDTH * max(1.0, abs(lo), abs(hi)) * (1.0 + 1e-12)
        small = BISECT_REL_WIDTH * max(1.0, 0.0 if lo < 0.0 < hi
                                       else min(abs(lo), abs(hi)))
        budget = max(0, math.ceil(math.log2(width0 / large)))
        mid = 0.5 * (lo + hi)
        radius = max(0.0, small * 2.0 ** (budget - iterations - 1) - 0.5 * (hi - lo)
                     - 4.0 * math.ulp(max(abs(lo), abs(hi))))
        delta = kappa1 * (hi - lo) ** 2
        est = (fhi * lo - flo * hi) / (fhi - flo)
        if old is not None and old[1] not in (flo, fhi):
            c, fc = old
            iqi = (lo * fhi * fc / ((flo - fhi) * (flo - fc))
                   + hi * flo * fc / ((fhi - flo) * (fhi - fc))
                   + c * flo * fhi / ((fc - flo) * (fc - fhi)))
            if lo < iqi < hi:
                est = iqi
        est = min(max(est, lo + 0.5 * tol), hi - 0.5 * tol)
        side = math.copysign(1.0, mid - est)
        x = est + side * delta if delta <= abs(mid - est) else mid
        if abs(x - mid) > radius:
            x = mid - side * radius
        if not lo < x < hi:
            x = mid
        fx = float(spectral.char_values(potential, bc, x)[0])
        iterations += 1
        if fx == 0.0:
            return EigenResult(x, bc, "shooting", iterations, (x, x))
        if (fx > 0) == (flo > 0):
            old, lo, flo = (lo, flo), x, fx
        else:
            old, hi, fhi = (hi, fhi), x, fx
        if iterations > 200:
            break
    return EigenResult(0.5 * (lo + hi), bc, "shooting", iterations, (lo, hi))


def record_refinements(monkeypatch):
    """List that fills with ((potential, bc, lo, hi, flo, fhi), result)
    for every bracket handed to spectral._refine_all."""
    calls = []
    refine_all = spectral._refine_all

    def recording(potential, bc, brackets):
        got = refine_all(potential, bc, brackets)
        calls.extend(((potential, bc, *b), r)
                     for b, r in zip(brackets, got))
        return got

    monkeypatch.setattr(spectral, "_refine_all", recording)
    return calls


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
        calls = record_refinements(monkeypatch)
        for bc in BoundaryKind:
            smallest_eigenvalues(pot, bc, 6)
        assert len(calls) >= 30
        for (p, bc, lo0, hi0, flo, fhi), got in calls:
            assert (flo > 0) != (fhi > 0)
            want = bisect(p, bc, lo0, hi0)
            assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))
            lo, hi = got.bracket
            assert lo0 <= lo <= got.value <= hi <= hi0
            assert hi - lo <= BISECT_REL_WIDTH * max(1.0, abs(lo))
            assert got.iterations <= want.iterations

    @pytest.mark.parametrize("seed", [16, 19])
    def test_never_more_steps_than_bisection(self, seed, monkeypatch):
        # brackets on which a budget of one step beyond bisection was used
        self.test_matches_bisection_in_fewer_steps(seed, monkeypatch)

    def test_mean_steps_per_bracket(self, monkeypatch):
        # the inverse quadratic estimate and its straddle take 10.12 steps a
        # bracket here, regula falsi with the same projection 11.97
        calls = record_refinements(monkeypatch)
        for seed in (1, 2, 3, 16, 19):
            pot = trig_potential(seed)
            for bc in BoundaryKind:
                smallest_eigenvalues(pot, bc, 6)
        assert len(calls) >= 150
        assert np.mean([got.iterations for _, got in calls]) <= 10.5

    def _fake(self, monkeypatch, f):
        """Make char_values f; returns the list of lam batches it is called on."""
        seen = []

        def fake(pot, bc, lams):
            seen.append(np.atleast_1d(lams).tolist())
            return np.atleast_1d(f(lams))

        monkeypatch.setattr(spectral, "char_values", fake)
        return seen

    @staticmethod
    def _refine_one(lo, hi, flo, fhi):
        [got] = spectral._refine_all(None, BoundaryKind.DIRICHLET,
                                     [(lo, hi, flo, fhi)])
        return got

    def test_exact_zero_ends_the_search(self, monkeypatch):
        self._fake(monkeypatch, lambda lam: 0.5 - np.asarray(lam))
        # the regula falsi point of the bracket is the root itself
        got = self._refine_one(0.0, 1.0, 0.5, -0.5)
        assert (got.value, got.bracket, got.iterations) == (0.5, (0.5, 0.5), 1)
        got = self._refine_one(-1.0, 0.5, 1.5, 0.0)
        assert (got.value, got.bracket, got.iterations) == (0.5, (0.5, 0.5), 0)

    @pytest.mark.parametrize("f", [
        lambda lam: np.cbrt(0.3 - np.asarray(lam)) ** 9,          # flat root
        lambda lam: np.where(np.asarray(lam) < 0.3, 1.0, -1e-9),  # jump
        lambda lam: np.arctan(1e6 * (0.3 - np.asarray(lam))),     # steep
    ])
    def test_worst_case_is_bisection(self, f, monkeypatch):
        self._fake(monkeypatch, f)
        want = bisect(None, BoundaryKind.DIRICHLET, 0.0, 0.5)
        got = self._refine_one(0.0, 0.5, float(f(0.0)), float(f(0.5)))
        assert got.iterations <= want.iterations + 1
        lo, hi = got.bracket
        assert lo <= 0.3 <= hi
        assert hi - lo <= BISECT_REL_WIDTH

    @staticmethod
    def _mixed(lam):
        """A flat root at 0.3, a jump at 2.3, a steep root at 4.3 and a
        linear one at 6.5, which regula falsi hits at once on [6, 7]."""
        lam = np.asarray(lam)
        return np.select([lam < 1.5, lam < 3.5, lam < 5.5],
                         [np.cbrt(0.3 - lam) ** 9, np.where(lam < 2.3, 1.0, -1e-9),
                          np.arctan(1e6 * (4.3 - lam))], 6.5 - lam)

    def test_one_char_values_call_per_round(self, monkeypatch):
        f = self._mixed
        brackets = [(lo, lo + 0.5, float(f(lo)), float(f(lo + 0.5)))
                    for lo in (0.0, 2.0, 4.0)]
        brackets += [(6.0, 7.0, 0.5, -0.5), (8.0, 9.0, 1.0, 0.0)]
        # each bracket searched alone: the points it asks for, in order
        alone = []
        for b in brackets:
            seen = self._fake(monkeypatch, f)
            alone.append((itp(None, BoundaryKind.DIRICHLET, *b),
                          [lams[0] for lams in seen]))
        seen = self._fake(monkeypatch, f)
        got = spectral._refine_all(None, BoundaryKind.DIRICHLET, brackets)
        assert got == [want for want, _ in alone]
        steps = [r.iterations for r in got]
        assert len(set(steps[:3])) == 3 and steps[3:] == [1, 0]
        assert len(seen) == max(steps)
        for n, lams in enumerate(seen):
            assert lams == [xs[n] for _, xs in alone if n < len(xs)]

    def test_closed_brackets_make_no_call(self, monkeypatch):
        # a zero at the upper end, and a bracket already narrow enough
        brackets = [(8.0, 9.0, 1.0, 0.0), (1.0, 1.0 + 1e-14, 1.0, -1.0)]
        seen = self._fake(monkeypatch, self._mixed)
        got = spectral._refine_all(None, BoundaryKind.DIRICHLET, brackets)
        assert seen == []
        assert [r.iterations for r in got] == [0, 0]
        assert got == [itp(None, BoundaryKind.DIRICHLET, *b) for b in brackets]


class TestLockstep:
    """Brackets refined together take, bit for bit, the steps the ITP
    search takes on each alone."""

    @staticmethod
    def _check(pot, bc, count):
        with pytest.MonkeyPatch.context() as mp:
            calls = record_refinements(mp)
            results = smallest_eigenvalues(pot, bc, count)
        for args, got in calls:
            assert got == itp(*args)
        # every refinement is a result; the others are closed-gap doubles,
        # reported at the middle of a bracket whose count rises by two
        refined = [any(r is got for _, got in calls) for r in results]
        assert len(calls) == refined.count(True)
        for r in (r for r, ref in zip(results, refined) if not ref):
            lo, hi = r.bracket
            assert r.value == 0.5 * (lo + hi)
            counts = spectral._counted(pot, bc, np.array([lo, hi]))[0]
            assert counts[1] - counts[0] == 2
        return calls

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_narrow_gap_equals_sequential_search(self, bc):
        assert len(self._check(trig_samples(*REPRO_A), bc, 8)) >= 8

    @given(st.floats(0.0, 100.0),
           st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
           st.sampled_from(list(BoundaryKind)), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    @example(0.0, [0.0] * 8, BoundaryKind.ANTIPERIODIC, 1)
    @example(5.0, [0.0] * 8, BoundaryKind.ANTIPERIODIC, 1)
    @example(30.0, [0.0] * 8, BoundaryKind.ANTIPERIODIC, 1)
    def test_random_potential_equals_sequential_search(self, mean, coef, bc, count):
        modes = [(k, coef[2 * k - 2], coef[2 * k - 1]) for k in range(1, 5)]
        self._check(trig_samples(mean, modes), bc, count)


# ------------------------------------------------- index brackets: oracles

def trig_samples(mean, modes, n=2001):
    """Samples on n nodes of a = mean + sum c cos 2 pi k t + s sin 2 pi k t,
    modes a list of (k, c, s)."""
    g = np.linspace(0.0, 1.0, n)
    a = np.full_like(g, float(mean))
    for k, c, s in modes:
        a += c * np.cos(2 * math.pi * k * g) + s * np.sin(2 * math.pi * k * g)
    return sampled(g, a)


def hill_eigenvalues(mean, modes, bc, count=6, n=2001, size=40):
    """Oracle: the count smallest eigenvalues of -u'' - a u for the linear
    interpolant of trig_samples(mean, modes, n).

    The interpolant's Fourier coefficient at a harmonic k well below n is
    that of a times sinc(k / (n - 1))**2; its harmonics near multiples of
    n - 1 move these eigenvalues far less than the tolerances used here.
    Periodic and antiperiodic spectra come from the banded Fourier (Hill)
    matrix on exp(2 pi i (j + shift) t), the separated ones from Galerkin
    matrices on the sine or cosine eigenbasis of -u''.
    """
    damped = [(k, c * np.sinc(k / (n - 1)) ** 2, s * np.sinc(k / (n - 1)) ** 2)
              for k, c, s in modes]
    if bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC):
        j = np.arange(-size, size + 1) + (0.0 if bc is BoundaryKind.PERIODIC else 0.5)
        H = np.diag((2 * math.pi * j) ** 2 - mean).astype(complex)
        for k, c, s in damped:
            # c cos + s sin couples harmonic j to j + k by (c - i s) / 2
            H -= np.diag(np.full(len(j) - k, (c - 1j * s) / 2), -k)
            H -= np.diag(np.full(len(j) - k, (c + 1j * s) / 2), k)
        return np.linalg.eigvalsh(H)[:count]
    x, w = np.polynomial.legendre.leggauss(512)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    a = mean + sum(c * np.cos(2 * math.pi * k * x) + s * np.sin(2 * math.pi * k * x)
                   for k, c, s in damped)
    freq, trig = {BoundaryKind.DIRICHLET: (1.0, np.sin),
                  BoundaryKind.NEUMANN: (0.0, np.cos),
                  BoundaryKind.MIXED1: (0.5, np.cos),
                  BoundaryKind.MIXED2: (0.5, np.sin)}[bc]
    om = math.pi * (np.arange(2 * size) + freq)
    basis = math.sqrt(2) * trig(np.outer(om, x))
    if bc is BoundaryKind.NEUMANN:
        basis[0] = 1.0
    H = np.diag(om ** 2) - (basis * (a * w)) @ basis.T
    return np.linalg.eigvalsh(H)[:count]


REPRO_A = (30.0, [(1, 0.01, 0.0), (3, 5.0, 0.0)])
# period 1/2: every antiperiodic gap is closed, and the first bands are
# about 2e-8 wide
HALF_PERIOD = (0.0, [(2, 0.0, 2000.0)])
# period 1/3: only every third gap is open; Phi(T) reaches 1.8e9 at lam = -600
THIRD_PERIOD = (-178.73708305586453,
                [(3, 829.1949083102487, 868.9420289184159)])
# the antiperiodic spectrum job of the benchmark's spectrum workload, seed 7
SEED7 = (31.62023001615959,
         [(1, 2.7772019709269546, 0.32915057101191003),
          (2, 1.1177373355402098, 0.06217789040279964),
          (3, 1.934167578894857, 2.970715013543045),
          (4, -3.2680351594956347, -1.1098875278867393)])


class TestNarrowGaps:
    """Cases a fixed-step scan of lam got wrong: a narrow gap skipped, or
    an open pair reported as a double eigenvalue."""

    def test_skipped_gap_gives_antiperiodic_first(self):
        pot = trig_samples(*REPRO_A)
        got = smallest_eigenvalue(pot, BoundaryKind.ANTIPERIODIC).value
        want = hill_eigenvalues(*REPRO_A, BoundaryKind.ANTIPERIODIC)[0]
        assert got == pytest.approx(-20.174969, abs=1e-6)
        assert got == pytest.approx(want, abs=1e-7)
        # lam_P < 0 < ... and lam'_1 < 0: the periodic kernel changes sign
        assert classify_sign(pot, BoundaryKind.PERIODIC) is SignClass.CHANGES_SIGN

    @pytest.mark.parametrize("eps", [0.3, 2.0])
    def test_even_potential_pairs_resolved(self, eps):
        case = (60.0, [(2, eps, 0.0)])
        got = np.array([r.value for r in smallest_eigenvalues(
            trig_samples(*case), BoundaryKind.PERIODIC, 6)])
        want = hill_eigenvalues(*case, BoundaryKind.PERIODIC)
        assert_allclose(got, want, rtol=1e-8, atol=1e-8)
        for i in (1, 3):
            assert got[i + 1] - got[i] > 0.9 * (want[i + 1] - want[i]) > 0

    def test_benchmark_antiperiodic_pair(self):
        got = [r.value for r in smallest_eigenvalues(
            trig_samples(*SEED7), BoundaryKind.ANTIPERIODIC, 6)]
        assert got[4] == pytest.approx(215.1272, abs=1e-4)
        assert got[5] == pytest.approx(215.1762, abs=1e-4)

    def test_wavy_periodic_pair(self):
        got = [r.value for r in smallest_eigenvalues(wavy(), BoundaryKind.PERIODIC, 6)]
        assert got[3] == pytest.approx(97.997867, abs=5e-6)
        assert got[4] == pytest.approx(97.998430, abs=5e-6)

    @pytest.mark.parametrize("case,bc", [(HALF_PERIOD, BoundaryKind.ANTIPERIODIC),
                                         (THIRD_PERIOD, BoundaryKind.PERIODIC)])
    def test_closed_gaps_of_a_shorter_period(self, case, bc):
        got = [r.value for r in smallest_eigenvalues(trig_samples(*case), bc, 8)]
        want = hill_eigenvalues(*case, bc, count=8, size=120)
        # RK4 moves these by up to 1.3e-8 relative
        assert_allclose(got, want, rtol=1e-7)

    def test_closed_gap_of_constant_samples(self):
        # Phi(T) = I at the double eigenvalue 4 pi^2 - 9, where Delta - 2
        # formed as trace - 2 cancels to rounding (4.8e-9 off)
        g = np.linspace(0.0, 1.0, 2001)
        got = [r.value for r in smallest_eigenvalues(
            sampled(g, np.full(2001, 9.0)), BoundaryKind.PERIODIC, 3)]
        assert_allclose(got[1:], 4 * math.pi**2 - 9, rtol=1e-9)


@st.composite
def trig_cases(draw):
    """Random trig potentials: generic, even (cosines only), with some
    harmonics scaled down so their gaps are narrow, or closed: of period
    1/2 (harmonics 2 and 4) or 1/3 (harmonic 3), so that every odd gap, or
    every gap but each third, has closed."""
    flavor = draw(st.sampled_from(["generic", "even", "narrow", "closed"]))
    kept = draw(st.sampled_from([(2, 4), (3,)])) if flavor == "closed" else range(1, 5)
    coef = st.floats(-4.0, 4.0, allow_nan=False)
    modes = []
    for k in range(1, 5):
        c, s = draw(coef), draw(coef)
        if flavor == "even":
            s = 0.0
        if flavor == "narrow" and draw(st.booleans()):
            c, s = 1e-3 * c, 1e-3 * s
        if k not in kept:
            c = s = 0.0
        modes.append((k, c, s))
    return draw(st.floats(0.0, 100.0)), modes


class TestHillOracle:
    @given(trig_cases())
    @settings(max_examples=15, deadline=None)
    def test_six_smallest_match(self, case):
        pot = trig_samples(*case)
        for bc in BoundaryKind:
            got = np.array([r.value for r in smallest_eigenvalues(pot, bc, 6)])
            want = hill_eigenvalues(*case, bc)
            assert_allclose(got, want, rtol=1e-7, atol=1e-7)
            gaps = np.diff(want)
            assert np.all(np.diff(got)[gaps >= 1e-5] > 0.5 * gaps[gaps >= 1e-5])


class TestPairedCounts:
    @given(trig_cases(), st.sampled_from([BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC]),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_count_matches_hill_oracle(self, case, bc, where):
        # the count at lam is the number of oracle eigenvalues below it, up
        # to the twelfth, away from each by more than RK4 moves them
        want = hill_eigenvalues(*case, bc, count=12)
        lams = want[0] - 10.0 + (want[-1] - want[0] + 10.0) * np.array(where)
        apart = np.all(np.abs(lams[:, None] - want)
                       > 1e-6 * np.maximum(1.0, np.abs(lams))[:, None], axis=1)
        assume(apart.any())
        lams = lams[apart]
        got = spectral._counted(trig_samples(*case), bc, lams)[0]
        assert np.array_equal(got, np.sum(want < lams[:, None], axis=1))

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_large_monodromy_refused_or_right(self, bc):
        # u1's lifted angle, derived through det Phi(T), reads -1 eigenvalues
        # below lam = -600 for this potential, where max |Phi(T)| is 1.8e9:
        # the separated counts off it may refuse, but never answer wrong
        pot = trig_samples(*THIRD_PERIOD)
        try:
            got = [r.value for r in smallest_eigenvalues(pot, bc, 6)]
        except GreensignError:
            return
        want = hill_eigenvalues(*THIRD_PERIOD, bc, size=120)
        assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_large_monodromy_right(self, bc):
        # rounding may give the computed det Phi(T) the wrong sign there, but
        # u1's lifted angle does not read it: the counts and the eigenvalues
        # are right under every condition
        pot = trig_samples(*THIRD_PERIOD)
        want = hill_eigenvalues(*THIRD_PERIOD, bc, size=120)
        count = spectral._counted(pot, bc, np.array([-600.0]))[0]
        assert count.tolist() == [np.sum(want < -600.0)]
        got = [r.value for r in smallest_eigenvalues(pot, bc, 6)]
        assert_allclose(got, want, rtol=1e-6, atol=1e-6)


def record_shifts(monkeypatch):
    """A list that fills with every shift of every monodromy pass, plain or
    lifted, from the patch on."""
    seen = []
    real = spectral.transfer_matrix

    def recording(pot, lams, lift=False):
        seen.extend(np.atleast_1d(lams).tolist())
        return real(pot, lams, lift)

    monkeypatch.setattr(spectral, "transfer_matrix", recording)
    return seen


class TestIndexBrackets:
    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_lam_evaluations_are_bounded(self, bc, monkeypatch):
        pot = wavy()
        spectral.char_values(pot, bc, 0.0)        # build the step table
        seen = record_shifts(monkeypatch)
        smallest_eigenvalues(pot, bc, 6)
        assert len(seen) <= 150
        seen.clear()
        smallest_eigenvalue(pot, bc)
        assert len(seen) <= 50

    def test_large_entries_keep_trace_finite(self):
        # at lam = -sup - 1 the entries of Phi(T) reach about 5e13 for this
        # potential, and a determinant computed from them is rounding only
        g = np.linspace(0.0, 1.0, 2001)
        pot = sampled(g, 1000.0 * np.sin(2 * math.pi * g))
        for bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC):
            assert char_values(pot, bc, -pot.sup_norm - 1.0)[0] > 0

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN,
                                    BoundaryKind.PERIODIC])
    def test_contradicting_signs_raise(self, bc, monkeypatch):
        real = spectral.char_values

        def positive_for_bc(pot, kind, lams):
            out = real(pot, kind, lams)
            return np.abs(out) + 1.0 if kind is bc else out

        monkeypatch.setattr(spectral, "char_values", positive_for_bc)
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(wavy(), bc, 6)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN,
                                    BoundaryKind.PERIODIC])
    def test_contradicting_counted_signs_raise(self, bc, monkeypatch):
        # the ends that a count pass added carry that pass's values, which
        # the sign check reads as it reads char_values at the others
        real = spectral._counted

        def positive_for_bc(pot, kind, lams):
            out, f = real(pot, kind, lams)
            return out, np.abs(f) + 1.0 if kind is bc else f

        monkeypatch.setattr(spectral, "_counted", positive_for_bc)
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(wavy(), bc, 6)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN])
    def test_decreasing_count_raises(self, bc, monkeypatch):
        real = spectral._counted

        def reversed_count(pot, kind, lams):
            out, f = real(pot, kind, lams)
            return 100 - out, f

        monkeypatch.setattr(spectral, "_counted", reversed_count)
        # a = 2000 sin 2 pi t: its windows overlap, so counts are taken
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(trig_samples(0.0, [(1, 0.0, 2000.0)]), bc, 3)

    def test_count_that_never_separates_raises(self, monkeypatch):
        real = spectral._counted

        def no_eigenvalues(pot, kind, lams):
            out, f = real(pot, kind, lams)
            return 0 * out, f

        monkeypatch.setattr(spectral, "_counted", no_eigenvalues)
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(trig_samples(0.0, [(1, 0.0, 2000.0)]),
                                 BoundaryKind.DIRICHLET, 3)


class TestEachShiftOnce:
    """No shift reaches the monodromy pass twice in one request: bracket
    ends read the characteristic values their count pass left."""

    POTENTIALS = {"trig-1": lambda: trig_potential(1),
                  "trig-2": lambda: trig_potential(2),
                  "trig-3": lambda: trig_potential(3),
                  "half-period": lambda: trig_samples(*HALF_PERIOD)}

    @pytest.mark.parametrize("name", sorted(POTENTIALS))
    def test_no_shift_is_evaluated_twice(self, name, monkeypatch):
        pot = self.POTENTIALS[name]()
        seen = record_shifts(monkeypatch)
        requests = [(smallest_eigenvalues, bc, 6) for bc in BoundaryKind]
        requests += [(smallest_eigenvalue, bc) for bc in KERNEL_KINDS]
        for find, *args in requests:
            seen.clear()
            find(pot, *args)
            assert seen and len(set(seen)) == len(seen)


class TestWideWindows:
    """Comparison windows that overlap by the dozen: large amplitudes, high
    indices, coarse grids."""

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_large_amplitude_matches_oracle(self, bc):
        case = (0.0, [(1, 0.0, 2000.0)])
        pot = trig_samples(*case)
        got = np.array([r.value for r in smallest_eigenvalues(pot, bc, 3)])
        want = hill_eigenvalues(*case, bc, count=3, size=120)
        # RK4 moves these by about h**4 (lam + max a)**3 / 60 ~ 1e-5
        assert_allclose(got, want, rtol=0, atol=1e-4)
        assert smallest_eigenvalue(pot, bc).value == pytest.approx(got[0], rel=1e-11)
        if bc is not BoundaryKind.ANTIPERIODIC:
            assert classify_sign(pot, bc) is SignClass.CHANGES_SIGN

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN,
                                    BoundaryKind.PERIODIC])
    def test_many_eigenvalues_on_a_coarse_grid(self, bc):
        pot = replace(wavy(101), grid_size=101)
        vals = np.array([r.value for r in smallest_eigenvalues(pot, bc, 30)])
        assert np.all(np.diff(vals) >= 0)
        if bc is not BoundaryKind.PERIODIC:
            below = spectral._counted(pot, bc, vals - 1e-6 * np.abs(vals))[0]
            above = spectral._counted(pot, bc, vals + 1e-6 * np.abs(vals))[0]
            assert np.array_equal(below, np.arange(30))
            assert np.array_equal(above, np.arange(1, 31))

    def test_three_hundred_dirichlet_eigenvalues(self):
        vals = np.array([r.value for r in smallest_eigenvalues(
            wavy(), BoundaryKind.DIRICHLET, 300)])
        assert np.all(np.diff(vals) > 0)
        free = (math.pi * np.arange(1, 301)) ** 2
        assert np.all(np.abs(vals - free + 60.0) < 10.0 + 1e-13 * free**3)


# ------------------------------------------------- sign verdicts: oracles

#: the spectra, besides its own, that decide a kernel's sign class
COMPARED = {BoundaryKind.PERIODIC: [BoundaryKind.ANTIPERIODIC],
            BoundaryKind.NEUMANN: [BoundaryKind.MIXED1, BoundaryKind.MIXED2]}


def verdict(first, bc):
    """The sign class by the rule on refined first eigenvalues, first(kind)
    the smallest eigenvalue of a kind: one within SIGN_DECISION_TOL of zero
    decides nothing; oracle."""
    def decided(kinds):
        lam = min(first(k) for k in kinds)
        if abs(lam) < SIGN_DECISION_TOL:
            raise UndeterminedSign(f"{kinds} eigenvalue {lam:.3e}")
        return lam

    if decided([bc]) > 0:
        return SignClass.NON_POSITIVE
    if bc in COMPARED and decided(COMPARED[bc]) > 0:
        return SignClass.NON_NEGATIVE
    return SignClass.CHANGES_SIGN


def search_verdict(potential, bc):
    """verdict on the eigenvalues the ITP search refines, or UndeterminedSign."""
    try:
        return verdict(lambda k: smallest_eigenvalue(potential, k).value, bc)
    except UndeterminedSign:
        return UndeterminedSign


def count_verdict(potential, bc):
    """classify_sign's verdict, or UndeterminedSign."""
    try:
        return classify_sign(potential, bc)
    except UndeterminedSign:
        return UndeterminedSign


def shifted(mean, modes, kinds, target):
    """trig_samples(mean, modes) moved by a constant so that the smallest
    first eigenvalue of kinds lies at target, up to rounding."""
    lam = min(smallest_eigenvalue(trig_samples(mean, modes), k).value for k in kinds)
    return trig_samples(mean + lam - target, modes)


@st.composite
def verdict_cases(draw):
    """Random trig potentials under a kernel kind.  With near, the first
    eigenvalue of the kind (own) or of its compared spectra (other) is
    moved to +-(0.5..3) SIGN_DECISION_TOL.  Multiples within 1e-3 of 1 are
    not drawn: there the eigenvalue can lie within ITP's last bracket
    (1e-13) of the tolerance, where either rule may fall either way."""
    coef = st.floats(-4.0, 4.0, allow_nan=False)
    modes = [(k, draw(coef), draw(coef)) for k in range(1, 5)]
    bc = draw(st.sampled_from(KERNEL_KINDS))
    near = draw(st.sampled_from([None, "own", "other"]))
    x = draw(st.floats(0.5, 3.0).filter(lambda x: abs(x - 1.0) > 1e-3))
    return (draw(st.floats(-20.0, 60.0)), modes, bc, near,
            draw(st.sampled_from([-1.0, 1.0])) * x * SIGN_DECISION_TOL)


class TestSignVerdict:
    """classify_sign counts eigenvalues at -+SIGN_DECISION_TOL; the verdict
    is the one the refined first eigenvalues give."""

    @given(verdict_cases())
    @settings(max_examples=40, deadline=None)
    def test_count_rule_matches_search(self, case):
        mean, modes, bc, near, target = case
        if near is None:
            pot = trig_samples(mean, modes)
        else:
            kinds = COMPARED[bc] if near == "other" and bc in COMPARED else [bc]
            pot = shifted(mean, modes, kinds, target)
        assert count_verdict(pot, bc) is search_verdict(pot, bc)

    @pytest.mark.parametrize("bc", KERNEL_KINDS)
    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.5, 2.0])
    def test_first_eigenvalue_at_the_tolerance(self, bc, x):
        pot = shifted(*SEED7, [bc], x * SIGN_DECISION_TOL)
        want = search_verdict(pot, bc)
        assert (want is UndeterminedSign) == (abs(x) < 1.0)
        assert count_verdict(pot, bc) is want

    def test_zero_in_a_higher_gap(self):
        # 0 lies in the second periodic gap, about (-2, 2), where Hill's
        # discriminant is above 2 as it is below lam_0; the Dirichlet
        # count tells the two apart
        pot = trig_samples(4 * math.pi**2, [(2, 4.0, 0.0)])
        bc = BoundaryKind.PERIODIC
        lam = [r.value for r in smallest_eigenvalues(pot, bc, 3)]
        assert lam[1] < -1.0 and lam[2] > 1.0
        assert classify_sign(pot, bc) is SignClass.CHANGES_SIGN is search_verdict(pot, bc)

    @given(st.floats(-20.0, 60.0),
           st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
           st.sampled_from(KERNEL_KINDS))
    @settings(max_examples=25, deadline=None)
    def test_matches_hill_oracle(self, mean, coef, bc):
        modes = [(k, coef[2 * k - 2], coef[2 * k - 1]) for k in range(1, 5)]
        first = {k: hill_eigenvalues(mean, modes, k, count=1)[0]
                 for k in [bc, *COMPARED.get(bc, [])]}
        assume(all(abs(lam) > 1e-3 for lam in first.values()))
        assert classify_sign(trig_samples(mean, modes), bc) is verdict(first.get, bc)

    def test_one_monodromy_pass(self, monkeypatch):
        calls = []
        transfer_matrix = spectral.transfer_matrix

        def recording(potential, lam, lift=False):
            calls.append((np.array(lam).tolist(), lift))
            return transfer_matrix(potential, lam, lift)

        def no_search(*args):
            raise AssertionError("an ITP search was started")

        monkeypatch.setattr(spectral, "transfer_matrix", recording)
        monkeypatch.setattr(spectral, "_itp", no_search)
        pot = trig_potential(1)
        for bc in KERNEL_KINDS:
            calls.clear()
            classify_sign(pot, bc)
            assert calls == [([-SIGN_DECISION_TOL, SIGN_DECISION_TOL], True)]

