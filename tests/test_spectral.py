import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from greensign import spectral
from greensign.errors import (BracketingFailure, ResonantPotential,
                              UndeterminedSign, UnsupportedBoundaryKind)
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


def itp(potential, bc, lo, hi, flo, fhi, grid_size):
    """The ITP search on one bracket, one lam per char_values call, as the
    eigenvalue search ran it before its brackets were refined together;
    oracle."""
    if fhi == 0.0:
        return EigenResult(hi, bc, "shooting", 0, (hi, hi))
    width0 = hi - lo
    kappa1 = 0.2 / width0
    iterations = 0
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        large = BISECT_REL_WIDTH * max(1.0, abs(lo), abs(hi)) * (1.0 + 1e-12)
        small = BISECT_REL_WIDTH * max(1.0, 0.0 if lo < 0.0 < hi
                                       else min(abs(lo), abs(hi)))
        budget = max(0, math.ceil(math.log2(width0 / large)))
        mid = 0.5 * (lo + hi)
        radius = max(0.0, small * 2.0 ** (budget - iterations - 1) - 0.5 * (hi - lo)
                     - 4.0 * math.ulp(max(abs(lo), abs(hi))))
        delta = kappa1 * (hi - lo) ** 2
        falsi = (fhi * lo - flo * hi) / (fhi - flo)
        side = math.copysign(1.0, mid - falsi)
        x = falsi + side * delta if delta <= abs(mid - falsi) else mid
        if abs(x - mid) > radius:
            x = mid - side * radius
        if not lo < x < hi:
            x = mid
        fx = float(spectral.char_values(potential, bc, x, grid_size)[0])
        iterations += 1
        if fx == 0.0:
            return EigenResult(x, bc, "shooting", iterations, (x, x))
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if iterations > 200:
            break
    return EigenResult(0.5 * (lo + hi), bc, "shooting", iterations, (lo, hi))


def record_refinements(monkeypatch):
    """List that fills with ((potential, bc, lo, hi, flo, fhi, grid_size),
    result) for every bracket handed to spectral._refine_all."""
    calls = []
    refine_all = spectral._refine_all

    def recording(potential, bc, brackets, grid_size):
        got = refine_all(potential, bc, brackets, grid_size)
        calls.extend(((potential, bc, *b, grid_size), r)
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
        for (p, bc, lo0, hi0, flo, fhi, grid), got in calls:
            assert (flo > 0) != (fhi > 0)
            want = bisect(p, bc, lo0, hi0, grid)
            assert abs(got.value - want.value) <= 1e-10 * max(1.0, abs(want.value))
            lo, hi = got.bracket
            assert lo0 <= lo <= got.value <= hi <= hi0
            assert hi - lo <= BISECT_REL_WIDTH * max(1.0, abs(lo))
            assert got.iterations <= want.iterations

    @pytest.mark.parametrize("seed", [16, 19])
    def test_never_more_steps_than_bisection(self, seed, monkeypatch):
        # brackets on which a budget of one step beyond bisection was used
        self.test_matches_bisection_in_fewer_steps(seed, monkeypatch)

    def _fake(self, monkeypatch, f):
        """Make char_values f; returns the list of lam batches it is called on."""
        seen = []

        def fake(pot, bc, lams, grid=None):
            seen.append(np.atleast_1d(lams).tolist())
            return np.atleast_1d(f(lams))

        monkeypatch.setattr(spectral, "char_values", fake)
        return seen

    @staticmethod
    def _refine_one(lo, hi, flo, fhi):
        [got] = spectral._refine_all(None, BoundaryKind.DIRICHLET,
                                     [(lo, hi, flo, fhi)], None)
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
        want = bisect(None, BoundaryKind.DIRICHLET, 0.0, 0.5, None)
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
            alone.append((itp(None, BoundaryKind.DIRICHLET, *b, None),
                          [lams[0] for lams in seen]))
        seen = self._fake(monkeypatch, f)
        got = spectral._refine_all(None, BoundaryKind.DIRICHLET, brackets, None)
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
        got = spectral._refine_all(None, BoundaryKind.DIRICHLET, brackets, None)
        assert seen == []
        assert [r.iterations for r in got] == [0, 0]
        assert got == [itp(None, BoundaryKind.DIRICHLET, *b, None) for b in brackets]


class TestLockstep:
    """Brackets refined together take, bit for bit, the steps the ITP
    search takes on each alone."""

    @staticmethod
    def _check(pot, bc, count):
        with pytest.MonkeyPatch.context() as mp:
            calls = record_refinements(mp)
            smallest_eigenvalues(pot, bc, count)
        for args, got in calls:
            assert got == itp(*args)
        return calls

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_narrow_gap_equals_sequential_search(self, bc):
        assert len(self._check(trig_samples(*REPRO_A), bc, 8)) >= 8

    @given(st.floats(0.0, 100.0),
           st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
           st.sampled_from(list(BoundaryKind)), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_potential_equals_sequential_search(self, mean, coef, bc, count):
        modes = [(k, coef[2 * k - 2], coef[2 * k - 1]) for k in range(1, 5)]
        assert self._check(trig_samples(mean, modes), bc, count)


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

    def test_closed_gap_of_constant_samples(self):
        # Phi(T) = I at the double eigenvalue 4 pi^2 - 9, where Delta - 2
        # formed as trace - 2 cancels to rounding (4.8e-9 off)
        g = np.linspace(0.0, 1.0, 2001)
        got = [r.value for r in smallest_eigenvalues(
            sampled(g, np.full(2001, 9.0)), BoundaryKind.PERIODIC, 3)]
        assert_allclose(got[1:], 4 * math.pi**2 - 9, rtol=1e-9)


@st.composite
def trig_cases(draw):
    """Random trig potentials: generic, even (cosines only), or with some
    harmonics scaled down so their gaps are narrow."""
    flavor = draw(st.sampled_from(["generic", "even", "narrow"]))
    coef = st.floats(-4.0, 4.0, allow_nan=False)
    modes = []
    for k in range(1, 5):
        c, s = draw(coef), draw(coef)
        if flavor == "even":
            s = 0.0
        if flavor == "narrow" and draw(st.booleans()):
            c, s = 1e-3 * c, 1e-3 * s
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


class TestIndexBrackets:
    def _counting(self, monkeypatch):
        seen = [0]
        real = spectral.char_values

        def counting(pot, bc, lams, grid=None, **kw):
            out = real(pot, bc, lams, grid, **kw)
            seen[0] += out.size
            return out

        monkeypatch.setattr(spectral, "char_values", counting)
        return seen

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_lam_evaluations_are_bounded(self, bc, monkeypatch):
        pot = wavy()
        spectral.char_values(pot, bc, 0.0)        # build the step table
        seen = self._counting(monkeypatch)
        smallest_eigenvalues(pot, bc, 6)
        paired = bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC)
        assert seen[0] <= (400 if paired else 150)
        seen[0] = 0
        smallest_eigenvalue(pot, bc)
        assert seen[0] <= 50

    def test_large_entries_keep_trace_finite(self):
        # at lam = -sup - 1 the entries of Phi(T) reach about 5e13 for this
        # potential, and a determinant computed from them is rounding only
        g = np.linspace(0.0, 1.0, 2001)
        pot = sampled(g, 1000.0 * np.sin(2 * math.pi * g))
        for bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC):
            assert char_values(pot, bc, -pot.sup_norm - 1.0)[0] > 0

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET,     # counted bracket
                                    BoundaryKind.NEUMANN,
                                    BoundaryKind.PERIODIC])     # Hill bracket
    def test_contradicting_signs_raise(self, bc, monkeypatch):
        real = spectral.char_values

        def positive_for_bc(pot, kind, lams, grid=None, count=False):
            out = real(pot, kind, lams, grid, count)
            return np.abs(out) + 1.0 if kind is bc and not count else out

        monkeypatch.setattr(spectral, "char_values", positive_for_bc)
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(wavy(), bc, 6)

    @pytest.mark.parametrize("bc", [BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN])
    def test_decreasing_count_raises(self, bc, monkeypatch):
        real = spectral.char_values

        def reversed_count(pot, kind, lams, grid=None, count=False):
            out = real(pot, kind, lams, grid, count)
            return 100 - out if count else out

        monkeypatch.setattr(spectral, "char_values", reversed_count)
        # a = 2000 sin 2 pi t: its windows overlap, so counts are taken
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(trig_samples(0.0, [(1, 0.0, 2000.0)]), bc, 3)

    def test_count_that_never_separates_raises(self, monkeypatch):
        real = spectral.char_values

        def no_eigenvalues(pot, kind, lams, grid=None, count=False):
            out = real(pot, kind, lams, grid, count)
            return 0 * out if count else out

        monkeypatch.setattr(spectral, "char_values", no_eigenvalues)
        with pytest.raises(BracketingFailure):
            smallest_eigenvalues(trig_samples(0.0, [(1, 0.0, 2000.0)]),
                                 BoundaryKind.DIRICHLET, 3)


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
        pot = wavy(101)
        vals = np.array([r.value for r in smallest_eigenvalues(pot, bc, 30, 101)])
        assert np.all(np.diff(vals) >= 0)
        if bc is not BoundaryKind.PERIODIC:
            below = char_values(pot, bc, vals - 1e-6 * np.abs(vals), 101, count=True)
            above = char_values(pot, bc, vals + 1e-6 * np.abs(vals), 101, count=True)
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

        def recording(potential, lam, grid_size, lift=False):
            calls.append((np.array(lam).tolist(), lift))
            return transfer_matrix(potential, lam, grid_size, lift)

        def no_search(*args):
            raise AssertionError("an ITP search was started")

        monkeypatch.setattr(spectral, "transfer_matrix", recording)
        monkeypatch.setattr(spectral, "_itp", no_search)
        pot = trig_potential(1)
        for bc in KERNEL_KINDS:
            calls.clear()
            classify_sign(pot, bc)
            assert calls == [([-SIGN_DECISION_TOL, SIGN_DECISION_TOL], True)]

