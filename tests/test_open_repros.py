"""The open repros of ROADMAP.md, one strict xfail per repro.

Each test asserts the right answer or a typed refusal (a GreensignError),
and is marked xfail(strict=True) with the item it belongs to as the
reason.  A change that mends a repro turns its test into a strict XPASS,
which fails the suite; that change drops the marker.  Each test names the
exception that the defect shows as today, so that any other failure is
reported as one.
"""
import math

import numpy as np
import pytest

from greensign.cone import build_report
from greensign.errors import GreensignError, QuadratureFailure
from greensign.greens import build_kernel
from greensign.potentials import BoundaryKind, constant, sampled
from greensign.solver import Positivity, solve_linear
from greensign.spectral import SignClass, classify_sign

DIRICHLET = BoundaryKind.DIRICHLET


def samples(a, n=2001):
    """a sampled at n equally spaced points of [0, 1]."""
    grid = np.linspace(0.0, 1.0, n)
    return sampled(grid, a(grid))


def near_resonant():
    """Item 1's potential: a = 2000 sin 20 pi t - 453.73558384198225, whose
    Dirichlet lambda_0 is -1.7833e-6, but +2.0000e-6 from RK4 at 2001 nodes."""
    return samples(lambda t: 2000.0 * np.sin(20.0 * math.pi * t) - 453.73558384198225)


def const_sigma(value):
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
def test_near_resonant_dirichlet_verdict():
    try:
        verdict = classify_sign(near_resonant(), DIRICHLET)
    except GreensignError:
        return
    assert verdict is SignClass.CHANGES_SIGN


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 17")
def test_near_resonant_dirichlet_solve_is_positive():
    # the true kernel is positive near resonance at lambda_0 < 0: u = -phi_0
    # <phi_0, 1> / lambda_0 dominates
    try:
        profile = solve_linear(build_kernel(near_resonant(), DIRICHLET), const_sigma(1.0),
                               2001)
    except GreensignError:
        return
    assert profile.positivity is Positivity.POSITIVE, float(np.min(profile.values))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_steep_negative_kernel_on_a_lattice():
    # a = -k^2, k = 20: G(t, s) = -sinh(k t<) sinh(k (1 - t>)) / (k sinh k)
    k = 20.0
    ts = np.linspace(0.0, 1.0, 51)
    try:
        G = build_kernel(samples(lambda t: np.full_like(t, -k * k)), DIRICHLET).grid_eval(ts, ts)
    except GreensignError:
        return
    lo, hi = np.minimum.outer(ts, ts), np.maximum.outer(ts, ts)
    # sinh(k t<) sinh(k (1 - t>)) / sinh k, with no overflowing factor
    exact = -0.5 * (np.exp(k * (lo - hi)) - np.exp(-k * (lo + hi))
                    - np.exp(k * (lo + hi - 2.0)) + np.exp(-k * (2.0 - hi + lo))) \
        / (1.0 - np.exp(-2.0 * k)) / k
    scale = float(np.max(np.abs(exact)))
    assert np.max(np.abs(G - exact)) <= 1e-8 * scale, np.max(np.abs(G - exact)) / scale


@pytest.mark.xfail(strict=True, raises=QuadratureFailure, reason="ROADMAP item 2")
def test_negative_potential_solve_answers():
    # u'' - 100 u = 1, u(0) = u(1) = 0, a well-posed problem that the
    # cancellation guard of the separable sum refuses
    t = np.linspace(0.0, 1.0, 2001)
    exact = (np.cosh(10.0 * (t - 0.5)) / math.cosh(5.0) - 1.0) / 100.0
    u = solve_linear(build_kernel(samples(lambda t: np.full_like(t, -100.0)), DIRICHLET),
                     const_sigma(1.0), t).values
    assert np.max(np.abs(u - exact)) <= 1e-8 * np.max(np.abs(exact))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
def test_h2_sees_the_oscillation_in_x():
    # M / m over x >= 0 is 1.2 / 0.8 = 1.5, above gamma = 1.3625; the
    # eight x-samples of check_H2 read 1.1548
    f = lambda t, x: np.sin(math.pi * t) * (1.0 + 0.2 * np.sin(7.0 * x))
    report = build_report(constant(math.sqrt(60.0)), DIRICHLET, f)
    assert report.h2.passed is False, report.h2.to_dict()
