"""Acceptance gate: nine numbered criteria, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Each criterion is a single test so the gate maps one-to-one onto
the release checklist; tolerances are pinned here and nowhere else.
"""
import functools
import math
import time

import numpy as np
import pytest

from greensign import (BoundaryKind, GammaResult, NumericKernel, SignClass,
                       build_kernel, check_H2, classify_sign, constant,
                       gamma_dirichlet_closed, gamma_periodic_closed,
                       gamma_quadrature, principal_eigenfunction, sampled,
                       smallest_eigenvalue, solve_linear)
from greensign.greens import DirichletConstantKernel, PeriodicConstantKernel

RHO_D = math.sqrt(60.0)
BK = BoundaryKind


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} [{label}]: FAIL")
                raise
            print(f"\nACCEPTANCE {num} [{label}]: PASS")
        return wrapper
    return deco


def uniform(n=2001, T=1.0):
    return np.linspace(0.0, T, n)


@criterion(1, "clamped sign-ratio constant")
def test_c1_clamped_gamma_value():
    start = time.perf_counter()
    closed = gamma_dirichlet_closed(RHO_D)
    assert closed.value == pytest.approx(1.3629, abs=0.005)
    assert closed.value > 4.0 / 3.0
    kernel = DirichletConstantKernel(RHO_D)
    weight = principal_eigenfunction(constant(RHO_D), BK.DIRICHLET)
    quad = gamma_quadrature(kernel, weight)
    assert abs(quad.value - closed.value) <= 1e-5
    assert time.perf_counter() - start < 5.0


@criterion(2, "positive and sign-changing example profiles")
def test_c2_example_profiles():
    kernel = DirichletConstantKernel(RHO_D)

    start = time.perf_counter()
    pos = solve_linear(kernel, lambda s: s * (1.0 - s), 2001)
    assert time.perf_counter() - start < 5.0
    assert np.min(pos.values[1:-1]) > 0
    assert pos.bc_error <= 1e-9
    assert pos.residual_norm <= 1e-5

    start = time.perf_counter()
    mixed = solve_linear(kernel, lambda s: s, 2001)
    assert time.perf_counter() - start < 5.0
    assert np.min(mixed.values) < 0 < np.max(mixed.values)


@criterion(3, "periodic kernel normalization")
def test_c3_periodic_normalization():
    ts = np.linspace(0.0, 1.0, 20)
    for rho in (1.0, 1.5 * math.pi, 5.0, 11.0):
        kernel = PeriodicConstantKernel(rho)
        profile = solve_linear(kernel, lambda s: np.ones_like(s), ts)
        assert np.max(np.abs(profile.values - 1.0 / rho**2)) <= 1e-8


@criterion(4, "coefficient right-hand side returns one")
def test_c4_coefficient_rhs_identity():
    kernel = PeriodicConstantKernel(1.5 * math.pi)
    profile = solve_linear(kernel, lambda s: np.full_like(s, (1.5 * math.pi) ** 2), 401)
    assert np.max(np.abs(profile.values - 1.0)) <= 1e-7

    grid = uniform()
    pot = sampled(grid, 60.0 + 10.0 * np.sin(2 * math.pi * grid))
    profile = solve_linear(build_kernel(pot, BK.PERIODIC), pot, 501)
    assert np.max(np.abs(profile.values - 1.0)) <= 1e-7


@criterion(5, "periodic closed forms against the quadrature oracle")
def test_c5_periodic_gamma_cases():
    plain = (1.3, 1.6, 5.4, 3.2, 3.6, 3.85, 4.2, 4.6, 4.9)
    flagged = (2.3, 2.7, 6.5)
    for x in plain + flagged:
        rho = x * math.pi
        closed = gamma_periodic_closed(rho)
        quad = gamma_quadrature(PeriodicConstantKernel(rho), None,
                                t_grid_size=11)
        if x in flagged:
            assert closed.note is not None
            assert quad.value > 1.0
        else:
            assert closed.note is None
            assert abs(closed.value - quad.value) <= 1e-6


@criterion(6, "shooting eigenvalues and sign classification")
def test_c6_eigenvalues_and_classification():
    for rho in (1.0, 5.0, 9.0):
        pot = sampled(uniform(), np.full(2001, rho * rho))
        expected = {
            BK.PERIODIC: -rho**2,
            BK.ANTIPERIODIC: math.pi**2 - rho**2,
            BK.DIRICHLET: math.pi**2 - rho**2,
            BK.MIXED1: (math.pi / 2.0) ** 2 - rho**2,
            BK.MIXED2: (math.pi / 2.0) ** 2 - rho**2,
        }
        for bc, lam in expected.items():
            assert abs(smallest_eigenvalue(pot, bc).value - lam) <= 1e-6

    grid = uniform()
    ten = [
        (constant(0.5), BK.PERIODIC),
        (constant(1.5 * math.pi), BK.PERIODIC),
        (sampled(grid, 60 + 10 * np.sin(2 * np.pi * grid)), BK.PERIODIC),
        (constant(2.0), BK.DIRICHLET),
        (constant(RHO_D), BK.DIRICHLET),
        (constant(1.0), BK.NEUMANN),
        (constant(2.0), BK.NEUMANN),
        (constant(1.0), BK.MIXED1),
        (constant(2.0), BK.MIXED2),
        (sampled(grid, np.full(2001, 0.64)), BK.NEUMANN),
    ]
    for pot, bc in ten:
        kernel = build_kernel(pot, bc)
        ts = np.linspace(0.0, kernel.T, 100)
        vals = kernel.grid_eval(ts, ts)
        tol = 1e-10 * np.max(np.abs(vals))
        has_pos, has_neg = np.max(vals) > tol, np.min(vals) < -tol
        if has_pos and has_neg:
            direct = SignClass.CHANGES_SIGN
        elif has_pos:
            direct = SignClass.NON_NEGATIVE
        else:
            direct = SignClass.NON_POSITIVE
        assert classify_sign(pot, bc) is direct


@criterion(7, "numeric kernels match closed forms")
def test_c7_numeric_matches_closed():
    ts = np.linspace(0.0, 1.0, 50)
    for closed, pot, bc in (
            (PeriodicConstantKernel(1.5 * math.pi), constant(1.5 * math.pi),
             BK.PERIODIC),
            (DirichletConstantKernel(RHO_D), constant(RHO_D), BK.DIRICHLET)):
        numeric = NumericKernel(pot, bc)
        gap = np.abs(closed.grid_eval(ts, ts) - numeric.grid_eval(ts, ts))
        assert np.max(gap) <= 1e-8


@criterion(8, "sandwich certificate for the clamped example")
def test_c8_sandwich_certificate():
    gamma = gamma_dirichlet_closed(RHO_D)
    weight = lambda t: np.sin(math.pi * np.asarray(t))

    good = check_H2(lambda t, x: t * (1.0 - t) + 0.0 * x, weight, gamma)
    assert good.passed
    assert good.ratio <= 4.0 / 3.0 + 1e-9

    bad = check_H2(lambda t, x: t + 0.0 * x, weight, gamma)
    assert not bad.passed
    assert bad.witness is not None
    assert bad.witness[0] == pytest.approx(1.0)  # boundary node


@criterion(9, "kernel, ratio, and solver properties")
def test_c9_property_suite():
    # translation and reflection invariance of the periodic kernel
    T = 1.0
    rng = np.random.default_rng(7)
    for kernel in (PeriodicConstantKernel(1.5 * math.pi),
                   NumericKernel(sampled(uniform(), np.full(2001, 60.0)),
                                 BK.PERIODIC)):
        ts, ss, hs = rng.uniform(0.0, T, (3, 40))
        base = np.array([kernel.grid_eval([t], [s])[0, 0]
                         for t, s in zip(ts, ss)])
        moved = np.array([kernel.grid_eval([(t + h) % T], [(s + h) % T])[0, 0]
                          for t, s, h in zip(ts, ss, hs)])
        mirrored = np.array([kernel.grid_eval([s], [t])[0, 0]
                             for t, s in zip(ts, ss)])
        assert np.max(np.abs(moved - base)) <= 1e-10
        assert np.max(np.abs(mirrored - base)) <= 1e-10

    # scaling the weight leaves the ratio untouched
    kernel = PeriodicConstantKernel(1.5 * math.pi)
    w = lambda s: 2.0 + np.cos(2 * math.pi * np.asarray(s))
    g1 = gamma_quadrature(kernel, w, t_grid_size=101)
    g2 = gamma_quadrature(kernel, lambda s: 7.3 * w(s), t_grid_size=101)
    assert abs(g1.value - g2.value) <= 1e-12

    # superposition of linear solves
    kernel = DirichletConstantKernel(RHO_D)
    s1 = lambda s: s * (1.0 - s)
    s2 = lambda s: np.cos(3.0 * np.asarray(s))
    a, b = 0.7, -2.2
    u1 = solve_linear(kernel, s1, 301).values
    u2 = solve_linear(kernel, s2, 301).values
    combo = solve_linear(kernel, lambda s: a * s1(s) + b * s2(s), 301).values
    assert np.max(np.abs(combo - (a * u1 + b * u2))) <= 1e-9

    # each halving of the kernel grid step cuts the u == 1 error by >= 8;
    # the potential is exact here so the kernel step is the only error source
    rho = 1.5 * math.pi
    errs = []
    for n in (251, 501, 1001):
        kernel = NumericKernel(constant(rho, grid_size=n), BK.PERIODIC)
        profile = solve_linear(kernel, lambda s: np.full_like(s, rho**2), 101)
        errs.append(np.max(np.abs(profile.values - 1.0)))
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0
