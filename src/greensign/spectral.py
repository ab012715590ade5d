"""Smallest eigenvalues of -(u'' + a u) per boundary kind, and the kernel-sign
classification they determine.

Throughout, lam is an eigenvalue of the problem u'' + (a(t) + lam) u = 0 with
the stated boundary condition.  For a = rho**2 the first eigenvalues are
closed-form; otherwise the characteristic function of the boundary condition
(built from the monodromy matrix) is scanned upward from below the spectrum in
batches of shifts, and each sign change it brackets is refined by the ITP
method, a safeguarded regula falsi.  Every characteristic function used here
is positive for lam < -max(a) because the equation is disconjugate there, so
the first sign change brackets the smallest eigenvalue.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (BracketingFailure, NotPositive, UndeterminedSign,
                     UnsupportedBoundaryKind)
from .fundamental import FundamentalSolutions, transfer_matrix
from .potentials import DEFAULT_GRID, BoundaryKind, ConstantPotential, Potential

SIGN_DECISION_TOL = 1e-8
BISECT_REL_WIDTH = 1e-13
SCAN_BATCH = 64


class SignClass(Enum):
    NON_NEGATIVE = "nonnegative"
    NON_POSITIVE = "nonpositive"
    CHANGES_SIGN = "changes_sign"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EigenResult:
    value: float
    bc: BoundaryKind
    method: str                       # "closed" or "shooting"
    iterations: int = 0
    bracket: tuple[float, float] | None = None


def _closed_eigenvalue(rho: float, T: float, bc: BoundaryKind) -> float:
    if bc is BoundaryKind.PERIODIC or bc is BoundaryKind.NEUMANN:
        return -rho * rho
    if bc is BoundaryKind.ANTIPERIODIC or bc is BoundaryKind.DIRICHLET:
        return (math.pi / T) ** 2 - rho * rho
    if bc is BoundaryKind.MIXED1 or bc is BoundaryKind.MIXED2:
        return (math.pi / (2 * T)) ** 2 - rho * rho
    raise UnsupportedBoundaryKind(str(bc))


def char_values(potential: Potential, bc: BoundaryKind, lams,
                grid_size: int | None = None) -> np.ndarray:
    """Characteristic function of the boundary condition at each lam.

    Zero exactly at eigenvalues, positive below the smallest one.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    phi = transfer_matrix(potential, lams, grid_size or DEFAULT_GRID)
    u1T = phi[..., 0, 0]
    u2T = phi[..., 0, 1]
    p1T = phi[..., 1, 0]
    p2T = phi[..., 1, 1]
    if bc is BoundaryKind.PERIODIC:
        return u1T + p2T - 2.0
    if bc is BoundaryKind.ANTIPERIODIC:
        return u1T + p2T + 2.0
    if bc is BoundaryKind.DIRICHLET:
        return u2T
    if bc is BoundaryKind.NEUMANN:
        return p1T
    if bc is BoundaryKind.MIXED1:
        return u1T
    if bc is BoundaryKind.MIXED2:
        return p2T
    raise UnsupportedBoundaryKind(str(bc))


def smallest_eigenvalue(potential: Potential, bc: BoundaryKind,
                        grid_size: int | None = None) -> EigenResult:
    """First eigenvalue of u'' + (a + lam) u = 0 under the boundary condition."""
    if isinstance(potential, ConstantPotential):
        value = _closed_eigenvalue(potential.rho, potential.interval.T, bc)
        return EigenResult(value, bc, "closed")

    T = potential.interval.T
    sup = potential.sup_norm
    step = min(0.5, (math.pi / T) ** 2)
    start = -sup - 1.0
    # the first Dirichlet eigenvalue bounds every other kind's from above
    stop = (math.pi / T) ** 2 + sup + 2 * step

    lo = hi = None
    lam0 = start
    scanned: list[np.ndarray] = []
    while lam0 < stop:
        lams = lam0 + step * np.arange(SCAN_BATCH + 1)
        vals = char_values(potential, bc, lams, grid_size)
        scanned.append(np.stack([lams, vals]))
        flip = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
        if flip.size:
            i = int(flip[0])
            lo, hi = float(lams[i]), float(lams[i + 1])
            flo, fhi = float(vals[i]), float(vals[i + 1])
            break
        lam0 = float(lams[-1])
    if lo is None:
        got = _tangent_eigenvalue(potential, bc, np.concatenate(scanned, axis=1),
                                  grid_size)
        if got is not None:
            return got
        raise BracketingFailure(
            f"no sign change of the {bc} characteristic function in "
            f"[{start:.6g}, {stop:.6g}]")
    return _refine(potential, bc, lo, hi, flo, fhi, grid_size)


def _closed_eigenvalues(rho: float, T: float, bc: BoundaryKind,
                        count: int) -> list[float]:
    w = math.pi / T
    shift = rho * rho
    out: list[float] = []
    if bc is BoundaryKind.PERIODIC:
        out.append(-shift)
        k = 1
        while len(out) < count:
            out += [(2 * k * w) ** 2 - shift] * 2   # double eigenvalue
            k += 1
    elif bc is BoundaryKind.ANTIPERIODIC:
        k = 0
        while len(out) < count:
            out += [((2 * k + 1) * w) ** 2 - shift] * 2
            k += 1
    elif bc is BoundaryKind.DIRICHLET:
        out = [(k * w) ** 2 - shift for k in range(1, count + 1)]
    elif bc is BoundaryKind.NEUMANN:
        out = [(k * w) ** 2 - shift for k in range(count)]
    else:
        out = [((2 * k + 1) * w / 2) ** 2 - shift for k in range(count)]
    return out[:count]


def smallest_eigenvalues(potential: Potential, bc: BoundaryKind,
                         count: int = 6,
                         grid_size: int | None = None) -> list[EigenResult]:
    """The count smallest eigenvalues, repeated according to multiplicity.

    Periodic and antiperiodic spectra come in pairs that may collapse to a
    double eigenvalue (a closed gap); a collapsed pair is reported twice.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if isinstance(potential, ConstantPotential):
        vals = _closed_eigenvalues(potential.rho, potential.interval.T, bc,
                                   count)
        return [EigenResult(v, bc, "closed") for v in vals]

    T = potential.interval.T
    sup = potential.sup_norm
    step = min(0.5, (math.pi / T) ** 2)
    lam0 = -sup - 1.0
    stop = ((count + 1) * math.pi / T) ** 2 + sup + 2 * step
    results: list[EigenResult] = []
    scale = 1.0
    paired = bc in (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC)
    while lam0 < stop and len(results) < count:
        lams = lam0 + step * np.arange(SCAN_BATCH + 1)
        vals = char_values(potential, bc, lams, grid_size)
        scale = max(scale, float(np.max(np.abs(vals))))
        # an exact zero at a scan node is a root the sign product misses
        zero_idx = np.nonzero(vals == 0.0)[0]
        for i in zero_idx:
            lam_star = float(lams[i])
            if any(abs(r.value - lam_star) <= 1e-12 * max(1.0, abs(lam_star))
                   for r in results):
                continue   # batches share their boundary node
            hit = EigenResult(lam_star, bc, "shooting", 0, (lam_star, lam_star))
            results.append(hit)
            if paired and 0 < i < len(vals) - 1 and vals[i - 1] * vals[i + 1] > 0:
                results.append(hit)
        crossings = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in crossings:
            results.append(_refine(potential, bc, float(lams[i]),
                                   float(lams[i + 1]), float(vals[i]),
                                   float(vals[i + 1]), grid_size))
        occupied = np.concatenate([crossings, zero_idx]) if len(zero_idx) \
            else crossings
        if paired:
            # a closed gap only touches zero; look for near-zero extrema
            # strictly between the crossings already found
            interior = (np.abs(vals[1:-1]) < 1e-3 * scale)
            is_min = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]) & (vals[1:-1] > 0)
            is_max = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]) & (vals[1:-1] < 0)
            for i in np.nonzero(interior & (is_min | is_max))[0] + 1:
                if np.any(np.abs(occupied - i) <= 1):
                    continue
                seg = np.stack([lams[i - 1:i + 2], vals[i - 1:i + 2]])
                sgn = 1.0 if vals[i] > 0 else -1.0
                got = _tangent_eigenvalue(potential, bc,
                                          np.stack([seg[0], sgn * seg[1]]),
                                          grid_size, sign=sgn)
                if got is not None:
                    results += [got, got]
        lam0 = float(lams[-1])
    results.sort(key=lambda r: r.value)
    if len(results) < count:
        raise BracketingFailure(
            f"found only {len(results)} of {count} eigenvalues below "
            f"{stop:.6g} for {bc}")
    return results[:count]


def _refine(potential, bc, lo: float, hi: float, flo: float, fhi: float,
            grid_size) -> EigenResult:
    """Root of the characteristic function in the sign-change bracket
    [lo, hi], where it takes the values flo and fhi, by the ITP method
    (Oliveira & Takahashi, ACM TOMS 47, 2020).

    Each step evaluates at the regula falsi point, truncated toward the
    midpoint and projected into the interval about it that bisection's step
    count allows: superlinear on smooth functions, and in the worst case at
    most one step more than bisection (ITP's n0 = 1).  The bracket shrinks
    until hi - lo <= BISECT_REL_WIDTH * max(1, |lo|); an exact zero ends
    the search at that point.
    """
    if fhi == 0.0:
        return EigenResult(hi, bc, "shooting", 0, (hi, hi))
    # the stopping width nowhere in [lo, hi] is smaller than this
    width = BISECT_REL_WIDTH * max(1.0, 0.0 if lo < 0.0 < hi
                                   else min(abs(lo), abs(hi)))
    n_max = max(0, math.ceil(math.log2((hi - lo) / width))) + 1
    kappa1 = 0.2 / (hi - lo)
    iterations = 0
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        # aim 1/64 below that width, which absorbs the rounding of x
        radius = max(0.0, (63 / 64) * width * 2.0 ** (n_max - iterations - 1)
                     - 0.5 * (hi - lo))
        delta = kappa1 * (hi - lo) ** 2
        falsi = (fhi * lo - flo * hi) / (fhi - flo)
        side = math.copysign(1.0, mid - falsi)
        x = falsi + side * delta if delta <= abs(mid - falsi) else mid
        if abs(x - mid) > radius:
            x = mid - side * radius
        if not lo < x < hi:
            x = mid
        fx = float(char_values(potential, bc, x, grid_size)[0])
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


def _tangent_eigenvalue(potential, bc, scan: np.ndarray, grid_size,
                        sign: float = 1.0) -> EigenResult | None:
    """Double eigenvalue where the characteristic function touches zero.

    A pair with a closed spectral gap (a constant potential, for one) gives
    a tangent zero that the sign scan cannot bracket.  Refine each local
    minimum of the scanned values in turn; accept a parabolic vertex whose
    characteristic value is indistinguishable from a touch.  sign flips the
    characteristic function so a touch from below is refined the same way.
    """
    lams, vals = scan
    order = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    for i in order:
        lo, hi = float(lams[i - 1]), float(lams[i + 1])
        for _ in range(3):
            xs = np.linspace(lo, hi, 41)
            fv = sign * char_values(potential, bc, xs, grid_size)
            if np.any(fv <= 0):
                j = int(np.nonzero(fv <= 0)[0][0])
                return _refine(potential, bc, float(xs[j - 1]), float(xs[j]),
                               sign * float(fv[j - 1]), sign * float(fv[j]),
                               grid_size)
            j = int(np.argmin(fv))
            lo = float(xs[max(j - 1, 0)])
            hi = float(xs[min(j + 1, len(xs) - 1)])
        h = xs[1] - xs[0]
        j = min(max(j, 1), len(xs) - 2)
        denom = fv[j - 1] - 2 * fv[j] + fv[j + 1]
        vertex = float(xs[j] if denom == 0
                       else xs[j] + 0.5 * h * (fv[j - 1] - fv[j + 1]) / denom)
        fstar = float(char_values(potential, bc, vertex, grid_size)[0])
        if abs(fstar) <= 1e-5 * max(1.0, abs(vertex)):
            return EigenResult(vertex, bc, "shooting", 3, (lo, hi))
    return None


def _decided(lam: float, what: str) -> float:
    if abs(lam) < SIGN_DECISION_TOL:
        raise UndeterminedSign(
            f"{what} eigenvalue {lam:.3e} is within {SIGN_DECISION_TOL} of zero")
    return lam


def classify_sign(potential: Potential, bc: BoundaryKind,
                  grid_size: int | None = None) -> SignClass:
    """Sign class of the Green's function, decided by first eigenvalues.

    Periodic kernels are compared against the antiperiodic spectrum, Neumann
    kernels against both mixed spectra; the separated conditions are decided
    by their own first eigenvalue alone.
    """
    if bc is BoundaryKind.ANTIPERIODIC:
        raise UnsupportedBoundaryKind(
            "no sign classification is defined for antiperiodic conditions")

    def lam_of(kind: BoundaryKind) -> float:
        return smallest_eigenvalue(potential, kind, grid_size).value

    if bc is BoundaryKind.PERIODIC:
        lam_p = _decided(lam_of(BoundaryKind.PERIODIC), "periodic")
        if lam_p > 0:
            return SignClass.NON_POSITIVE
        lam_a = _decided(lam_of(BoundaryKind.ANTIPERIODIC), "antiperiodic")
        return SignClass.NON_NEGATIVE if lam_a > 0 else SignClass.CHANGES_SIGN

    if bc is BoundaryKind.NEUMANN:
        lam_n = _decided(lam_of(BoundaryKind.NEUMANN), "Neumann")
        if lam_n > 0:
            return SignClass.NON_POSITIVE
        lam_m = min(lam_of(BoundaryKind.MIXED1), lam_of(BoundaryKind.MIXED2))
        lam_m = _decided(lam_m, "mixed")
        return SignClass.NON_NEGATIVE if lam_m > 0 else SignClass.CHANGES_SIGN

    lam = _decided(lam_of(bc), str(bc))
    return SignClass.NON_POSITIVE if lam > 0 else SignClass.CHANGES_SIGN


class Eigenfunction:
    """Principal eigenfunction, normalized to maximum value one.

    At an endpoint the boundary condition pins, values and calls give
    exactly 0.0, not the integrator's rounding residue there.
    """

    def __init__(self, fs: FundamentalSolutions, c1: float, c2: float,
                 lam: float, bc: BoundaryKind):
        self.lam = lam
        self.bc = bc
        self._fs = fs
        vals = c1 * fs.u1 + c2 * fs.u2
        peak = vals[np.argmax(np.abs(vals))]
        vals = vals / peak
        self._c = (c1 / peak, c2 / peak)
        self._pinned = [i for i, pin in zip((0, -1), bc.pinned_ends) if pin]
        vals[self._pinned] = 0.0
        self.ts = fs.ts
        self.values = vals

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u1, u2 = self._fs.eval_pair(t)
        out = self._c[0] * u1 + self._c[1] * u2
        for i in self._pinned:
            out = np.where(t == self.ts[i], 0.0, out)
        return out if np.ndim(out) else float(out)


def principal_eigenfunction(potential: Potential, bc: BoundaryKind,
                            grid_size: int | None = None) -> Eigenfunction:
    """Eigenfunction at the smallest eigenvalue; raises if not positive.

    Positivity is checked at the grid nodes, skipping endpoints that the
    boundary condition pins to zero.
    """
    lam = smallest_eigenvalue(potential, bc, grid_size).value
    fs = FundamentalSolutions(potential, lam, grid_size)
    if bc is BoundaryKind.PERIODIC or bc is BoundaryKind.ANTIPERIODIC:
        sgn = 1.0 if bc is BoundaryKind.PERIODIC else -1.0
        A = np.array([[fs.u1[-1], fs.u2[-1]], [fs.p1[-1], fs.p2[-1]]]) - sgn * np.eye(2)
        _, _, vt = np.linalg.svd(A)
        c1, c2 = vt[-1]
    elif bc is BoundaryKind.DIRICHLET or bc is BoundaryKind.MIXED2:
        c1, c2 = 0.0, 1.0
    else:  # NEUMANN, MIXED1
        c1, c2 = 1.0, 0.0
    ef = Eigenfunction(fs, float(c1), float(c2), lam, bc)

    left, right = bc.pinned_ends
    inner = ef.values[int(left):len(ef.values) - int(right)]
    if np.min(inner) <= 0:
        raise NotPositive(
            f"principal {bc} eigenfunction is not strictly positive away from "
            f"pinned endpoints (min {np.min(inner):.3e})")
    return ef
