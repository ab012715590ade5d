"""Smallest eigenvalues of -(u'' + a u) per boundary kind, and the kernel-sign
classification they determine.

lam is an eigenvalue of u'' + (a(t) + lam) u = 0 under the boundary
condition: closed-form for a = rho**2, otherwise bracketed from its index
(no scan over lam) and refined by the ITP method on the characteristic
function, built from the monodromy matrix Phi(T).  Separated conditions:
by min-max comparison with the constants min a and max a (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993), eigenvalue i lies in a window
about mu_i, the i-th eigenvalue of -u''; where windows overlap, the number
of eigenvalues below lam comes from the Pruefer angle (Sturm oscillation),
and bisection on it isolates each one.  Periodic and antiperiodic
conditions: the n-th Dirichlet and Neumann eigenvalues lie in the closure
of the n-th gap of Hill's equation, |trace Phi(T)| >= 2 (Magnus & Winkler,
Hill's Equation, 1966), so with L_n, R_n the smaller and larger of the
two, [R_m, L_{m+1}] holds exactly one periodic (lam_m) and one
antiperiodic (lam'_{m+1}) eigenvalue.  For an even potential each
Dirichlet eigenvalue is a band edge, so it alone does not separate a pair.
Counts or signs that contradict what a bracket must hold raise
BracketingFailure.
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
#: rounds of counting eigenvalues at new points before failing
MAX_COUNT_STEPS = 64
#: a characteristic value this small at a Hill bracket end marks a root there
EDGE_TOL = 1e-9

_PAIRED = (BoundaryKind.PERIODIC, BoundaryKind.ANTIPERIODIC)
_SEPARATED = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN,
              BoundaryKind.MIXED1, BoundaryKind.MIXED2)


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


def char_values(potential: Potential, bc: BoundaryKind, lams,
                grid_size: int | None = None, count: bool = False) -> np.ndarray:
    """Characteristic function of the boundary condition at each lam.

    Zero exactly at eigenvalues, positive below the smallest one.  With
    count, for a separated condition, the number of eigenvalues below each
    lam instead (Sturm oscillation), from the Pruefer angle at T of the
    solution that meets the condition at 0.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if count:
        if bc not in _SEPARATED:
            raise UnsupportedBoundaryKind(f"no eigenvalue count for {bc} conditions")
        left, right = bc.pinned_ends
        _, theta = transfer_matrix(potential, lams, grid_size or DEFAULT_GRID, lift=True)
        # eigenvalue n has theta(T) = (n + 1) pi where u(T) = 0 is asked,
        # (n + 1/2) pi where u'(T) = 0 is
        return np.floor(theta[:, int(left)] / np.pi + (0.0 if right else 0.5)).astype(int)
    (u1T, u2T), (p1T, p2T) = np.moveaxis(
        transfer_matrix(potential, lams, grid_size or DEFAULT_GRID), 0, -1)
    if bc in _PAIRED:
        # RK4's det Phi(T) falls below one by about T h**5 (lam + a)**3 / 72,
        # which would pull |trace| below 2 and shrink narrow gaps; the trace
        # Delta of Phi(T) / sqrt(det Phi(T)) keeps Hill's theory exact.  Where
        # the entries are so large that rounding leaves the determinant fewer
        # than about seven digits, it is left out.  Delta -+ 2 cancels to
        # rounding near Phi = +-I, where disc = Delta**2 - 4
        # = ((u1 - p2)**2 + 4 u2 p1) / det does not; so on that side
        # Delta - 2 = disc / (Delta + 2) and Delta + 2 = -disc / (2 - Delta).
        det = u1T * p2T - u2T * p1T
        exact = det > 1e7 * (np.abs(u1T * p2T) + np.abs(u2T * p1T)) * np.finfo(float).eps
        scale = np.where(exact, det, 1.0)
        delta = (u1T + p2T) / np.sqrt(scale)
        disc = ((u1T - p2T) ** 2 + 4.0 * u2T * p1T) / scale
        sgn = 1.0 if bc is BoundaryKind.PERIODIC else -1.0
        return np.where(exact & (sgn * delta > 0.0),
                        sgn * disc / (np.abs(delta) + 2.0), delta - 2.0 * sgn)
    if bc not in _SEPARATED:
        raise UnsupportedBoundaryKind(str(bc))
    return {BoundaryKind.DIRICHLET: u2T, BoundaryKind.NEUMANN: p1T,
            BoundaryKind.MIXED1: u1T, BoundaryKind.MIXED2: p2T}[bc]


def smallest_eigenvalue(potential: Potential, bc: BoundaryKind,
                        grid_size: int | None = None) -> EigenResult:
    """First eigenvalue of u'' + (a + lam) u = 0 under the boundary condition."""
    return _eigenvalues(potential, bc, 1, grid_size)[0]


def smallest_eigenvalues(potential: Potential, bc: BoundaryKind,
                         count: int = 6,
                         grid_size: int | None = None) -> list[EigenResult]:
    """The count smallest eigenvalues, repeated according to multiplicity.

    Periodic and antiperiodic spectra come in pairs that may collapse to a
    double eigenvalue (a closed gap); a collapsed pair is reported twice.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return _eigenvalues(potential, bc, count, grid_size)


def _eigenvalues(potential: Potential, bc: BoundaryKind, count: int,
                 grid_size) -> list[EigenResult]:
    if isinstance(potential, ConstantPotential):
        shift = potential.rho * potential.rho
        return [EigenResult(_free_eigenvalue(bc, potential.interval.T, i) - shift,
                            bc, "closed") for i in range(count)]
    if bc in _PAIRED:
        return _paired(potential, bc, count, grid_size)
    return list(_separated(potential, bc, range(count), grid_size).values())


def _free_eigenvalue(bc: BoundaryKind, T: float, i: int) -> float:
    """Eigenvalue i (0 = smallest, with multiplicity) of -u'' on [0, T]."""
    w = math.pi / T
    if bc is BoundaryKind.PERIODIC:
        return (2 * ((i + 1) // 2) * w) ** 2
    if bc is BoundaryKind.ANTIPERIODIC:
        return ((2 * (i // 2) + 1) * w) ** 2
    if bc is BoundaryKind.DIRICHLET:
        return ((i + 1) * w) ** 2
    if bc is BoundaryKind.NEUMANN:
        return (i * w) ** 2
    return ((2 * i + 1) * w / 2) ** 2


def _window(potential: Potential, bc: BoundaryKind, i: int,
            grid_size) -> tuple[float, float]:
    """Interval that holds eigenvalue i, by min-max comparison with the
    constant potentials min a and max a."""
    a_lo, a_hi = potential.min_value, potential.max_value
    mu = _free_eigenvalue(bc, potential.interval.T, i)
    h = potential.interval.T / ((grid_size or DEFAULT_GRID) - 1)
    # RK4 moves the eigenvalue by about h**4 q**3 / 60, q the largest
    # |lam + a| in the window; the padding covers four times that
    q = mu + a_hi - a_lo
    pad = h**4 * q**3 / 15.0 + 1e-10 * (1.0 + q)
    return mu - a_hi - pad, mu - a_lo + pad


def _separated(potential: Potential, bc: BoundaryKind, wanted,
               grid_size) -> dict[int, EigenResult]:
    """Eigenvalues of the indices in wanted (0 = smallest) under a separated
    condition, keyed by index.

    Points are added until, for each wanted i, neighbouring points count i
    and i + 1 eigenvalues below them: halfway between two points that are
    not yet such a pair, or a window's width beyond all points.
    """
    wanted = np.array(sorted(set(wanted)), dtype=int)
    w_lo, w_hi = np.array([_window(potential, bc, j, grid_size)
                           for j in range(wanted[-1] + 2)]).T
    xs = np.array(sorted({*w_lo[wanted], *w_hi[wanted]}))
    # eigenvalue j lies in window j: below a point lie those of the windows
    # wholly below it, and none from the first window wholly above it on
    j = np.arange(len(w_lo))[:, None]
    ns = np.max(np.where(w_hi[:, None] < xs, j + 1, 0), axis=0)
    unknown = ns != np.min(np.where(w_lo[:, None] >= xs, j, len(w_lo) + 1), axis=0)
    if unknown.any():
        ns[unknown] = char_values(potential, bc, xs[unknown], grid_size, count=True)
    step = np.max(w_hi - w_lo)
    for _ in range(MAX_COUNT_STEPS):
        if np.any(np.diff(ns) < 0):
            raise BracketingFailure(f"{bc} eigenvalue count decreases in lam")
        # points k - 1 and k: the last counting at most i, the first more
        k = np.searchsorted(ns, wanted, side="right")
        inner = np.clip(k, 1, len(xs) - 1)
        done = (k == inner) & (ns[inner - 1] == wanted) & (ns[inner] == wanted + 1)
        if done.all():
            break
        new = np.array(sorted({xs[0] - step if m == 0 else xs[-1] + step if m == len(xs)
                               else 0.5 * (xs[m - 1] + xs[m]) for m in k[~done]}
                              - set(xs.tolist())))
        if not len(new):
            raise BracketingFailure(f"{bc} eigenvalues closer than rounding")
        ns = np.concatenate([ns, char_values(potential, bc, new, grid_size, count=True)])
        order = np.argsort(xs := np.concatenate([xs, new]))
        xs, ns = xs[order], ns[order]
    else:
        raise BracketingFailure(f"{bc} eigenvalues not apart after {MAX_COUNT_STEPS} counts")

    ends = np.stack([xs[k - 1], xs[k]], axis=1)
    fends = char_values(potential, bc, ends.ravel(), grid_size).reshape(ends.shape)
    found = {}
    for i, (lo, hi), (flo, fhi) in zip(wanted.tolist(), ends, fends):
        # sign (-1)**i between eigenvalues i - 1 and i
        if not (flo * (-1) ** i > 0 and fhi * (-1) ** i <= 0):
            raise BracketingFailure(f"{bc} characteristic function has the wrong "
                                    f"sign at an end of [{lo:.9g}, {hi:.9g}]")
        found[i] = _refine(potential, bc, lo, hi, flo, fhi, grid_size)
    return found


def _paired(potential: Potential, bc: BoundaryKind, count: int,
            grid_size) -> list[EigenResult]:
    """The count smallest periodic or antiperiodic eigenvalues, from the
    brackets [R_m, L_{m+1}] of the module docstring."""
    # the characteristic function can vanish only in the gaps of its own
    # kind, the even ones for periodic and the odd ones for antiperiodic
    # conditions; only there is a Neumann separator needed
    periodic = bc is BoundaryKind.PERIODIC
    own = [n for n in range(1, count + 1) if (n % 2 == 0) == periodic]
    dirichlet = _separated(potential, BoundaryKind.DIRICHLET, range(count),
                           grid_size)
    neumann = (_separated(potential, BoundaryKind.NEUMANN, own, grid_size)
               if own else {})
    below = -potential.sup_norm - 1.0
    # (L_n, R_n) for n = 0..count, L_0 = R_0 below the spectrum
    ends = np.array([(below, below)] + [
        sorted((dirichlet[n - 1].value, neumann.get(n, dirichlet[n - 1]).value))
        for n in range(1, count + 1)])
    # each bracket, and the bracket clipped to the comparison window of its
    # eigenvalue, which is shorter to refine where it shows the sign change
    w = np.array([_window(potential, bc, m, grid_size) for m in range(count)])
    lo, hi = ends[:-1, 1], ends[1:, 0]
    x = np.stack([lo, hi, np.maximum(lo, w[:, 0]), np.minimum(hi, w[:, 1])], axis=1)
    lams, where = np.unique(x, return_inverse=True)
    fx = char_values(potential, bc, lams, grid_size)[where].reshape(x.shape)

    out = []
    for (lo, hi, c_lo, c_hi), (flo, fhi, fc_lo, fc_hi) in zip(x, fx):
        if c_lo < c_hi and fc_lo * fc_hi < 0.0:
            lo, hi, flo, fhi = c_lo, c_hi, fc_lo, fc_hi
        if flo * fhi < 0.0:
            out.append(_refine(potential, bc, lo, hi, flo, fhi, grid_size))
            continue
        end, fend = min((lo, flo), (hi, fhi), key=lambda e: abs(e[1]))
        if abs(fend) > EDGE_TOL:
            raise BracketingFailure(
                f"no root of the {bc} characteristic function in the Hill "
                f"bracket [{lo:.9g}, {hi:.9g}]")
        out.append(EigenResult(end, bc, "shooting", 0, (end, end)))
    return out


def _refine(potential, bc, lo: float, hi: float, flo: float, fhi: float,
            grid_size) -> EigenResult:
    """Root of the characteristic function in the sign-change bracket
    [lo, hi], where it takes the values flo and fhi, by the ITP method
    (Oliveira & Takahashi, ACM TOMS 47, 2020): regula falsi, truncated
    toward the midpoint and projected into the interval about it that the
    step budget allows.  The budget is the fewest steps bisection from the
    first bracket could take with the root anywhere in the present one, so
    the search never takes more.  It stops at
    hi - lo <= BISECT_REL_WIDTH * max(1, |lo|), or at an exact zero.
    """
    if fhi == 0.0:
        return EigenResult(hi, bc, "shooting", 0, (hi, hi))
    width0 = hi - lo
    kappa1 = 0.2 / width0
    iterations = 0
    while hi - lo > BISECT_REL_WIDTH * max(1.0, abs(lo)):
        # anywhere in [lo, hi], bisection stops at a width of at most
        # `large`, and this search at one of at least `small`
        large = BISECT_REL_WIDTH * max(1.0, abs(lo), abs(hi)) * (1.0 + 1e-12)
        small = BISECT_REL_WIDTH * max(1.0, 0.0 if lo < 0.0 < hi
                                       else min(abs(lo), abs(hi)))
        budget = max(0, math.ceil(math.log2(width0 / large)))
        mid = 0.5 * (lo + hi)
        # a few units in the last place below the budget absorb the rounding of x
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
