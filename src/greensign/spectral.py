"""Smallest eigenvalues of -(u'' + a u) per boundary kind, and the kernel-sign
classification they determine.

lam is an eigenvalue of u'' + (a(t) + lam) u = 0 under the boundary
condition: closed-form for a = rho**2, otherwise bracketed from its index
(no scan over lam) and refined by the ITP method on the characteristic
function, its estimate the inverse quadratic interpolant through the ends
and the end last replaced, kept half a stop width inside the ends, so
that a search that has an end by the root closes on it in a step or two;
all brackets of one request together: one evaluation per round serves
every open bracket, and each takes the steps it would take alone.
Each shift of a request is evaluated once: the ends of a bracket read the
characteristic values of the pass that counted them, which are the bits a
plain pass gives, and only ends counted by the windows alone are evaluated.
The characteristic function comes from the monodromy matrix Phi(T) by the
rule of potentials.BoundaryKind: the entry BoundaryKind.entry of Phi(T) for
a separated condition, its trace against the multiplier for a paired one.
By min-max comparison with the constants min a and max a (Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993), eigenvalue i lies in a window
about mu_i, the i-th eigenvalue of -u''; where windows overlap, the number
of eigenvalues below lam isolates each one.  Under a separated condition it
is read off the Pruefer angle at T (Sturm oscillation), under a paired one
off Hill's gaps (Magnus & Winkler, Hill's Equation, 1966), as SLEIGN2 counts
coupled conditions (Bailey, Everitt & Zettl, ACM TOMS 27, 2001): with n the
Dirichlet count and Delta the trace, gap g (|Delta| > 2, sign (-1)**g) has
n = g - 1 or g, and g periodic and g antiperiodic eigenvalues below it;
band n (|Delta| <= 2) has 1 + 2 floor(n / 2) periodic and 2 ceil(n / 2)
antiperiodic ones.  Counts or signs that contradict what a bracket must
hold raise BracketingFailure, before any bracket is refined.

classify_sign finds no eigenvalue: a first eigenvalue lies above mu = -tol
or +tol where the count there is zero, from one lifted monodromy pass at
the two shifts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (BracketingFailure, NotPositive, UndeterminedSign,
                     UnsupportedBoundaryKind)
from .fundamental import ConstantPair, FundamentalSolutions, transfer_matrix
from .greens import require_kernel
from .potentials import BoundaryKind, ConstantPotential, Potential

SIGN_DECISION_TOL = 1e-8
#: where classify_sign counts eigenvalues: below -tol, and below +tol
SIGN_SHIFTS = np.array([-SIGN_DECISION_TOL, SIGN_DECISION_TOL])
BISECT_REL_WIDTH = 1e-13
#: rounds of counting eigenvalues at new points before failing
MAX_COUNT_STEPS = 64
#: eigenvalues smallest_eigenvalues gives by default
COUNT = 6


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


def char_values(potential: Potential, bc: BoundaryKind, lams) -> np.ndarray:
    """Characteristic function of the boundary condition at each lam.

    Zero exactly at eigenvalues, positive below the smallest one.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    return _char_of(transfer_matrix(potential, lams), bc)


def _counted(potential: Potential, bc: BoundaryKind,
             lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number of eigenvalues below each lam of a 1-d batch, by the
    count rule of the module docstring, and the characteristic values
    there, from one lifted monodromy pass."""
    phi, theta = transfer_matrix(potential, lams, lift=True)
    f = _char_of(phi, bc)
    return _counts(theta, f, bc), f


def _counts(theta: np.ndarray, f: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    """Eigenvalues below each shift, from the lifted angles theta(T) of u1
    and u2 there, shape (shifts, 2), and the characteristic values f."""
    # eigenvalue n of a separated condition has theta(T) = (n + 1) pi where
    # u(T) = 0 is asked (row 0), (n + 1/2) pi where u'(T) = 0 is; a paired
    # condition starts from the Dirichlet count, off u2
    r, c = BoundaryKind.DIRICHLET.entry if bc.multiplier else bc.entry
    n = np.floor(theta[:, c] / np.pi + 0.5 * r).astype(int)
    if not bc.multiplier:
        return n
    # the gap rule of the module docstring: f has the sign of Delta in a
    # gap and -m in a band, so in both the count is n + 1 where
    # (-1)**n f < 0 and n elsewhere
    return n + (np.where(n % 2, -f, f) < 0.0)


def _char_of(phi: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    """Characteristic value of the condition at each shift, from Phi(T)
    there, shape (shifts, 2, 2)."""
    m = bc.multiplier
    if m:
        u1T, u2T, p1T, p2T = phi[:, 0, 0], phi[:, 0, 1], phi[:, 1, 0], phi[:, 1, 1]
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
        return np.where(exact & (m * delta > 0.0),
                        m * disc / (np.abs(delta) + 2.0), delta - 2.0 * m)
    return phi[(slice(None), *bc.entry)]


def smallest_eigenvalue(potential: Potential, bc: BoundaryKind) -> EigenResult:
    """First eigenvalue of u'' + (a + lam) u = 0 under the boundary condition."""
    return _eigenvalues(potential, bc, 1)[0]


def smallest_eigenvalues(potential: Potential, bc: BoundaryKind,
                         count: int = COUNT) -> list[EigenResult]:
    """The count smallest eigenvalues, repeated according to multiplicity.

    Periodic and antiperiodic spectra come in pairs that may collapse to a
    double eigenvalue (a closed gap); a collapsed pair is reported twice.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return _eigenvalues(potential, bc, count)


def _eigenvalues(potential: Potential, bc: BoundaryKind,
                 count: int) -> list[EigenResult]:
    """The count smallest eigenvalues, repeated according to multiplicity.

    Points are added until, for each i < count, neighbouring points count i
    and i + 1 eigenvalues below them (_split places them).  A paired
    bracket whose count rises by two holds a double eigenvalue, a closed
    gap, once it is as narrow as _itp's stop width; it is reported at its
    middle.  The ends of the other brackets read the characteristic values
    stored with their counts; ends whose count the windows gave, which
    carry none, are evaluated in one char_values call, and none is made
    when there are no such ends.  No shift is evaluated twice.
    """
    if isinstance(potential, ConstantPotential):
        shift = potential.rho * potential.rho
        return [EigenResult(_free_eigenvalue(bc, potential.interval.T, i) - shift,
                            bc, "closed") for i in range(count)]
    w_lo, w_hi = np.array([_window(potential, bc, j)
                           for j in range(count + 1)]).T
    xs = np.array(sorted({*w_lo[:count], *w_hi[:count]}))
    # eigenvalue j lies in window j: below a point lie those of the windows
    # wholly below it, and none from the first window wholly above it on
    j = np.arange(count + 1)[:, None]
    ns = np.max(np.where(w_hi[:, None] < xs, j + 1, 0), axis=0)
    unknown = ns != np.min(np.where(w_lo[:, None] >= xs, j, count + 2), axis=0)
    # rows: the points, their counts, their characteristic values where
    # counted, and the round that added them
    pts = np.stack([xs, ns, np.full(len(xs), np.nan), np.zeros(len(xs))])
    if unknown.any():
        pts[1:3, unknown] = _counted(potential, bc, xs[unknown])
    step, wanted = np.max(w_hi - w_lo), np.arange(count)
    for r in range(1, MAX_COUNT_STEPS + 1):
        xs, ns = pts[:2]
        if np.any(np.diff(ns) < 0):
            raise BracketingFailure(f"{bc} eigenvalue count decreases in lam")
        # points k - 1 and k: the last counting at most i, the first more
        k = np.searchsorted(ns, wanted, side="right")
        inner = np.clip(k, 1, len(xs) - 1)
        lo, hi = xs[inner - 1], xs[inner]
        rise = ns[inner] - ns[inner - 1]
        double = (rise == 2) & (hi - lo <= BISECT_REL_WIDTH * np.maximum(1.0, np.abs(lo)))
        done = (k == inner) & ((rise == 1) | (double & bool(bc.multiplier)))
        if done.all():
            break
        new = np.array(sorted({_split(pts, m, step, bc) for m in k[~done]}
                              - set(xs.tolist())))
        if not len(new):
            raise BracketingFailure(f"{bc} eigenvalues closer than rounding")
        pts = np.concatenate([pts, [new, *_counted(potential, bc, new),
                                    np.full(len(new), r)]], axis=1)
        pts = pts[:, np.argsort(pts[0])]
    else:
        raise BracketingFailure(f"{bc} eigenvalues not apart after {MAX_COUNT_STEPS} counts")

    single, fs = rise == 1, pts[2]
    end = np.zeros(len(xs), dtype=bool)
    end[inner[single] - 1] = end[inner[single]] = True
    missing = np.flatnonzero(end & np.isnan(fs))
    if len(missing):
        fs[missing] = char_values(potential, bc, xs[missing])
    lo, hi, flo, fhi = lo.tolist(), hi.tolist(), fs[inner - 1].tolist(), fs[inner].tolist()
    brackets = []
    for i in wanted[single].tolist():
        # sign (-1)**i between eigenvalues i - 1 and i
        if not (flo[i] * (-1) ** i > 0 and fhi[i] * (-1) ** i <= 0):
            raise BracketingFailure(f"{bc} characteristic function has the wrong "
                                    f"sign at an end of [{lo[i]:.9g}, {hi[i]:.9g}]")
        brackets.append((lo[i], hi[i], flo[i], fhi[i]))
    refined = iter(_refine_all(potential, bc, brackets))
    return [next(refined) if s else EigenResult(0.5 * (l + h), bc, "shooting", 0, (l, h))
            for s, l, h in zip(single, lo, hi)]


def _free_eigenvalue(bc: BoundaryKind, T: float, i: int) -> float:
    """Eigenvalue i (0 = smallest, with multiplicity) of -u'' on [0, T]."""
    w = math.pi / T
    if bc.multiplier:
        # half waves 0, 2, 2, 4, 4, ... periodic, 1, 1, 3, 3, ... antiperiodic
        k = 2 * ((i + 1) // 2) if bc.multiplier > 0 else 2 * (i // 2) + 1
        return (k * w) ** 2
    # a pinned end adds a quarter wave to the i half waves
    return ((i + sum(bc.pinned_ends) / 2) * w) ** 2


def _window(potential: Potential, bc: BoundaryKind, i: int) -> tuple[float, float]:
    """Interval that holds eigenvalue i, by min-max comparison with the
    constant potentials min a and max a."""
    a_lo, a_hi = potential.min_value, potential.max_value
    mu = _free_eigenvalue(bc, potential.interval.T, i)
    h = potential.interval.T / (potential.grid_size - 1)
    # RK4 moves the eigenvalue by about h**4 q**3 / 60, q the largest
    # |lam + a| in the window; the padding covers four times that
    q = mu + a_hi - a_lo
    pad = h**4 * q**3 / 15.0 + 1e-10 * (1.0 + q)
    return mu - a_hi - pad, mu - a_lo + pad


def _split(pts: np.ndarray, m: int, step: float, bc: BoundaryKind) -> float:
    """The point added at bracket m, between points m - 1 and m of pts:
    a window's width beyond all points for m = 0 or len(xs), else the middle.

    A paired bracket that holds two eigenvalues takes the vertex of the
    parabola through the characteristic values at its ends and at the
    nearer point beside it, where the function peaks between the pair, at
    the middle of a narrow gap; the middle where the step that added its
    newer end kept more than half of the bracket, so that a bracket halves
    at least every two rounds.  A vertex stays a stop width inside the
    ends, so a closed gap's bracket narrows from both sides.
    """
    xs, ns, fs, born = pts
    if m in (0, len(xs)):
        return xs[0] - step if m == 0 else xs[-1] + step
    lo, hi = float(xs[m - 1]), float(xs[m])
    mid = 0.5 * (lo + hi)
    if not bc.multiplier or ns[m] - ns[m - 1] != 2 or len(xs) < 3:
        return mid
    # the end added last, and the end it replaced, now beside it
    new, old = (m - 1, m - 2) if born[m - 1] > born[m] else (m, m + 1)
    if born[new] and (old in (-1, len(xs)) or abs(xs[old] - xs[new]) < hi - lo):
        return mid
    o = min((i for i in (m - 2, m + 1) if 0 <= i < len(xs)),
            key=lambda i: abs(xs[i] - mid))
    x2, f0, f1, f2 = float(xs[o]), float(fs[m - 1]), float(fs[m]), float(fs[o])
    # divided differences: the parabola's slope is d01 + c (2 x - lo - hi)
    d01 = (f1 - f0) / (hi - lo)
    c = ((f2 - f1) / (x2 - hi) - d01) / (x2 - lo)
    v = mid - d01 / (2.0 * c) if c else mid
    tol = BISECT_REL_WIDTH * max(1.0, abs(lo))
    if not lo < v < hi or hi - lo <= 2.0 * tol:
        return mid
    return min(max(v, lo + tol), hi - tol)


def _refine_all(potential, bc, brackets) -> list[EigenResult]:
    """Roots of the characteristic function in the sign-change brackets
    (lo, hi, flo, fhi), flo and fhi its values at lo and hi, in their order.

    The brackets are refined together: each round calls char_values once on
    the next points of all open _itp searches.  char_values treats each lam
    of a batch on its own, so every search takes the very steps it takes
    alone.
    """
    searches = [_itp(bc, *b) for b in brackets]
    found = [None] * len(searches)
    live, fxs = list(range(len(searches))), [None] * len(searches)
    while live:
        xs, still = [], []
        for k, fx in zip(live, fxs):
            try:
                xs.append(searches[k].send(fx))
                still.append(k)
            except StopIteration as stop:
                found[k] = stop.value
        live = still
        if live:
            fxs = char_values(potential, bc, np.array(xs)).tolist()
    return found


def _itp(bc: BoundaryKind, lo: float, hi: float, flo: float, fhi: float):
    """ITP search for the root in one sign-change bracket (Oliveira &
    Takahashi, ACM TOMS 47, 2020), its estimate truncated toward the
    midpoint and projected into the interval about it that the step budget
    allows.  The budget is the fewest steps bisection from the first bracket
    could take with the root anywhere in the present one, so the search
    never takes more.  It stops at hi - lo <= BISECT_REL_WIDTH * max(1, |lo|),
    or at an exact zero.

    The estimate is the inverse quadratic interpolant through the two ends
    and the end the last step replaced, or regula falsi where there is no
    such end, two of the values repeat or the interpolant leaves (lo, hi).
    It is kept half a stop width inside the ends, so that once an end sits
    by the root the next point straddles it and the bracket closes, where
    an estimate rounded onto that end would leave it to the midpoint.

    A generator: it yields each point and is sent the characteristic value
    there, and returns the EigenResult.
    """
    if fhi == 0.0:
        return EigenResult(hi, bc, "shooting", 0, (hi, hi))
    width0 = hi - lo
    kappa1 = 0.2 / width0
    iterations = 0
    old = None
    while hi - lo > (tol := BISECT_REL_WIDTH * max(1.0, abs(lo))):
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
        est = _estimate(lo, hi, flo, fhi, old)
        est = min(max(est, lo + 0.5 * tol), hi - 0.5 * tol)
        side = math.copysign(1.0, mid - est)
        x = est + side * delta if delta <= abs(mid - est) else mid
        if abs(x - mid) > radius:
            x = mid - side * radius
        if not lo < x < hi:
            x = mid
        fx = yield x
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


def _estimate(lo: float, hi: float, flo: float, fhi: float, old) -> float:
    """The root of the inverse quadratic through (lo, flo), (hi, fhi) and
    old, a point (x, f) or None; regula falsi where old is None, two values
    repeat, or the root found is not inside (lo, hi)."""
    if old is not None:
        c, fc = old
        if fc != flo and fc != fhi:
            x = (lo * fhi * fc / ((flo - fhi) * (flo - fc))
                 + hi * flo * fc / ((fhi - flo) * (fhi - fc))
                 + c * flo * fhi / ((fc - flo) * (fc - fhi)))
            if lo < x < hi:
                return x
    return (fhi * lo - flo * hi) / (fhi - flo)


#: the spectra, besides its own, that decide a kernel's sign class
_COMPARED = {BoundaryKind.PERIODIC: (BoundaryKind.ANTIPERIODIC,),
             BoundaryKind.NEUMANN: (BoundaryKind.MIXED1, BoundaryKind.MIXED2)}


def classify_sign(potential: Potential, bc: BoundaryKind) -> SignClass:
    """Sign class of the Green's function, decided by where 0 lies relative
    to first eigenvalues.

    Periodic kernels are compared against the antiperiodic spectrum, Neumann
    kernels against both mixed spectra; the separated conditions are decided
    by their own first eigenvalue alone.  A first eigenvalue above
    SIGN_DECISION_TOL is positive, one not above -SIGN_DECISION_TOL
    negative, and one between raises UndeterminedSign.  Where a verdict is
    reached but no Green's function exists, ResonantPotential is raised, as
    build_kernel raises it.
    """
    if bc is BoundaryKind.ANTIPERIODIC:
        raise UnsupportedBoundaryKind(
            "no sign classification is defined for antiperiodic conditions")
    other = _COMPARED.get(bc, ())
    above = _first_above(potential, (bc, *other))
    if _sign(above, (bc,)) > 0:
        cls = SignClass.NON_POSITIVE
    elif other and _sign(above, other) > 0:
        cls = SignClass.NON_NEGATIVE
    else:
        cls = SignClass.CHANGES_SIGN
    require_kernel(potential, bc)
    return cls


def _first_above(potential: Potential, kinds) -> dict:
    """For each kind, whether its first eigenvalue lies above each of
    SIGN_SHIFTS, as a boolean array.

    A constant potential reads its closed-form eigenvalue; any other
    potential answers for every kind from one lifted transfer_matrix call on
    the shifts: the first eigenvalue lies above a shift where the count of
    eigenvalues below it is zero.
    """
    if isinstance(potential, ConstantPotential):
        return {k: _eigenvalues(potential, k, 1)[0].value > SIGN_SHIFTS
                for k in kinds}
    phi, theta = transfer_matrix(potential, SIGN_SHIFTS, lift=True)
    return {k: _counts(theta, _char_of(phi, k), k) == 0 for k in kinds}


def _sign(above: dict, kinds) -> int:
    """+1 where the smallest first eigenvalue of kinds is positive, -1 where
    it is negative; raises UndeterminedSign where it lies within
    SIGN_DECISION_TOL of zero."""
    above_minus, above_plus = np.logical_and.reduce([above[k] for k in kinds])
    if above_plus:
        return 1
    if not above_minus:
        return -1
    raise UndeterminedSign(
        f"the first {'/'.join(map(str, kinds))} eigenvalue lies within "
        f"{SIGN_DECISION_TOL:g} of zero")


class Eigenfunction:
    """Principal eigenfunction c1 u1 + c2 u2 of a fundamental pair at lam,
    normalized to maximum value one, with its samples values at the
    pair's nodes ts.  On an exact pair (a ConstantPair) it is exactly
    c1 cos(w t) + c2 sin(w t) / w, which quadrature.exact_weight reads off
    pair and coefficients = (c1, c2).

    At an endpoint the boundary condition pins, values and calls give
    exactly 0.0, not the integrator's rounding residue there.
    """

    def __init__(self, pair, c1: float, c2: float, lam: float, bc: BoundaryKind):
        self.lam = lam
        self.bc = bc
        self.pair = pair
        self.coefficients = (c1, c2)
        self.ts = pair.ts
        self.values = c1 * pair.u1 + c2 * pair.u2
        self.values[bc.pinned(self.ts, self.ts[-1])] = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u1, u2 = self.pair.eval_pair(t)
        out = self.coefficients[0] * u1 + self.coefficients[1] * u2
        pinned = self.bc.pinned(t, self.ts[-1])
        if pinned.any():
            out = np.where(pinned, 0.0, out)
        return out if np.ndim(out) else float(out)


def principal_eigenfunction(potential: Potential, bc: BoundaryKind) -> Eigenfunction:
    """Eigenfunction at the smallest eigenvalue; raises if not positive.

    On a constant potential it is exact: lam + rho**2 is the eigenvalue
    w**2 of -u'', w T one of 0, pi / 2 and pi, and the eigenfunction is
    w u2 = sin(w t) of the ConstantPair at w where u(0) = 0 is asked,
    u1 = cos(w t) elsewhere; either peaks at one on [0, T] and can turn
    negative only at T (the antiperiodic cos(pi t / T)).  Otherwise it is
    read off the RK4 pair at lam.  Positivity is checked at the pair's
    nodes, skipping endpoints that the boundary condition pins to zero.
    """
    lam = smallest_eigenvalue(potential, bc).value
    # u2 where u(0) = 0 is asked, else u1: on a separated condition the
    # solution that meets it at 0
    c1, c2 = np.eye(2)[bc.entry[1]]
    if isinstance(potential, ConstantPotential):
        T = potential.interval.T
        w = math.sqrt(_free_eigenvalue(bc, T, 0))
        pair, c2 = ConstantPair(w, T), c2 * w
    else:
        pair = FundamentalSolutions(potential, lam)
        if bc.multiplier:
            A = pair.phi - bc.multiplier * np.eye(2)
            c1, c2 = np.linalg.svd(A)[2][-1]
        vals = c1 * pair.u1 + c2 * pair.u2
        peak = vals[np.argmax(np.abs(vals))]
        c1, c2 = c1 / peak, c2 / peak
    ef = Eigenfunction(pair, float(c1), float(c2), lam, bc)
    inner = ef.values[bc.unpinned]
    if np.min(inner, initial=np.inf) <= 0:
        raise NotPositive(
            f"principal {bc} eigenfunction is not strictly positive away from "
            f"pinned endpoints (min {np.min(inner):.3e})")
    return ef
