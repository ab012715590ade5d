"""The sign-ratio constant: how much positive kernel mass dominates negative.

For a kernel G and a nonnegative weight w, define at each t the two integrals
N(t) = int G+(t,s) w(s) ds and D(t) = int G-(t,s) w(s) ds.  The constant
reported here is the infimum over t of N/D, which exceeds one precisely when
the weighted integral of G stays positive while G itself changes sign.  A
kernel with no negative part gets the +inf sentinel.

Closed forms cover the constant-potential periodic case (all rho > pi/T) and
the constant-potential Dirichlet case on the unit interval (pi < rho < 6 pi,
weight sin(pi s)); everything else goes through the quadrature path, which is
also the independent oracle for the closed forms.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (NonpositiveWeightedIntegral, OutOfRange,
                     QuadratureFailure, InvalidWeight, UnsupportedBoundaryKind)
from .greens import _require_nonresonant
from .potentials import BoundaryKind, ConstantPotential, Potential
from .quadrature import GAUSS_ORDER, default_max_len, shared_breaks, slice_panels

T_GRID_SIZE = 1001
NEG_PART_REL_TOL = 1e-11     # below this (relative to N) the negative part
                             # counts as absent and the ratio as +inf
BOUNDARY_SLICES = 6          # interior slices behind each boundary limit
#: Gauss nodes per block of slices in _slice_parts; bounds its memory.
SLICE_BLOCK_NODES = 1 << 17

CASE_2B_NOTE = ("rho*T/pi in (4k+2, 4k+3): the published ratio reads below "
                "one at face value, but sin(rho*T/2) is negative on this "
                "interval, so the expression exceeds one; the quadrature "
                "oracle confirms it to 1e-6 and is authoritative here")


@dataclass(frozen=True)
class GammaResult:
    value: float
    argmin_t: float
    method: str          # ClosedFormPeriodic | ClosedFormDirichletT1 | Quadrature
    weight: str          # PrincipalEigenfunction | Coefficient | One
    case: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _slice_parts(kernel, ts, roots: list, weight, order: int,
                 max_len: float) -> tuple[np.ndarray, np.ndarray]:
    """(N, D) at every t in ts: weighted integrals of the positive and
    negative parts of G(t, .), non-finite where the quadrature failed.

    roots[i] are the interior zeros of G(ts[i], .), as s_roots_many gives
    them.  The slices go in blocks of at most SLICE_BLOCK_NODES Gauss
    nodes, with one kernel and one weight evaluation per block.  Every
    slice is broken at its zeros and the weight is nonnegative, so a panel
    has one sign, and counts as positive or negative by the sign of its
    own weighted integral (zero counts as positive).  One np.add.reduceat
    per sign sums the panels of every slice, each a segment of the plan;
    panel_plan gives every slice a panel, so no segment is empty.
    """
    T = kernel.T
    # a slice has at most one panel per max_len plus one per break point
    panels = (math.ceil(T / max_len) + len(shared_breaks(kernel.potential)) + 2
              + max((len(r) for r in roots), default=0))
    block = max(1, SLICE_BLOCK_NODES // (order * panels))
    pos = np.empty(len(ts))
    neg = np.empty(len(ts))
    for a in range(0, len(ts), block):
        bt = ts[a:a + block]
        plan, g = slice_panels(kernel, bt, roots[a:a + block], max_len, order)
        if weight is not None:
            g = g * np.asarray(weight(plan.xs.ravel()),
                               dtype=float).reshape(g.shape)
        panel = np.sum(g * plan.weights, axis=1)
        up = panel >= 0
        starts = plan.offsets[:-1]
        pos[a:a + len(bt)] = np.add.reduceat(np.where(up, panel, 0.0), starts)
        neg[a:a + len(bt)] = -np.add.reduceat(np.where(up, 0.0, panel), starts)
    return pos, neg


def _slice_ratios(kernel, ts, weight, order: int, need_positive) -> np.ndarray:
    """N/D at every t in ts, on panels capped at default_max_len.

    Raises at the first slice, in the order of ts, whose quadrature is not
    finite or, where need_positive holds, whose weighted integral N - D is
    not positive.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    pos, neg = _slice_parts(kernel, ts, kernel.s_roots_many(ts), weight,
                            order, default_max_len(kernel.potential))
    nonfinite = ~(np.isfinite(pos) & np.isfinite(neg))
    nonpositive = need_positive & ~nonfinite & (
        pos - neg <= 1e-13 * np.maximum(pos, 1e-300))
    if np.any(nonfinite | nonpositive):
        k = int(np.argmax(nonfinite | nonpositive))
        if nonfinite[k]:
            raise QuadratureFailure(f"non-finite panel integral at t = {ts[k]}")
        raise NonpositiveWeightedIntegral(
            f"weighted integral of the kernel is not positive at t = {ts[k]}")
    return _ratio(pos, neg)


def _ratio(pos, neg):
    """pos/neg elementwise, +inf where the negative part counts as absent;
    a float for scalar arguments."""
    absent = neg <= NEG_PART_REL_TOL * np.maximum(pos, 1e-300)
    r = np.divide(pos, neg, out=np.full(np.shape(absent), math.inf),
                  where=~absent)
    return r if r.ndim else float(r)


def _neville_to_zero(xs: np.ndarray, ys: np.ndarray) -> float:
    p = [float(y) for y in ys]
    n = len(p)
    for lev in range(1, n):
        for i in range(n - lev):
            p[i] = (-xs[i + lev] * p[i] + xs[i] * p[i + 1]) / (xs[i] - xs[i + lev])
    return p[0]


def _boundary_nodes(T: float, at_right: bool) -> tuple[np.ndarray, np.ndarray]:
    """(h, t) of the slices a boundary limit extrapolates from, t = T - h
    at the right end and t = h at the left."""
    hs = T * 1e-2 / 2.0 ** np.arange(BOUNDARY_SLICES)
    return hs, (T - hs if at_right else hs)


def _boundary_limit(hs: np.ndarray, rs: np.ndarray) -> float:
    """Limit of N/D approaching an endpoint where the kernel slice vanishes,
    from the ratios rs of the slices at distances hs from it."""
    if not np.all(np.isfinite(rs)):
        return math.inf
    return _neville_to_zero(hs, rs)


def pointwise_ratio(kernel, t: float, weight=None) -> float:
    """N(t)/D(t) at a single t in [0, T], by the quadrature path.

    Raises OutOfRange outside [0, T] and at an end where the boundary
    condition pins the whole slice to zero, so that N and D both vanish.
    """
    left, right = kernel.bc.pinned_ends
    if not 0.0 <= t <= kernel.T:
        raise OutOfRange(f"t = {t:.6g} is outside [0, {kernel.T:.6g}]")
    if (left and t == 0.0) or (right and t == kernel.T):
        raise OutOfRange(f"{kernel.bc} conditions pin the slice at t = {t:.6g} "
                         f"to zero")
    return float(_slice_ratios(kernel, [t], weight, GAUSS_ORDER,
                               need_positive=False)[0])


def gamma_quadrature(kernel, weight=None, t_grid_size: int = T_GRID_SIZE,
                     s_quadrature_order: int = GAUSS_ORDER) -> GammaResult:
    """Infimum over t of the weighted positive/negative part ratio.

    weight of None means the constant weight one, labelled One; any other
    weight is labelled PrincipalEigenfunction.  Endpoints where the
    boundary condition forces the whole slice to zero are evaluated as
    one-sided limits by polynomial extrapolation from interior nodes.
    """
    T = kernel.T
    label = "One" if weight is None else "PrincipalEigenfunction"

    vanish_left, vanish_right = kernel.bc.pinned_ends

    ts = np.linspace(0.0, T, t_grid_size)
    pinned = np.zeros(t_grid_size, dtype=bool)
    pinned[0] |= vanish_left
    pinned[-1] |= vanish_right
    # every slice, the boundary limits' included, in the order of the t grid
    slice_ts = np.concatenate([_boundary_nodes(T, i > 0)[1] if pin else [t]
                               for i, (t, pin) in enumerate(zip(ts, pinned))])
    size = np.where(pinned, BOUNDARY_SLICES, 1)
    rs = _slice_ratios(kernel, slice_ts, weight, s_quadrature_order,
                       need_positive=np.repeat(~pinned, size))
    hs = _boundary_nodes(T, False)[0]
    ratios = np.array([_boundary_limit(hs, rs[k:k + BOUNDARY_SLICES]) if pin
                       else rs[k]
                       for k, pin in zip(np.cumsum(size) - size, pinned)])

    vmin = float(np.min(ratios))
    if math.isinf(vmin):
        return GammaResult(math.inf, 0.0, "Quadrature", label)
    # ties resolve to the smaller t, counting values within rounding noise of
    # the minimum as tied (symmetric kernels attain it at both endpoints)
    i = int(np.argmax(ratios <= vmin * (1.0 + 1e-12)))
    return GammaResult(float(ratios[i]), float(ts[i]), "Quadrature", label)


def gamma_periodic_closed(rho: float, T: float = 1.0) -> GammaResult:
    """Piecewise closed form for the periodic constant-potential ratio.

    The ratio is t-independent there; the reported argmin is 0.  Values at
    odd multiples of pi/T are the (continuous) one-sided limits.
    """
    x = rho * T / math.pi
    if x <= 1.0:
        raise OutOfRange(
            f"rho*T = {rho * T:.6g} <= pi: the kernel does not change sign")
    _require_nonresonant(rho, T, BoundaryKind.PERIODIC)
    m = int(math.floor(x))
    sn = math.sin(rho * T / 2)
    note = None
    if m % 4 == 1:
        k = (m - 1) // 4
        value = (2 * k + 1) / (2 * k + 1 - sn)
    elif m % 4 == 2:
        k = (m - 2) // 4
        value = (2 * k + 1 - sn) / (2 * k + 1)
        note = CASE_2B_NOTE
    elif m % 4 == 3:
        k = (m + 1) // 4
        value = 2 * k / (2 * k + sn)
    else:
        k = m // 4
        value = (2 * k + sn) / (2 * k)
    case = f"rho*T/pi in ({m},{m + 1}), k={k}"
    return GammaResult(value, 0.0, "ClosedFormPeriodic", "One", case, note)


def _dirichlet_domain_check(rho: float) -> None:
    if not (math.pi < rho < 6 * math.pi):
        raise OutOfRange(f"closed form requires pi < rho < 6*pi, got {rho:.6g}")
    _require_nonresonant(rho, 1.0, BoundaryKind.DIRICHLET)


def _sine_product_antiderivative(rho: float, u):
    # antiderivative of sin(rho u) sin(pi u)
    return 0.5 * (np.sin((rho - math.pi) * u) / (rho - math.pi)
                  - np.sin((rho + math.pi) * u) / (rho + math.pi))


def _positive_band_sum(rho: float, coeff: float, xmax: float) -> float:
    """Integral of max(coeff sin(rho u), 0) * sin(pi u) du over (0, xmax)."""
    if xmax <= 0 or coeff == 0.0:
        return 0.0
    total = 0.0
    j = 0
    while j * math.pi / rho < xmax:
        if coeff * (1 if j % 2 == 0 else -1) > 0:
            lo = j * math.pi / rho
            hi = min((j + 1) * math.pi / rho, xmax)
            F = _sine_product_antiderivative
            total += coeff * float(F(rho, hi) - F(rho, lo))
        j += 1
    return total


def gamma_dirichlet_t_closed(t: float, rho: float) -> float:
    """Pointwise ratio for the Dirichlet constant potential on T = 1.

    Valid at every interior t; +inf where the slice has no negative mass.
    """
    _dirichlet_domain_check(rho)
    if not 0.0 < t < 1.0:
        raise OutOfRange(f"t = {t:.6g} is not interior to (0, 1)")
    sr = math.sin(rho)
    c_left = -math.sin(rho * (1.0 - t)) / (rho * sr)
    c_right = -math.sin(rho * t) / (rho * sr)
    pos = (_positive_band_sum(rho, c_left, t)
           + _positive_band_sum(rho, c_right, 1.0 - t))
    full = math.sin(math.pi * t) / (rho * rho - math.pi * math.pi)
    neg = pos - full
    return _ratio(pos, neg)


def gamma_dirichlet_closed(rho: float) -> GammaResult:
    """Boundary limit of the Dirichlet ratio on T = 1, where its infimum sits."""
    _dirichlet_domain_check(rho)
    m = int(math.floor(rho / math.pi))
    total = sum(math.sin(i * math.pi**2 / rho) for i in range(1, m + 1))
    sgn = 1.0 if m % 2 == 1 else -1.0
    value = rho * total / (rho * total + sgn * math.pi * math.sin(rho))
    return GammaResult(value, 0.0, "ClosedFormDirichletT1", "PrincipalEigenfunction")


def gamma_closed(potential: Potential, bc: BoundaryKind) -> GammaResult | None:
    """The closed form covering (potential, bc), None where none does.

    Both closed forms encode the principal-eigenfunction weight (constant
    for the periodic problem, sin(pi t) for the clamped one), so they can
    stand in for the quadrature path with that weight.
    """
    if not isinstance(potential, ConstantPotential):
        return None
    rho, T = potential.rho, potential.interval.T
    if bc is BoundaryKind.PERIODIC:
        try:
            return gamma_periodic_closed(rho, T)
        except OutOfRange:
            return None
    if bc is BoundaryKind.DIRICHLET and T == 1.0 and math.pi < rho < 6 * math.pi:
        return gamma_dirichlet_closed(rho)
    return None


def gamma_star(kernel, potential: Potential, t_grid_size: int = T_GRID_SIZE,
               s_quadrature_order: int = GAUSS_ORDER) -> GammaResult:
    """Ratio weighted by the coefficient a itself, only where the condition
    keeps constants (periodic and Neumann): there int G a ds = 1 makes the
    weighted integral positive for free."""
    if not kernel.bc.keeps_constants:
        raise UnsupportedBoundaryKind(
            f"the coefficient-weighted ratio needs periodic or Neumann "
            f"conditions, got {kernel.bc}")
    # exact extrema: a sampled potential is piecewise linear on its grid
    if potential.min_value < 0:
        raise InvalidWeight(
            f"coefficient takes negative values (min {potential.min_value:.3e})")
    if potential.max_value <= 0:
        raise InvalidWeight("coefficient is identically zero")
    return replace(gamma_quadrature(kernel, potential, t_grid_size,
                                    s_quadrature_order), weight="Coefficient")
