"""The sign-ratio constant: how much positive kernel mass dominates negative.

For a kernel G and a nonnegative weight w, define at each t the two integrals
N(t) = int G+(t,s) w(s) ds and D(t) = int G-(t,s) w(s) ds.  The constant
reported here is the infimum over t of N/D, which exceeds one precisely when
the weighted integral of G stays positive while G itself changes sign.  A
kernel with no negative part gets the +inf sentinel.

The quadrature path reads N and D through the kernel's separable form
G(t, s) = p(t)^T C p(s) + k(t, s) 1{s <= t} (see greens): on either side of
the diagonal a slice G(t, .) is alpha u1 + beta u2 for a fixed (alpha,
beta), so between two of its zeros its weighted integral is alpha dW1 +
beta dW2, with W the antiderivative of p w.  W is one cumulative Gauss sum
per (kernel, weight), on cells aligned to every kink of p w, kept from both
ends and read at each slice's zeros and its diagonal t (_antiderivative);
no slice is evaluated on panels of its own.  A piece counts as positive or
negative by the sign of its own weighted integral.  The zeros of the
slices do not depend on the weight, and callers that need several weights
on one t-grid share them (gamma_quadrature's roots).

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
from .quadrature import cell_edges, cell_nodes, default_max_len, gauss_nodes

T_GRID_SIZE = 1001
NEG_PART_REL_TOL = 1e-11     # below this (relative to N) the negative part
                             # counts as absent and the ratio as +inf
BOUNDARY_SLICES = 6          # interior slices behind each boundary limit
#: Gauss points per cell of the antiderivative table.  A numeric kernel's
#: pair and the eigenfunction weight are Hermite cubics between their grid
#: nodes, which are cell edges, so p w has degree at most 6 on a cell and
#: these points integrate it exactly.
CELL_ORDER = 4
#: Cells per default_max_len: on a closed form's pair a cell turns the
#: phase by at most pi / 16, where the 4-point rule is good to rounding.
CELLS_PER_PANEL = 16

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


def _antiderivative(kernel, weight, order: int, x: np.ndarray):
    """(S, left, total) for the points x: total is the integral of p w
    over [0, T], with p = (u1, u2) the kernel's pair and w the weight (None
    for one); left is where x <= T - x, and S[:, i] is the integral over
    [0, x[i]] there and minus the integral over [x[i], T] elsewhere, shape
    (2, len(x)).

    The table is one order-point Gauss sum per cell of
    quadrature.cell_edges, broken also at the weight's break points and
    capped at default_max_len / CELLS_PER_PANEL, cumulated from both ends.
    A point is read once, from its nearer end: the sum up to its cell's
    edge on that side plus a Gauss sum over the rest of its cell, both in
    the same pass as the cells.  So a piece next to either end is read
    without the cancellation of W(T) - W(x), and mirrored slices alike.
    """
    T = kernel.T
    edges = cell_edges(kernel, getattr(weight, "breakpoints", ()),
                       default_max_len(kernel.potential) / CELLS_PER_PANEL)
    n = len(edges) - 1
    left = x <= T - x
    k = np.where(left, edges.searchsorted(x, "right") - 1, edges.searchsorted(x))
    near = edges[k]
    xs, half = cell_nodes(np.concatenate([edges[:-1], np.where(left, near, x)]),
                          np.concatenate([edges[1:], np.where(left, x, near)]), order)
    u1, u2 = kernel._pair(xs)
    if weight is not None:
        w = np.asarray(weight(xs.ravel()), dtype=float).reshape(xs.shape)
        u1, u2 = u1 * w, u2 * w
    gw = gauss_nodes(order)[1]
    sums = np.array([u1 @ gw, u2 @ gw])
    sums *= half
    # up[:, j] sums the cells left of edge j, down[:, j] those right of it
    up = np.zeros((2, n + 1))
    down = np.zeros((2, n + 1))
    sums[:, :n].cumsum(axis=1, out=up[:, 1:])
    sums[:, n - 1::-1].cumsum(axis=1, out=down[:, -2::-1])
    parts = sums[:, n:]
    S = np.where(left, up[:, k] + parts, -(down[:, k] + parts))
    return S, left, 0.5 * (up[:, -1] + down[:, 0])


def _slice_parts(kernel, ts, roots, weight, order: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(N, D) at every t in ts: weighted integrals of the positive and
    negative parts of G(t, .), non-finite where the quadrature failed.

    roots are the interior zeros of the slices, as s_roots_flat gives
    them.  Row i lays out 0, its zeros and t in order, and T; each piece
    between neighbours has one sign, and its integral is alpha dW1 +
    beta dW2 with (alpha, beta) of its side of t (kernel._sides) and dW
    the difference of S (_antiderivative) across it, plus the whole
    integral for the one piece that spans the middle of [0, T].  A piece
    counts as positive or negative by the sign of its own weighted
    integral (zero counts as positive); one np.bincount per sign sums the
    pieces of every slice.
    """
    flat, k = roots
    n = len(ts)
    rows = np.arange(n)
    root_row = rows.repeat(k)
    past = flat > ts[root_row]
    # row i holds k[i] + 3 points from start[i]: 0, the zeros left of t,
    # t, the zeros right of t, and T
    start = k.cumsum() - k + 3 * rows
    at_t = start + k + 1 - np.bincount(root_row[past], minlength=n)
    at = np.concatenate([np.arange(len(flat)) + 3 * root_row + 1 + past, at_t,
                         start, start + k + 2])
    x = np.concatenate([flat, ts, np.zeros(n), np.full(n, kernel.T)])
    S = np.empty((2, len(x)))
    left = np.empty(len(x), dtype=bool)
    S[:, at], left[at], total = _antiderivative(kernel, weight, order, x)
    # piece j of row i runs from point a = i + j to b = a + 1
    row = rows.repeat(k + 2)
    a = np.arange(len(row)) + row
    b = a + 1
    dW = S[:, b] - S[:, a]
    dW += total[:, None] * (left[a] > left[b])
    alpha, beta = kernel._sides(ts)[:, np.where(b <= at_t[row], row, row + n)]
    piece = alpha * dW[0] + beta * dW[1]
    return (np.bincount(row, np.maximum(piece, 0.0), minlength=n),
            -np.bincount(row, np.minimum(piece, 0.0), minlength=n))


def _slice_ratios(kernel, ts, roots, weight, order: int,
                  need_positive) -> np.ndarray:
    """N/D at every t in ts, whose slices have the zeros roots.

    Raises at the first slice, in the order of ts, whose quadrature is not
    finite or, where need_positive holds, whose weighted integral N - D is
    not positive.
    """
    pos, neg = _slice_parts(kernel, ts, roots, weight, order)
    net = pos - neg              # finite only where both parts are
    bad = ~np.isfinite(net) | (need_positive & (net <= 1e-13 * np.maximum(pos, 1e-300)))
    if bad.any():
        k = int(np.argmax(bad))
        if not np.isfinite(net[k]):
            raise QuadratureFailure(f"non-finite slice integral at t = {ts[k]}")
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


def pointwise_ratio(kernel, t, weight=None):
    """N(t)/D(t) by the quadrature path, at a t in [0, T] or at every t of
    an array (one antiderivative table serves them all): a float for a
    scalar t, an array shaped as t otherwise.

    Raises OutOfRange outside [0, T] and at an end where the boundary
    condition pins the whole slice to zero, so that N and D both vanish.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    left, right = kernel.bc.pinned_ends
    for u in ts:
        if not 0.0 <= u <= kernel.T:
            raise OutOfRange(f"t = {u:.6g} is outside [0, {kernel.T:.6g}]")
        if (left and u == 0.0) or (right and u == kernel.T):
            raise OutOfRange(f"{kernel.bc} conditions pin the slice at t = {u:.6g} "
                             f"to zero")
    rs = _slice_ratios(kernel, ts, kernel.s_roots_flat(ts), weight, CELL_ORDER,
                       need_positive=False)
    return float(rs[0]) if t.ndim == 0 else rs.reshape(t.shape)


def gamma_quadrature(kernel, weight=None, t_grid_size: int = T_GRID_SIZE,
                     s_quadrature_order: int = CELL_ORDER, *,
                     roots: dict | None = None) -> GammaResult:
    """Infimum over t of the weighted positive/negative part ratio.

    weight of None means the constant weight one, labelled One; any other
    weight is labelled PrincipalEigenfunction.  Endpoints where the
    boundary condition forces the whole slice to zero are evaluated as
    one-sided limits by polynomial extrapolation from interior nodes.
    s_quadrature_order is the number of Gauss points per cell of the
    antiderivative table.  The zeros of the slices do not depend on the
    weight: a dict passed as roots keeps them, per t_grid_size, for later
    calls on the same kernel.
    """
    T = kernel.T
    label = "One" if weight is None else "PrincipalEigenfunction"

    vanish_left, vanish_right = kernel.bc.pinned_ends

    ts = np.linspace(0.0, T, t_grid_size)
    pinned = np.zeros(t_grid_size, dtype=bool)
    pinned[0] |= vanish_left
    pinned[-1] |= vanish_right
    # every slice, the boundary limits' included, in the order of the t grid
    size = np.where(pinned, BOUNDARY_SLICES, 1)
    first = np.cumsum(size) - size
    slice_ts = np.repeat(ts, size)
    ends = [(i, slice(first[i], first[i] + BOUNDARY_SLICES))
            for i in np.flatnonzero(pinned)]
    for i, block in ends:
        slice_ts[block] = _boundary_nodes(T, i > 0)[1]
    found = None if roots is None else roots.get(t_grid_size)
    if found is None:
        found = kernel.s_roots_flat(slice_ts)
        if roots is not None:
            roots[t_grid_size] = found
    rs = _slice_ratios(kernel, slice_ts, found, weight, s_quadrature_order,
                       need_positive=np.repeat(~pinned, size))
    ratios = rs[first]
    for i, block in ends:
        ratios[i] = _boundary_limit(_boundary_nodes(T, False)[0], rs[block])

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
               s_quadrature_order: int = CELL_ORDER, *,
               roots: dict | None = None) -> GammaResult:
    """Ratio weighted by the coefficient a itself, only where the condition
    keeps constants (periodic and Neumann): there int G a ds = 1 makes the
    weighted integral positive for free.  roots is as in gamma_quadrature."""
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
                                    s_quadrature_order, roots=roots),
                   weight="Coefficient")
