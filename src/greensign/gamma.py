"""The sign-ratio constant: how much positive kernel mass dominates negative.

For a kernel G and a nonnegative weight w, define at each t the two integrals
N(t) = int G+(t,s) w(s) ds and D(t) = int G-(t,s) w(s) ds.  The constant
reported here is the infimum over t of N/D, which exceeds one precisely when
the weighted integral of G stays positive while G itself changes sign.  A
kernel with no negative part gets the +inf sentinel.

The quadrature path reads N and D through the kernel's separable form
G(t, s) = p(min(t, s))^T C p(max(t, s)) (see greens): on either side of
the diagonal a slice G(t, .) is alpha u1 + beta u2 for a fixed (alpha,
beta), C p(t) left of t and C^T p(t) right of it, so between two of its
zeros its weighted integral is alpha dW1 + beta dW2, with W the
antiderivative of p w.  W is read once per (kernel, weight) by
quadrature.read_both, from the nearer end (a read from 0 cancels next to
T), at each distinct zero of the slices and at each diagonal t; at 0 and T
it is exactly 0 from its own end.  Under a separated condition a slice is
phi_R(t) u_c left of t and u_c(t) phi_R right of it, so its zeros are
the same in every slice and so are its pieces between them, but for that
factor.  The kernel states that form (greens.Kernel._separated, _held):
the integrals of the pieces are summed once per kernel, by sign, from 0
and from T, into one table over the fixed points, and each slice reads it
at the two fixed points it holds and adds its two partial pieces, next to
t: every step is one pass over all slices.  A
paired condition's zeros move with t; the pieces of its slices lie on one
contiguous row layout, so they are differences of neighbours.  On a
constant potential under periodic conditions G(t, s) is g(t - s) on the
circle, so against a constant weight the ratio is the same at every t and
gamma_quadrature reads the slice at t = 0 alone.  No slice is evaluated
on panels of its own.  On a constant potential's exact pair
with an exact weight (one, the coefficient, or the principal
eigenfunction, a cos or sin) W is elementary and read_both takes it in
closed form.  Any other pair or weight reads one cumulative Gauss sum
edged at those points, whose cells break at the kernel's grid nodes,
which are a numeric eigenfunction weight's too, and at a weight's own
breakpoints (gamma_star's sampled coefficient).  A piece counts as positive or
negative by the sign of its own weighted integral.
The zeros, the sides (alpha, beta) and the factors of the slices do not
depend on the weight: the kernel keeps what gamma reads of them on each t-grid
(Kernel._grid_roots, from _slice_rows), and every weight read on that grid
shares it.

Where the boundary condition pins an end, G(t, .) vanishes there and only
the limit t -> end means anything.  That limit is a slice of the same
separable form, G(t, .) / |t - end| with p'(end) in place of p(t) (see
greens.Kernel._limit_pair), so gamma_quadrature reads it as it reads every
other node of its t-grid: one slice per node, its zeros from the same
angle rule.

Closed forms cover the constant-potential periodic case (all rho > pi/T) and
the constant-potential Dirichlet case on the unit interval (pi < rho < 6 pi,
weight sin(pi s)); everything else goes through the quadrature path, which is
also the independent oracle for the closed forms: it sums the elementary
integrals of each slice's pieces, not the published ratios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (NonpositiveWeightedIntegral, OutOfRange,
                     QuadratureFailure, InvalidWeight, UnsupportedBoundaryKind)
from .greens import require_kernel
from .potentials import BoundaryKind, ConstantPotential, Potential, constant
from .quadrature import exact_weight, read_both, span

T_GRID_SIZE = 1001
PI_LO = 1.2246467991473532e-16   # pi - math.pi: rho - pi is (rho - math.pi) - PI_LO
NEG_PART_REL_TOL = 1e-11     # below this (relative to N) the negative part
                             # counts as absent and the ratio as +inf

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
        return {"value": self.value, "argmin_t": self.argmin_t, "method": self.method,
                "weight": self.weight, "case": self.case, "note": self.note}


def _slice_rows(kernel, ts):
    """What _slice_parts reads of the slices at ts, which the kernel keeps
    per t-grid (Kernel._grid_roots): on a paired condition (flat, counts,
    sides), the zeros of every row (Kernel._search_rows) and the _sides of
    ts; on a separated one, whose zeros are its _fixed_zeros, only the
    factors (phi_R(t), u_c(t)) of ts (Kernel._separated of _limit_pair)."""
    if kernel._fixed_zeros is None:
        sides = kernel._sides(ts)
        return (*kernel._search_rows(ts, sides), sides)
    return np.array(kernel._separated(kernel._limit_pair(ts)))


def _slice_parts(kernel, ts, roots, weight) -> tuple[np.ndarray, np.ndarray]:
    """(N, D) at every t in ts: weighted integrals of the positive and
    negative parts of G(t, .), non-finite where the quadrature failed.

    roots is what _slice_rows gives for ts.  W, the antiderivative of p w,
    is read once per point from the nearer end (quadrature.read_both): at
    each zero, at each t, and at 0 and T, where it is exactly 0 from its
    own end.  The integral of a piece between two points is alpha dW1 +
    beta dW2, with (alpha, beta) of its side of t and dW the integral of
    p w between them, decoded from their reads by quadrature.span.  A piece
    counts as positive or negative by the sign of its own weighted integral
    (zero counts as positive).
    """
    if kernel._fixed_zeros is None:
        return _row_parts(kernel, ts, roots, weight)
    return _fixed_parts(kernel, ts, roots, weight)


def _row_parts(kernel, ts, roots, weight) -> tuple[np.ndarray, np.ndarray]:
    """_slice_parts on a paired kernel, whose zeros move with t: roots is
    (flat, counts, sides).  Row i lays out 0, its zeros and t in order,
    and T, one row after another; one np.bincount per sign sums the pieces
    of every slice."""
    flat, k, sides = roots
    n = len(ts)
    rows = np.arange(n)
    root_row = rows.repeat(k)
    past = flat > ts[root_row]
    before = k - np.bincount(root_row[past], minlength=n)
    # every row's 0 and T are read once: W is exactly 0 from its own end
    x = np.concatenate([flat, ts, (0.0, kernel.T)])
    S, left, total = read_both(kernel, weight, x)
    # row i holds k[i] + 3 points from start[i]: 0, the zeros left of t,
    # t, the zeros right of t, and T
    start = k.cumsum() - k + 3 * rows
    at = np.empty(len(flat) + 3 * n, dtype=np.intp)
    at[start] = len(x) - 2
    at[start + k + 2] = len(x) - 1
    # t stands at mid[i] in row i
    mid = start + before + 1
    at[mid] = len(flat) + rows
    at[np.arange(len(flat)) + 3 * root_row + 1 + past] = np.arange(len(flat))
    S, left = S.take(at, axis=1), left.take(at)
    # piece j runs from point j to j + 1, on row i's side s <= t below
    # mid[i] and past t from there; the one from row i's T to the next
    # row's 0 reads 0 and adds nothing
    dW = span(S[:, :-1], left[:-1], S[:, 1:], left[1:], total[:, None])
    row = rows.repeat(k + 3)[:-1]
    alpha, beta = sides.take(row + n * (np.arange(len(row)) >= mid[row]), axis=1)
    piece = alpha * dW[0] + beta * dW[1]
    return (np.bincount(row, np.maximum(piece, 0.0), minlength=n),
            -np.bincount(row, np.minimum(piece, 0.0), minlength=n))


def _fixed_parts(kernel, ts, factor, weight) -> tuple[np.ndarray, np.ndarray]:
    """_slice_parts on a separated kernel, factor the (phi_R(t), u_c(t))
    of ts.

    G(t, .) is phi_R(t) u_c left of t and u_c(t) phi_R right of it
    (Kernel._separated), so the pieces from 0 between the zeros of
    u_c, and those between the zeros of phi_R up to T, are those of every
    slice times its factor.  Their integrals are summed once, by sign, from
    0 and from T, into one table over the fixed points (0, the zeros and
    T), with W and its side there.  Each row reads the table at the two
    fixed points it holds (Kernel._held): takes the sums, the positive ones
    as its positive part where its factor is positive and as its negative
    part where it is negative, and adds its two partial pieces: from the
    last zero of u_c at or below t (or 0) to t, and from t to the first
    zero of phi_R past it (or T).
    """
    u_zeros, phi_zeros = kernel._fixed_zeros
    m, f = len(u_zeros), len(u_zeros) + len(phi_zeros) + 2
    # the fixed points: 0 and the zeros of u_c, the zeros of phi_R and T;
    # then every t
    x = np.concatenate([(0.0,), u_zeros, phi_zeros, (kernel.T,), ts])
    S, left, total = read_both(kernel, weight, x)
    # the piece from each fixed point to the next: those of u_c, one that
    # no slice holds whole, then those of phi_R
    phi_w, u_w = kernel._separated(
        span(S[:, :f - 1], left[:f - 1], S[:, 1:f], left[1:f], total[:, None]))
    # at each fixed point the positive and negative sums of the pieces a
    # slice holds with it, of u_c below it from 0 and of phi_R past it to
    # T (summed from T backwards), then W there and its side
    table = np.zeros((5, f))
    table[0, 1:m + 1] = u_w[:m]
    table[0, f - 2:m:-1] = phi_w[:m:-1]
    np.minimum(table[0], 0.0, out=table[1])
    np.maximum(table[0], 0.0, out=table[0])
    np.add.accumulate(table[:2, 1:m + 1], axis=1, out=table[:2, 1:m + 1])
    np.add.accumulate(table[:2, f - 2:m:-1], axis=1, out=table[:2, f - 2:m:-1])
    table[2:4] = S[:, :f]
    table[4] = left[:f]
    # each row's fixed points: the last of 0 and the zeros of u_c at or
    # below t, and the first of the zeros of phi_R and T past it
    held = kernel._held(ts)
    held[1] += m + 1
    # the table there, shape (5, 2, len(ts)): row of table, point, t
    ends = table.take(held, axis=1)
    # the partial pieces, of u_c from its point to t and of phi_R past t
    St, left_t = S[:, f:], left[f:]
    u_w = kernel._separated(span(ends[2:4, 0], ends[4, 0], St, left_t, total[:, None]))[1]
    phi_w = kernel._separated(span(St, left_t, ends[2:4, 1], ends[4, 1], total[:, None]))[0]
    part = factor * (u_w, phi_w)
    sums = ends[:2]
    pos, neg = (np.where(factor >= 0.0, sums, sums[::-1]) * factor).sum(axis=1)
    pos += np.maximum(part, 0.0).sum(axis=0)
    neg += np.minimum(part, 0.0).sum(axis=0)
    return pos, -neg


def _slice_ratios(kernel, ts, roots, weight, need_positive) -> np.ndarray:
    """N/D at every t in ts, whose slices have the zeros roots.

    Raises at the first slice, in the order of ts, whose quadrature is not
    finite or, where need_positive holds, whose weighted integral N - D is
    not positive.
    """
    pos, neg = _slice_parts(kernel, ts, roots, weight)
    net = pos - neg              # finite only where both parts are
    # a net that is not finite fails the positive test too: NaN, or an
    # infinite part, which makes the bound infinite or net -inf
    ok = np.where(need_positive, net > 1e-13 * np.maximum(pos, 1e-300), np.isfinite(net))
    if not ok.all():
        k = int(ok.argmin())
        if not np.isfinite(net[k]):
            raise QuadratureFailure(f"non-finite slice integral at t = {ts[k]}")
        raise NonpositiveWeightedIntegral(
            f"weighted integral of the kernel is not positive at t = {ts[k]}")
    return _ratio(pos, neg)


def _ratio(pos, neg):
    """pos/neg elementwise, +inf where the negative part counts as absent;
    a float for scalar arguments."""
    absent = neg <= NEG_PART_REL_TOL * np.maximum(pos, 1e-300)
    r = np.where(absent, math.inf, pos / np.where(absent, 1.0, neg))
    return r if r.ndim else float(r)


def pointwise_ratio(kernel, t, weight=None):
    """N(t)/D(t) by the quadrature path, at a t in [0, T] or at every t of
    an array (one antiderivative table serves them all): a float for a
    scalar t, an array shaped as t otherwise.

    Raises OutOfRange outside [0, T] and at an end where the boundary
    condition pins the whole slice to zero, so that N and D both vanish.
    """
    t = np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    kernel._require_in(ts)
    pinned = kernel.pinned(ts)
    if pinned.any():
        raise OutOfRange(f"{kernel.bc} conditions pin the slice at t = "
                         f"{ts[pinned.argmax()]:.6g} to zero")
    rs = _slice_ratios(kernel, ts, _slice_rows(kernel, ts), weight, need_positive=False)
    return float(rs[0]) if t.ndim == 0 else rs.reshape(t.shape)


def _t_independent(kernel, weight) -> bool:
    """Whether N(t) and D(t) are the same at every t: on a constant
    potential's exact pair under periodic conditions G(t, s) is g(t - s) on
    the circle, so every slice is a translate of one, and a constant weight
    (exact_weight at omega 0) weighs each alike."""
    if kernel.form != "closed" or kernel.bc.multiplier != 1:
        return False
    exact = exact_weight(weight)
    return exact is not None and exact[0] == 0.0


def gamma_quadrature(kernel, weight=None, t_grid_size: int = T_GRID_SIZE) -> GammaResult:
    """Infimum over t of the weighted positive/negative part ratio.

    weight of None means the constant weight one, labelled One; any other
    weight is labelled PrincipalEigenfunction.  At an end where the
    boundary condition forces the whole slice to zero, the ratio is that of
    the limit slice G(t, .) / |t - end| as t tends to the end, which the
    kernel's separable form gives exactly (Kernel._limit_pair); its weighted
    integral need not be positive.  The zeros of the slices do not depend
    on the weight: the kernel keeps them per t_grid_size for later calls.
    Where the ratio does not depend on t (_t_independent) only the slice
    at t = 0 is read, whatever t_grid_size.  Raises ValueError where
    t_grid_size is below 1.
    """
    if t_grid_size < 1:
        raise ValueError(f"t_grid_size needs at least 1 node, got {t_grid_size}")
    label = "One" if weight is None else "PrincipalEigenfunction"
    # every slice of a t-independent ratio reads as the one at t = 0, where
    # the tie rule puts the minimum
    size = 1 if _t_independent(kernel, weight) else t_grid_size
    ts = np.linspace(0.0, kernel.T, size)
    found = kernel._grid_roots.get(size)
    if found is None:
        # the zeros of the limit slices at pinned ends included, and the
        # sides of every slice
        found = kernel._grid_roots[size] = _slice_rows(kernel, ts)
    ratios = _slice_ratios(kernel, ts, found, weight, need_positive=~kernel.pinned(ts))
    vmin = float(ratios.min())
    if math.isinf(vmin):
        return GammaResult(math.inf, 0.0, "Quadrature", label)
    # ties resolve to the smaller t, counting values within rounding noise of
    # the minimum as tied (symmetric kernels attain it at both endpoints)
    i = int((ratios <= vmin * (1.0 + 1e-12)).argmax())
    return GammaResult(float(ratios[i]), float(ts[i]), "Quadrature", label)


def gamma_periodic_closed(rho: float, T: float = 1.0) -> GammaResult:
    """Piecewise closed form for the periodic constant-potential ratio.

    The ratio is t-independent there; the reported argmin is 0.  Values at
    odd multiples of pi/T are the (continuous) one-sided limits.  For
    rho*T/pi in (1, 2) the denominator 1 - sin(rho*T/2), which cancels as
    rho*T nears pi, is taken as 2 sin^2((rho*T - pi)/4).
    """
    return _periodic_closed(rho, T)


def _periodic_closed(rho: float, T: float, potential=None) -> GammaResult:
    """gamma_periodic_closed, checked for resonance on potential, the
    constant one of rho and T, or on a fresh one."""
    x = rho * T / math.pi
    if x <= 1.0:
        raise OutOfRange(
            f"rho*T = {rho * T:.6g} <= pi: the kernel does not change sign")
    require_kernel(constant(rho, T) if potential is None else potential,
                   BoundaryKind.PERIODIC)
    m = int(math.floor(x))
    sn = math.sin(rho * T / 2)
    note = None
    if m % 4 == 1:
        k = (m - 1) // 4
        if m == 1:
            value = 0.5 / math.sin(((rho * T - math.pi) - PI_LO) / 4) ** 2
        else:
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


def _dirichlet_domain_check(rho: float, potential=None) -> None:
    """Refuse rho outside the Dirichlet closed forms' domain, then check
    resonance on potential, the constant one of rho on T = 1, or on a
    fresh one."""
    if not (math.pi < rho < 6 * math.pi):
        raise OutOfRange(f"closed form requires pi < rho < 6*pi, got {rho:.6g}")
    require_kernel(constant(rho) if potential is None else potential,
                   BoundaryKind.DIRICHLET)


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
    """Boundary limit of the Dirichlet ratio on T = 1, where its infimum sits.

    For pi < rho < 2 pi the ratio is rho sin a / (rho sin a - pi sin b) with
    a = pi d / rho and b = d = rho - pi, whose denominator cancels as rho
    nears pi.  It is pi d (sinc a - sinc b), summed as the power series
    (b^2 - a^2) sum_n (-1)^(n+1) h_(n-1)(a^2, b^2) / (2n+1)!, where h_k is
    the sum of the k + 1 products a^(2j) b^(2(k-j)) and b^2 - a^2 = d^3 (rho +
    pi) / rho^2 carries the cancellation exactly.
    """
    return _dirichlet_closed(rho)


def _dirichlet_closed(rho: float, potential=None) -> GammaResult:
    """gamma_dirichlet_closed, checked for resonance on potential, the
    constant one of rho on T = 1, or on a fresh one."""
    _dirichlet_domain_check(rho, potential)
    m = int(math.floor(rho / math.pi))
    if m == 1:
        d = (rho - math.pi) - PI_LO
        a = math.pi * d / rho
        # for every d < pi the 15th term is below 1e-18 of the sum
        series, h, a2n, c = 0.0, 1.0, 1.0, 1.0 / 6.0
        for n in range(1, 16):
            series += (-1) ** (n + 1) * h * c
            a2n *= a * a
            h = d * d * h + a2n
            c /= (2 * n + 2) * (2 * n + 3)
        value = rho * math.sin(a) / (math.pi * d**4 * (rho + math.pi) / rho**2 * series)
    else:
        total = sum(math.sin(i * math.pi**2 / rho) for i in range(1, m + 1))
        sgn = 1.0 if m % 2 == 1 else -1.0
        value = rho * total / (rho * total + sgn * math.pi * math.sin(rho))
    return GammaResult(value, 0.0, "ClosedFormDirichletT1", "PrincipalEigenfunction")


def gamma_closed(potential: Potential, bc: BoundaryKind) -> GammaResult | None:
    """The closed form covering (potential, bc), None where none does.

    Both closed forms encode the principal-eigenfunction weight (constant
    for the periodic problem, sin(pi t) for the clamped one), so they can
    stand in for the quadrature path with that weight.  The resonance check
    is made on the potential given, whose pair (fundamental_pair) a kernel
    of it shares.
    """
    if not isinstance(potential, ConstantPotential):
        return None
    rho, T = potential.rho, potential.interval.T
    if bc is BoundaryKind.PERIODIC:
        try:
            return _periodic_closed(rho, T, potential)
        except OutOfRange:
            return None
    if bc is BoundaryKind.DIRICHLET and T == 1.0 and math.pi < rho < 6 * math.pi:
        return _dirichlet_closed(rho, potential)
    return None


def gamma_star(kernel, potential: Potential, t_grid_size: int = T_GRID_SIZE) -> GammaResult:
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
    return replace(gamma_quadrature(kernel, potential, t_grid_size),
                   weight="Coefficient")
