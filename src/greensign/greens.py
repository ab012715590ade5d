"""Green's functions for u'' + a(t) u = sigma(t) on [0, T].

One kernel class (Kernel) serves every (potential, condition) pair, on
one of two fundamental pairs: the exact ConstantPair of a constant
potential (form "closed") or the RK4 FundamentalSolutions of any other
("numeric").  A kernel evaluates G(t, s) elementwise over broadcast arrays
and on outer grids, and knows the interior zeros of its slices G(t, .).  It
evaluates its pair on t and on s as given, before they broadcast, so
callers pass operands shaped per row (t of shape (rows, 1) against s of
shape (rows, nodes)).

Separable form of every kernel: with p = (u1, u2) the normalized
fundamental pair (_pair), every Green's function here has the form

    G(t, s) = p(min(t, s))^T C p(max(t, s))

for a 2x2 coupling matrix C (_C) fixed by the rule of
potentials.BoundaryKind from Phi(T) of the pair.  A paired condition of
multiplier m solves (m I - Phi(T)) C = [[u2, -u1], [u2', -u1']](T), and
det(m I - Phi(T)) must not vanish; for a separated one the entry (r, c) =
BoundaryKind.entry of Phi(T) must not, and C is zero but for its row c,
filled from row r of Phi(T).  That is the one resonance rule
(_boundary_matrix).  On a separated condition G is thus u_c(min)
phi_R(max), with phi_R = C[c] p the solution that meets the condition at
T (Greengard & Rokhlin 1991).  The pair, and so G, is exactly zero at an
end that the condition pins.

Slice coefficients (_slices): with p the pair at t, G(t, .) is (C p(t)) . p
on s <= t and (C^T p(t)) . p past t, so separable_read, with below and
above the integrals of p g on either side of t, gives the integral of
G(t, s) g(s) ds as (C p) . below + (C^T p) . above and the bulk of its
terms, C p taken apart (|C| |p|), for quadrature.require_no_cancellation.

Zeros of the slices, one rule for every kernel: on either side of the
diagonal a slice G(t, .) is alpha u1 + beta u2 for a fixed (alpha, beta),
and the pair's Wronskian is one, so a Pruefer angle of the pair rises
strictly and the slice vanishes exactly where it meets the pair's target
for (alpha, beta) modulo pi.  The RK4 pair places each target in its grid
cell by the lifted node angles of (u1, u2) and refines it there by
safeguarded Newton steps on the slice's cubic, read off the pair's one
coefficient table; the exact pair's angle of (u1, rho u2) is rho t, which
it inverts in closed form.  No slice is sampled.  On a separated condition
G(t, s) = u_c(min(t, s)) phi_R(max(t, s)), so every slice has the zeros of
u_c left of t and those of phi_R right of it (Coddington & Levinson 1955,
ch. 7): the kernel finds them once, on the limit rows t = T and t = 0
(_fixed_zeros), and slice t holds those of u_c up to t and those of
phi_R past it (_held).  _separated gives the factors phi_R(t) and u_c(t)
of the pair at t (of p'(end) at a pinned end, _limit_pair), and of the
integrals of p w over pieces those of phi_R w and u_c w, with which gamma
sums the fixed pieces once per kernel.  A paired condition's zeros move
with t, and every slice is searched (_search_rows).  A square grid_eval,
such as the max-G lattice of cone, is one branch of the symmetric form
and its mirror.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import OutOfRange, ResonantPotential, UnsupportedBoundaryKind
from .fundamental import ConstantPair, base_solutions, fundamental_pair
from .potentials import BoundaryKind, Potential, constant

RESONANCE_TOL = 1e-9


def _boundary_matrix(pair, bc: BoundaryKind) -> np.ndarray:
    """Phi(T) of the fundamental pair.  Raises ResonantPotential where the
    boundary determinant of the condition is below RESONANCE_TOL times the
    scale of the solutions it is formed from: det(m I - Phi(T)) against the
    sups of all four (and one) for a paired condition, the entry
    BoundaryKind.entry against the sup of its solution for a separated one."""
    phi = pair.phi
    m = bc.multiplier
    if m:
        det = (m - phi[0, 0]) * (m - phi[1, 1]) - phi[0, 1] * phi[1, 0]
        scale = max(float(np.max(pair.sups)), 1.0)
    else:
        r, c = bc.entry
        det, scale = phi[r, c], pair.sups[r, c]
    if abs(det) < RESONANCE_TOL * scale:
        raise ResonantPotential(f"boundary determinant {det:.3e} below tolerance for {bc}")
    return phi


def _coupling(phi: np.ndarray, bc: BoundaryKind) -> np.ndarray:
    """The coupling matrix C of the kernel whose pair has Phi(T) = phi
    (see the module docstring)."""
    m = bc.multiplier
    if m:
        return np.linalg.solve(m * np.eye(2) - phi, phi[:, ::-1] * [1.0, -1.0])
    # for s > t a slice is u_c(t), which meets the condition at 0, times
    # the solution of s that meets it at T: row r weighs the entry's
    # neighbour against the entry, so C[c] holds +-1 at 1 - c
    r, c = bc.entry
    C = np.zeros((2, 2))
    C[c] = ((-phi[r, 1] / phi[r, 0], 1.0) if c == 0
            else (-1.0, phi[r, 0] / phi[r, 1]))
    return C


def _times(C, p) -> tuple[np.ndarray, np.ndarray]:
    """C p entry by entry: each column alike, whatever their number."""
    return C[0, 0] * p[0] + C[0, 1] * p[1], C[1, 0] * p[0] + C[1, 1] * p[1]


def _slices(C, p) -> np.ndarray:
    """(C p, C^T p), shape (2, 2, n), entry by entry as _times: for p the
    pair at t, the coefficients of p(s) in G(t, s) on each side of t."""
    M = np.concatenate([C, C.T])
    return (M[:, :1] * p[0] + M[:, 1:] * p[1]).reshape(2, 2, -1)


def separable_read(coefficients, parts) -> tuple[np.ndarray, np.ndarray]:
    """(value, bulk) at read points from their Kernel._coefficients and
    parts, the integrals of p g below each, then above it, shape (4, ...),
    which the bulk overwrites by their absolute values."""
    sides, sizes = coefficients.reshape(2, 4, *coefficients.shape[3:])
    value = np.einsum("k...,k...->...", sides, parts)
    return value, np.einsum("k...,k...->...", sizes, np.abs(parts, out=parts))


class Kernel:
    """G(t, s) of (potential, bc) from a fundamental pair: the RK4
    FundamentalSolutions of any potential, or the exact ConstantPair of a
    constant one (see the module docstring).  Under a separated condition
    it is u_c(min(t, s)) phi_R(max(t, s)), with u_c = p[c] and phi_R =
    C[c] p (_separated), and the zeros of u_c and phi_R are the kernel's
    (_fixed_zeros): slice t holds those of u_c up to t and those of phi_R
    past it (_held)."""

    def __init__(self, potential: Potential, bc: BoundaryKind, pair):
        if not isinstance(bc, BoundaryKind):
            raise UnsupportedBoundaryKind(repr(bc))
        self.potential = potential
        self.bc = bc
        self.T = potential.interval.T
        self.fs = pair
        self.form = pair.form  # "closed" on an exact pair, "numeric" on RK4
        self._C = _coupling(_boundary_matrix(pair, bc), bc)
        # gamma's _slice_rows on the uniform t-grid of each size: the zeros,
        # sides and factors of the slices do not depend on the weight
        self._grid_roots: dict[int, tuple | np.ndarray] = {}

    def _pair(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(u1, u2) at x, exactly zero at an end that the condition pins."""
        u1, u2 = self.fs.eval_pair(x)
        pinned = self.pinned(x)
        if pinned.any():
            return np.where(pinned, 0.0, u1), np.where(pinned, 0.0, u2)
        return u1, u2

    def __call__(self, t, s):
        """G(t, s) over t and s broadcast together.  The pair is evaluated
        once, on the points of both operands in one call, and C p once on
        each operand, before they broadcast: pass operands shaped per row,
        not repeated per node.  G is the one product p(min) . C p(max)
        whichever operand is the larger, so it is exactly symmetric."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        u1, u2 = self._pair(np.concatenate([t.ravel(), s.ravel()]))
        k = t.size
        pt = u1t, u2t = u1[:k].reshape(t.shape), u2[:k].reshape(t.shape)
        ps = u1s, u2s = u1[k:].reshape(s.shape), u2[k:].reshape(s.shape)
        (c1t, c2t), (c1s, c2s) = _times(self._C, pt), _times(self._C, ps)
        g = np.where(s <= t, u1s * c1t + u2s * c2t, u1t * c1s + u2t * c2s)
        return g if g.ndim else float(g)

    def grid_eval(self, ts, ss) -> np.ndarray:
        """G on the outer grid, shape (len(ts), len(ss)).  On a square one
        (ss is ts, as in cone.max_kernel_value) it is, bit for bit, one
        branch of the symmetric form and its mirror: M[i, j] = (C p(t_i)) .
        p(t_j) is G where t_j <= t_i, and M[j, i] elsewhere."""
        square = ss is ts
        ts = np.asarray(ts, dtype=float)
        if not square:
            return self(ts[:, None], np.asarray(ss, dtype=float)[None, :])
        p = self._pair(ts)
        c1, c2 = _times(self._C, p)
        g = c1[:, None] * p[0]
        g += c2[:, None] * p[1]
        return np.where(ts <= ts[:, None], g, g.T)

    def pinned(self, ts) -> np.ndarray:
        """Where a point of ts is an end that the condition pins
        (BoundaryKind.pinned).  G(t, .) and G(., t) vanish there."""
        return self.bc.pinned(ts, self.T)

    def _limit_pair(self, ts: np.ndarray) -> np.ndarray:
        """The pair at every t of ts, shape (2, len(ts)), but p'(0) = (0, 1)
        at a pinned 0 and -p'(T) at a pinned T.  G(t, .) vanishes at a
        pinned end t, and the limit slice G(t', .) / |t' - t| as t' tends
        to it is the slice of these values in place of p(t)."""
        p = np.array(self.fs.eval_pair(ts))
        left, right = self.bc.pinned_ends
        if left:
            np.copyto(p, ((0.0,), (1.0,)), where=ts == 0.0)
        if right:
            np.copyto(p, -self.fs.phi[1][:, None], where=ts == self.T)
        return p

    def _sides(self, ts: np.ndarray) -> np.ndarray:
        """(alpha, beta) with G(t, .) = alpha u1 + beta u2 on each side of
        the diagonal, shape (2, 2 len(ts)): the _slices of the _limit_pair
        of ts, its sides s <= t first, then its sides s > t.  At a pinned
        end they are those of the limit slice: C is zero but for its row c,
        so on the side that is not empty that slice is exactly that row at
        0, the solution that meets the condition at T, and at T a multiple
        of u_c, its other coefficient exactly zero."""
        return np.concatenate(_slices(self._C, self._limit_pair(ts)), axis=1)

    def _separated(self, v) -> tuple[np.ndarray, np.ndarray]:
        """(C[c] . v, v[c]) for values v of the pair, shape (2, ...), on a
        separated condition, entry by entry as _times: with v = p(t) (or
        the _limit_pair of t) the factors (phi_R(t), u_c(t)) of G(t, .) =
        phi_R(t) u_c left of t and u_c(t) phi_R right of it; with v the
        integrals of p w over pieces, those of phi_R w and of u_c w."""
        c, (C0, C1) = self._separated_row
        return C0 * v[0] + C1 * v[1], v[c]

    @functools.cached_property
    def _separated_row(self) -> tuple[int, tuple[float, float]]:
        """(c, C[c]) of _separated, read once per kernel."""
        c = self.bc.entry[1]
        return c, tuple(self._C[c].tolist())

    def _held(self, ts) -> np.ndarray:
        """(below, above) at every t of ts on a separated condition, shape
        (2, len(ts)): slice t holds the first below of the zeros of u_c,
        those in (0, t], and those of phi_R from index above on, those in
        (t, T) (_fixed_zeros)."""
        u_zeros, phi_zeros = self._fixed_zeros
        return np.array([u_zeros.searchsorted(ts, "right"), phi_zeros.searchsorted(ts, "right")])

    def _coefficients(self, p) -> np.ndarray:
        """separable_read's coefficients at p: _slices of C and p, then of |C| and |p|."""
        return np.array([_slices(self._C, p), _slices(np.abs(self._C), np.abs(p))])

    def _require_in(self, ts: np.ndarray) -> None:
        """Raise OutOfRange at the first t of ts outside [0, T], or NaN."""
        outside = ~((ts >= 0.0) & (ts <= self.T))
        if outside.any():
            raise OutOfRange(f"t = {ts[outside.argmax()]:.6g} is outside [0, {self.T:.6g}]")

    def s_roots(self, t: float) -> np.ndarray:
        """Interior zeros of G(t, .), sorted."""
        return self.s_roots_many([t])[0]

    def s_roots_many(self, ts) -> list[np.ndarray]:
        """s_roots at every t in ts, each in [0, T] (OutOfRange otherwise),
        at the angles of the pair (see the module docstring): on a separated
        condition the zeros of u_c up to t, then those of phi_R past it
        (_held); on a paired one those of a search of every row
        (_search_rows), sorted.  A slice that the condition pins to zero
        (t = 0 or T) has none: it reads exactly zero, and every "root" of
        it would split its pieces."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        self._require_in(ts)
        pinned = self.pinned(ts)
        live = ts[~pinned]
        if self._fixed_zeros is None:
            flat, counts = self._search_rows(live, self._sides(live))
            rows = iter(np.split(flat, counts.cumsum()[:-1]))
        else:
            u_zeros, phi_zeros = self._fixed_zeros
            rows = (np.concatenate([u_zeros[:below], phi_zeros[above:]])
                    for below, above in zip(*self._held(live)))
        return [np.zeros(0) if p else next(rows) for p in pinned.tolist()]

    @functools.cached_property
    def _fixed_zeros(self) -> tuple[np.ndarray, np.ndarray] | None:
        """On a separated condition, the zeros of u_c in (0, T) and those
        of phi_R, each sorted: G(t, .) is phi_R(t) u_c left of t and u_c(t)
        phi_R right of it, so they are those of the limit rows t = T (whose
        slice left of T is a multiple of u_c, see _sides) and t = 0 (phi_R
        right of 0), from _search_rows once per kernel.  None on a paired
        condition, whose zeros move with t."""
        if self.bc.multiplier:
            return None
        ends = np.array([0.0, self.T])
        flat, (right, _) = self._search_rows(ends, self._sides(ends))
        return flat[right:], flat[:right]

    def _search_rows(self, ts: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flat, counts) of the slices at ts, sides the _sides of ts, by a
        search of every row: the zeros one slice after another, and their
        number per slice; at a pinned end those of the limit slice
        (_limit_pair), and a side that reaches a pinned end drops it."""
        n = len(ts)
        pair = self.fs
        psi0, psiT = pair.angles[[0, -1]].tolist()
        # rows 0..n-1 are the sides s <= t, rows n..2n-1 the sides s > t
        alpha, beta = sides
        phi = pair.target(alpha, beta)
        # theta = phi + k pi at k = k0 + j, column j, from the last target
        # at or below psi0 to the first past psiT
        k0 = np.floor((psi0 - phi) / np.pi)
        j = np.arange(math.ceil((psiT - psi0) / np.pi) + 2)
        theta = np.add.outer(k0, j)
        theta *= np.pi
        theta += phi[:, None]
        keep = theta > psi0
        keep &= theta <= psiT
        left_pinned, right_pinned = self.bc.pinned_ends
        if left_pinned or right_pinned:
            # the target at a pinned end is that end: a side that reaches it
            # drops it (an end that is not pinned stands as NaN, which drops
            # nothing)
            ends = np.array([[psi0 if left_pinned else np.nan],
                             [psiT if right_pinned else np.nan]])
            end_k = np.rint((ends - phi.reshape(2, n)) / np.pi) - k0.reshape(2, n)
            keep &= j != end_k.reshape(-1, 1)
        zeros = pair.place(theta, keep, alpha, beta, k0)
        left, right = zeros[:n], zeros[n:]
        # a zero left of t lies in (0, t] and below T, one right of it in (t, T)
        below = np.minimum(ts, math.nextafter(self.T, 0.0))[:, None]
        live = np.concatenate([(left > 0.0) & (left <= below),
                               (right > ts[:, None]) & (right < self.T)], axis=1)
        return np.concatenate([left, right], axis=1)[live], live.sum(axis=1)


#: the name under which the tracer in perfbench/ wraps the kernel's methods
_KernelBase = Kernel


class NumericKernel(Kernel):
    """The kernel on the RK4 pair, sampled on the potential's uniform grid
    (one cubic per grid cell between nodes), for any nonresonant potential,
    a constant one too."""

    def __init__(self, potential: Potential, bc: BoundaryKind):
        super().__init__(potential, bc, base_solutions(potential))


class PeriodicConstantKernel(Kernel):
    """G for a = rho**2 under periodic conditions, on the exact pair."""

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(constant(rho, T), BoundaryKind.PERIODIC, ConstantPair(rho, T))

    # each constant kernel holds these on its own class, where the tracer
    # in perfbench/ finds them
    __call__ = Kernel.__call__
    grid_eval = Kernel.grid_eval
    s_roots = Kernel.s_roots


class DirichletConstantKernel(Kernel):
    """G for a = rho**2 with u(0) = u(T) = 0, on the exact pair."""

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(constant(rho, T), BoundaryKind.DIRICHLET, ConstantPair(rho, T))

    __call__ = Kernel.__call__
    grid_eval = Kernel.grid_eval
    s_roots = Kernel.s_roots


def build_kernel(potential: Potential, bc: BoundaryKind):
    """The kernel of (potential, bc) on fundamental_pair(potential): exact
    for a constant potential, RK4 otherwise."""
    return Kernel(potential, bc, fundamental_pair(potential))


def require_kernel(potential: Potential, bc: BoundaryKind) -> None:
    """Raise ResonantPotential wherever build_kernel would, by the same
    rule, without building the kernel."""
    _boundary_matrix(fundamental_pair(potential), bc)
