"""Green's functions for u'' + a(t) u = sigma(t) on [0, T].

One kernel class (Kernel) serves every (potential, condition) pair, on
one of two fundamental pairs: the exact ConstantPair of a constant
potential (form "closed") or the RK4 FundamentalSolutions of any other
("numeric").  A kernel evaluates G(t, s) elementwise over broadcast arrays
and on outer grids, and knows the interior zeros of its slices G(t, .).  It
evaluates its pair on t and on s as given, before they broadcast, so
callers pass operands shaped per row (t of shape (rows, 1) against s of
shape (rows, nodes)).

Separable form of every kernel: with u1, u2 the normalized fundamental pair
(_pair) and k(t, s) = u1(s) u2(t) - u1(t) u2(s) the Cauchy kernel, every
Green's function here has the form

    G(t, s) = [u1(t) u2(t)] C [u1(s) u2(s)]^T + k(t, s) * 1{s <= t}

for a 2x2 coupling matrix C (_C) fixed by the rule of
potentials.BoundaryKind from Phi(T) of the pair.  A paired condition of
multiplier m solves (m I - Phi(T)) C = [[u2, -u1], [u2', -u1']](T), and
det(m I - Phi(T)) must not vanish; for a separated one the entry (r, c) =
BoundaryKind.entry of Phi(T) must not, and C is zero but for its row c,
filled from row r of Phi(T).  That is the one resonance rule
(_boundary_matrix).  The periodic constant kernel alone is evaluated
through |t - s|, which keeps it exactly symmetric.

Zeros of the slices, one rule for every kernel: on either side of the
diagonal a slice G(t, .) is alpha u1 + beta u2 for a fixed (alpha, beta),
and the pair's Wronskian is one, so a Pruefer angle of the pair rises
strictly and the slice vanishes exactly where it meets the pair's target
for (alpha, beta) modulo pi.  The RK4 pair places each target in its grid
cell by the lifted node angles of (u1, u2) and refines it there on the
slice's Hermite cubic; the exact pair's angle of (u1, rho u2) is rho t,
which it inverts in closed form.  No slice is sampled.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ResonantPotential, UnsupportedBoundaryKind
from .fundamental import ConstantPair, base_solutions, fundamental_pair
from .potentials import BoundaryKind, ConstantPotential, Potential, constant

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
    # neighbour against the entry
    r, c = bc.entry
    C = np.zeros((2, 2))
    C[c] = ((-phi[r, 1] / phi[r, 0], 1.0) if c == 0
            else (-1.0, phi[r, 0] / phi[r, 1]))
    return C


class Kernel:
    """G(t, s) of (potential, bc) from a fundamental pair: the RK4
    FundamentalSolutions of any potential, or the exact ConstantPair of a
    constant one (see the module docstring)."""

    def __init__(self, potential: Potential, bc: BoundaryKind, pair):
        if not isinstance(bc, BoundaryKind):
            raise UnsupportedBoundaryKind(repr(bc))
        self.potential = potential
        self.bc = bc
        self.T = potential.interval.T
        self.fs = pair
        self.form = pair.form  # "closed" on an exact pair, "numeric" on RK4
        self._C = _coupling(_boundary_matrix(pair, bc), bc)

    def _pair(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.fs.eval_pair(x)

    def __call__(self, t, s):
        """G(t, s) over t and s broadcast together.  The pair is evaluated
        on each operand before they broadcast: pass operands shaped per row,
        not repeated per node."""
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        u1t, u2t = self._pair(t)
        u1s, u2s = self._pair(s)
        C = self._C
        g = ((C[0, 0] * u1t + C[1, 0] * u2t) * u1s
             + (C[0, 1] * u1t + C[1, 1] * u2t) * u2s)
        g = g + np.where(s <= t, u1s * u2t - u1t * u2s, 0.0)
        return g if g.ndim else float(g)

    def grid_eval(self, ts, ss) -> np.ndarray:
        """G on the outer grid, shape (len(ts), len(ss))."""
        return self(np.asarray(ts, dtype=float)[:, None], np.asarray(ss, dtype=float)[None, :])

    def _sides(self, ts: np.ndarray) -> np.ndarray:
        """(alpha, beta) with G(t, .) = alpha u1 + beta u2 on each side of
        the diagonal, shape (2, 2 len(ts)): the sides s <= t of every t in
        ts first, then the sides s > t."""
        u1, u2 = p = np.array(self._pair(ts))
        right = self._C.T @ p
        # for s <= t the Cauchy kernel u1(s) u2(t) - u1(t) u2(s) adds (u2, -u1)
        return np.concatenate([right + (u2, -u1), right], axis=1)

    def s_roots(self, t: float) -> np.ndarray:
        """Interior zeros of G(t, .), sorted."""
        return self.s_roots_many([t])[0]

    def s_roots_many(self, ts) -> list[np.ndarray]:
        """s_roots at every t in ts."""
        flat, counts = self.s_roots_flat(ts)
        ends = np.cumsum(counts)
        return [flat[b - c:b] for b, c in zip(ends.tolist(), counts.tolist())]

    def s_roots_flat(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """s_roots_many as (flat, counts): the zeros of every slice one
        after another, and how many each slice has.  They lie where the
        pair's angle meets its targets (see the module docstring); each
        side's zeros come in the order of their angles, and those left of t
        before those right of it, so every row is sorted.  A slice that the
        boundary condition pins to zero (t = 0 or T) has none: its values
        are rounding noise, and every "root" of it would split its pieces.
        On a side that reaches a pinned end, the target that is that end is
        dropped by its index."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        left, right = self.bc.pinned_ends
        pinned = (left & (ts == 0.0)) | (right & (ts == self.T))
        live_ts = ts[~pinned]
        n = len(live_ts)
        pair = self.fs
        psi = pair.angles
        # rows 0..n-1 are the sides s <= t, rows n..2n-1 the sides s > t
        alpha, beta = self._sides(live_ts)
        phi = pair.target(alpha, beta)
        # theta = phi + k pi at k = k0 + j, column j, from the last target
        # at or below psi[0] to the first past psi[-1]
        k0 = np.floor((psi[0] - phi) / np.pi)
        j = np.arange(math.ceil((psi[-1] - psi[0]) / np.pi) + 2)
        theta = np.add.outer(k0, j)
        theta *= np.pi
        theta += phi[:, None]
        keep = theta > psi[0]
        keep &= theta <= psi[-1]
        for side, (end_pinned, end) in enumerate(zip(self.bc.pinned_ends, psi[[0, -1]])):
            if end_pinned:
                rows = slice(side * n, (side + 1) * n)
                keep[rows] &= j != (np.round((end - phi[rows]) / np.pi) - k0[rows])[:, None]
        left, right = np.split(pair.place(theta, keep, alpha, beta, k0), 2)
        # a zero left of t lies in (0, t] and below T, one right of it in (t, T)
        below = np.minimum(live_ts, np.nextafter(self.T, 0.0))[:, None]
        live = np.concatenate([(left > 0.0) & (left <= below),
                               (right > live_ts[:, None]) & (right < self.T)], axis=1)
        counts = np.zeros(len(ts), dtype=int)
        counts[~pinned] = live.sum(axis=1)
        return np.concatenate([left, right], axis=1)[live], counts


#: the name under which the tracer in perfbench/ wraps the kernel's methods
_KernelBase = Kernel


class NumericKernel(Kernel):
    """The kernel on the RK4 pair, sampled on a uniform grid (cubic Hermite
    between nodes), for any nonresonant potential, a constant one too."""

    def __init__(self, potential: Potential, bc: BoundaryKind, grid_size: int | None = None):
        super().__init__(potential, bc, base_solutions(potential, grid_size))


class PeriodicConstantKernel(Kernel):
    """G for a = rho**2 under periodic conditions, on the exact pair.  G
    depends only on |t - s|, through which it is evaluated, so that it is
    exactly symmetric."""

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(constant(rho, T), BoundaryKind.PERIODIC, ConstantPair(rho, T))
        self._den = 2.0 * rho * (1.0 - math.cos(rho * T))

    def __call__(self, t, s):
        u = np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
        rho = self.fs.rho
        g = (np.sin(rho * u) + np.sin(rho * (self.T - u))) / self._den
        return g if g.ndim else float(g)

    # each constant kernel holds these on its own class, where the tracer
    # in perfbench/ finds them
    grid_eval = Kernel.grid_eval
    s_roots = Kernel.s_roots


class DirichletConstantKernel(Kernel):
    """G for a = rho**2 with u(0) = u(T) = 0, on the exact pair."""

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(constant(rho, T), BoundaryKind.DIRICHLET, ConstantPair(rho, T))

    __call__ = Kernel.__call__
    grid_eval = Kernel.grid_eval
    s_roots = Kernel.s_roots


def build_kernel(potential: Potential, bc: BoundaryKind,
                 grid_size: int | None = None):
    """The kernel of (potential, bc) on fundamental_pair(potential,
    grid_size): exact for a constant potential, RK4 otherwise.  A constant
    periodic one is a PeriodicConstantKernel, for its exact symmetry."""
    if isinstance(potential, ConstantPotential) and bc is BoundaryKind.PERIODIC:
        return PeriodicConstantKernel(potential.rho, potential.interval.T)
    return Kernel(potential, bc, fundamental_pair(potential, grid_size))


def require_kernel(potential: Potential, bc: BoundaryKind,
                   grid_size: int | None = None) -> None:
    """Raise ResonantPotential wherever build_kernel would, by the same
    rule, without building the kernel."""
    _boundary_matrix(fundamental_pair(potential, grid_size), bc)
