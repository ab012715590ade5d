"""Green's functions for u'' + a(t) u = sigma(t) on [0, T].

Every kernel object evaluates G(t, s) elementwise over broadcast arrays and on
outer grids, knows the interior zeros of its slices G(t, .), and reports which
construction produced it.  The numeric kernel evaluates its fundamental pair
on t and on s as given, before they broadcast, so callers pass operands shaped
per row (t of shape (rows, 1) against s of shape (rows, nodes)).  Closed forms exist for constant potentials under
periodic and Dirichlet conditions; every other nonresonant case is served by a
kernel assembled from the RK4 fundamental system.

Separable form of every kernel: with u1, u2 the normalized fundamental pair
(_pair) and k(t, s) = u1(s) u2(t) - u1(t) u2(s) the Cauchy kernel, every
Green's function here has the form

    G(t, s) = [u1(t) u2(t)] C [u1(s) u2(s)]^T + k(t, s) * 1{s <= t}

for a 2x2 coupling matrix C (_C) fixed by the rule of
potentials.BoundaryKind, from the RK4 pair of a numeric kernel or the exact
pair cos(rho t), sin(rho t) / rho of a closed form, whose own G stays its
closed formula.  A
paired condition of multiplier m solves (m I - Phi(T)) C = [[u2, -u1], [u2',
-u1']](T), and det(m I - Phi(T)) must not vanish; for a separated one the
entry (r, c) = BoundaryKind.entry of Phi(T) must not, and C is zero but for
its row c, filled from row r of Phi(T).

Zeros of the numeric kernel's slices: on either side of the diagonal a slice
G(t, .) is alpha u1 + beta u2 for a fixed (alpha, beta), and the pair's
Wronskian is one, so the angle psi of (u1(s), u2(s)) rises strictly and the
slice vanishes exactly where psi = atan2(-alpha, beta) modulo pi (Pruefer's
angle).  Each such target is placed in its grid cell by the lifted node
angles and refined there on the slice's Hermite cubic; no slice is sampled.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IntegratorFailure, ResonantPotential, UnsupportedBoundaryKind
from .fundamental import FundamentalSolutions, base_solutions
from .potentials import BoundaryKind, ConstantPotential, Interval, Potential

RESONANCE_TOL = 1e-9
#: cell halvings that refine a numeric kernel's slice root to rounding level
ROOT_HALVINGS = 52


def _sorted_rows(r: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the entries of r inside (0, T), sorted and without
    repeats, as (flat, counts): the rows one after another, and the length
    of each."""
    r = np.where((r > 0) & (r < T), r, np.inf)
    r.sort(axis=1)
    keep = np.isfinite(r)
    keep[:, 1:] &= r[:, 1:] != r[:, :-1]
    return r[keep], keep.sum(axis=1)


def _require_nonresonant(rho: float, T: float, bc: BoundaryKind) -> None:
    """Raise ResonantPotential where a = rho**2 on [0, T] is resonant under
    periodic or Dirichlet conditions: the boundary determinant is below
    RESONANCE_TOL times the scale of the fundamental solutions."""
    x = rho * T
    sin_env = 1.0 if x >= math.pi / 2 else math.sin(x)  # max |sin(rho t)| on [0, T]
    if bc is BoundaryKind.PERIODIC:
        det, scale = 2.0 - 2.0 * math.cos(x), max(1.0, sin_env / rho, rho * sin_env)
    elif bc is BoundaryKind.DIRICHLET:
        det, scale = math.sin(x) / rho, sin_env / rho
    else:
        raise UnsupportedBoundaryKind(str(bc))
    if abs(det) < RESONANCE_TOL * scale:
        period = "2*pi" if bc is BoundaryKind.PERIODIC else "pi"
        raise ResonantPotential(
            f"rho*T = {x:.6g} is within tolerance of a multiple of {period}")


def _boundary_matrix(fs: FundamentalSolutions, bc: BoundaryKind) -> np.ndarray:
    """Phi(T) of the fundamental pair fs.  Raises ResonantPotential where
    the boundary determinant of the condition is below RESONANCE_TOL times
    the scale of the solutions it is formed from: det(m I - Phi(T)) against
    all four for a paired condition, the entry BoundaryKind.entry against
    its solution for a separated one."""
    series = ((fs.u1, fs.u2), (fs.p1, fs.p2))
    phi = np.array([[x[-1] for x in row] for row in series])
    m = bc.multiplier
    if m:
        det = (m - phi[0, 0]) * (m - phi[1, 1]) - phi[0, 1] * phi[1, 0]
        scale = fs.scale
    else:
        r, c = bc.entry
        det, scale = phi[r, c], float(np.max(np.abs(series[r][c])))
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


class _KernelBase:
    """Shared evaluation plumbing; subclasses fill the coupling pieces."""

    potential: Potential
    bc: BoundaryKind
    form: str

    @property
    def T(self) -> float:
        return self.potential.interval.T

    def _pair(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # coupling matrix entries, as floats
    _C: np.ndarray

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
        after another, and how many each slice has.  A slice that the
        boundary condition pins to zero (t = 0 or T) has none: its values
        are rounding noise, and every "root" of it would split its pieces."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        left, right = self.bc.pinned_ends
        pinned = (left & (ts == 0.0)) | (right & (ts == self.T))
        flat, live = self._live_roots(ts[~pinned])
        counts = np.zeros(len(ts), dtype=live.dtype)
        counts[~pinned] = live
        return flat, counts


class _ClosedFormKernel(_KernelBase):
    """Closed-form kernel: the zeros of its slices are analytic.

    A subclass gives, for every t, candidate zeros and which of them are
    zeros of G(t, .); _live_roots keeps those inside (0, T), sorted and
    without repeats, row by row.
    """

    form = "closed"

    def __init__(self, rho: float, T: float = 1.0):
        _require_nonresonant(rho, T, self.bc)
        self.potential = ConstantPotential(rho, Interval(T))
        self.rho = float(rho)
        x = self.rho * T
        phi = np.array([[math.cos(x), math.sin(x) / self.rho],
                        [-self.rho * math.sin(x), math.cos(x)]])
        self._C = _coupling(phi, self.bc)

    def _pair(self, x):
        # the normalized pair of u'' + rho**2 u = 0, whose Phi(T) is phi above
        x = self.rho * np.asarray(x, dtype=float)
        return np.cos(x), np.sin(x) / self.rho

    def _live_roots(self, ts):
        cand, keep = self._root_candidates(ts)
        return _sorted_rows(np.where(keep, cand, np.inf), self.T)


class PeriodicConstantKernel(_ClosedFormKernel):
    """G for a = rho**2 under periodic conditions; depends only on |t - s|."""

    bc = BoundaryKind.PERIODIC

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(rho, T)
        self._den = 2.0 * rho * (1.0 - math.cos(rho * T))

    def __call__(self, t, s):
        u = np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
        g = (np.sin(self.rho * u) + np.sin(self.rho * (self.T - u))) / self._den
        return g if g.ndim else float(g)

    # each closed form holds these on its own class, where the tracer in
    # perfbench/ finds them
    grid_eval = _KernelBase.grid_eval
    s_roots = _KernelBase.s_roots

    def _root_candidates(self, ts):
        # zeros of cos(rho (u - T/2)) at u = T/2 + (2j+1) pi / (2 rho), u = |t - s|
        rho, T = self.rho, self.T
        jmax = int(rho * T / math.pi) + 2
        us = T / 2 + (2 * np.arange(-jmax, jmax + 1) + 1) * math.pi / (2 * rho)
        us = us[(us > 0) & (us < T)]
        cand = np.concatenate([ts[:, None] - us, ts[:, None] + us], axis=1)
        return cand, np.ones(cand.shape, dtype=bool)


class DirichletConstantKernel(_ClosedFormKernel):
    """G for a = rho**2 with u(0) = u(T) = 0; symmetric in (t, s)."""

    bc = BoundaryKind.DIRICHLET

    def __init__(self, rho: float, T: float = 1.0):
        super().__init__(rho, T)
        self._den = rho * math.sin(rho * T)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        lo = np.minimum(t, s)
        hi = np.maximum(t, s)
        g = -np.sin(self.rho * lo) * np.sin(self.rho * (self.T - hi)) / self._den
        return g if g.ndim else float(g)

    grid_eval = _KernelBase.grid_eval
    s_roots = _KernelBase.s_roots

    def _root_candidates(self, ts):
        # zeros of sin(rho s) left of t and of sin(rho (T - s)) right of it
        rho, T = self.rho, self.T
        j = np.arange(1, int(rho * T / math.pi) + 1)
        left = j * math.pi / rho
        right = T - j * math.pi / rho
        cand = np.concatenate([np.broadcast_to(left, (len(ts), len(j))),
                               np.broadcast_to(right, (len(ts), len(j)))], axis=1)
        keep = np.concatenate([left < ts[:, None], right > ts[:, None]], axis=1)
        return cand, keep


class NumericKernel(_KernelBase):
    """Kernel for any nonresonant potential/boundary pair, built from the
    fundamental system sampled on a uniform grid (cubic Hermite between nodes).
    """

    form = "numeric"

    def __init__(self, potential: Potential, bc: BoundaryKind, grid_size: int | None = None):
        if not isinstance(bc, BoundaryKind):
            raise UnsupportedBoundaryKind(repr(bc))
        fs = base_solutions(potential, grid_size)
        self.potential = potential
        self.bc = bc
        self.fs = fs
        self._angles = None
        self._C = _coupling(_boundary_matrix(fs, bc), bc)

    def _pair(self, x):
        return self.fs.eval_pair(x)

    def _node_angles(self) -> np.ndarray:
        """Lifted angle psi of (u1, u2) at the grid nodes, tabulated on the
        first root request.  A cell must turn psi by less than half a turn,
        so that it holds at most one zero of a slice and the slice changes
        sign across it; a grid too coarse for that is refused."""
        if self._angles is None:
            u1, u2 = self.fs.u1, self.fs.u2
            cross = u1[:-1] * u2[1:] - u2[:-1] * u1[1:]
            if not np.all(cross > 0.0):
                raise IntegratorFailure("the fundamental pair turns by half a turn "
                                        "or more in one grid cell; the grid is too coarse")
            turn = np.arctan2(cross, u1[:-1] * u1[1:] + u2[:-1] * u2[1:])
            self._angles = math.atan2(u2[0], u1[0]) + np.concatenate([[0.0], np.cumsum(turn)])
        return self._angles

    def _live_roots(self, ts):
        """Slice zeros where psi meets its targets (see the module
        docstring).  On a side that reaches an end the condition pins, the
        target that is that end is dropped by its index."""
        n = len(ts)
        psi = self._node_angles()
        # rows 0..n-1 are the sides s <= t, rows n..2n-1 the sides s > t
        alpha, beta = self._sides(ts)
        phi = np.arctan2(-alpha, beta)
        k = (np.floor((psi[0] - phi) / np.pi)[:, None]
             + np.arange(math.ceil((psi[-1] - psi[0]) / np.pi) + 2))
        cell = np.searchsorted(psi, phi[:, None] + k * np.pi) - 1
        keep = (cell >= 0) & (cell < len(psi) - 1)
        pinned = np.repeat(self.bc.pinned_ends, n)
        end = np.repeat([psi[0], psi[-1]], n)
        keep &= ~pinned[:, None] | (k != np.round((end - phi) / np.pi)[:, None])

        row = np.nonzero(keep)[0]
        a, b, cell = alpha[row], beta[row], cell[keep]
        lo, hi = self.fs.ts[cell], self.fs.ts[cell + 1]
        # past the target phi + k pi the slice has the sign of (-1)**k
        up = k[keep] % 2 == 0
        for _ in range(ROOT_HALVINGS):
            mid = 0.5 * (lo + hi)
            u1m, u2m = self.fs.eval_pair(mid)
            past = (a * u1m + b * u2m > 0.0) == up
            lo = np.where(past, lo, mid)
            hi = np.where(past, mid, hi)
        r = np.full(keep.shape, np.inf)
        r[keep] = 0.5 * (lo + hi)
        left, right = r[:n], r[n:]
        return _sorted_rows(np.concatenate([np.where(left <= ts[:, None], left, np.inf),
                                            np.where(right > ts[:, None], right, np.inf)],
                                           axis=1), self.T)


def _closed_form(potential: Potential, bc: BoundaryKind):
    """The closed-form kernel class of this pairing, or None."""
    if isinstance(potential, ConstantPotential):
        return {BoundaryKind.PERIODIC: PeriodicConstantKernel,
                BoundaryKind.DIRICHLET: DirichletConstantKernel}.get(bc)
    return None


def build_kernel(potential: Potential, bc: BoundaryKind,
                 grid_size: int | None = None):
    """Closed form when one exists for this pairing, numeric otherwise."""
    closed = _closed_form(potential, bc)
    if closed:
        return closed(potential.rho, potential.interval.T)
    return NumericKernel(potential, bc, grid_size)


def require_kernel(potential: Potential, bc: BoundaryKind,
                   grid_size: int | None = None) -> None:
    """Raise ResonantPotential wherever build_kernel would, by the same
    rule, without building the kernel."""
    if _closed_form(potential, bc):
        _require_nonresonant(potential.rho, potential.interval.T, bc)
    else:
        _boundary_matrix(base_solutions(potential, grid_size), bc)
