"""Linear and fixed-point solvers built on a Green's kernel.

The linear problem u = integral of G(t, s) sigma(s) ds is evaluated by
panel Gauss quadrature at every output node, with panels split at the
diagonal kink, the kernel's sign changes, and the coefficient's
breakpoints.  The nonlinear problem u = integral of G(t, s) f(s, u(s)) ds
runs damped Picard iteration through the same quadrature, so a fixed
point of the iteration is a fixed point of the reported operator, and an
x-independent f reproduces the linear solve exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import cone_membership
from .errors import EvaluationFailure, QuadratureFailure
from .potentials import BoundaryKind
from .quadrature import default_max_len, panel_plan, slice_points

POSITIVITY_TOL = 1e-9
DIVERGENCE_CAP = 1e12
MAX_BREAKPOINT_SPLITS = 64

# one-sided five-point first-derivative stencil, O(h^4)
_D5 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0


class Positivity(Enum):
    POSITIVE = "Positive"
    NONNEGATIVE = "Nonnegative"
    CHANGES_SIGN = "ChangesSign"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class SolutionProfile:
    grid: np.ndarray
    values: np.ndarray
    residual_norm: float
    bc_error: float
    positivity: Positivity
    bc: BoundaryKind
    iterations: int = 0
    converged: bool = True
    fixed_point_residual: float | None = None

    def to_dict(self, include_values: bool = False) -> dict:
        out = {"residual_norm": self.residual_norm,
               "bc_error": self.bc_error,
               "positivity": str(self.positivity),
               "bc": str(self.bc),
               "iterations": self.iterations,
               "converged": self.converged,
               "fixed_point_residual": self.fixed_point_residual,
               "grid_size": int(len(self.grid)),
               "min": float(np.min(self.values)),
               "max": float(np.max(self.values))}
        if include_values:
            out["t"] = [float(v) for v in self.grid]
            out["u"] = [float(v) for v in self.values]
        return out


@dataclass(frozen=True)
class VerificationRecord:
    residual_norm: float
    bc_error: float
    positivity: Positivity
    cone_ok: bool | None = None


def _as_grid(kernel, grid) -> np.ndarray:
    if np.ndim(grid) == 0:
        n = int(grid)
        if n < 5:
            raise ValueError(f"grid needs at least 5 nodes, got {n}")
        return np.linspace(0.0, kernel.T, n)
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or len(ts) < 5 or np.any(np.diff(ts) <= 0):
        raise ValueError("grid must be a strictly increasing 1-d array")
    if ts[0] < -1e-12 or ts[-1] > kernel.T + 1e-12:
        raise ValueError(f"grid leaves the interval [0, {kernel.T}]")
    return ts


class _NodeQuadrature:
    """Per-node panel quadrature against a fixed kernel, flattened so one
    vectorized kernel evaluation and one reduceat serve all output nodes.

    roots, the zeros of every slice G(t, .), default to _slice_roots over
    ts; they depend neither on the order nor on the panel cap, so a second
    quadrature on the same ts can reuse them.
    """

    def __init__(self, kernel, ts: np.ndarray, order: int = 16,
                 max_len: float | None = None, roots: list | None = None):
        pot = kernel.potential
        if max_len is None:
            max_len = default_max_len(pot)
        if roots is None:
            roots = _slice_roots(kernel, ts)
        brk = pot.breakpoints
        brk = brk if len(brk) <= MAX_BREAKPOINT_SPLITS else ()
        n = len(ts)
        plan = panel_plan(np.zeros(n), np.full(n, kernel.T),
                          *slice_points(ts, roots, brk), max_len, order)
        starts = plan.offsets * order
        self.ts = ts
        self.roots = roots
        self.xs = plan.xs.ravel()
        self.offsets = starts[:-1]
        trep = np.repeat(ts, np.diff(starts))
        g = np.asarray(kernel(trep, self.xs), dtype=float)
        self.coeff = plan.weights.ravel() * g

    def apply(self, sigma_at_xs: np.ndarray) -> np.ndarray:
        vals = self.coeff * sigma_at_xs
        if np.any(~np.isfinite(vals)):
            raise QuadratureFailure("non-finite integrand in the solve")
        return np.add.reduceat(vals, self.offsets)


def _slice_roots(kernel, ts: np.ndarray) -> list[np.ndarray]:
    """kernel.s_roots_many(ts), but none for a slice that the boundary
    condition pins to zero (t = 0 or T): a scan of such a slice finds only
    rounding noise, and every "root" would split its panels."""
    left, right = kernel.bc.pinned_ends
    pinned = (left & (ts == 0.0)) | (right & (ts == kernel.T))
    live = iter(kernel.s_roots_many(ts[~pinned]))
    return [np.zeros(0) if pin else next(live) for pin in pinned]


def _lagrange_weights(ts: np.ndarray, xs: np.ndarray):
    """(j, rows): the first node j of each x's 4-point Lagrange stencil on
    ts, and an iterator over the four weight rows of the stencil."""
    j = np.searchsorted(ts, xs, side="right") - 1
    j = (np.clip(j, 1, len(ts) - 3) - 1).astype(np.int32)

    def rows():
        for k in range(4):
            w = np.ones_like(xs)
            tk = ts[j + k]
            for l in range(4):
                if l != k:
                    tl = ts[j + l]
                    w *= (xs - tl) / (tk - tl)
            yield w
    return j, rows()


def _combine(j: np.ndarray, rows, us: np.ndarray) -> np.ndarray:
    out = np.zeros(len(j))
    for k, w in enumerate(rows):
        out += w * us[j + k]
    return out


def _cubic_interp(ts: np.ndarray, us: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Local 4-point Lagrange interpolation of grid samples, O(h^4)."""
    return _combine(*_lagrange_weights(ts, xs), us)


class _Stencil:
    """_cubic_interp from ts to fixed points xs, its cells and weights
    built once for the many us of a Picard iteration."""

    def __init__(self, ts: np.ndarray, xs: np.ndarray):
        self.j, rows = _lagrange_weights(ts, xs)
        self.w = np.empty((4, len(xs)))
        for k, w in enumerate(rows):
            self.w[k] = w

    def __call__(self, us: np.ndarray) -> np.ndarray:
        return _combine(self.j, self.w, us)


def _classify_positivity(us: np.ndarray) -> Positivity:
    interior = us[1:-1]
    lo = float(np.min(interior))
    if lo > POSITIVITY_TOL:
        return Positivity.POSITIVE
    if lo >= -POSITIVITY_TOL:
        return Positivity.NONNEGATIVE
    return Positivity.CHANGES_SIGN


def _end_derivatives(ts: np.ndarray, us: np.ndarray) -> tuple[float, float]:
    h0 = ts[1] - ts[0]
    hT = ts[-1] - ts[-2]
    d0 = float(_D5 @ us[:5]) / h0
    dT = -float(_D5 @ us[::-1][:5]) / hT
    return d0, dT


def _bc_error(ts: np.ndarray, us: np.ndarray, bc: BoundaryKind) -> float:
    u0, uT = float(us[0]), float(us[-1])
    d0, dT = _end_derivatives(ts, us)
    if bc is BoundaryKind.PERIODIC:
        return max(abs(u0 - uT), abs(d0 - dT))
    if bc is BoundaryKind.ANTIPERIODIC:
        return max(abs(u0 + uT), abs(d0 + dT))
    if bc is BoundaryKind.DIRICHLET:
        return max(abs(u0), abs(uT))
    if bc is BoundaryKind.NEUMANN:
        return max(abs(d0), abs(dT))
    if bc is BoundaryKind.MIXED1:
        return max(abs(u0), abs(dT))
    return max(abs(d0), abs(uT))


def _second_difference_residual(ts: np.ndarray, us: np.ndarray, potential,
                                rhs_vals: np.ndarray) -> float:
    h0 = ts[1:-1] - ts[:-2]
    h1 = ts[2:] - ts[1:-1]
    upp = 2.0 * (us[:-2] / (h0 * (h0 + h1)) - us[1:-1] / (h0 * h1)
                 + us[2:] / (h1 * (h0 + h1)))
    a = np.asarray(potential(ts[1:-1]), dtype=float)
    res = upp + a * us[1:-1] - rhs_vals[1:-1]
    return float(np.max(np.abs(res)))


def _rhs_values(rhs, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate a right-hand side that is either sigma(t) or f(t, x)."""
    try:
        vals = rhs(ts, us)
    except TypeError:
        vals = rhs(ts)
    return np.broadcast_to(np.asarray(vals, dtype=float), ts.shape)


def solve_linear(kernel, sigma, grid, order: int = 16) -> SolutionProfile:
    """u(t) = integral of G(t, s) sigma(s) ds at every grid node."""
    ts = _as_grid(kernel, grid)
    quad = _NodeQuadrature(kernel, ts, order)
    sig = np.asarray(sigma(quad.xs), dtype=float)
    us = quad.apply(np.broadcast_to(sig, quad.xs.shape))
    rhs_vals = np.broadcast_to(np.asarray(sigma(ts), dtype=float), ts.shape)
    return SolutionProfile(
        grid=ts, values=us,
        residual_norm=_second_difference_residual(ts, us, kernel.potential,
                                                  rhs_vals),
        bc_error=_bc_error(ts, us, kernel.bc),
        positivity=_classify_positivity(us),
        bc=kernel.bc)


def solve_nonlinear(kernel, f, grid, damping: float = 0.5,
                    max_iter: int = 200, tol: float = 1e-10,
                    order: int = 16) -> SolutionProfile:
    """Damped Picard iteration for u = integral of G(t, s) f(s, u(s)) ds.

    Starts from the image of the zero function, mixes each step with the
    damping weight, and stops when successive iterates agree to tol.  A
    non-contractive problem is reported through converged=False rather
    than raised.  On convergence the fixed-point residual is re-measured
    with a finer, independent quadrature.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    ts = _as_grid(kernel, grid)
    quad = _NodeQuadrature(kernel, ts, order)
    stencil = _Stencil(ts, quad.xs)

    def image(us: np.ndarray) -> np.ndarray:
        fx = np.asarray(f(quad.xs, stencil(us)), dtype=float)
        if np.any(~np.isfinite(fx)):
            raise EvaluationFailure("f returned a non-finite value")
        return quad.apply(np.broadcast_to(fx, quad.xs.shape))

    us = image(np.zeros_like(ts))
    iterations = 0
    converged = False
    for _ in range(max_iter):
        nxt = (1.0 - damping) * us + damping * image(us)
        step = float(np.max(np.abs(nxt - us)))
        us = nxt
        iterations += 1
        if not np.isfinite(step) or float(np.max(np.abs(us))) > DIVERGENCE_CAP:
            break
        if step <= tol:
            converged = True
            break

    fp_resid = None
    if converged:
        # free the coarse tables before the finer, larger ones are built;
        # the roots are all the finer quadrature needs from them
        roots = quad.roots
        del quad, stencil
        fine = _NodeQuadrature(kernel, ts, order + 8,
                               default_max_len(kernel.potential) / 2,
                               roots=roots)
        ux = _cubic_interp(ts, us, fine.xs)
        fx = np.asarray(f(fine.xs, ux), dtype=float)
        fp_resid = float(np.max(np.abs(
            fine.apply(np.broadcast_to(fx, fine.xs.shape)) - us)))
        if fp_resid > 10.0 * tol:
            converged = False

    rhs_vals = np.asarray(f(ts, us), dtype=float)
    return SolutionProfile(
        grid=ts, values=us,
        residual_norm=_second_difference_residual(ts, us, kernel.potential,
                                                  np.broadcast_to(rhs_vals, ts.shape)),
        bc_error=_bc_error(ts, us, kernel.bc),
        positivity=_classify_positivity(us),
        bc=kernel.bc,
        iterations=iterations,
        converged=converged,
        fixed_point_residual=fp_resid)


def verify_solution(profile: SolutionProfile, potential, rhs,
                    cone=None) -> VerificationRecord:
    """Independent residual, boundary, and positivity check of a profile.

    rhs may be sigma(t) or f(t, x); with a cone given, membership of the
    profile in that cone is checked as well.
    """
    ts, us = profile.grid, profile.values
    rhs_vals = _rhs_values(rhs, ts, us)
    cone_ok = None
    if cone is not None:
        cone_ok = cone_membership(ts, us, cone)
    return VerificationRecord(
        residual_norm=_second_difference_residual(ts, us, potential, rhs_vals),
        bc_error=_bc_error(ts, us, profile.bc),
        positivity=_classify_positivity(us),
        cone_ok=cone_ok)
