"""Linear and fixed-point solvers built on a Green's kernel.

Every kernel here is semiseparable: with p = (u1, u2) its fundamental pair
and C its coupling matrix, G(t, s) = p(min(t, s))^T C p(max(t, s)) (see
greens), so for any integrand g

    integral of G(t, s) g(s) ds = (C p(t)) . P(t) + (C^T p(t)) . (P(T) - P(t)),

where P(x) is the integral of p g over [0, x] (greens.separable_read, on
coefficients built once per solve).  So every output node is read off one
cumulative Gauss quadrature of p g (Greengard & Rokhlin 1991): the cells
of quadrature.CellSums, summed from 0 here (_Cumulative.sums), since
reading P(T) - P(t) from T instead leaves the Cauchy form by up to 22
roundings of max |u|.  Its cells lie between consecutive output nodes
and the nodes of a numeric kernel's grid, capped in length, so no cell
straddles the diagonal kink or a kink of the sampled pair, no slice is
split at its zeros, and every output node is an edge.  A solve lays these
cells out once (_as_grid, by quadrature.cell_edges), and every table of
the solve is built on its edges: the shifted start's, on the pair of the
shifted kernel, and the fine check's, with more points per cell.

The nonlinear problem u = integral of G(t, s) f(s, u(s)) ds runs an
Anderson-accelerated fixed-point iteration through the same sum, on u at
every edge of the table, and reports u at the output nodes.  Between a
cell's two edges u is the Lidstone cubic through u and h^2 u'' there, with
u'' = f(t, u) - a(t) u from the equation, by one reference matrix for
every cell of every layout (_end_data).  So a fixed point of the iteration
is one of the reported operator, and an x-independent f reproduces the
linear solve exactly.  On an exact kernel of a = rho^2 the iteration
starts one quasi-linearization (chord) step past the first image g0: from
the solve of u'' + (rho^2 - c) u = f(t, 0) on the exact kernel of
rho^2 - c, c the secant slope of f along g0 (_shifted_start; Kantorovich
& Akilov 1982), which for f = p(t) + c x is the fixed point.  Its fine
check takes more points on the same cells, read at the edges through the
solve's own coefficients, and u there from the quintic
Hermite interpolant of u, h u' and h^2 u'' at the edges: a finer rule
alone would integrate the cubic exactly and so could not fault it.  u' is
the same read with the pair's slopes p' (eval_slope) in place of p, since
its terms in g cancel.

Where the pair grows fast (a strongly negative potential) the terms of the
sum cancel, as the products in a pointwise G do; a sum whose terms exceed
max |u| by more than quadrature.CANCELLATION_LIMIT raises QuadratureFailure
(quadrature.require_no_cancellation, which the cone applies too).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .cone import cone_membership
from .errors import EvaluationFailure, QuadratureFailure, ResonantPotential
from .fundamental import ConstantPair
from .greens import Kernel, separable_read
from .potentials import BoundaryKind
from .quadrature import (CellSums, cell_edges, default_max_len, gauss_nodes,
                         require_no_cancellation)

POSITIVITY_TOL = 1e-9
DIVERGENCE_CAP = 1e12
#: Past steps whose differences the Anderson mixing of solve_nonlinear keeps.
ANDERSON_DEPTH = 5
#: Gauss points per cell of the cumulative quadrature, and of its fine check
CELL_ORDER = 8
FINE_CELL_ORDER = 12
#: defaults of solve_nonlinear: step weight, step cap, and step tolerance
DAMPING = 0.5
MAX_ITER = 200
TOL = 1e-10

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
            out["t"] = self.grid.tolist()
            out["u"] = self.values.tolist()
        return out


@dataclass(frozen=True)
class VerificationRecord:
    residual_norm: float
    bc_error: float
    positivity: Positivity
    cone_ok: bool | None = None


def _as_grid(kernel, grid) -> tuple[np.ndarray, np.ndarray]:
    """The output nodes ts of grid, a node count or the nodes, and the
    edges of the solve's cells, laid out once (cell_edges)."""
    if np.ndim(grid) == 0:
        n = int(grid)
        if n < 5:
            raise ValueError(f"grid needs at least 5 nodes, got {n}")
        ts = np.linspace(0.0, kernel.T, n)
    else:
        ts = np.asarray(grid, dtype=float)
        if ts.ndim != 1 or len(ts) < 5 or np.any(np.diff(ts) <= 0):
            raise ValueError("grid must be a strictly increasing 1-d array")
        if ts[0] < -1e-12 or ts[-1] > kernel.T + 1e-12:
            raise ValueError(f"grid leaves the interval [0, {kernel.T}]")
    return ts, cell_edges(kernel, ts, default_max_len(kernel.potential))


class _Cumulative(CellSums):
    """The integrals of G(t, s) g(s) ds, for any g sampled at the Gauss
    nodes xs, read off the table's sums from 0 (see the module docstring)
    at the points edges[cols], on the cells of the edges that the solve
    laid out once (_as_grid): the linear solve reads at its output nodes,
    the fixed-point solve and its shifted start at every edge.  The fine
    check's table only sums its cells, which the solve's table reads."""

    def __init__(self, kernel, edges: np.ndarray, cols=slice(None),
                 order: int = CELL_ORDER):
        super().__init__(kernel.fs, edges, order)
        self.points = edges[cols]
        self._cols = cols
        self.kernel = kernel

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Kernel._coefficients of the points, built on their first read."""
        # the pair exactly zero where the condition pins t, not the sum's rounding
        return self.kernel._coefficients(self.kernel._pair(self.points))

    def sums(self, g: np.ndarray) -> np.ndarray:
        """P, the integrals of p g from 0 to every edge, shape (2, edges)."""
        # checked before the sums: inf - inf in them would warn
        cells = self._cells(g)
        if not np.all(np.isfinite(cells)):
            raise QuadratureFailure("non-finite integrand in the solve")
        P = np.zeros((2, cells.shape[1] + 1))
        # finite cells whose sum overflows leave inf quietly, refused here
        with np.errstate(over="ignore"):
            np.cumsum(cells, axis=1, out=P[:, 1:])
        if not np.all(np.isfinite(P)):
            raise QuadratureFailure("non-finite integrand in the solve")
        return P

    def _read(self, P: np.ndarray, coefficients) -> tuple:
        below = P[:, self._cols]
        return separable_read(coefficients, np.concatenate([below, P[:, -1:] - below]))

    def values(self, P: np.ndarray) -> np.ndarray:
        """u at the points from the sums P."""
        us, bulk = self._read(P, self.coefficients)
        require_no_cancellation(bulk, us, "u", "a solve on this potential")
        return us

    def slopes(self, P: np.ndarray) -> np.ndarray:
        """u' at the points from the sums P, through the pair's slopes."""
        slopes = self.kernel.fs.eval_slope(self.points)
        return self._read(P, self.kernel._coefficients(slopes))[0]

    def apply(self, g: np.ndarray) -> np.ndarray:
        return self.values(self.sums(g))


@cache
def _end_data(order: int, derivs: tuple[int, ...]) -> np.ndarray:
    """The (2 len(derivs) x order) matrix from a cell's end data, h**k
    u^(k) for k in derivs at its left end, then at its right end, to the
    polynomial that takes them at the order Gauss nodes: the Lidstone cubic
    for derivs (0, 2), the quintic Hermite for (0, 1, 2).  h**k u^(k) is
    the k-th derivative in y = (t - left) / h, so every cell shares it."""
    powers = range(2 * len(derivs))
    ends = np.array([[math.perm(p, k) * y ** (p - k) if p >= k else 0.0
                      for p in powers] for y in (0.0, 1.0) for k in derivs])
    y = 0.5 * (1.0 + gauss_nodes(order)[0])
    w = np.linalg.solve(ends.T, np.power.outer(y, powers).T)
    w.flags.writeable = False
    return w


def _cell_values(order: int, h: np.ndarray, ders: dict) -> np.ndarray:
    """u at the order Gauss nodes of every cell, flat, from the cells'
    lengths h and ders, which maps each k to u^(k) at the edges, through
    the matrix _end_data(order, tuple(ders))."""
    left = [d[:-1] * h ** k for k, d in ders.items()]
    right = [d[1:] * h ** k for k, d in ders.items()]
    return (np.stack(left + right, axis=1) @ _end_data(order, tuple(ders))).ravel()


def _classify_positivity(us: np.ndarray, bc: BoundaryKind) -> Positivity:
    """Sign verdict on the samples that the condition leaves free."""
    lo = float(np.min(us[bc.unpinned]))
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
    m = bc.multiplier
    if m:
        return max(abs(u0 - m * uT), abs(d0 - m * dT))
    left, right = bc.pinned_ends
    return max(abs(u0 if left else d0), abs(uT if right else dT))


def _second_difference_residual(ts: np.ndarray, us: np.ndarray, potential,
                                rhs_vals: np.ndarray) -> float:
    h0 = ts[1:-1] - ts[:-2]
    h1 = ts[2:] - ts[1:-1]
    upp = 2.0 * (us[:-2] / (h0 * (h0 + h1)) - us[1:-1] / (h0 * h1)
                 + us[2:] / (h1 * (h0 + h1)))
    a = np.asarray(potential(ts[1:-1]), dtype=float)
    res = upp + a * us[1:-1] - rhs_vals[1:-1]
    return float(np.max(np.abs(res)))


def _checks(ts: np.ndarray, us: np.ndarray, potential, rhs_vals,
            bc: BoundaryKind) -> dict:
    """residual_norm, bc_error and positivity of the profile us on ts, for
    the right-hand side with values rhs_vals at ts.

    The differences of a profile near the largest float overflow, so the
    residual and the end stencils read us and rhs_vals divided by the power
    of two that brings the largest of them below 2, if it is larger, and
    scale their results back.  Dividing by a power of two is exact, so the
    outputs keep their bits wherever the values stay in the normal range."""
    rhs_vals = np.broadcast_to(np.asarray(rhs_vals, dtype=float), ts.shape)
    top = max(np.max(np.abs(us)), np.max(np.abs(rhs_vals)))
    scale = math.ldexp(1.0, max(math.frexp(top)[1] - 1, 0))
    return {"residual_norm": scale * _second_difference_residual(
                ts, us / scale, potential, rhs_vals / scale),
            "bc_error": scale * _bc_error(ts, us / scale, bc),
            "positivity": _classify_positivity(us, bc)}


def solve_linear(kernel, sigma, grid) -> SolutionProfile:
    """u(t) = integral of G(t, s) sigma(s) ds at every grid node."""
    ts, edges = _as_grid(kernel, grid)
    quad = _Cumulative(kernel, edges, edges.searchsorted(np.clip(ts, 0.0, kernel.T)))
    us = quad.apply(sigma(quad.xs))
    return SolutionProfile(grid=ts, values=us, bc=kernel.bc,
                           **_checks(ts, us, kernel.potential, sigma(ts), kernel.bc))


def _shifted_start(kernel, quad: _Cumulative, f, g0: np.ndarray,
                   f0: np.ndarray) -> np.ndarray:
    """Where solve_nonlinear's steps start: g0, the image of the zero
    function on the table quad, but on an exact kernel of a = rho**2 one
    chord step past it, u'' + (rho**2 - c) u = f(t, 0) solved on the exact
    kernel of rho**2 - c under the same condition, on quad's own cells
    (those cell_edges would lay out for it: an exact pair adds only 0 and
    T, and the length cap is the potential's).  c
    is the secant slope of f along g0 over the edges, <g0, f(t, g0) -
    f0> / <g0, g0> with f0 = f(t, 0) there, so for f = p(t) + c x the start
    is the fixed point, to quadrature.  g0 stands on a numeric kernel, where
    c is 0 or not finite, where rho**2 - c <= 0 (the exact pair has no
    imaginary rho), and where the shifted kernel is resonant, its read
    fails or is not finite."""
    if kernel.form != "closed":
        return g0
    with np.errstate(all="ignore"):
        c = float(np.dot(g0, np.asarray(f(quad.edges, g0), dtype=float) - f0)
                  / np.dot(g0, g0))
    shifted = kernel.fs.rho**2 - c
    if not (math.isfinite(c) and c and shifted > 0.0):
        return g0
    try:
        pair = ConstantPair(math.sqrt(shifted), kernel.T)
        shifted_quad = _Cumulative(Kernel(kernel.potential, kernel.bc, pair), quad.edges)
        start = shifted_quad.apply(f(quad.xs, np.zeros_like(quad.xs)))
    except (ResonantPotential, QuadratureFailure):
        return g0
    return start if np.all(np.isfinite(start)) else g0


def solve_nonlinear(kernel, f, grid, damping: float = DAMPING,
                    max_iter: int = MAX_ITER, tol: float = TOL) -> SolutionProfile:
    """Fixed-point iteration for u = integral of G(t, s) f(s, u(s)) ds.

    Starts from the image g0 of the zero function, or on an exact kernel
    from the solve on the kernel of the shifted potential rho**2 - c
    (_shifted_start, which keeps g0 where that kernel is resonant or not
    real), and takes Anderson-mixed steps (type II, Walker & Ni 2011):
    with g the image map, residuals r_k = g(u_k) - u_k and the differences
    dU, dR of the last ANDERSON_DEPTH iterates and residuals,

        u_{k+1} = u_k + damping r_k - (dU + damping dR) gamma,
        gamma = argmin |r_k - dR gamma|,

    so damping is the weight of each step, and the first step, with no
    history, is the damped Picard step; from the shifted start, for an
    affine f, it meets tol.  Stops when successive iterates agree to tol,
    or after max_iter steps.  A problem the iteration cannot solve is
    reported through converged=False rather than raised.  On convergence the fixed-point residual is re-measured with a finer,
    independent quadrature, and converged stays True only if it is
    within 10 tol.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ts, edges = _as_grid(kernel, grid)
    quad = _Cumulative(kernel, edges)
    h = np.diff(edges)
    a = np.asarray(kernel.potential(edges), dtype=float)
    sums = []                    # those of the last image, for the fine check

    def fx(t: np.ndarray, us: np.ndarray) -> np.ndarray:
        out = np.asarray(f(t, us), dtype=float)
        if np.any(~np.isfinite(out)):
            raise EvaluationFailure("f returned a non-finite value")
        return out

    def image(us: np.ndarray, fe: np.ndarray) -> np.ndarray:
        # fe is f(t, u) at the edges; u'' from the equation u'' + a u = f(t, u)
        ux = _cell_values(CELL_ORDER, h, {0: us, 2: fe - a * us})
        sums[:] = [quad.sums(fx(quad.xs, ux))]
        return quad.values(sums[0])

    zero = np.zeros_like(edges)
    f0 = fx(edges, zero)
    us = _shifted_start(kernel, quad, f, image(zero, f0), f0)
    iterations = 0
    converged = False
    d_us, d_rs = [], []          # the last ANDERSON_DEPTH differences
    prev = None
    for _ in range(max_iter):
        r = image(us, fx(edges, us)) - us
        if prev is not None:
            d_us.append(us - prev[0])
            d_rs.append(r - prev[1])
            del d_us[:-ANDERSON_DEPTH], d_rs[:-ANDERSON_DEPTH]
        prev = us, r
        nxt = us + damping * r
        if d_rs:
            dU, dR = np.column_stack(d_us), np.column_stack(d_rs)
            gamma = np.linalg.lstsq(dR, r, rcond=None)[0]
            nxt -= (dU + damping * dR) @ gamma
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
        fine = _Cumulative(kernel, edges, order=FINE_CELL_ORDER)
        ux = _cell_values(FINE_CELL_ORDER, h, {0: us, 1: quad.slopes(sums[0]),
                                               2: fx(edges, us) - a * us})
        fp_resid = float(np.max(np.abs(quad.values(fine.sums(fx(fine.xs, ux))) - us)))
        if fp_resid > 10.0 * tol:
            converged = False

    us = us[quad.index(ts)]
    return SolutionProfile(grid=ts, values=us, bc=kernel.bc,
                           iterations=iterations, converged=converged,
                           fixed_point_residual=fp_resid,
                           **_checks(ts, us, kernel.potential, f(ts, us), kernel.bc))


def verify_solution(profile: SolutionProfile, potential, rhs,
                    cone=None) -> VerificationRecord:
    """Independent residual, boundary, and positivity check of a profile.

    rhs is f(t, x) for the profile of a fixed-point solve, which took at
    least one step, and sigma(t) for that of a linear solve; with a cone
    given, membership of the profile in that cone is checked as well.
    """
    ts, us = profile.grid, profile.values
    rhs_vals = rhs(ts, us) if profile.iterations else rhs(ts)
    cone_ok = None if cone is None else cone_membership(ts, us, cone)
    return VerificationRecord(cone_ok=cone_ok,
                              **_checks(ts, us, potential, rhs_vals, profile.bc))
