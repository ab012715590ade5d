"""Linear and fixed-point solvers built on a Green's kernel.

Every kernel here is semiseparable: with p = (u1, u2) its fundamental pair
and C its coupling matrix, G(t, s) = p(min(t, s))^T C p(max(t, s)) (see
greens), so for any integrand g

    integral of G(t, s) g(s) ds = p(t)^T C P(T) + d [u2(t) P1(t) - u1(t) P2(t)],

where P(x) is the integral of p g over [0, x] and d = C[0, 1] - C[1, 0].
So every output node is read off one cumulative Gauss quadrature of p g
(Greengard & Rokhlin 1991), quadrature.CellSums read from 0: its cells lie
between consecutive output nodes, the nodes of a numeric kernel's grid and
the potential's break points, capped in length, so no cell straddles the
diagonal kink or a kink of the sampled pair, no slice is split at its
zeros, and every output node is an edge.  The nonlinear problem u = integral
of G(t, s) f(s, u(s)) ds runs an Anderson-accelerated fixed-point iteration
through the same sum, with u between the nodes from a local 4-point
Lagrange stencil, so a fixed point of the iteration is a fixed point of the
reported operator, and an x-independent f reproduces the linear solve
exactly.  Its fine check takes more points per cell and a 6-point
stencil: on one cell the 4-point stencil is one cubic, which a finer rule
alone would integrate exactly and so could not fault.

The pair's Gauss-node values come from its cell_pair (see fundamental).
u's come, where the table's cells are those of a uniform output grid, from
one Lagrange matrix per place of the cell in its window, evaluated once at
the rule's reference nodes (_CellStencil); any other grid keeps the stencil
built point by point (_Stencil): an uneven one, and one whose cells the
table cuts, at the length cap or at the nodes of a numeric kernel's grid
that lie between the output nodes.

Where the pair grows fast (a strongly negative potential) the terms of the
sum cancel, as the products in a pointwise G do; a sum whose terms exceed
max |u| by more than quadrature.CANCELLATION_LIMIT raises QuadratureFailure
(quadrature.require_no_cancellation, which the cone applies too).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cone import cone_membership
from .errors import EvaluationFailure, QuadratureFailure
from .potentials import BoundaryKind
from .quadrature import (CellSums, default_max_len, gauss_nodes, one_length,
                         require_no_cancellation)

POSITIVITY_TOL = 1e-9
DIVERGENCE_CAP = 1e12
#: Past steps whose differences the Anderson mixing of solve_nonlinear keeps.
ANDERSON_DEPTH = 5
#: Gauss points per cell of the cumulative quadrature, and of its fine check
CELL_ORDER = 8
FINE_CELL_ORDER = 12
#: Lagrange stencil width of the fine check (the image map's is 4)
FINE_STENCIL_WIDTH = 6

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


class _Cumulative(CellSums):
    """The integrals of G(t_i, s) g(s) ds at the output nodes t_i, for any
    g sampled at the Gauss nodes xs, through the separable form (see the
    module docstring): the table's sums from 0, read at the nodes."""

    def __init__(self, kernel, ts: np.ndarray, order: int = CELL_ORDER):
        ts = np.clip(ts, 0.0, kernel.T)
        super().__init__(kernel, ts, default_max_len(kernel.potential), order)
        self.at = self.index(ts)
        # exactly zero where the condition pins t, not the sum's rounding
        self.pt = kernel._pair(ts)
        self.C, self.d = kernel._C, kernel._d

    def apply(self, g: np.ndarray) -> np.ndarray:
        # checked before the sums: inf - inf in them would warn
        cells = self._cells(g)
        if not np.all(np.isfinite(cells)):
            raise QuadratureFailure("non-finite integrand in the solve")
        P = self.up(cells)
        if not np.all(np.isfinite(P)):
            raise QuadratureFailure("non-finite integrand in the solve")
        u1, u2 = self.pt
        c1, c2 = self.C @ P[:, -1]
        P1, P2 = self.d * P[:, self.at]
        terms = u1 * c1, u2 * c2, u2 * P1, -u1 * P2
        us = sum(terms)
        require_no_cancellation(sum(np.abs(x) for x in terms), us, "u",
                                "a solve on this potential")
        return us


class _Stencil:
    """Local Lagrange interpolation on width consecutive nodes, from the
    nodes ts to fixed points xs; its cells and weights are built once for
    the many us of a fixed-point iteration."""

    def __init__(self, ts: np.ndarray, xs: np.ndarray, width: int = 4):
        j = np.searchsorted(ts, xs, side="right") - 1
        self.j = np.clip(j - (width // 2 - 1), 0, len(ts) - width)
        self.w = np.ones((width, len(xs)))
        for k in range(width):
            tk = ts[k:][self.j]
            for l in range(width):
                if l != k:
                    tl = ts[l:][self.j]
                    self.w[k] *= (xs - tl) / (tk - tl)

    def __call__(self, us: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.j))
        for k in range(len(self.w)):
            out += self.w[k] * us[k:][self.j]
        return out


class _CellStencil:
    """_Stencil from the nodes of a uniform grid to the order Gauss nodes
    of each of its cells.  A cell's window starts where _Stencil's does, so
    the cell takes place c = width // 2 - 1 in it, except the first c
    cells and the last width - 2 - c, which the window's clip at the ends
    moves to the places before and after; each place has one (order x
    width) Lagrange matrix, evaluated once on the reference nodes 0 ..
    width - 1 at place + (1 + x_k) / 2, and applied to the windows of us.
    Built once per (order, width) and shared (_cell_stencil)."""

    def __init__(self, order: int, width: int):
        y = np.arange(width - 1)[:, None] + 0.5 * (1.0 + gauss_nodes(order)[0])
        self.w = np.ones((width - 1, order, width))
        for k in range(width):
            for l in range(width):
                if l != k:
                    self.w[..., k] *= (y - l) / (k - l)
        self.w.flags.writeable = False
        self.c = width // 2 - 1

    def __call__(self, us: np.ndarray) -> np.ndarray:
        c, width = self.c, self.w.shape[-1]
        inner = c + len(us) - width + 1
        out = np.empty((len(us) - 1, self.w.shape[1]))
        np.matmul(self.w[:c], us[:width], out=out[:c])
        np.matmul(sliding_window_view(us, width), self.w[c].T, out=out[c:inner])
        np.matmul(self.w[c + 1:], us[-width:], out=out[inner:])
        return out.ravel()


_cell_stencil = cache(_CellStencil)


def _stencil(ts: np.ndarray, quad: CellSums, width: int):
    """The width-point stencil from the nodes ts to the Gauss nodes of
    quad: _CellStencil where quad's cells are those of a uniform ts,
    _Stencil otherwise."""
    if np.array_equal(quad.edges, ts) and one_length(ts):
        return _cell_stencil(quad.q.shape[2], width)
    return _Stencil(ts, quad.xs, width)


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
    ts = _as_grid(kernel, grid)
    quad = _Cumulative(kernel, ts)
    us = quad.apply(sigma(quad.xs))
    return SolutionProfile(grid=ts, values=us, bc=kernel.bc,
                           **_checks(ts, us, kernel.potential, sigma(ts), kernel.bc))


def solve_nonlinear(kernel, f, grid, damping: float = 0.5,
                    max_iter: int = 200, tol: float = 1e-10) -> SolutionProfile:
    """Fixed-point iteration for u = integral of G(t, s) f(s, u(s)) ds.

    Starts from the image of the zero function and takes Anderson-mixed
    steps (type II, Walker & Ni 2011): with g the image map, residuals
    r_k = g(u_k) - u_k and the differences dU, dR of the last
    ANDERSON_DEPTH iterates and residuals,

        u_{k+1} = u_k + damping r_k - (dU + damping dR) gamma,
        gamma = argmin |r_k - dR gamma|,

    so damping is the weight of each step, and the first step, with no
    history, is the damped Picard step.  Stops when successive iterates
    agree to tol, or after max_iter steps.  A problem the iteration
    cannot solve is reported through converged=False rather than raised.
    On convergence the fixed-point residual is re-measured with a finer,
    independent quadrature, and converged stays True only if it is
    within 10 tol.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError(f"damping must lie in (0, 1], got {damping}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    ts = _as_grid(kernel, grid)
    quad = _Cumulative(kernel, ts)
    stencil = _stencil(ts, quad, 4)

    def image(us: np.ndarray) -> np.ndarray:
        fx = np.asarray(f(quad.xs, stencil(us)), dtype=float)
        if np.any(~np.isfinite(fx)):
            raise EvaluationFailure("f returned a non-finite value")
        return quad.apply(fx)

    us = image(np.zeros_like(ts))
    iterations = 0
    converged = False
    d_us, d_rs = [], []          # the last ANDERSON_DEPTH differences
    prev = None
    for _ in range(max_iter):
        r = image(us) - us
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
        fine = _Cumulative(kernel, ts, FINE_CELL_ORDER)
        ux = _stencil(ts, fine, min(FINE_STENCIL_WIDTH, len(ts)))(us)
        fp_resid = float(np.max(np.abs(fine.apply(f(fine.xs, ux)) - us)))
        if fp_resid > 10.0 * tol:
            converged = False

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
