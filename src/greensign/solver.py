"""Linear and fixed-point solvers built on a Green's kernel.

Every kernel here is semiseparable: with p = (u1, u2) its fundamental pair
and C its coupling matrix (see greens), for any integrand g

    integral of G(t, s) g(s) ds = p(t)^T C P(T) + u2(t) P1(t) - u1(t) P2(t),

where P(x) is the integral of p g over [0, x].  So every output node is
read off one cumulative Gauss quadrature of p g (Greengard & Rokhlin
1991), on cells between consecutive output nodes, the nodes of a numeric
kernel's grid and the potential's break points, capped in length: no cell
straddles the diagonal kink or a kink of the sampled pair, and no slice is
split at its zeros.  The nonlinear problem u = integral of G(t, s)
f(s, u(s)) ds runs an Anderson-accelerated fixed-point iteration through
the same sum, with u between the nodes from a local 4-point Lagrange
stencil, so a fixed point of the iteration is a fixed point of the
reported operator, and an x-independent f reproduces the linear solve
exactly.  Its fine check takes more points per cell and a 6-point
stencil: on one cell the 4-point stencil is one cubic, which a finer rule
alone would integrate exactly and so could not fault.

Where the pair grows fast (a strongly negative potential) the terms of the
sum cancel, as the products in a pointwise G do; a sum whose terms exceed
max |u| by more than CANCELLATION_LIMIT raises QuadratureFailure.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cone import cone_membership
from .errors import EvaluationFailure, QuadratureFailure
from .potentials import BoundaryKind
from .quadrature import cell_edges, cell_nodes, default_max_len, gauss_nodes

POSITIVITY_TOL = 1e-9
DIVERGENCE_CAP = 1e12
#: Past steps whose differences the Anderson mixing of solve_nonlinear keeps.
ANDERSON_DEPTH = 5
#: Gauss points per cell of the cumulative quadrature, and of its fine check
CELL_ORDER = 8
FINE_CELL_ORDER = 12
#: Lagrange stencil width of the fine check (the image map's is 4)
FINE_STENCIL_WIDTH = 6
#: The most that the terms of the separable sum may exceed max |u| by
CANCELLATION_LIMIT = 1e8

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


class _Cumulative:
    """The integrals of G(t_i, s) g(s) ds at the output nodes t_i, for any
    g sampled at the Gauss nodes xs, through the separable form (see the
    module docstring): one pair evaluation at build, one cumulative sum
    per apply."""

    def __init__(self, kernel, ts: np.ndarray, order: int = CELL_ORDER):
        T = kernel.T
        ts = np.clip(ts, 0.0, T)
        edges = cell_edges(kernel, ts, default_max_len(kernel.potential))
        # the output nodes are edges, and P at edge k sums the first k cells
        self.at = np.searchsorted(edges, ts)
        xs, half = cell_nodes(edges[:-1], edges[1:], order)
        self.xs = xs.ravel()
        self.q = np.stack(kernel._pair(xs)) * (half[:, None] * gauss_nodes(order)[1])
        # G(t, .) vanishes where the condition pins t, and the sum there
        # would be rounding noise: those rows read the zero pair
        left, right = kernel.bc.pinned_ends
        pinned = (left & (ts == 0.0)) | (right & (ts == T))
        self.pt = np.where(pinned, 0.0, kernel._pair(ts))
        self.C = kernel._C

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = np.broadcast_to(np.asarray(g, dtype=float), self.xs.shape)
        P = np.zeros((2, self.q.shape[1] + 1))
        np.cumsum((self.q * g.reshape(self.q.shape[1:])).sum(axis=2), axis=1, out=P[:, 1:])
        if not np.all(np.isfinite(P)):
            raise QuadratureFailure("non-finite integrand in the solve")
        u1, u2 = self.pt
        c1, c2 = self.C @ P[:, -1]
        P1, P2 = P[:, self.at]
        terms = u1 * c1, u2 * c2, u2 * P1, -u1 * P2
        us = sum(terms)
        bulk = float(np.max(sum(np.abs(x) for x in terms)))
        if bulk > CANCELLATION_LIMIT * float(np.max(np.abs(us))):
            raise QuadratureFailure(
                f"the terms of the separable sum reach {bulk:.3e}, more than "
                f"{CANCELLATION_LIMIT:.0e} times max |u|; the fundamental pair "
                "grows too fast for a solve on this potential")
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
    the right-hand side with values rhs_vals at ts."""
    rhs_vals = np.broadcast_to(np.asarray(rhs_vals, dtype=float), ts.shape)
    return {"residual_norm": _second_difference_residual(ts, us, potential, rhs_vals),
            "bc_error": _bc_error(ts, us, bc),
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
    ts = _as_grid(kernel, grid)
    quad = _Cumulative(kernel, ts)
    stencil = _Stencil(ts, quad.xs)

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
        ux = _Stencil(ts, fine.xs, min(FINE_STENCIL_WIDTH, len(ts)))(us)
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

    rhs may be sigma(t) or f(t, x); with a cone given, membership of the
    profile in that cone is checked as well.
    """
    ts, us = profile.grid, profile.values
    try:
        rhs_vals = rhs(ts, us)
    except TypeError:
        rhs_vals = rhs(ts)
    cone_ok = None if cone is None else cone_membership(ts, us, cone)
    return VerificationRecord(cone_ok=cone_ok,
                              **_checks(ts, us, potential, rhs_vals, profile.bc))
