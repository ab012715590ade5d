"""Cone constants and existence-hypothesis checks.

The positive-solution machinery needs three ingredients beyond the kernel:
a subinterval [c, d] on which the t-integral of G stays positive, the cone
constants eta (worst such integral) and sigma = eta / max G, and a sandwich
certificate that the nonlinearity f sits between m*w and M*w for a weight w
with M/m within the sign-ratio constant.  Everything here reports sampled
evidence, not proofs: the report says so explicitly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EvaluationFailure, InvalidWeight, NonpositiveEta,
                     NonpositiveWeightedIntegral)
from .gamma import GammaResult, gamma_closed, gamma_quadrature, gamma_star
from .greens import build_kernel
from .potentials import BoundaryKind
from .quadrature import GAUSS_ORDER, default_max_len, gauss_nodes, panel_plan
from .spectral import principal_eigenfunction

_trapz = getattr(np, "trapezoid", None) or np.trapz

H3_TOL = 1e-10
WEIGHT_ZERO_REL = 1e-12
F_ZERO_ABS = 1e-12
N_CELLS = 64          # dyadic partition underlying the subinterval search
MIN_WIDTH_CELLS = 1   # narrowest candidate: T / 64

DEFAULT_X_SAMPLES = (0.0, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

SAMPLED_EVIDENCE_NOTE = (
    "all hypothesis verdicts are sampled evidence on a finite lattice, not "
    "proofs; the regularity hypothesis on f is checked only as finiteness "
    "and nonnegativity of the samples")


@dataclass(frozen=True)
class Subinterval:
    c: float
    d: float

    def __post_init__(self):
        if not (0.0 <= self.c <= self.d):
            raise ValueError(f"need 0 <= c <= d, got [{self.c}, {self.d}]")

    @property
    def width(self) -> float:
        return self.d - self.c


@dataclass(frozen=True)
class ConeConstants:
    eta: float
    sigma: float
    max_G: float
    subinterval: Subinterval

    def to_dict(self) -> dict:
        return {"eta": self.eta, "sigma": self.sigma, "max_G": self.max_G,
                "c": self.subinterval.c, "d": self.subinterval.d}


@dataclass(frozen=True)
class H3Verdict:
    passed: bool
    subinterval: Subinterval
    min_over_all: float
    min_over_sub: float
    witness_s: float | None = None

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "c": self.subinterval.c, "d": self.subinterval.d,
                "min_over_all": self.min_over_all,
                "min_over_sub": self.min_over_sub,
                "witness_s": self.witness_s}


@dataclass(frozen=True)
class H2Verdict:
    passed: bool
    m: float | None = None
    M: float | None = None
    ratio: float | None = None
    gamma_value: float | None = None
    witness: tuple[float, float] | None = None   # (t, x)
    reason: str | None = None

    def to_dict(self) -> dict:
        return {"passed": self.passed, "m": self.m, "M": self.M,
                "ratio": self.ratio, "gamma": self.gamma_value,
                "witness": list(self.witness) if self.witness else None,
                "reason": self.reason}


def _t_integrals(kernel, ss, cs, ds) -> np.ndarray:
    """Integral over t in [c, d] of G(t, s) for every (s, c, d), the three
    broadcast together; 0 where d <= c.

    Each integral has its own panels, split at its only kink t = s, and its
    own sum; one kernel evaluation serves them all.
    """
    ss, cs, ds = np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                       for x in (ss, cs, ds)))
    out = np.zeros(ss.shape)
    live = np.nonzero(ds > cs)[0]
    if not live.size:
        return out
    plan = panel_plan(cs[live], ds[live], np.arange(len(live)), ss[live],
                      default_max_len(kernel.potential))
    s_rows = np.repeat(ss[live], np.diff(plan.offsets))[:, None]
    vals = (np.asarray(kernel(plan.xs, s_rows), dtype=float) * plan.weights).ravel()
    starts = plan.offsets * GAUSS_ORDER
    out[live] = [np.sum(vals[a:b]) for a, b in zip(starts[:-1], starts[1:])]
    return out


def _golden_max(f, lo: float, hi: float, iters: int = 48) -> float:
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def max_kernel_value(kernel, grid: int = 201) -> float:
    """max over the square of G: dense scan plus coordinate refinement."""
    T = kernel.T
    xs = np.linspace(0.0, T, grid)
    g = kernel.grid_eval(xs, xs)
    i, j = np.unravel_index(np.argmax(g), g.shape)
    t0, s0 = float(xs[i]), float(xs[j])
    h = 2.0 * T / (grid - 1)
    for _ in range(3):
        t0 = _golden_max(lambda t: float(kernel(t, s0)),
                         max(0.0, t0 - h), min(T, t0 + h))
        s0 = _golden_max(lambda s: float(kernel(t0, s)),
                         max(0.0, s0 - h), min(T, s0 + h))
    return max(float(g[i, j]), float(kernel(t0, s0)))


def compute_cone_constants(kernel, subinterval: Subinterval,
                           grid: int = 201) -> ConeConstants:
    """eta, max G, and sigma = eta / max G for the given subinterval."""
    c, d = subinterval.c, subinterval.d
    if d > kernel.T:
        raise ValueError(f"subinterval [{c}, {d}] leaves [0, {kernel.T}]")
    if d <= c:
        raise NonpositiveEta(f"degenerate subinterval [{c}, {d}]")
    ss = np.linspace(c, d, grid)
    eta = float(np.min(_t_integrals(kernel, ss, c, d)))
    if eta <= 0:
        raise NonpositiveEta(
            f"min over s in [{c}, {d}] of the t-integral is {eta:.3e}")
    mx = max_kernel_value(kernel, grid)
    return ConeConstants(eta, eta / mx, mx, subinterval)


def _cell_integral_table(kernel, ss: np.ndarray) -> np.ndarray:
    """M[k, j] = integral of G(t, ss[j]) over the k-th of 64 equal t-cells."""
    T = kernel.T
    edges = np.linspace(0.0, T, N_CELLS + 1)
    nodes, gw = gauss_nodes()
    M = np.empty((N_CELLS, len(ss)))
    for k in range(N_CELLS):
        lo, hi = edges[k], edges[k + 1]
        inside = (ss > lo) & (ss < hi)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ts = mid + half * nodes
        g = np.asarray(kernel(ts[:, None], ss[None, ~inside]), dtype=float)
        M[k, ~inside] = (half * gw) @ g
    # an s inside its cell kinks the integrand there: those entries get
    # split panels, all in one batch
    ks, js = np.nonzero((ss[None, :] > edges[:-1, None])
                        & (ss[None, :] < edges[1:, None]))
    M[ks, js] = _t_integrals(kernel, ss[js], edges[ks], edges[ks + 1])
    return M


def find_subinterval(kernel, grid: int = 201,
                     with_trace: bool = False):
    """Widest dyadic window [c, d] making the t-integral of G nonnegative
    everywhere and positive inside; None when no window of width >= T/64
    qualifies.  Ties at a given width go to the window with the larger eta.

    Candidates are every aligned run of cells from a 64-cell partition with
    dyadic run lengths 64, 32, ..., 1, so all endpoints sit on the T/64 grid.
    """
    T = kernel.T
    ss = np.linspace(0.0, T, grid)
    M = _cell_integral_table(kernel, ss)
    prefix = np.vstack([np.zeros(len(ss)), np.cumsum(M, axis=0)])
    trace: list[dict] = []
    width = N_CELLS
    while width >= MIN_WIDTH_CELLS:
        best = None
        for start in range(0, N_CELLS - width + 1):
            c = float(T) * start / N_CELLS
            d = float(T) * (start + width) / N_CELLS
            w = prefix[start + width] - prefix[start]
            # a window that holds no s-sample has no evidence inside it
            inner = w[(ss >= c) & (ss <= d)]
            ok = bool(inner.size and np.all(w >= -H3_TOL) and np.all(inner > H3_TOL))
            eta_hat = float(np.min(inner)) if inner.size else math.nan
            trace.append({"c": c, "d": d, "valid": ok, "eta_hat": eta_hat})
            if ok and (best is None or eta_hat > best[0]):
                best = (eta_hat, Subinterval(c, d))
        if best is not None:
            return (best[1], trace) if with_trace else best[1]
        width //= 2
    return (None, trace) if with_trace else None


def check_H3(kernel, subinterval: Subinterval, grid: int = 201) -> H3Verdict:
    """Nonnegativity of the t-integral over all of I, positivity inside [c,d]."""
    T = kernel.T
    c, d = subinterval.c, subinterval.d
    ss = np.linspace(0.0, T, grid)
    vals = _t_integrals(kernel, ss, c, d)
    inner = (ss >= c) & (ss <= d)
    min_all = float(np.min(vals))
    min_sub = float(np.min(vals[inner])) if np.any(inner) else math.nan
    bad_all = vals < -H3_TOL
    bad_sub = inner & (vals <= H3_TOL)
    if np.any(bad_all):
        return H3Verdict(False, subinterval, min_all, min_sub,
                         float(ss[np.argmax(bad_all)]))
    if np.any(bad_sub):
        return H3Verdict(False, subinterval, min_all, min_sub,
                         float(ss[np.argmax(bad_sub)]))
    return H3Verdict(True, subinterval, min_all, min_sub)


def check_H2(f, weight, gamma: GammaResult, T: float = 1.0) -> H2Verdict:
    """Sandwich certificate: m w(t) <= f(t, x) <= M w(t) with M/m <= gamma.

    m and M are the sampled extrema of f/w over the lattice of 201 equally
    spaced t and the x of DEFAULT_X_SAMPLES.  Where the
    weight vanishes, f must vanish too, and the ratio is continued by a
    one-sided difference quotient just inside the interval.
    """
    ts = np.linspace(0.0, T, 201)
    xs = np.asarray(DEFAULT_X_SAMPLES, dtype=float)
    w = np.asarray(weight(ts), dtype=float)
    if np.any(~np.isfinite(w)) or np.any(w < 0):
        raise EvaluationFailure("weight must be finite and nonnegative")
    wmax = float(np.max(w))
    if wmax <= 0:
        raise EvaluationFailure("weight is identically zero on the sample grid")
    zero = w <= WEIGHT_ZERO_REL * wmax

    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    fv = np.asarray(f(tt, xx), dtype=float)
    if fv.shape != tt.shape:
        fv = np.broadcast_to(fv, tt.shape).copy()
    if np.any(~np.isfinite(fv)):
        i, j = np.unravel_index(int(np.argmax(~np.isfinite(fv))), fv.shape)
        raise EvaluationFailure(
            f"f is not finite at (t, x) = ({ts[i]:.6g}, {xs[j]:.6g})")

    # where the weight vanishes the sandwich forces f to vanish
    if np.any(zero):
        bad = np.abs(fv[zero, :]) > F_ZERO_ABS
        if np.any(bad):
            zi = np.nonzero(zero)[0]
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            return H2Verdict(False, gamma_value=gamma.value,
                             witness=(float(ts[zi[i]]), float(xs[j])),
                             reason="weight vanishes but f does not")

    ratios = fv[~zero, :] / w[~zero, None]
    t_rows = list(ts[~zero])
    delta = T * 1e-6
    for i in np.nonzero(zero)[0]:
        t_in = ts[i] + delta if ts[i] < T / 2 else ts[i] - delta
        w_in = float(weight(t_in))
        if w_in <= 0:
            continue
        lim = np.asarray(f(np.full(xs.shape, t_in), xs), dtype=float) / w_in
        ratios = np.vstack([ratios, lim[None, :]])
        t_rows.append(float(ts[i]))

    m_hat = float(np.min(ratios))
    M_hat = float(np.max(ratios))
    ratio = math.inf if m_hat <= 0 else M_hat / m_hat
    if m_hat <= 0:
        i, j = np.unravel_index(int(np.argmin(ratios)), ratios.shape)
        return H2Verdict(False, m_hat, M_hat, None, gamma.value,
                         witness=(float(t_rows[i]), float(xs[j])),
                         reason="sampled lower sandwich constant is not positive")
    if ratio > gamma.value + 1e-9:
        return H2Verdict(False, m_hat, M_hat, ratio, gamma.value,
                         reason="sampled ratio M/m exceeds the sign-ratio constant")
    return H2Verdict(True, m_hat, M_hat, ratio, gamma.value)


def cone_membership(ts, us, cone: ConeConstants) -> bool:
    """Whether a sampled function lies in the cone: nonnegative, with integral
    at least sigma times its sup norm."""
    ts = np.asarray(ts, dtype=float)
    us = np.asarray(us, dtype=float)
    if float(np.min(us)) < -H3_TOL:
        return False
    total = float(_trapz(us, ts))
    return total >= cone.sigma * float(np.max(np.abs(us))) - H3_TOL


@dataclass
class HypothesisReport:
    h2: H2Verdict | None = None
    h2_star: H2Verdict | None = None
    h3: H3Verdict | None = None
    gamma_used: GammaResult | None = None
    cone: ConeConstants | None = None
    subinterval_trace: list = field(default_factory=list)
    notes: list = field(default_factory=lambda: [SAMPLED_EVIDENCE_NOTE])

    @property
    def all_passed(self) -> bool:
        parts = [v.passed for v in (self.h2, self.h3) if v is not None]
        if self.h2_star is not None:
            parts.append(self.h2_star.passed)
        return bool(parts) and all(parts)

    def to_dict(self) -> dict:
        def g(v):
            return v.to_dict() if v is not None else None
        return {"h2": g(self.h2), "h2_star": g(self.h2_star),
                "h3": g(self.h3), "gamma": g(self.gamma_used),
                "cone": g(self.cone),
                "subinterval_trace": self.subinterval_trace,
                "all_passed": self.all_passed,
                "notes": list(self.notes)}


def build_report(potential, bc: BoundaryKind, f, grid: int = 201,
                 gamma_t_grid: int = 1001) -> HypothesisReport:
    """Run the whole hypothesis pipeline for one problem.

    Collects the sign-ratio constant with the principal eigenfunction as
    weight (its closed form where gamma_closed has one), the sandwich checks
    for f against that weight and, where the coefficient itself is an
    admissible weight, against the coefficient, the subinterval search with
    its trace, the positivity certificate on the found subinterval, and the
    cone constants.  Failures of individual
    stages are recorded as notes instead of aborting the report.
    """
    kernel = build_kernel(potential, bc)
    report = HypothesisReport()
    T = kernel.T
    weight = principal_eigenfunction(potential, bc)

    try:
        report.gamma_used = (gamma_closed(potential, bc) or gamma_quadrature(
            kernel, weight, t_grid_size=gamma_t_grid))
        report.h2 = check_H2(f, weight, report.gamma_used, T=T)
    except NonpositiveWeightedIntegral as exc:
        report.notes.append(f"sign-ratio constant unavailable: {exc}")

    if bc in (BoundaryKind.PERIODIC, BoundaryKind.NEUMANN):
        try:
            gs = gamma_star(kernel, potential, t_grid_size=gamma_t_grid)
            report.h2_star = check_H2(f, potential, gs, T=T)
        except (InvalidWeight, NonpositiveWeightedIntegral) as exc:
            report.notes.append(f"coefficient-weighted variant skipped: {exc}")

    sub, trace = find_subinterval(kernel, grid, with_trace=True)
    report.subinterval_trace = trace
    if sub is None:
        report.notes.append(
            "no subinterval of width >= T/64 keeps the t-integral of G "
            "nonnegative everywhere and positive inside")
        return report
    report.h3 = check_H3(kernel, sub, grid)
    try:
        report.cone = compute_cone_constants(kernel, sub, grid)
    except NonpositiveEta as exc:
        report.notes.append(f"cone constants unavailable: {exc}")
    return report
