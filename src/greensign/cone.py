"""Cone constants and existence-hypothesis checks.

The positive-solution machinery needs three ingredients beyond the kernel:
a subinterval [c, d] on which the t-integral of G stays positive, the cone
constants eta (worst such integral) and sigma = eta / max G, and a sandwich
certificate that the nonlinearity f sits between m*w and M*w for a weight w
with M/m within the sign-ratio constant.  Everything here reports sampled
evidence, not proofs: the report says so explicitly.

Every t-integral of G is read off one antiderivative of the kernel's pair
through its separable form (_t_prefix); no window is cut into panels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EvaluationFailure, InvalidWeight, NonpositiveEta,
                     NonpositiveWeightedIntegral)
from .gamma import (CELL_ORDER, GammaResult, _antiderivative, gamma_closed,
                    gamma_quadrature, gamma_star)
from .greens import build_kernel
from .potentials import BoundaryKind
from .spectral import principal_eigenfunction

_trapz = getattr(np, "trapezoid", None) or np.trapz

H3_TOL = 1e-10
WEIGHT_ZERO_REL = 1e-12
F_ZERO_ABS = 1e-12
N_CELLS = 64          # dyadic partition underlying the subinterval search
MIN_WIDTH_CELLS = 1   # narrowest candidate: T / 64
ZOOM_STARTS = 8       # lattice maxima the max-G search refines
ZOOM_ROUNDS = 12      # kernel calls of that refinement

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


def _t_prefix(kernel, xs, ss) -> np.ndarray:
    """P[i, j] = integral over t in [0, xs[i]] of G(t, ss[j]), shape
    (len(xs), len(ss)), read off the kernel's separable form (see greens).

    With U(x) the integral of the pair p = (u1, u2) over [0, x], one
    antiderivative table (gamma._antiderivative, weight one) read at every
    x and s,

        P = U(x)^T C p(s) + [u1(s) (U2(x) - U2(s)) - u2(s) (U1(x) - U1(s))] 1{s < x}.

    The pair is zero at an s the condition pins, where G(., s) vanishes, so
    those columns read exactly zero.
    """
    xs = np.asarray(xs, dtype=float)
    ss = np.asarray(ss, dtype=float)
    S, left, total = _antiderivative(kernel, None, CELL_ORDER, np.concatenate([xs, ss]))
    U = S + np.where(left, 0.0, total[:, None])
    Ux, Us = U[:, :len(xs)], U[:, len(xs):]
    lo, hi = kernel.bc.pinned_ends
    pinned = (lo & (ss == 0.0)) | (hi & (ss == kernel.T))
    u1, u2 = p = np.where(pinned, 0.0, kernel._pair(ss))
    cauchy = u1 * (Ux[1, :, None] - Us[1]) - u2 * (Ux[0, :, None] - Us[0])
    return Ux.T @ (kernel._C @ p) + np.where(ss < xs[:, None], cauchy, 0.0)


def _t_integrals(kernel, ss, c: float, d: float) -> np.ndarray:
    """Integral over t in [c, d] of G(t, s) at every s in ss: the
    difference of _t_prefix at d and c.  Raises ValueError where [c, d]
    leaves [0, T]."""
    if d > kernel.T:
        raise ValueError(f"subinterval [{c}, {d}] leaves [0, {kernel.T}]")
    P = _t_prefix(kernel, [d, c], ss)
    return P[0] - P[1]


def _samples(lo: float, hi: float, grid: int) -> np.ndarray:
    """The cone grid: grid equally spaced points of [lo, hi], at least 2."""
    if grid < 2:
        raise ValueError(f"the cone grid needs at least 2 samples, got {grid}")
    return np.linspace(lo, hi, grid)


def max_kernel_value(kernel, grid: int = 201) -> float:
    """max over the square of G: a grid x grid lattice, then a zoom on its
    ZOOM_STARTS largest local maxima (points no neighbour beats), all
    refined together.  Each of ZOOM_ROUNDS rounds evaluates G once, on a
    9 x 9 lattice per start, clipped to the square, centred on that start's
    best point and a quarter the size of the last.  Returns the best value.
    """
    T = kernel.T
    xs = _samples(0.0, T, grid)
    g = kernel.grid_eval(xs, xs)
    pad = np.pad(g, 1, constant_values=-np.inf)
    rows = np.maximum(np.maximum(pad[:-2], pad[1:-1]), pad[2:])
    around = np.maximum(np.maximum(rows[:, :-2], rows[:, 1:-1]), rows[:, 2:])
    peaks = np.flatnonzero(g >= around)
    peaks = peaks[np.argsort(-g.flat[peaks], kind="stable")[:ZOOM_STARTS]]
    t0, s0, best = xs[peaks // grid], xs[peaks % grid], g.flat[peaks]
    step = np.linspace(-1.0, 1.0, 9) * (T / (grid - 1))
    n = np.arange(len(peaks))
    for _ in range(ZOOM_ROUNDS):
        tt = np.clip(t0[:, None] + step, 0.0, T)
        ss = np.clip(s0[:, None] + step, 0.0, T)
        vals = kernel(tt[:, :, None], ss[:, None, :]).reshape(len(n), -1)
        # the centre is on the lattice, so its argmax is the best point yet
        k = np.argmax(vals, axis=1)
        best = np.maximum(best, vals[n, k])
        t0, s0 = tt[n, k // 9], ss[n, k % 9]
        step = step / 4.0
    return float(np.max(best))


def compute_cone_constants(kernel, subinterval: Subinterval,
                           grid: int = 201) -> ConeConstants:
    """eta, max G, and sigma = eta / max G for the given subinterval."""
    c, d = subinterval.c, subinterval.d
    w = _t_integrals(kernel, _samples(c, d, grid), c, d)
    if d <= c:
        raise NonpositiveEta(f"degenerate subinterval [{c}, {d}]")
    eta = float(np.min(w))
    if eta <= 0:
        raise NonpositiveEta(
            f"min over s in [{c}, {d}] of the t-integral is {eta:.3e}")
    mx = max_kernel_value(kernel, grid)
    return ConeConstants(eta, eta / mx, mx, subinterval)


def _h3_rule(ss, w, c, d):
    """H3 on windows [c, d] from their t-integrals w[..., j] at s = ss[j]:
    w >= 0 at every s and w > 0 at every s in the window, to H3_TOL (a nan
    fails), with at least one s in the window.  Gives, per window: passed,
    the min over all s, the min over the window (nan when it holds no s),
    and the first failing s (nan when none fails)."""
    inner = (ss >= np.asarray(c)[..., None]) & (ss <= np.asarray(d)[..., None])
    bad = ~(w >= -H3_TOL) | (inner & ~(w > H3_TOL))
    filled = inner.any(axis=-1)
    min_sub = np.where(filled, np.min(w, axis=-1, where=inner, initial=np.inf), math.nan)
    witness = np.where(bad.any(axis=-1), ss[bad.argmax(axis=-1)], math.nan)
    return filled & ~bad.any(axis=-1), np.min(w, axis=-1), min_sub, witness


def find_subinterval(kernel, grid: int = 201,
                     with_trace: bool = False):
    """Widest window [c, d] that passes H3 (`_h3_rule`) on grid s-samples,
    or None when none of width >= T/64 does.  The candidates are the aligned
    runs of 64, 32, ..., 1 cells of a 64-cell partition of [0, T], all of
    one width judged at once; ties go to the window with the larger eta.
    """
    T = float(kernel.T)
    ss = _samples(0.0, T, grid)
    prefix = _t_prefix(kernel, np.linspace(0.0, T, N_CELLS + 1), ss)
    trace: list[dict] = []
    width = N_CELLS
    while width >= MIN_WIDTH_CELLS:
        starts = np.arange(N_CELLS - width + 1)
        cs, ds = T * starts / N_CELLS, T * (starts + width) / N_CELLS
        passed, _, eta_hat, _ = _h3_rule(ss, prefix[starts + width] - prefix[starts],
                                         cs, ds)
        trace += [{"c": float(c), "d": float(d), "valid": bool(ok), "eta_hat": float(e)}
                  for c, d, ok, e in zip(cs, ds, passed, eta_hat)]
        if passed.any():
            k = int(np.argmax(np.where(passed, eta_hat, -np.inf)))
            sub = Subinterval(float(cs[k]), float(ds[k]))
            return (sub, trace) if with_trace else sub
        width //= 2
    return (None, trace) if with_trace else None


def check_H3(kernel, subinterval: Subinterval, grid: int = 201) -> H3Verdict:
    """H3 (`_h3_rule`) for one window, on grid s-samples of [0, T].
    Raises ValueError where the window leaves [0, T]."""
    c, d = subinterval.c, subinterval.d
    ss = _samples(0.0, kernel.T, grid)
    passed, min_all, min_sub, witness = _h3_rule(ss, _t_integrals(kernel, ss, c, d), c, d)
    return H3Verdict(bool(passed), subinterval, float(min_all), float(min_sub),
                     None if math.isnan(witness) else float(witness))


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
        parts = [v.passed for v in (self.h2, self.h2_star, self.h3) if v is not None]
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
    roots = {}       # both weighted ratios read the same slice zeros

    try:
        report.gamma_used = (gamma_closed(potential, bc) or gamma_quadrature(
            kernel, weight, t_grid_size=gamma_t_grid, roots=roots))
        report.h2 = check_H2(f, weight, report.gamma_used, T=T)
    except NonpositiveWeightedIntegral as exc:
        report.notes.append(f"sign-ratio constant unavailable: {exc}")

    if bc.keeps_constants:
        try:
            gs = gamma_star(kernel, potential, t_grid_size=gamma_t_grid, roots=roots)
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
