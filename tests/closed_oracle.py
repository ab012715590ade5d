"""The closed forms of the constant-potential kernels that the library
replaced with its one kernel class, kept as oracles: their analytic slice
roots, their resonance test and the closed periodic and Dirichlet
formulas.

The library builds every kernel of a constant potential a = rho**2 on the
exact pair cos(rho t), sin(rho t) / rho, finds the slice roots by the
pair's angle and tests resonance by its boundary matrix; these are the
formulas it is checked against.
"""
import math

import numpy as np

from greensign.errors import ResonantPotential, UnsupportedBoundaryKind
from greensign.greens import RESONANCE_TOL
from greensign.potentials import BoundaryKind


def sorted_rows(r, T):
    """Row by row, the entries of r inside (0, T), sorted and without
    repeats, as (flat, counts): the rows one after another, and the length
    of each."""
    r = np.where((r > 0) & (r < T), r, np.inf)
    r.sort(axis=1)
    keep = np.isfinite(r)
    keep[:, 1:] &= r[:, 1:] != r[:, :-1]
    return r[keep], keep.sum(axis=1)


def periodic_candidates(rho, T, ts):
    """(cand, keep): the zeros of cos(rho (u - T/2)) at
    u = T/2 + (2j+1) pi / (2 rho), u = |t - s|, at every t in ts; all of
    them are zeros of the periodic slice."""
    jmax = int(rho * T / math.pi) + 2
    us = T / 2 + (2 * np.arange(-jmax, jmax + 1) + 1) * math.pi / (2 * rho)
    us = us[(us > 0) & (us < T)]
    cand = np.concatenate([ts[:, None] - us, ts[:, None] + us], axis=1)
    return cand, np.ones(cand.shape, dtype=bool)


def dirichlet_candidates(rho, T, ts):
    """(cand, keep): the zeros of sin(rho s) left of t and of
    sin(rho (T - s)) right of it, at every t in ts."""
    j = np.arange(1, int(rho * T / math.pi) + 1)
    left = j * math.pi / rho
    right = T - j * math.pi / rho
    cand = np.concatenate([np.broadcast_to(left, (len(ts), len(j))),
                           np.broadcast_to(right, (len(ts), len(j)))], axis=1)
    keep = np.concatenate([left < ts[:, None], right > ts[:, None]], axis=1)
    return cand, keep


CANDIDATES = {BoundaryKind.PERIODIC: periodic_candidates,
              BoundaryKind.DIRICHLET: dirichlet_candidates}


def closed_roots_many(rho, T, bc, ts):
    """The interior zeros of every slice G(t, .) of the closed form of bc,
    sorted and without repeats, one array per t; none at an end the
    condition pins."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    left, right = bc.pinned_ends
    pinned = (left & (ts == 0.0)) | (right & (ts == T))
    cand, keep = CANDIDATES[bc](rho, T, ts[~pinned])
    flat, live = sorted_rows(np.where(keep, cand, np.inf), T)
    counts = np.zeros(len(ts), dtype=int)
    counts[~pinned] = live
    ends = np.cumsum(counts)
    return [flat[b - c:b] for b, c in zip(ends.tolist(), counts.tolist())]


def require_nonresonant(rho, T, bc):
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


def periodic_green(rho, T, t, s):
    """G(t, s) for a = rho**2 with periodic conditions, through u = |t - s|:
    (sin(rho u) + sin(rho (T - u))) / (2 rho (1 - cos(rho T)))."""
    u = np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float))
    return ((np.sin(rho * u) + np.sin(rho * (T - u)))
            / (2.0 * rho * (1.0 - math.cos(rho * T))))


def dirichlet_green(rho, T, t, s):
    """G(t, s) for a = rho**2 with u(0) = u(T) = 0:
    -sin(rho min) sin(rho (T - max)) / (rho sin(rho T))."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    lo, hi = np.minimum(t, s), np.maximum(t, s)
    return -np.sin(rho * lo) * np.sin(rho * (T - hi)) / (rho * math.sin(rho * T))
