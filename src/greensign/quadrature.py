"""Panelized Gauss-Legendre quadrature of kernel slices.

Integrands here are piecewise smooth: kernels are C^1 away from the diagonal
t = s, their positive/negative parts additionally kink at the interior zeros
of G(t, .), and sampled potentials kink at their grid nodes.  Splitting panels
at every such point keeps a modest fixed-order rule accurate.

panel_plan lays out the panels of many rows (slices, or t-integrals) at
once, as flat arrays: the same panels build_edges gives each row, without a
Python loop per row.  slice_panels is that plan for the slices G(t, .),
with the one rule for where a slice is broken, and G at its nodes; the
sign-ratio constant and the solver both integrate through it.  It passes
each panel's t once, as a column against the panel's nodes.

The zeros of the slices G(t, .) come from the kernel's s_roots_many, which
gives none for a slice the boundary condition pins to zero: the closed
forms know them analytically, and a numeric kernel places each at the
angle of its fundamental pair where the slice vanishes (see
greens.NumericKernel).  No slice is sampled to find them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

GAUSS_ORDER = 16
#: Most break points of a potential that split every kernel slice; a finely
#: sampled potential is left to the panel-length cap instead.
MAX_SHARED_BREAKS = 64

_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(order: int = GAUSS_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the order-point rule on [-1, 1], cached."""
    got = _gauss_cache.get(order)
    if got is None:
        got = np.polynomial.legendre.leggauss(order)
        _gauss_cache[order] = got
    return got


def build_edges(a: float, b: float, points=(), max_len: float | None = None) -> np.ndarray:
    """Sorted panel edges of [a, b]: interior break points plus a length cap."""
    if not b > a:
        raise ValueError(f"empty integration range [{a}, {b}]")
    pts = np.asarray(points, dtype=float)
    pts = pts[(pts > a + 1e-15 * (b - a)) & (pts < b - 1e-15 * (b - a))]
    edges = np.unique(np.concatenate([[a, b], pts]))
    if max_len is None or max_len <= 0:
        return edges
    pieces = [np.array([a])]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(1, int(math.ceil((hi - lo) / max_len)))
        pieces.append(np.linspace(lo, hi, n + 1)[1:])
    return np.concatenate(pieces)


class PanelPlan(NamedTuple):
    """Gauss panels of many rows, row after row, in flat arrays."""

    xs: np.ndarray        # (panels, order) Gauss nodes
    weights: np.ndarray   # (panels, order) Gauss weights times half-widths
    offsets: np.ndarray   # (rows + 1,) row r owns panels offsets[r]:offsets[r + 1]


def panel_plan(lo, hi, rows, points, max_len: float,
               order: int = GAUSS_ORDER) -> PanelPlan:
    """Panels of [lo[r], hi[r]] for every row r, broken at the points
    points[i] of row rows[i] and capped at max_len.

    Row r gets exactly the panels of build_edges(lo[r], hi[r], its points,
    max_len): points within 1e-15 of the range of an end are dropped, the
    rest sorted and freed of exact duplicates, and a piece between two
    break points is cut into n equal panels with edges i*step + start and
    the last edge set to its end, as np.linspace cuts it.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    n = len(lo)
    if not np.all(hi > lo):
        i = int(np.argmin(hi > lo))
        raise ValueError(f"empty integration range [{lo[i]}, {hi[i]}]")
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    points = np.asarray(points, dtype=float).reshape(-1)
    eps = 1e-15 * (hi - lo)
    inside = (points > (lo + eps)[rows]) & (points < (hi - eps)[rows])
    row = np.concatenate([np.arange(n), rows[inside], np.arange(n)])
    edge = np.concatenate([lo, points[inside], hi])
    by = np.lexsort((edge, row))
    row, edge = row[by], edge[by]
    new = np.ones(len(edge), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (edge[1:] != edge[:-1])
    row, edge = row[new], edge[new]
    # pieces between consecutive break points of one row
    piece = row[1:] == row[:-1]
    p_row, p_lo, p_hi = row[:-1][piece], edge[:-1][piece], edge[1:][piece]
    cuts = np.maximum(1, np.ceil((p_hi - p_lo) / max_len)).astype(np.intp)
    first = np.repeat(np.cumsum(cuts) - cuts, cuts)
    i = np.arange(len(first)) - first
    k = np.repeat(cuts, cuts)
    start = np.repeat(p_lo, cuts)
    step = np.repeat((p_hi - p_lo) / cuts, cuts)
    row = np.repeat(p_row, cuts)
    plo = np.where(i == 0, start, i * step + start)
    phi = np.where(i + 1 == k, np.repeat(p_hi, cuts), (i + 1) * step + start)
    nodes, gw = gauss_nodes(order)
    mid = 0.5 * (plo + phi)
    half = 0.5 * (phi - plo)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=n))])
    return PanelPlan(mid[:, None] + half[:, None] * nodes[None, :],
                     half[:, None] * gw[None, :], offsets)


def shared_breaks(potential) -> np.ndarray:
    """The potential's break points, which every slice is split at when
    there are at most MAX_SHARED_BREAKS of them; none otherwise."""
    bps = np.asarray(potential.breakpoints, dtype=float)
    return bps if len(bps) <= MAX_SHARED_BREAKS else bps[:0]


def slice_panels(kernel, ts, roots: list, max_len: float,
                 order: int = GAUSS_ORDER) -> tuple[PanelPlan, np.ndarray]:
    """(plan, g): the panels of the slices G(t, .) on [0, T] for every t in
    ts, and G at their Gauss nodes, shaped as plan.xs.

    Row r is broken at roots[r], the zeros of its slice, at its diagonal
    kink ts[r] and at shared_breaks(kernel.potential), then capped at
    max_len, so that each panel of a row is smooth and of one sign.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    shared = shared_breaks(kernel.potential)
    n = len(ts)
    counts = [len(r) for r in roots]
    rows = np.concatenate([np.repeat(np.arange(n), counts), np.arange(n),
                           np.repeat(np.arange(n), len(shared))])
    points = np.concatenate([np.concatenate([np.zeros(0), *roots]), ts,
                             np.tile(shared, n)])
    plan = panel_plan(np.zeros(n), np.full(n, kernel.T), rows, points,
                      max_len, order)
    t_rows = np.repeat(ts, np.diff(plan.offsets))[:, None]
    return plan, np.asarray(kernel(t_rows, plan.xs), dtype=float)


def default_max_len(potential) -> float:
    """Panel-length cap keeping a handful of panels per kernel half-wave."""
    T = potential.interval.T
    return min(T / 8.0, math.pi / math.sqrt(max(potential.sup_norm, 1.0)))


def scan_kernel_roots(kernel, t: float) -> np.ndarray:
    """Interior zeros of s -> G(t, s): kernel.s_roots_many at one t.  Kept
    under this name for the tracer in perfbench/, which wraps it."""
    return kernel.s_roots_many([t])[0]
