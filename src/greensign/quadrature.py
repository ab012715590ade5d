"""Gauss-Legendre quadrature of kernel integrals.

Integrands here are piecewise smooth: kernels are C^1 away from the diagonal
t = s, their positive/negative parts additionally kink at the interior zeros
of G(t, .), and sampled potentials kink at their grid nodes.

One layout serves every caller.  cell_edges and cell_nodes lay out the
cells of one cumulative quadrature of p g over [0, T], with p the kernel's
fundamental pair: no cell straddles a numeric kernel's grid node (its pair
is one Hermite cubic per grid cell), a shared break point of the potential
or a point the caller names, so a low-order rule per cell is exact for a
piecewise-polynomial g aligned to those points.  The solver, the
sign-ratio constant and the t-integrals of the cone integrate through it
(see solver, gamma and cone).

The zeros of the slices G(t, .) come from the kernel's s_roots_flat (or
s_roots_many, one array per slice), which gives none for a slice the
boundary condition pins to zero: the closed forms know them analytically,
and a numeric kernel places each at the angle of its fundamental pair
where the slice vanishes (see greens.NumericKernel).  No slice is sampled
to find them.
"""
from __future__ import annotations

import math

import numpy as np

#: Most break points of a potential that every cell layout is broken at; a
#: finely sampled potential is left to the length cap instead.
MAX_SHARED_BREAKS = 64

_gauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the order-point rule on [-1, 1], cached."""
    got = _gauss_cache.get(order)
    if got is None:
        got = np.polynomial.legendre.leggauss(order)
        _gauss_cache[order] = got
    return got


def build_edges(a: float, b: float, points=(), max_len: float | None = None) -> np.ndarray:
    """Sorted panel edges of [a, b]: interior break points plus a length cap.
    No library path lays out panels; the per-row oracles of the tests and
    the tracer in perfbench/ use it."""
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


def shared_breaks(potential) -> np.ndarray:
    """The potential's break points, which every cell layout is broken at
    when there are at most MAX_SHARED_BREAKS of them; none otherwise."""
    bps = np.asarray(potential.breakpoints, dtype=float)
    return bps if len(bps) <= MAX_SHARED_BREAKS else bps[:0]


def cell_edges(kernel, points, max_len: float) -> np.ndarray:
    """Sorted edges of the cells of [0, T] that a cumulative quadrature
    sums over: 0, T, the points (clipped to [0, T]), a numeric kernel's
    grid nodes and shared_breaks(kernel.potential), with each cell between
    them cut into equal parts no longer than max_len."""
    T = kernel.T
    fs = getattr(kernel, "fs", None)
    edges = np.sort(np.concatenate([(0.0, T), points, shared_breaks(kernel.potential),
                                    () if fs is None else fs.ts]).clip(0.0, T))
    # np.unique would import numpy.ma on its first call
    edges = edges[np.concatenate([[True], edges[1:] > edges[:-1]])]
    # the edges interpolated at integer knots cut each cell into equal parts
    cuts = np.ceil((edges[1:] - edges[:-1]) / max_len)
    ends = np.concatenate([[0.0], cuts.cumsum()])
    return np.interp(np.arange(ends[-1] + 1.0), ends, edges)


def cell_nodes(lo, hi, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, half): the order-point Gauss nodes of every cell [lo[i], hi[i]],
    shape (cells, order), and the half-widths of the cells, by which the
    rule's weights on [-1, 1] scale."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * gauss_nodes(order)[0], half


def default_max_len(potential) -> float:
    """Panel-length cap keeping a handful of panels per kernel half-wave."""
    T = potential.interval.T
    return min(T / 8.0, math.pi / math.sqrt(max(potential.sup_norm, 1.0)))


def scan_kernel_roots(kernel, t: float) -> np.ndarray:
    """Interior zeros of s -> G(t, s): kernel.s_roots_many at one t.  Kept
    under this name for the tracer in perfbench/, which wraps it."""
    return kernel.s_roots_many([t])[0]
