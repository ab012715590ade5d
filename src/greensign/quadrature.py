"""Panelized Gauss-Legendre quadrature and the batched kernel-root scan.

Integrands here are piecewise smooth: kernels are C^1 away from the diagonal
t = s, their positive/negative parts additionally kink at the interior zeros
of G(t, .), and sampled potentials kink at their grid nodes.  Splitting panels
at every such point keeps a modest fixed-order rule accurate.

The zeros of the slices G(t, .) come from scan_kernel_roots_many, which
scans the slices of many t together: a block of t at a time, at most
SCAN_BLOCK_POINTS (t, s) samples, so its memory does not grow with the
number of t.  Per slice it finds exactly the roots a scan of that slice
alone would find; scan_kernel_roots is that scan at a single t.
"""
from __future__ import annotations

import math

import numpy as np

GAUSS_ORDER = 16
#: (t, s) samples per block of the batched root scan; bounds its memory.
SCAN_BLOCK_POINTS = 1 << 16

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


def composite_gauss(f, edges: np.ndarray, order: int = GAUSS_ORDER) -> float:
    """Integral of vectorized f over the union of panels given by edges."""
    nodes, weights = gauss_nodes(order)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * nodes[None, :]
    vals = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    return float(np.sum(vals * (half[:, None] * weights[None, :])))


def integrate(f, a: float, b: float, points=(), max_len: float | None = None,
              order: int = GAUSS_ORDER) -> float:
    """Convenience wrapper: build edges, then integrate."""
    return composite_gauss(f, build_edges(a, b, points, max_len), order)


def default_max_len(potential) -> float:
    """Panel-length cap keeping a handful of panels per kernel half-wave."""
    T = potential.interval.T
    return min(T / 8.0, math.pi / math.sqrt(max(potential.sup_norm, 1.0)))


def scan_kernel_roots(kernel, t: float, n_scan: int = 512, tol: float = 1e-12) -> np.ndarray:
    """Interior zeros of s -> G(t, s): scan_kernel_roots_many at one t."""
    return scan_kernel_roots_many(kernel, [t], n_scan, tol)[0]


def scan_kernel_roots_many(kernel, ts, n_scan: int = 512,
                           tol: float = 1e-12) -> list[np.ndarray]:
    """Sorted interior zeros of s -> G(t, s) for every t in ts.

    Fallback for kernels without an analytic root list.  Each slice is
    sampled at n_scan + 1 uniform points, the potential's breakpoints and
    t itself; exact zeros are kept, and every sign flip between neighbours
    is bisected down to tol.  Tangential zeros (touching without crossing)
    are only caught if a scan point lands on them, which is acceptable: the
    quadratures that consume these roots only need panels that are
    sign-pure, and a touch point does not break that.

    The slices are scanned in blocks of t holding at most SCAN_BLOCK_POINTS
    samples: one grid_eval per block for the shared points, one call for the
    diagonal, and one call per bisection round for all flips of the block.
    """
    T = kernel.T
    ts = np.asarray(ts, dtype=float).reshape(-1)
    bps = np.asarray(kernel.potential.breakpoints, dtype=float)
    common = np.unique(np.concatenate([np.linspace(0.0, T, n_scan + 1),
                                       bps[(bps >= 0) & (bps <= T)]]))
    it = max(1, int(math.ceil(math.log2(max(T / n_scan / tol, 2.0)))))
    block = max(1, SCAN_BLOCK_POINTS // (len(common) + 1))
    roots: list[np.ndarray] = []
    for start in range(0, len(ts), block):
        roots.extend(_scan_block(kernel, ts[start:start + block], common, it))
    return roots


def _scan_block(kernel, ts: np.ndarray, common: np.ndarray, it: int) -> list[np.ndarray]:
    """scan_kernel_roots_many on one block of t, all slices at once."""
    T = kernel.T
    rows = np.arange(len(ts))
    # row i is common with t_i inserted at column j_i.  A t_i already in
    # common (or clipped onto an end of it) is inserted as a repeat, with
    # the same value, so it adds no zero and no flip.
    diag_s = np.clip(ts, 0.0, T)
    j = np.searchsorted(common, diag_s)
    cols = np.arange(len(common) + 1)
    src = cols[None, :] - (cols[None, :] > j[:, None])
    g_common = kernel.grid_eval(ts, common)
    g_diag = np.where(common[j] == diag_s, g_common[rows, j],
                      np.asarray(kernel(ts, diag_s), dtype=float))
    ss = common[src]
    g = g_common[rows[:, None], src]
    ss[rows, j] = diag_s
    g[rows, j] = g_diag

    zero = (g == 0.0) & (ss > 0.0) & (ss < T)
    zr, zc = np.nonzero(zero)
    fr, fc = np.nonzero(g[:, :-1] * g[:, 1:] < 0.0)
    lo = ss[fr, fc]
    hi = ss[fr, fc + 1]
    glo = g[fr, fc]
    if fr.size:
        tf = ts[fr]
        for _ in range(it):
            mid = 0.5 * (lo + hi)
            gm = np.asarray(kernel(tf, mid), dtype=float)
            same = (gm > 0) == (glo > 0)
            lo = np.where(same, mid, lo)
            glo = np.where(same, gm, glo)
            hi = np.where(same, hi, mid)

    row = np.concatenate([zr, fr])
    val = np.concatenate([ss[zr, zc], 0.5 * (lo + hi)])
    keep = (val > 0.0) & (val < T)
    row, val = row[keep], val[keep]
    return [np.unique(val[row == i]) for i in rows]
