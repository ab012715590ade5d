"""The panel quadrature of kernel integrals that the library's separable
forms replaced, kept as their oracle.

panel_plan lays out the Gauss panels of many rows at once, as flat arrays:
the same panels build_edges gives each row, without a Python loop per row.
slice_panels lays out Gauss panels for every slice G(t, .) on [0, T], broken
at its zeros, its diagonal t and the potential's shared break points (or
any break points given), capped in length, and evaluates G on them.
slice_parts integrates the positive and negative parts of many weighted
slices on those panels, in blocks of slices; every panel has one sign and
counts as positive or negative by the sign of its own weighted integral.
t_integrals and cell_integral_table are the panel t-integrals of G(., s)
that cone read its windows from.

At an end that the boundary condition pins, G(t, .) vanishes and gamma
reads the limit slice G(t, .) / |t - end|.  The slice PINNED_STEP T inside
that end (inside_pinned_ends) has the limit's ratio to rounding under a
weight that vanishes at that end, as the principal eigenfunction does;
under the weight one it is off by O(PINNED_STEP), since the piece between
the end and t then counts to first order.  So panel_slice_parts reads such
an end from the slices PINNED_STEP T and twice that inside it, by one
Richardson step.  boundary_nodes and neville_to_zero are the extrapolation
to that limit which gamma used before it read the limit slice.

bisect_place is the root refinement of FundamentalSolutions.place before
it took Newton steps: ROOT_HALVINGS halvings of each zero's node cell,
with one eval_pair per halving.

antiderivative and Cumulative are the two cumulative tables that
quadrature.CellSums replaced: the two-sided antiderivative of p w that
gamma and the cone read, on cells that ignore the read points, with a
partial Gauss cell from the nearest edge to each of them; and the
solver's prefix sums, read at cell edges.
"""
import math
from typing import NamedTuple

import numpy as np

from greensign.cone import N_CELLS
from greensign.errors import QuadratureFailure
from greensign.fundamental import ROOT_HALVINGS
from greensign.quadrature import (cell_edges, default_max_len, gauss_nodes,
                                  require_no_cancellation, shared_breaks)

GAUSS_ORDER = 16

#: Gauss nodes per block of slices in slice_parts; bounds its memory.
SLICE_BLOCK_NODES = 1 << 17

#: Distance from a pinned end, in units of T, of the slice that the panels
#: read for the limit slice there.
PINNED_STEP = 1e-8

#: Slices behind the extrapolation of boundary_nodes.
BOUNDARY_SLICES = 6


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


def t_integrals(kernel, ss, cs, ds) -> np.ndarray:
    """Integral over t in [c, d] of G(t, s) for every (s, c, d), the three
    broadcast together; 0 where d <= c.

    Each integral is a row of one panel plan, split at its only kink t = s;
    one kernel evaluation and one np.add.reduceat serve them all.
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
    out[live] = np.add.reduceat(vals, starts[:-1])
    return out


def cell_integral_table(kernel, ss: np.ndarray) -> np.ndarray:
    """M[k, j] = integral of G(t, ss[j]) over the k-th of 64 equal t-cells."""
    T = kernel.T
    edges = np.linspace(0.0, T, N_CELLS + 1)
    nodes, gw = gauss_nodes(GAUSS_ORDER)
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
    M[ks, js] = t_integrals(kernel, ss[js], edges[ks], edges[ks + 1])
    return M


def slice_panels(kernel, ts, roots: list, max_len: float,
                 order: int = GAUSS_ORDER, breaks=None):
    """(plan, g): the panels of the slices G(t, .) on [0, T] for every t in
    ts, and G at their Gauss nodes, shaped as plan.xs.

    Row r is broken at roots[r], the zeros of its slice, at its diagonal
    kink ts[r] and at breaks (shared_breaks(kernel.potential) by default),
    then capped at max_len, so that each panel of a row is smooth and of one
    sign.  G is the kernel's pointwise value.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    shared = shared_breaks(kernel.potential) if breaks is None else np.asarray(breaks)
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


def slice_parts(kernel, ts, roots: list, weight, order: int, max_len: float,
                block_nodes: int = SLICE_BLOCK_NODES, breaks=None):
    """(N, D) at every t in ts: weighted integrals of the positive and
    negative parts of G(t, .) on the panels of slice_panels, in blocks of
    at most block_nodes Gauss nodes; one np.add.reduceat per sign sums the
    panels of every slice."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    n_breaks = len(shared_breaks(kernel.potential) if breaks is None else breaks)
    # a slice has at most one panel per max_len plus one per break point
    panels = (math.ceil(kernel.T / max_len) + n_breaks + 2
              + max((len(r) for r in roots), default=0))
    block = max(1, block_nodes // (order * panels))
    pos = np.empty(len(ts))
    neg = np.empty(len(ts))
    for a in range(0, len(ts), block):
        bt = ts[a:a + block]
        plan, g = slice_panels(kernel, bt, roots[a:a + block], max_len, order,
                               breaks)
        if weight is not None:
            g = g * np.asarray(weight(plan.xs.ravel()),
                               dtype=float).reshape(g.shape)
        panel = np.sum(g * plan.weights, axis=1)
        up = panel >= 0
        starts = plan.offsets[:-1]
        pos[a:a + len(bt)] = np.add.reduceat(np.where(up, panel, 0.0), starts)
        neg[a:a + len(bt)] = -np.add.reduceat(np.where(up, 0.0, panel), starts)
    return pos, neg


def split_roots(roots) -> list:
    """The (flat, counts) zeros of kernel._roots_flat as one array per
    slice, as kernel.s_roots_many gives them."""
    flat, counts = roots
    return np.split(flat, np.cumsum(counts)[:-1])


def inside_pinned_ends(kernel, ts, step: float = PINNED_STEP) -> np.ndarray:
    """ts with every end that the condition pins moved step T inside
    [0, T], where a slice stands for the limit slice at that end."""
    ts = np.asarray(ts, dtype=float)
    h = step * kernel.T
    return np.where(kernel.pinned(ts), np.where(ts == 0.0, h, kernel.T - h), ts)


def panel_slice_parts(breaks=None):
    """A stand-in for gamma._slice_parts, with its arguments, that integrates
    on the panels of slice_parts, GAUSS_ORDER points each, capped at
    default_max_len, and broken at breaks in place of the potential's
    shared break points when given.

    A row at a pinned end is read off the slices at the distances h =
    PINNED_STEP T and 2h inside it (inside_pinned_ends), with their zeros:
    with r(d) the parts of the slice at distance d divided by d, which meet
    the limit slice's to O(d), the row is 2 r(h) - r(2h), which meets them
    to O(h**2) under any weight."""
    def parts(kernel, ts, roots, weight):
        n = len(ts)
        pinned = np.flatnonzero(kernel.pinned(ts))
        near = np.concatenate([inside_pinned_ends(kernel, ts),
                               inside_pinned_ends(kernel, ts[pinned], 2.0 * PINNED_STEP)])
        roots = split_roots(roots) + [None] * len(pinned)
        for i in [*pinned, *range(n, len(near))]:
            roots[i] = kernel.s_roots(near[i])
        pos, neg = slice_parts(kernel, near, roots, weight, GAUSS_ORDER,
                               default_max_len(kernel.potential), breaks=breaks)
        ends = ts[pinned]
        h, h2 = np.abs(near[pinned] - ends), np.abs(near[n:] - ends)
        for part in (pos, neg):
            part[pinned] = 2.0 * part[pinned] / h - part[n:] / h2
        return pos[:n], neg[:n]
    return parts


def boundary_nodes(T: float, at_right: bool) -> tuple[np.ndarray, np.ndarray]:
    """(h, t) of BOUNDARY_SLICES slices approaching an end, at distances
    h = T 1e-2 / 2**k from it: t = T - h at the right end, t = h at the
    left."""
    hs = T * 1e-2 / 2.0 ** np.arange(BOUNDARY_SLICES)
    return hs, (T - hs if at_right else hs)


def neville_to_zero(xs: np.ndarray, ys: np.ndarray) -> float:
    """The value at 0 of the polynomial through the points (xs, ys)."""
    p = [float(y) for y in ys]
    n = len(p)
    for lev in range(1, n):
        for i in range(n - lev):
            p[i] = (-xs[i + lev] * p[i] + xs[i] * p[i + 1]) / (xs[i] - xs[i + lev])
    return p[0]


def bisect_place(fs, theta, keep, alpha, beta, k0):
    """FundamentalSolutions.place by bisection: each zero in its node cell,
    halved ROOT_HALVINGS times on the slice's Hermite cubic (eval_pair)."""
    row, col = np.nonzero(keep)
    a, b = alpha[row], beta[row]
    cell = np.searchsorted(fs.angles, theta[keep]) - 1
    lo, hi = fs.ts[cell], fs.ts[cell + 1]
    # past the target phi + k pi the slice has the sign of (-1)**k
    up = (k0[row] + col) % 2 == 0
    for _ in range(ROOT_HALVINGS):
        mid = 0.5 * (lo + hi)
        u1m, u2m = fs.eval_pair(mid)
        past = (a * u1m + b * u2m > 0.0) == up
        lo = np.where(past, lo, mid)
        hi = np.where(past, mid, hi)
    r = np.full(keep.shape, np.inf)
    r[keep] = 0.5 * (lo + hi)
    return r


def cell_nodes(lo, hi, order: int):
    """(xs, half): the order-point Gauss nodes of every cell [lo[i], hi[i]],
    shape (cells, order), and the half-widths of the cells."""
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi))[:, None] + half[:, None] * gauss_nodes(order)[0], half


def antiderivative(kernel, weight, x: np.ndarray, order: int = 4,
                   cells_per_panel: int = 16):
    """(S, left, total) of CellSums.both at the points x, for g the weight
    (None for one), on order-point cells of cell_edges broken at the
    weight's break points only and capped at default_max_len /
    cells_per_panel: a point is read from its nearer end as the sum up to
    its cell's edge on that side plus a Gauss sum over the rest of its
    cell."""
    T = kernel.T
    edges = cell_edges(kernel, getattr(weight, "breakpoints", ()),
                       default_max_len(kernel.potential) / cells_per_panel)
    n = len(edges) - 1
    left = x <= T - x
    k = np.where(left, edges.searchsorted(x, "right") - 1, edges.searchsorted(x))
    near = edges[k]
    xs, half = cell_nodes(np.concatenate([edges[:-1], np.where(left, near, x)]),
                          np.concatenate([edges[1:], np.where(left, x, near)]), order)
    u1, u2 = kernel._pair(xs)
    if weight is not None:
        w = np.asarray(weight(xs.ravel()), dtype=float).reshape(xs.shape)
        u1, u2 = u1 * w, u2 * w
    gw = gauss_nodes(order)[1]
    sums = np.array([u1 @ gw, u2 @ gw])
    sums *= half
    up = np.zeros((2, n + 1))
    down = np.zeros((2, n + 1))
    sums[:, :n].cumsum(axis=1, out=up[:, 1:])
    sums[:, n - 1::-1].cumsum(axis=1, out=down[:, -2::-1])
    parts = sums[:, n:]
    S = np.where(left, up[:, k] + parts, -(down[:, k] + parts))
    return S, left, 0.5 * (up[:, -1] + down[:, 0])


class Cumulative:
    """solver._Cumulative as it built its own cells: the integrals of
    G(t_i, s) g(s) ds at the output nodes t_i, for any g sampled at the
    Gauss nodes xs, read off prefix sums at cell edges."""

    def __init__(self, kernel, ts: np.ndarray, order: int = 8):
        T = kernel.T
        ts = np.clip(ts, 0.0, T)
        edges = cell_edges(kernel, ts, default_max_len(kernel.potential))
        self.at = np.searchsorted(edges, ts)
        xs, half = cell_nodes(edges[:-1], edges[1:], order)
        self.xs = xs.ravel()
        # the pair at the Gauss nodes from CellSums' own evaluation, whose
        # reference-cell values the pair's tests check against eval_pair
        self.q = kernel.fs.cell_pair(edges, xs) * (half[:, None] * gauss_nodes(order)[1])
        self.pt = kernel._pair(ts)
        self.C = kernel._C
        self.d = kernel._d

    def apply(self, g: np.ndarray) -> np.ndarray:
        g = np.broadcast_to(np.asarray(g, dtype=float), self.xs.shape)
        P = np.zeros((2, self.q.shape[1] + 1))
        np.cumsum(np.einsum("kij,ij->ki", self.q, g.reshape(self.q.shape[1:])),
                  axis=1, out=P[:, 1:])
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
