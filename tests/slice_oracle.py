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
"""
import math
from typing import NamedTuple

import numpy as np

from greensign.cone import N_CELLS
from greensign.quadrature import default_max_len, gauss_nodes, shared_breaks

GAUSS_ORDER = 16

#: Gauss nodes per block of slices in slice_parts; bounds its memory.
SLICE_BLOCK_NODES = 1 << 17


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
    sign.
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
    negative parts of G(t, .) on the panels of slice_panels, in blocks of at
    most block_nodes Gauss nodes; one np.add.reduceat per sign sums the
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
    """The (flat, counts) zeros of kernel.s_roots_flat as one array per
    slice, as kernel.s_roots_many gives them."""
    flat, counts = roots
    return np.split(flat, np.cumsum(counts)[:-1])


def panel_slice_parts(breaks=None):
    """A stand-in for gamma._slice_parts, with its arguments, that integrates
    on the panels of slice_parts, GAUSS_ORDER points each whatever order
    its caller asks for, capped at default_max_len, and broken at breaks in
    place of the potential's shared break points when given."""
    def parts(kernel, ts, roots, weight, _order):
        return slice_parts(kernel, ts, split_roots(roots), weight, GAUSS_ORDER,
                           default_max_len(kernel.potential), breaks=breaks)
    return parts
