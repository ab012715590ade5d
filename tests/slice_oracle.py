"""The panel quadrature of kernel slices that the library's separable forms
replaced, kept as their oracle.

slice_panels lays out Gauss panels for every slice G(t, .) on [0, T], broken
at its zeros, its diagonal t and the potential's shared break points (or
any break points given), capped in length, and evaluates G on them.
slice_parts integrates the positive and negative parts of many weighted
slices on those panels, in blocks of slices; every panel has one sign and
counts as positive or negative by the sign of its own weighted integral.
"""
import math

import numpy as np

from greensign.quadrature import (GAUSS_ORDER, default_max_len, panel_plan,
                                  shared_breaks)

#: Gauss nodes per block of slices in slice_parts; bounds its memory.
SLICE_BLOCK_NODES = 1 << 17


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
