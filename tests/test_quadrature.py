import math

import numpy as np
import pytest

from greensign.greens import NumericKernel, PeriodicConstantKernel
from greensign.potentials import BoundaryKind, sampled
from greensign.quadrature import (MAX_SHARED_BREAKS, build_edges, gauss_nodes,
                                  panel_plan, slice_panels)


def per_row_panels(lo, hi, rows, points, max_len, order=16):
    """The per-row build_edges loop the flat plan replaced, kept as its
    oracle: (xs, weights, offsets) of every row, stacked."""
    nodes, gw = gauss_nodes(order)
    xs, ws, counts = [], [], []
    for r in range(len(lo)):
        edges = build_edges(lo[r], hi[r], points[rows == r], max_len)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs.append(mid[:, None] + half[:, None] * nodes[None, :])
        ws.append(half[:, None] * gw[None, :])
        counts.append(len(mid))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return np.concatenate(xs), np.concatenate(ws), offsets


def awkward_rows(rng, n):
    """Rows with points on, just inside and just outside their ends,
    repeated points, and points beyond [lo, hi]."""
    lo = rng.uniform(-1.0, 1.0, n)
    hi = lo + rng.uniform(1e-3, 3.0, n)
    rows, points = [], []
    for r in range(n):
        a, b = lo[r], hi[r]
        p = rng.uniform(a - 0.5, b + 0.5, rng.integers(0, 9))
        tiny = 1e-15 * (b - a)
        p = np.concatenate([p, p[:3], [a, b, a + tiny, b - tiny,
                                       a + 2 * tiny, b - 2 * tiny,
                                       np.nextafter(a, b), np.nextafter(b, a),
                                       a - 1.0, b + 1.0, 0.5 * (a + b)]])
        rows += [r] * len(p)
        points += list(p)
    return lo, hi, np.array(rows), np.array(points)


@pytest.mark.parametrize("max_len", [0.05, 0.37, 10.0])
def test_plan_matches_per_row_build_edges(max_len):
    rng = np.random.default_rng(11)
    lo, hi, rows, points = awkward_rows(rng, 40)
    want = per_row_panels(lo, hi, rows, points, max_len)
    got = panel_plan(lo, hi, rows, points, max_len)
    for g, w in zip((got.xs, got.weights, got.offsets), want):
        assert np.array_equal(g, w)


def per_slice_panels(ts, roots, shared, max_len, order):
    """per_row_panels of the slices G(t, .) on [0, 1], broken at their
    roots, their diagonal kink and the shared points."""
    n = len(ts)
    rows = np.concatenate([np.repeat(np.arange(n), [len(r) for r in roots]),
                           np.arange(n), np.repeat(np.arange(n), len(shared))])
    points = np.concatenate([*roots, ts, np.tile(shared, n)])
    return per_row_panels(np.zeros(n), np.ones(n), rows, points, max_len, order)


def wavy_kernel(nodes):
    grid = np.linspace(0.0, 1.0, nodes)
    return NumericKernel(sampled(grid, 60 + 10 * np.sin(2 * np.pi * grid)),
                         BoundaryKind.PERIODIC)


def test_plan_of_kernel_slices_matches_per_row_build_edges():
    rng = np.random.default_rng(3)
    ts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 50)])
    roots = [np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 6))) for _ in ts]
    roots[5] = np.array([ts[5], ts[5], 0.0, 1.0])     # on the kink, repeated
    kernel = wavy_kernel(5)               # break points 0.25, 0.5 and 0.75
    want = per_slice_panels(ts, roots, [0.25, 0.5, 0.75], 1.0 / 7, 24)
    plan, _ = slice_panels(kernel, ts, roots, 1.0 / 7, 24)
    for g, w in zip((plan.xs, plan.weights, plan.offsets), want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("nodes", [41, MAX_SHARED_BREAKS + 2,
                                   MAX_SHARED_BREAKS + 3, 2001])
def test_slice_panels_share_only_few_break_points(nodes):
    kernel = wavy_kernel(nodes)
    grid = kernel.potential.grid
    ts = np.concatenate([[0.0, 1.0, grid[nodes // 3]],
                         np.random.default_rng(8).uniform(0.0, 1.0, 20)])
    roots = kernel.s_roots_many(ts)
    shared = grid[1:-1] if nodes - 2 <= MAX_SHARED_BREAKS else []
    want = per_slice_panels(ts, roots, shared, 0.1, 12)
    plan, g = slice_panels(kernel, ts, roots, 0.1, 12)
    for got, w in zip((plan.xs, plan.weights, plan.offsets), want):
        assert np.array_equal(got, w)
    t_nodes = np.repeat(ts, np.diff(plan.offsets))[:, None]
    assert np.array_equal(
        g, kernel(np.broadcast_to(t_nodes, plan.xs.shape), plan.xs))


def test_slice_panels_of_no_slices():
    plan, g = slice_panels(PeriodicConstantKernel(1.5 * math.pi), [], [], 0.1)
    assert g.shape == plan.xs.shape == (0, 16)
    assert list(plan.offsets) == [0]


def test_rows_without_points_and_empty_plan():
    got = panel_plan([0.0, 2.0], [1.0, 5.0], [], [], 0.5)
    assert list(got.offsets) == [0, 2, 8]
    empty = panel_plan([], [], [], [], 0.5)
    assert empty.xs.shape == (0, 16) and list(empty.offsets) == [0]


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        panel_plan([0.0, 1.0], [1.0, 1.0], [], [], 0.5)

