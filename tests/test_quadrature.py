import numpy as np
import pytest

from greensign.quadrature import build_edges, gauss_nodes, panel_plan, slice_points


def per_row_panels(lo, hi, rows, points, max_len, order=16):
    """The per-row build_edges loop the flat plan replaced, kept as its
    oracle: (xs, weights, mid) of every row, stacked."""
    nodes, gw = gauss_nodes(order)
    xs, ws, mids, counts = [], [], [], []
    for r in range(len(lo)):
        edges = build_edges(lo[r], hi[r], points[rows == r], max_len)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        xs.append(mid[:, None] + half[:, None] * nodes[None, :])
        ws.append(half[:, None] * gw[None, :])
        mids.append(mid)
        counts.append(len(mid))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(mids), offsets


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


@pytest.mark.parametrize("max_len", [None, 0.0, 0.05, 0.37, 10.0])
def test_plan_matches_per_row_build_edges(max_len):
    rng = np.random.default_rng(11)
    lo, hi, rows, points = awkward_rows(rng, 40)
    want = per_row_panels(lo, hi, rows, points, max_len)
    got = panel_plan(lo, hi, rows, points, max_len)
    for g, w in zip((got.xs, got.weights, got.mid, got.offsets), want):
        assert np.array_equal(g, w)


def test_plan_of_kernel_slices_matches_per_row_build_edges():
    rng = np.random.default_rng(3)
    ts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 50)])
    roots = [np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 6))) for _ in ts]
    roots[5] = np.array([ts[5], ts[5], 0.0, 1.0])     # on the kink, repeated
    shared = np.array([0.25, 0.5, 0.75])
    rows, points = slice_points(ts, roots, shared)
    n = len(ts)
    want = per_row_panels(np.zeros(n), np.ones(n), rows, points, 1.0 / 7, 24)
    got = panel_plan(np.zeros(n), np.ones(n), rows, points, 1.0 / 7, 24)
    for g, w in zip((got.xs, got.weights, got.mid, got.offsets), want):
        assert np.array_equal(g, w)


def test_rows_without_points_and_empty_plan():
    got = panel_plan([0.0, 2.0], [1.0, 5.0], [], [], 0.5)
    assert list(got.offsets) == [0, 2, 8]
    empty = panel_plan([], [], [], [])
    assert empty.xs.shape == (0, 16) and list(empty.offsets) == [0]


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        panel_plan([0.0, 1.0], [1.0, 1.0], [], [])
