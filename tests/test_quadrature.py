import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from greensign.errors import ResonantPotential
from greensign.fundamental import ConstantPair
from greensign.greens import NumericKernel, PeriodicConstantKernel, build_kernel
from greensign.potentials import KERNEL_KINDS, BoundaryKind, constant, sampled
from greensign.quadrature import (SLICE_CELLS_PER_PANEL, SLICE_ORDER, CellSums,
                                  build_edges, cell_edges, default_max_len, exact_weight,
                                  gauss_nodes, one_length, read_both, slice_sums, span)
from greensign.spectral import principal_eigenfunction
from slice_oracle import MAX_SHARED_BREAKS, panel_plan, slice_panels


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
    # every row has a panel: reduceat over an empty segment would return
    # the next segment's first entry
    assert np.all(np.diff(got.offsets) >= 1)


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


def test_segment_sum_depends_only_on_contents():
    """np.add.reduceat over a plan's offsets is the one reduction of a
    panel plan.  The per-row oracles of gamma and cone end in a one-row
    reduceat; that is the same sum because a segment's sum depends only on
    its contents, not on where in the array, or at what alignment, it lies."""
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(40000) * rng.uniform(1e-3, 1e3, 40000)
    counts = rng.integers(1, 600, 120)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    got = np.add.reduceat(vals[:counts.sum()], starts)
    for k, (a, c) in enumerate(zip(starts, counts)):
        for shift in (0, 1, 3):        # moved to another offset in a buffer
            buf = np.zeros(c + shift)
            buf[shift:] = vals[a:a + c]
            assert np.add.reduceat(buf[shift:], [0])[0] == got[k]


def test_gauss_nodes_are_kept_per_order():
    for order in (4, 8, 12):
        got = gauss_nodes(order)
        assert gauss_nodes(order) is got
        want = np.polynomial.legendre.leggauss(order)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("kernel", [
    wavy_kernel(2001),
    build_kernel(constant(7.5, 1.7), BoundaryKind.DIRICHLET)], ids=["wavy", "closed"])
def test_every_read_point_is_an_edge(kernel):
    """A read is an index into the sums: every point of the build is an
    edge, once clipped to [0, T], and the two-sided read at both ends is 0."""
    T = kernel.T
    rng = np.random.default_rng(2)
    inner = rng.uniform(0.0, T, 40)
    x = np.concatenate([
        inner, inner[:5],                                  # duplicates
        np.nextafter(inner[5:10], T), np.nextafter(inner[10:15], 0.0),
        [0.0, T, np.nextafter(0.0, 1.0), np.nextafter(T, 0.0),
         -0.3, T + 0.2, -1e-13, T + 1e-13]])               # clipped to 0 and T
    rng.shuffle(x)
    sums = CellSums(kernel.fs, cell_edges(kernel, x, default_max_len(kernel.potential) / 16),
                    4)
    assert np.all(np.diff(sums.edges) > 0.0)
    assert np.array_equal(sums.edges[sums.index(x)], np.clip(x, 0.0, T))
    S, left, total = sums.both(np.cos(sums.xs), [0.0, T])
    assert list(left) == [True, False]
    assert np.all(S == 0.0)
    assert np.all(total != 0.0)


def per_point_q(kernel, sums):
    """The table's q with the pair read at every Gauss node by the kernel's
    own pointwise read, as CellSums read it before its cells had shapes."""
    e = sums.edges
    half = 0.5 * (e[1:] - e[:-1])
    xs = sums.xs.reshape(len(half), -1)
    return np.stack(kernel._pair(xs)) * (half[:, None] * gauss_nodes(xs.shape[1])[1])


def assert_within_ulps(got, want, ulps):
    """got matches want to ulps roundings of max |want|, per solution."""
    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)))
    err = np.max(np.abs(got - want), axis=tuple(range(1, want.ndim)))
    assert np.all(err <= ulps * np.finfo(float).eps * scale), err / scale


class TestCellPair:
    """The pair at the Gauss nodes of a table, from one small matrix per
    cell shape (the pair's cell_pair), against its values point by point."""

    @pytest.mark.parametrize("bc", list(BoundaryKind))
    def test_hermite_cells_match_eval_pair(self, bc, monkeypatch):
        grid = np.linspace(0.0, 1.0, 2001)
        k = build_kernel(sampled(grid, 60 + 10 * np.sin(2 * np.pi * grid)), bc)
        # uneven read points split some grid cells; the others stay whole
        ts = np.linspace(0.0, 1.0, 57) ** 1.3
        seen = []
        eval_pair = k.fs.eval_pair
        monkeypatch.setattr(k.fs, "eval_pair", lambda x: seen.append(x.size) or eval_pair(x))
        sums = CellSums(k.fs, cell_edges(k, ts, default_max_len(k.potential)), 8)
        monkeypatch.undo()
        # every grid node is an edge, so a cell between two is a grid cell
        on_grid = np.isin(sums.edges, k.fs.ts)
        whole = on_grid[:-1] & on_grid[1:]
        assert 1000 < whole.sum() < len(whole)
        # no node is read point by point: split cells too are read off
        # their grid cell's cubics
        assert seen == []
        assert_within_ulps(sums.q, per_point_q(k, sums), 8)

    @pytest.mark.parametrize("rho,T", [(7.5, 1.0), (12.0, 2.5), (250.0, 1.0)])
    def test_angle_addition_matches_eval_pair(self, rho, T):
        # both read cos and sin at arguments up to rho T, whose rounding
        # sets how closely they agree
        k = build_kernel(constant(rho, T), BoundaryKind.DIRICHLET)
        for n in (5, 101, 2001):
            edges = cell_edges(k, np.linspace(0.0, T, n), default_max_len(k.potential))
            sums = CellSums(k.fs, edges, 8)
            assert one_length(sums.edges)
            assert_within_ulps(sums.q, per_point_q(k, sums), 4 * max(1.0, rho * T))

    def test_constant_pair_falls_back(self):
        # at rho = 0 (u1 = 1, u2 = t), and on cells of unequal lengths, the
        # values are eval_pair's, bit for bit
        nodes = gauss_nodes(8)[0]
        for rho, e in ((0.0, np.linspace(0.0, 1.0, 101)),
                       (7.5, np.linspace(0.0, 1.0, 101) ** 1.2)):
            pair = ConstantPair(rho, 1.0)
            half = 0.5 * np.diff(e)
            xs = (0.5 * (e[:-1] + e[1:]))[:, None] + half[:, None] * nodes
            assert np.array_equal(pair.cell_pair(e, xs), np.stack(pair.eval_pair(xs)))

    def test_one_length_to_rounding(self):
        assert one_length(np.linspace(0.0, 1.0, 2001))
        assert one_length(np.linspace(0.0, 2.0 * np.pi, 3))
        e = np.linspace(0.0, 1.0, 11)
        e[5] += 1e-12
        assert not one_length(e)


#: the most that read_both's closed form strays from the table, in units of
#: max |W| per solution, W the antiderivative of p w: measured at most
#: 1.3e-14 over 4000 draws as test_closed_read_matches_table makes them, and
#: 8.9e-16 on test_near_equal_frequencies.  The closed form is the closer to
#: the exact integral: at rho = 50.29 the table is 2.4e-13 of max |W| off it
CLOSED_READ_TOL = 4e-14


def closed_read_weight(name, pot, bc):
    """The weights of the closed read: None (one), the coefficient, the
    exact principal eigenfunction, or sin(pi t), the Dirichlet one on
    [0, 1], on any kernel."""
    if name == "one":
        return None
    if name == "coefficient":
        return pot
    if name == "eigen":
        return principal_eigenfunction(pot, bc)
    return principal_eigenfunction(constant(2.0), BoundaryKind.DIRICHLET)


def assert_closed_read_matches_table(kernel, weight, x):
    """read_both at x, through its closed form, against the table of
    CellSums built on x by slice_sums' recipe and read by both, per
    solution to CLOSED_READ_TOL of max |W|."""
    assert kernel.form == "closed" and exact_weight(weight) is not None
    S, left, total = read_both(kernel, weight, x)
    sums = CellSums(kernel.fs, cell_edges(
        kernel, x, default_max_len(kernel.potential) / SLICE_CELLS_PER_PANEL), SLICE_ORDER)
    want, want_left, want_total = sums.both(1.0 if weight is None else weight(sums.xs), x)
    assert np.array_equal(left, want_left)
    W = np.concatenate([want + np.where(want_left, 0.0, want_total[:, None]),
                        want_total[:, None]], axis=1)
    scale = np.max(np.abs(W), axis=1)
    err = np.maximum(np.max(np.abs(S - want), axis=1), np.abs(total - want_total))
    assert np.all(err <= CLOSED_READ_TOL * scale), err / scale


def closed_read_points(T, inner):
    """0, T, T / 2 and its float neighbours, points within 1e-12 T of T,
    the inner points in units of T, and 33 equally spaced points, on which
    max |W| is taken."""
    half = 0.5 * T
    return np.concatenate([[0.0, T, half, np.nextafter(half, 0.0), np.nextafter(half, T),
                            T - 1e-12 * T, np.nextafter(T, 0.0)], T * np.asarray(inner),
                           np.linspace(0.0, T, 33)])


class TestClosedRead:
    """read_both on an exact pair and weight integrates in closed form
    (ConstantPair.both) what the table sums on its Gauss cells."""

    @given(bc=st.sampled_from(KERNEL_KINDS), T=st.sampled_from([1.0, 2.0]),
           rho_T=st.floats(0.3, 60.0),
           weight=st.sampled_from(["one", "coefficient", "eigen"]),
           inner=st.lists(st.floats(0.0, 1.0), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_closed_read_matches_table(self, bc, T, rho_T, weight, inner):
        pot = constant(rho_T / T, T)
        try:
            kernel = build_kernel(pot, bc)
        except ResonantPotential:
            assume(False)
        assert_closed_read_matches_table(kernel, closed_read_weight(weight, pot, bc),
                                         closed_read_points(T, inner))

    @pytest.mark.parametrize("bc, rho, weight", [
        # rho = omega exactly: the difference wave has k = 0
        (BoundaryKind.PERIODIC, math.pi, "sine"),
        # rho - omega = 1e-6 omega, where 1 - cos y cancels
        (BoundaryKind.DIRICHLET, math.pi * (1 + 1e-6), "eigen"),
        (BoundaryKind.MIXED1, 0.5 * math.pi * (1 + 1e-6), "eigen"),
        (BoundaryKind.MIXED2, 0.5 * math.pi * (1 + 1e-6), "eigen")])
    def test_near_equal_frequencies(self, bc, rho, weight):
        pot = constant(rho)
        kernel = build_kernel(pot, bc)
        w = closed_read_weight(weight, pot, bc)
        assert exact_weight(w)[0] == pytest.approx(rho, rel=2e-6)
        assert_closed_read_matches_table(kernel, w, closed_read_points(
            1.0, np.random.default_rng(5).uniform(0.0, 1.0, 50)))

    def test_other_weights_and_pairs_read_the_table(self):
        # a sampled weight on an exact pair, and an exact weight on the RK4
        # pair of the same potential, both go through CellSums
        pot = constant(7.5)
        for kernel, weight in ((build_kernel(pot, BoundaryKind.DIRICHLET), np.cos),
                               (NumericKernel(pot, BoundaryKind.DIRICHLET),
                                principal_eigenfunction(pot, BoundaryKind.DIRICHLET))):
            x = np.linspace(0.0, 1.0, 11)
            sums = CellSums(kernel.fs, cell_edges(
                kernel, x, default_max_len(pot) / SLICE_CELLS_PER_PANEL), SLICE_ORDER)
            for got, want in zip(read_both(kernel, weight, x), sums.both(weight(sums.xs), x)):
                assert np.array_equal(got, want)


def span_kernels():
    """(kernel, weight) of the span tests: the numeric wavy kernel under
    Dirichlet conditions with its eigenfunction weight, and the exact kernel
    of rho = 17.3 with the weight one and sin(pi s)."""
    grid = np.linspace(0.0, 1.0, 2001)
    wavy = sampled(grid, 60 + 10 * np.sin(2 * np.pi * grid))
    exact = build_kernel(constant(17.3), BoundaryKind.DIRICHLET)
    return [(build_kernel(wavy, BoundaryKind.DIRICHLET),
             principal_eigenfunction(wavy, BoundaryKind.DIRICHLET)),
            (exact, None), (exact, closed_read_weight("sine", constant(17.3), None))]


class TestSpan:
    """span decodes two reads of read_both, each from its nearer end, into
    the integral between them."""

    #: pairs a <= b left of T / 2, right of it, and across it, in units of T
    PAIRS = [(0.0, 0.1), (0.13, 0.37), (0.2, 0.5), (0.5, 0.5),
             (0.55, 0.8), (0.62, 0.97), (0.7, 1.0),
             (0.0, 1.0), (0.3, 0.8), (0.45, 0.55), (0.5, 0.5000001)]

    @pytest.mark.parametrize("kernel, weight", span_kernels(), ids=["wavy", "one", "sine"])
    def test_span_matches_one_sum_from_0(self, kernel, weight):
        """span of the reads at a and b, and span from 0 to every point,
        agree with the from-0 differences of one cumulative sum over the
        cells of the same table, to CLOSED_READ_TOL of max |W| per
        solution."""
        T = kernel.T
        a, b = T * np.array(self.PAIRS).T
        x = np.concatenate([a, b])
        S, left, total = read_both(kernel, weight, x)
        assert left.any() and not left.all()
        sums = slice_sums(kernel, x)
        cells = sums._cells(1.0 if weight is None else weight(sums.xs))
        W = np.concatenate([np.zeros((2, 1)), cells.cumsum(axis=1)], axis=1)[:, sums.index(x)]
        scale = np.max(np.abs(W), axis=1)[:, None]
        n = len(a)
        got = span(S[:, :n], left[:n], S[:, n:], left[n:], total[:, None])
        want = W[:, n:] - W[:, :n]
        assert np.all(np.abs(got - want) <= CLOSED_READ_TOL * scale), np.abs(got - want) / scale
        from0 = span(0.0, True, S, left, total[:, None])
        assert np.all(np.abs(from0 - W) <= CLOSED_READ_TOL * scale), np.abs(from0 - W) / scale

    @pytest.mark.parametrize("kernel, weight", span_kernels(), ids=["wavy", "one", "sine"])
    def test_empty_spans_are_zero(self, kernel, weight):
        """a = b gives exactly 0, and so does the join of two rows of
        gamma's row layout, from T to the next row's 0."""
        T = kernel.T
        x = T * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        S, left, total = read_both(kernel, weight, x)
        assert np.array_equal(span(S, left, S, left, total[:, None]), np.zeros_like(S))
        assert np.array_equal(span(S[:, -1], left[-1], S[:, 0], left[0], total), [0.0, 0.0])
