"""Gauss-Legendre quadrature of kernel integrals.

Integrands here are piecewise smooth: kernels are C^1 away from the diagonal
t = s, their positive/negative parts additionally kink at the interior zeros
of G(t, .), and a numeric kernel's pair kinks at its grid nodes.

The sign-ratio constant and the t-integrals of the cone read the
integrals of p w, with p the kernel's fundamental pair and w a weight,
through one entry, read_both: at each point from the nearer end, since
read from 0 the sums next to T lose digits; span decodes two such reads
into the integral between them.  Where the pair is exact (a
constant potential's ConstantPair) and so is the weight (one, a
constant coefficient, or an eigenfunction on an exact pair;
exact_weight), the integrals are elementary, and read_both takes them in
closed form (ConstantPair.both).  Every other pair or weight reads
one table, CellSums, built by one recipe, slice_sums.

CellSums is one cumulative quadrature of p g over [0, T], built from the
pair it is given on the cells between the edges it is given.  One rule
lays the edges out, cell_edges: no cell straddles a numeric kernel's grid
node (its pair is one cubic per grid cell) or a point the caller reads
at, so a low-order rule per cell is exact for a piecewise-polynomial g
aligned to those points (read_both adds a weight's own kinks to them),
and a read is an index into the sums.  Its one read, both, takes each
point from the nearer end.  slice_sums lays out read_both's cells; the
solver lays out its own once per solve, with its own length cap, builds
every table of the solve on them, and sums the cells from 0 itself (see
solver).  The pair gives its values at the Gauss nodes through its
cell_pair (see fundamental): a numeric pair re-expands the cubics of each
grid cell on every cell inside it; an exact one uses angle addition on
cells of one length (one_length) and reads the others point by point.

The zeros of the slices G(t, .) that gamma reads come from the kernel
(Kernel._fixed_zeros on a separated condition, _search_rows on a paired
one), at the angles of its pair (see greens); no slice is sampled to find
them.  gamma reads W once at each distinct point, and 0 and T read
exactly 0 from their own end.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureFailure
from .potentials import ConstantPotential

#: The most that the terms of a separable sum may exceed its values by
CANCELLATION_LIMIT = 1e8

#: Gauss points per cell, and cells per default_max_len, of slice_sums: they
#: integrate exactly a p w of degree 6 per cell (the RK4 pair and weight are
#: cubics between grid nodes), and to rounding where an exact pair and
#: weight turn by at most pi / 16 in a cell.
SLICE_ORDER, SLICE_CELLS_PER_PANEL = 4, 16

#: Cells count as one length when their lengths differ by at most this many
#: roundings of the length of their span
ONE_LENGTH_ULPS = 8


@functools.cache
def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the order-point rule on [-1, 1], cached."""
    return np.polynomial.legendre.leggauss(order)


def one_length(edges) -> bool:
    """Whether the cells between consecutive edges have one length, to the
    rounding of the edges."""
    tol = ONE_LENGTH_ULPS * np.finfo(float).eps * abs(edges[-1] - edges[0])
    return float(np.ptp(np.diff(edges))) <= tol


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


def cell_edges(kernel, points, max_len: float) -> np.ndarray:
    """Sorted edges of the cells of [0, T] that a cumulative quadrature
    sums over: 0, T, the points (clipped to [0, T]) and the nodes of the
    kernel's pair (a numeric kernel's grid; only 0 and T for an exact pair),
    with each cell between them cut into equal parts no longer than
    max_len."""
    T = kernel.T
    edges = np.sort(np.concatenate([(0.0, T), points, kernel.fs.ts]).clip(0.0, T))
    # np.unique would import numpy.ma on its first call
    edges = edges[np.concatenate([[True], edges[1:] > edges[:-1]])]
    # the edges interpolated at integer knots cut each cell into equal parts
    cuts = np.ceil((edges[1:] - edges[:-1]) / max_len)
    ends = np.concatenate([[0.0], cuts.cumsum()])
    return np.interp(np.arange(ends[-1] + 1.0), ends, edges)


class CellSums:
    """One cumulative Gauss quadrature of p g over [0, T], with p = (u1, u2)
    a kernel's pair, for any g sampled at the nodes xs (or broadcast to
    them).  Built once on the cells it is given, between consecutive edges
    from 0 to T (laid out by cell_edges): the order-point Gauss nodes xs of
    every cell, and q, the pair there times the half-width of each cell and
    the rule's weights, shape (2, cells, order).  Every point read is an
    edge, so a read is an index into the sums.  The pair's values at the
    nodes come from its cell_pair (see fundamental).  The nodes are
    interior, so no pinned end is among them.
    """

    def __init__(self, pair, edges: np.ndarray, order: int):
        self.edges = e = edges
        self.T = e[-1]
        nodes, gw = gauss_nodes(order)
        half = 0.5 * (e[1:] - e[:-1])
        xs = (0.5 * (e[:-1] + e[1:]))[:, None] + half[:, None] * nodes
        self.xs = xs.ravel()
        self.q = pair.cell_pair(e, xs)
        self.q *= half[:, None] * gw

    def index(self, x) -> np.ndarray:
        """Where the points x, clipped to [0, T], stand among the edges:
        edges[index(x)] is x for every x that was among the points."""
        return self.edges.searchsorted(np.clip(x, 0.0, self.T))

    def _cells(self, g) -> np.ndarray:
        g = np.broadcast_to(np.asarray(g, dtype=float), self.xs.shape)
        return np.einsum("kij,ij->ki", self.q, g.reshape(self.q.shape[1:]))

    def both(self, g, x):
        """(S, left, total) at the points x: total is the integral of p g
        over [0, T]; left is where x <= T - x, and S[:, i] is the integral
        over [0, x[i]] there and minus that over [x[i], T] elsewhere.  So a
        point is read from its nearer end, without the cancellation of
        P(T) - P(x) next to T."""
        cells = self._cells(g)
        up = np.zeros((2, cells.shape[1] + 1))
        down = np.zeros_like(up)
        np.cumsum(cells, axis=1, out=up[:, 1:])
        np.cumsum(cells[:, ::-1], axis=1, out=down[:, -2::-1])
        at = self.index(x)
        left = self.edges[at] <= self.T - self.edges[at]
        return (np.where(left, up[:, at], -down[:, at]), left,
                0.5 * (up[:, -1] + down[:, 0]))


def require_no_cancellation(bulk, values, what: str, task: str) -> None:
    """Raise QuadratureFailure where bulk, the sum of the absolute values of
    the terms of a separable sum, exceeds its largest |value| by more than
    CANCELLATION_LIMIT: a fast-growing pair makes the terms cancel."""
    bulk = float(np.max(bulk))
    if bulk > CANCELLATION_LIMIT * float(np.max(np.abs(values))):
        raise QuadratureFailure(
            f"the terms of the separable sum reach {bulk:.3e}, more than "
            f"{CANCELLATION_LIMIT:.0e} times max |{what}|; the fundamental pair "
            f"grows too fast for {task}")


def default_max_len(potential) -> float:
    """Panel-length cap keeping a handful of panels per kernel half-wave."""
    T = potential.interval.T
    return min(T / 8.0, math.pi / math.sqrt(max(potential.sup_norm, 1.0)))


def slice_sums(kernel, points) -> CellSums:
    """The CellSums edged at points that read_both reads where no closed
    form serves, on cells of cell_edges at SLICE_CELLS_PER_PANEL per
    default_max_len."""
    max_len = default_max_len(kernel.potential) / SLICE_CELLS_PER_PANEL
    return CellSums(kernel.fs, cell_edges(kernel, points, max_len), SLICE_ORDER)


def exact_weight(weight):
    """(omega, (c1, c2)) where the weight is exactly c1 v1 + c2 v2, with
    (v1, v2) = (cos(omega s), sin(omega s) / omega) the pair of
    ConstantPair(omega), or the constant c1 at omega = 0: None (one), a
    constant coefficient, or an eigenfunction on an exact pair
    (spectral.Eigenfunction on a ConstantPair).  None for any other."""
    if weight is None:
        return 0.0, (1.0, 0.0)
    if isinstance(weight, ConstantPotential):
        return 0.0, (weight.rho**2, 0.0)
    pair = getattr(weight, "pair", None)
    if getattr(pair, "form", None) == "closed" and (pair.rho or not weight.coefficients[1]):
        return pair.rho, weight.coefficients
    return None


def read_both(kernel, weight, x):
    """(S, left, total) of CellSums.both for p w at the points x, w the
    weight: None for one, or a function of s.  An exact pair
    (form "closed") with an exact weight (exact_weight) integrates in
    closed form (ConstantPair.both); any other pair or weight reads the
    slice_sums table edged at x and at the weight's break points."""
    x = np.asarray(x, dtype=float)
    exact = exact_weight(weight) if kernel.form == "closed" else None
    if exact is not None:
        return kernel.fs.both(*exact, x)
    sums = slice_sums(kernel, np.concatenate([getattr(weight, "breakpoints", ()), x]))
    g = 1.0 if weight is None else weight(sums.xs)
    return sums.both(g, x)


def span(S_a, left_a, S_b, left_b, total):
    """The integral of p w from a to b, a at or before b, of read_both's
    reads (S, left) there and its total: S_b - S_a, plus the total where a
    is read from 0 and b from T (T then 0, a join of two rows, reads 0)."""
    return S_b - S_a + total * (left_a > left_b)


def scan_kernel_roots(kernel, t: float) -> np.ndarray:
    """Interior zeros of s -> G(t, s): kernel.s_roots_many at one t.  Kept
    under this name for the tracer in perfbench/, which wraps it."""
    return kernel.s_roots_many([t])[0]
