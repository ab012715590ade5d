"""Fundamental system of u'' + q(t) u = 0 by fixed-step RK4 on a uniform grid.

The one-step map of classical RK4 applied to the first-order system
y' = [[0, 1], [-q(t), 0]] y has a closed form in the three samples
q(t_i), q(t_i + h/2), q(t_i + h):

    M11 = 1 - h^2 (q0 + 2 qm) / 6 + h^4 qm q0 / 24
    M12 = h - h^3 qm / 6
    M21 = -h (q0 + 4 qm + q1) / 6 + h^3 qm (q0 + q1) / 12
    M22 = 1 - h^2 (2 qm + q1) / 6 + h^4 q1 qm / 24

With q = a + lam each entry is a polynomial in the spectral shift lam:
quadratic in M11, M21 and M22, linear in M12.  Their per-step coefficients
depend only on the potential and its grid of potential.grid_size nodes, so
they are tabulated once per potential and cached on it; a call at any batch
of shifts then only evaluates the polynomials.  Transfer matrices are assembled
by a pairwise product tree that works on the four entries as separate
(batch, steps) arrays.  On request the same pass gives the lifted (Pruefer)
angle of u2, and with it the number of zeros of a solution on [0, T].  A
subtree that keeps u > 0 at its end, as do all subtrees below it, turns e2
by less than half a turn, so its angle is its column's arctan2; the tree
carries angles, which compose exactly, only from the first level where a
subtree of the shift can pass a zero.

Fundamental solutions at the nodes come from the cumulative product, carried
block by block (cumulative_products): the products of fixed-size blocks of
steps, all blocks at once, carry Phi over the block starts, and each block
is stepped from its start, all blocks at once, by whole 2x2 matrices.
Between nodes the pair is its cubic Hermite interpolant, kept as one table
of monomial coefficients per grid cell (FundamentalSolutions.cubics), which
every read between nodes evaluates: eval_pair by Horner's rule, cell_pair
by re-expanding a cell's cubics on the quadrature cells inside it, and
place by safeguarded Newton steps on the cubic of a slice alpha u1 +
beta u2.  The exact pair of a constant potential (ConstantPair) reads cells
of one length by angle addition and any other cell point by point.
"""
from __future__ import annotations

import math
from array import array
from functools import cached_property

import numpy as np

from .errors import IntegratorFailure
from .potentials import ConstantPotential, Potential
from .quadrature import gauss_nodes, one_length

#: step entries per array in one block of shifts of transfer_matrix: a block
#: bounds the product tree's working set (about 2 MB), which the allocator
#: then reuses from block to block instead of mapping fresh pages each time
TRANSFER_BLOCK_ENTRIES = 1 << 16
#: steps per block of cumulative_products
PRODUCT_BLOCK = 16
#: cell halvings that place a slice root of the RK4 pair to rounding level:
#: the cap on the Newton rounds of place
ROOT_HALVINGS = 52
#: a Newton step of place, in units of the cell, at rounding level
ROOT_TOL = 4.0 * np.finfo(float).eps
#: the 2x2 identity, shaped to pad the steps of _product; cumulative_products
#: steps every block from it
_IDENTITY = np.eye(2)[:, :, None, None]


class _StepTable:
    """Coefficients of the RK4 step entries as polynomials in lam.

    Entry e (M11, M12, M21, M22) of step i is
    (c2[e] * lam + c1[e, i]) * lam + c0[e, i]; the lam**2 coefficients are
    the same for every step (zero for M12), and so is M12's lam coefficient.
    """

    def __init__(self, potential: Potential):
        T = potential.interval.T
        n = potential.grid_size - 1
        self.ts = np.linspace(0.0, T, potential.grid_size)
        h = self.ts[1] - self.ts[0]
        self.h = float(h)
        self.a = potential(self.ts)
        # shared by every FundamentalSolutions of the potential
        self.ts.flags.writeable = self.a.flags.writeable = False
        a0, a1 = self.a[:-1], self.a[1:]
        am = potential(self.ts[:-1] + 0.5 * (T / n))
        h2, h3, h4 = h * h, h**3, h**4
        self.c0 = np.stack([1.0 - h2 * (a0 + 2.0 * am) / 6.0 + h4 * am * a0 / 24.0,
                            h - h3 * am / 6.0,
                            -h * (a0 + 4.0 * am + a1) / 6.0 + h3 * am * (a0 + a1) / 12.0,
                            1.0 - h2 * (2.0 * am + a1) / 6.0 + h4 * a1 * am / 24.0])
        self.c1 = np.stack([-h2 / 2.0 + h4 * (a0 + am) / 24.0,
                            np.full(n, -h3 / 6.0),
                            -h + h3 * (a0 + 2.0 * am + a1) / 12.0,
                            -h2 / 2.0 + h4 * (am + a1) / 24.0])
        self.c2 = np.array([h4 / 24.0, 0.0, h3 / 6.0, h4 / 24.0])

    def entries(self, lam: np.ndarray, out: np.ndarray) -> None:
        """Write M11, M12, M21, M22 at each shift of the 1-d batch lam into
        out, of shape (4, len(lam), steps)."""
        lam = lam[:, None]
        np.add(self.c2[:, None, None] * lam, self.c1[:, None, :], out=out)
        out *= lam
        out += self.c0[:, None, :]


def _step_table(potential: Potential) -> _StepTable:
    """The step table of the potential on its grid, built once per potential."""
    table = potential.cache.get("rk4")
    if table is None:
        table = potential.cache["rk4"] = _StepTable(potential)
    return table


def _product(table: _StepTable, lams: np.ndarray, width: int, lift: bool):
    """Ordered product of all steps at each shift, shape (2, 2, len(lams)),
    and with lift the Pruefer angle of its second column, or None.

    Steps are padded with identities on the late side to width, a power of
    two, and reduced pairwise.  A subtree all of whose subtrees, itself
    included, take e2 into the open upper half-plane (u > 0) turns e2 by
    less than half a turn, so its lifted angle is its column's arctan2.  So
    a shift is reduced with no angle while every subtree of a level ends
    with u > 0 (the identity pads past the n steps aside); at the first
    level where one does not, its angles are seeded with arctan2 of the
    level below and composed upward by _turn.  That level is chosen per
    shift, and the rows of shifts not yet lifted hold NaN, so no shift's
    angle depends on the batch.
    """
    n = len(table.ts) - 1
    # m[i, j] holds entry (i, j) of every step at every shift
    m = np.empty((2, 2, len(lams), width))
    m[..., n:] = _IDENTITY
    table.entries(lams, m.reshape(4, len(lams), width)[..., :n])
    theta = None
    if lift:
        if not np.all(m[0, 1, :, :n] > 0.0):
            raise IntegratorFailure("an RK4 step turns the solution by half a "
                                    "turn or more; the grid is too coarse")
        lifted = np.zeros(len(lams), dtype=bool)
    # whether a shift is still reduced with no angle
    pending = lift
    # an overflow leaves inf or nan, which transfer_matrix refuses
    with np.errstate(over="ignore", invalid="ignore"):
        while m.shape[-1] > 1:
            # each later step (odd index) left-multiplies the earlier one:
            # (R L)[i, j] = R[i, 0] L[0, j] + R[i, 1] L[1, j]
            left, right = m[..., 0::2], m[..., 1::2]
            product = right[:, :1] * left[:1]
            product += right[:, 1:] * left[1:]
            if pending:
                # u of e2 on the subtrees of this level that hold a step
                n = -(-n // 2)
                u = product[0, 1, :, :n]
                if not u.min() > 0.0:
                    start = ~(lifted | (u.min(axis=-1) > 0.0))
                    if theta is None:
                        theta = np.full(m.shape[2:], np.nan)
                    theta[start] = np.arctan2(m[0, 1, start], m[1, 1, start])
                    lifted |= start
                    pending = not lifted.all()
            if theta is not None:
                theta = theta[..., 1::2] + _turn(right[:, 1], product[:, 1],
                                                 theta[..., 0::2])
            m = product
        if lift:
            root = np.arctan2(m[0, 1, :, 0], m[1, 1, :, 0])
            theta = root if theta is None else np.where(lifted, theta[:, 0], root)
    return m[..., 0], theta


def _turn(r, rl, theta_l):
    """Lifted angle of R L e2 less that of R e2, from the columns r = R e2
    and rl = R L e2 and the lifted angle theta_l of L e2.

    R maps angles theta to lifts F with F(theta + pi) = F(theta) + pi, so
    the turn lies in [k pi, (k + 1) pi) for k = floor(theta_l / pi); of the
    angles equal to it modulo 2 pi, the one nearest the middle of that range
    is taken, which rounding near its ends cannot move.
    """
    delta = np.arctan2(r[1] * rl[0] - r[0] * rl[1], r[0] * rl[0] + r[1] * rl[1])
    mid = (np.floor(theta_l / np.pi) + 0.5) * np.pi
    return delta + 2.0 * np.pi * np.round((mid - delta) / (2.0 * np.pi))


def transfer_matrix(potential: Potential, lam, lift: bool = False):
    """Phi(T) for u'' + (a + lam) u = 0.  lam may be a scalar or a 1-d batch.

    With lift, also the Pruefer angles theta(T) of u1 and u2, shape (2,)
    per shift: the continuous angle of (u, u') measured as atan2(u, u'),
    from pi / 2 for u1 and 0 for u2, which passes each multiple of pi
    upward at a zero of u.  Returns (Phi(T), theta(T)) then.

    The shifts go through the product tree in blocks of at most
    TRANSFER_BLOCK_ENTRIES step entries per array, one loop over the blocks
    writing each block's Phi(T) (and angle) into the arrays returned; a
    batch that fits one block takes one pass.  Each shift's product depends
    only on that shift, and so does the level at which _product starts to
    carry its angle: neither Phi's bits nor the angle's depend on the batch
    or the block the shift shares, and Phi's do not depend on lift.
    """
    table = _step_table(potential)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    width = 1 << (len(table.ts) - 2).bit_length()
    size = max(1, TRANSFER_BLOCK_ENTRIES // width)
    phi = np.empty((len(lams), 2, 2))
    theta2 = np.empty(len(lams))
    for start in range(0, len(lams), size):
        block = slice(start, start + size)
        m, theta = _product(table, lams[block], width, lift)
        phi[block] = m.transpose(2, 0, 1)
        if lift:
            theta2[block] = theta
    if not np.all(np.isfinite(phi)):
        raise IntegratorFailure("fundamental system overflowed; potential scale too large")
    if not lift:
        return phi if np.ndim(lam) else phi[0]
    # u1 starts a quarter turn ahead of u2 and stays less than half a turn
    # ahead, since det Phi > 0 keeps the turn from u2 to u1 in (0, pi).  Where
    # the entries are large, rounding can leave the computed det negative; its
    # sign is known, and the cosine term, well resolved there, fixes the turn
    theta = np.stack([theta2 + np.arctan2(
        np.abs(phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 0, 1] * phi[:, 1, 0]),
        phi[:, 0, 0] * phi[:, 0, 1] + phi[:, 1, 0] * phi[:, 1, 1]), theta2], axis=-1)
    return (phi, theta) if np.ndim(lam) else (phi[0], theta[0])


def _steps(m, x, out):
    """Step the nodes x, shape (2, 2, blocks), one per block, by the steps m
    of shape (steps, 2, 2, blocks) in turn, writing the node after step i
    to out[i]: each entry e a + f c of a step [[e, f], [g, k]] of the node
    [[a, b], [c, d]] takes three ufunc calls for the whole matrix."""
    t = np.empty(m.shape[1:])
    for step, node in zip(m, out):
        np.multiply(step[:, :1], x[:1], out=t)
        np.multiply(step[:, 1:], x[1:], out=node)
        np.add(t, node, out=node)
        x = node


def cumulative_products(m11, m12, m21, m22) -> np.ndarray:
    """Phi_i = M_{i-1} @ ... @ M_0 for i = 0..n, Phi_0 = I, from the step
    entries as 1-d sequences.  Returns (4, n + 1): the entries Phi11, Phi12,
    Phi21, Phi22 at every node.

    The steps are split into blocks of PRODUCT_BLOCK, the last one padded
    with identities, and laid out as whole 2x2 matrices, (steps, 2, 2,
    blocks).  Every block's product is formed from the identity, all
    blocks at once, and Phi is carried over the block starts by the scalar
    recurrence of those products.  Each block is then stepped from its
    start, all blocks at once, so every node inside a block is the
    sequential step (e a + f c, ...) of the node before it, bit for bit,
    and nodes 0..PRODUCT_BLOCK are the sequential product's own.
    """
    steps = np.asarray([m11, m12, m21, m22], dtype=float)
    n = steps.shape[1]
    blocks = -(-n // PRODUCT_BLOCK)
    eye = np.array([1.0, 0.0, 0.0, 1.0])
    # m[i, :, :, j] is step i of block j
    m = np.empty((4, blocks * PRODUCT_BLOCK))
    m[:, :n] = steps
    m[:, n:] = eye[:, None]
    m = m.reshape(2, 2, blocks, PRODUCT_BLOCK).transpose(3, 0, 1, 2).copy()
    # nodes[i, :, :, j] is node i of block j; a last column holds the end
    nodes = np.empty((PRODUCT_BLOCK, 2, 2, blocks + 1))
    # an overflow leaves inf or nan, which FundamentalSolutions refuses
    with np.errstate(over="ignore", invalid="ignore"):
        _steps(m, _IDENTITY[..., 0], out=nodes[..., :blocks])
        a, b, c, d = eye.tolist()
        starts = array("d", (a, b, c, d))
        for e, f, g, k in nodes[-1, ..., :blocks].reshape(4, -1).T.tolist():
            a, b, c, d = e * a + f * c, e * b + f * d, g * a + k * c, g * b + k * d
            starts.extend((a, b, c, d))
        nodes[0] = np.frombuffer(starts).reshape(-1, 4).T.reshape(2, 2, -1)
        _steps(m[:-1], nodes[0, ..., :blocks], out=nodes[1:, ..., :blocks])
    return nodes.transpose(1, 2, 3, 0).reshape(4, -1)[:, :n + 1].copy()


def _newton(c, up, x):
    """Zeros in [0, 1] of the cubics of monomial coefficients c, shape
    (4, cubics), from the start x, and the rounds taken.  A zero is where
    the cubic's sign turns to the one up marks (positive where up is true);
    a point is past it where the cubic has that sign.  Every round evaluates
    each cubic and its slope at its x by Horner's rule, shrinks its bracket
    to the side of x that holds the zero, and steps to the Newton iterate
    where it lies in the bracket (ends included), to the bracket's middle
    elsewhere; the rounds stop when every step is at most ROOT_TOL, or after
    ROOT_HALVINGS."""
    c0, c1, c2, c3 = c
    lo, hi = np.zeros(len(x)), np.ones(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rounds in range(1, ROOT_HALVINGS + 1):
            y = ((c3 * x + c2) * x + c1) * x + c0
            dy = (3.0 * c3 * x + 2.0 * c2) * x + c1
            past = (y > 0.0) == up
            lo = np.where(past, lo, x)
            hi = np.where(past, x, hi)
            step = x - y / dy
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = np.all(np.abs(step - x) <= ROOT_TOL)
            x = step
            if done:
                break
    return x, rounds


class FundamentalSolutions:
    """Node samples of the normalized fundamental pair of u'' + (a + lam) u = 0.

    u1 solves with u1(0)=1, u1'(0)=0 and u2 with u2(0)=0, u2'(0)=1.  Values and
    slopes are stored per node; between nodes the pair is its cubic Hermite
    interpolant (cubics), which keeps the RK4 accuracy order.
    """

    form = "numeric"

    def __init__(self, potential: Potential, lam: float = 0.0):
        table = _step_table(potential)
        steps = np.empty((4, 1, len(table.ts) - 1))
        table.entries(np.array([float(lam)]), steps)
        phis = cumulative_products(*steps[:, 0])
        if not np.all(np.isfinite(phis)):
            raise IntegratorFailure("fundamental system overflowed; potential scale too large")
        # no reference back to the potential: base_solutions keeps the pair
        # on the potential's cache, and a cycle would hold both, with their
        # tables, until the cycle collector runs
        self.lam = float(lam)
        self.ts = table.ts
        self.h = table.h
        self.u1, self.u2, self.p1, self.p2 = phis
        # Phi(T) = [[u1, u2], [u1', u2']] at T
        self.phi = phis[:, -1].reshape(2, 2).copy()

    @property
    def sups(self) -> np.ndarray:
        """max |.| over the nodes of [[u1, u2], [u1', u2']]."""
        return np.array([[np.max(np.abs(x)) for x in row]
                         for row in ((self.u1, self.u2), (self.p1, self.p2))])

    @cached_property
    def cubics(self) -> np.ndarray:
        """Row i, for u1 and u2, the coefficients c0..c3 of the Hermite
        cubic of grid cell i in xi = (x - t_i) / h, shape (nodes, 2, 4):
        c0 and c1 are the node data (u, h u') at t_i; the last row continues
        the last cubic from T.  Built on the first request, read-only."""
        y = np.stack([self.u1, self.u2], axis=-1)
        d = self.h * np.stack([self.p1, self.p2], axis=-1)
        rise = y[1:] - y[:-1]
        c2 = 3.0 * rise - 2.0 * d[:-1] - d[1:]
        c3 = d[:-1] + d[1:] - 2.0 * rise
        # about T the last cubic has c2 + 3 c3 and c3 as its upper terms
        table = np.stack([y, d, np.append(c2, c2[-1:] + 3.0 * c3[-1:], axis=0),
                          np.append(c3, c3[-1:], axis=0)], axis=-1)
        table.flags.writeable = False
        return table

    def _cell(self, x):
        """(i, xi): the row of cubics that reads each point of x, and x in
        its coordinate; a node, T too, reads its own row at xi = 0."""
        i = np.clip((x / self.h).astype(int), 0, len(self.ts) - 2)
        i = i + (x >= self.ts[i + 1])
        return i, (x - self.ts[i]) / self.h

    def eval_pair(self, x):
        """(u1(x), u2(x)): the cubics of x's cell by Horner's rule."""
        i, xi = self._cell(np.asarray(x, dtype=float))
        c = self.cubics[i]
        return tuple(((c[..., k, 3] * xi + c[..., k, 2]) * xi + c[..., k, 1]) * xi
                     + c[..., k, 0] for k in (0, 1))

    def cell_pair(self, edges, xs) -> np.ndarray:
        """(u1, u2) at the Gauss nodes xs, shape (cells, order), of the
        cells between consecutive edges, shape (2, cells, order): the cubics
        of each cell's grid cell, re-expanded in the rule's coordinate x
        (xi = s + r x, s the cell's middle, r its half-width over h), times
        the Vandermonde matrix of the rule's nodes."""
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
        i, s = self._cell(mid)
        # synthetic division turns c[k], coefficient k of every cubic, into
        # r**k times its k-th Taylor coefficient at s: pass k scales c[k + 1:]
        c, r = self.cubics[i].T.copy(), half / self.h
        for k in range(3):
            for j in range(2, k - 1, -1):
                c[j] += s * c[j + 1]
            c[k + 1:] *= r
        vander = np.vander(gauss_nodes(xs.shape[1])[0], 4, increasing=True).T
        return np.matmul(c.transpose(1, 2, 0), vander)

    @cached_property
    def angles(self) -> np.ndarray:
        """Lifted angle psi of (u1, u2) at the nodes, tabulated on the first
        request.  A cell must turn psi by less than half a turn, so that it
        holds at most one zero of a slice and the slice changes sign across
        it; a grid too coarse for that is refused."""
        u1, u2 = self.u1, self.u2
        cross = u1[:-1] * u2[1:] - u2[:-1] * u1[1:]
        if not np.all(cross > 0.0):
            raise IntegratorFailure("the fundamental pair turns by half a turn "
                                    "or more in one grid cell; the grid is too coarse")
        turn = np.arctan2(cross, u1[:-1] * u1[1:] + u2[:-1] * u2[1:])
        return math.atan2(u2[0], u1[0]) + np.concatenate([[0.0], np.cumsum(turn)])

    @staticmethod
    def target(alpha, beta):
        """psi at which alpha u1 + beta u2 vanishes, modulo pi."""
        return np.arctan2(-alpha, beta)

    def place(self, theta, keep, alpha, beta, k0):
        """The zeros of the slices alpha u1 + beta u2 (one per row) where
        psi reaches theta = target + k pi, k = k0 + column, at the entries
        keep marks, inf elsewhere.  Each zero is placed in its node cell by
        psi and refined there, from the secant, by safeguarded Newton steps
        on the slice's cubic (_newton), all zeros in lockstep."""
        row, col = np.nonzero(keep)
        cell = np.searchsorted(self.angles, theta[keep]) - 1
        # the slice's cubic in the cell coordinate x in [0, 1]
        pair = self.cubics[cell]
        c = (alpha[row, None] * pair[:, 0] + beta[row, None] * pair[:, 1]).T
        # past the target phi + k pi the slice has the sign of (-1)**k
        up = (k0[row] + col) % 2 == 0
        # start where the secant from c0 to sum c crosses zero, or in the middle
        with np.errstate(divide="ignore", invalid="ignore"):
            x = c[0] / (c[0] - c.sum(axis=0))
        x[~((x >= 0.0) & (x <= 1.0))] = 0.5
        x, _ = _newton(c, up, x)
        r = np.full(keep.shape, np.inf)
        # the rounding of x h must not carry a zero past its cell
        r[keep] = np.clip(self.ts[cell] + x * self.h, self.ts[cell], self.ts[cell + 1])
        return r


class ConstantPair:
    """The exact normalized pair of u'' + rho**2 u = 0 on [0, T]:
    u1 = cos(rho t) and u2 = sin(rho t) / rho, one smooth piece on [0, T];
    at rho = 0, u1 = 1 and u2 = t.

    Its modified Pruefer angle, the angle of (u1, rho u2), is exactly
    theta = rho t, so a slice alpha u1 + beta u2 vanishes at
    theta = atan2(-rho alpha, beta) modulo pi, at t = theta / rho, with no
    search (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993).
    It gives what a kernel reads of FundamentalSolutions: phi, sups, ts,
    eval_pair, cell_pair and the angle hooks angles, target and place; and
    what an eigenfunction reads: ts, the node samples u1 and u2 there, and
    eval_pair.  Only its two nodes 0 and T are break points.
    """

    form = "closed"

    def __init__(self, rho: float, T: float):
        self.rho = float(rho)
        x = self.rho * T
        self.ts = np.array([0.0, T])
        self.angles = np.array([0.0, x])
        self.u1, self.u2 = self.eval_pair(self.ts)
        u2T = math.sin(x) / self.rho if self.rho else T
        self.phi = np.array([[math.cos(x), u2T], [-self.rho * math.sin(x), math.cos(x)]])
        wide = x >= math.pi / 2  # whether sin(rho t) reaches one on [0, T]
        self.sups = np.array([[1.0, 1.0 / self.rho if wide else u2T],
                              [self.rho if wide else self.rho * math.sin(x), 1.0]])

    def eval_pair(self, x):
        x = np.asarray(x, dtype=float)
        if not self.rho:
            return np.ones_like(x), x.copy()
        x = self.rho * x
        return np.cos(x), np.sin(x) / self.rho

    def cell_pair(self, edges, xs) -> np.ndarray:
        """(u1, u2) at the Gauss nodes xs, shape (cells, order), of the
        cells between consecutive edges, shape (2, cells, order).  On cells
        of one length (quadrature.one_length) they come by angle addition:
        cos and sin of rho times each cell's middle, turned by the angles
        rho half x_k of the rule's nodes x_k, which all cells share;
        eval_pair gives them on any other layout, and at rho = 0."""
        if not (self.rho and one_length(edges)):
            return np.stack(self.eval_pair(xs))
        a = self.rho * (0.5 * (edges[:-1] + edges[1:]))
        b = (0.5 * self.rho * (edges[-1] - edges[0]) / (len(edges) - 1)
             * gauss_nodes(xs.shape[1])[0])
        cb, sb = np.cos(b), np.sin(b)
        # (cos, sin) at a + b: (cos a, sin a) times a rotation per solution
        turns = np.stack([np.stack([cb, -sb]), np.stack([sb, cb]) / self.rho])
        return np.stack([np.cos(a), np.sin(a)], axis=1) @ turns

    def target(self, alpha, beta):
        return np.arctan2(-self.rho * alpha, beta)

    def place(self, theta, keep, *_):
        """theta / rho where keep, inf elsewhere, in theta's storage: no
        slice is needed."""
        theta /= self.rho
        theta[~keep] = np.inf
        return theta


def base_solutions(potential: Potential) -> FundamentalSolutions:
    """The FundamentalSolutions of the potential at lam = 0, built once per
    potential and kept on its cache, as the step table is: a numeric kernel
    and the resonance check of its sign verdict share it."""
    fs = potential.cache.get("pair0")
    if fs is None:
        fs = potential.cache["pair0"] = FundamentalSolutions(potential, 0.0)
        for x in (fs.u1, fs.u2, fs.p1, fs.p2):
            x.flags.writeable = False
    return fs


def fundamental_pair(potential: Potential):
    """The pair a kernel of the potential is built on: the exact
    ConstantPair of a constant potential, base_solutions otherwise."""
    if isinstance(potential, ConstantPotential):
        return ConstantPair(potential.rho, potential.interval.T)
    return base_solutions(potential)
