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
depend only on the potential and the grid, so they are tabulated once per
(potential, grid size) and cached on the potential; a call at any batch of
shifts then only evaluates the polynomials.  Transfer matrices are assembled
by a pairwise product tree that works on the four entries as separate
(batch, steps) arrays; fundamental solutions at the nodes come from the
cumulative product.  On request the tree also carries each subtree's lifted
(Pruefer) angle, which composes exactly, so the number of zeros of a
solution on [0, T] comes out of the same pass.
"""
from __future__ import annotations

import math
from array import array
from functools import cached_property

import numpy as np

from .errors import IntegratorFailure
from .potentials import DEFAULT_GRID, ConstantPotential, Potential

#: step entries per array in one block of shifts of transfer_matrix: a block
#: bounds the product tree's working set (about 2 MB), which the allocator
#: then reuses from block to block instead of mapping fresh pages each time
TRANSFER_BLOCK_ENTRIES = 1 << 16
#: the fewest grid nodes a step table is built on
MIN_GRID = 9
#: cell halvings that place a slice root of the RK4 pair to rounding level
ROOT_HALVINGS = 52


class _StepTable:
    """Coefficients of the RK4 step entries as polynomials in lam.

    Entry e (M11, M12, M21, M22) of step i is
    (c2[e] * lam + c1[e, i]) * lam + c0[e, i]; the lam**2 coefficients are
    the same for every step (zero for M12), and so is M12's lam coefficient.
    """

    def __init__(self, potential: Potential, grid_size: int):
        T = potential.interval.T
        n = grid_size - 1
        self.ts = np.linspace(0.0, T, grid_size)
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


def _step_table(potential: Potential, grid_size: int) -> _StepTable:
    """The step table of (potential, grid_size), built once per potential."""
    table = potential.cache.get(("rk4", grid_size))
    if table is None:
        if grid_size < MIN_GRID:
            raise ValueError(f"grid_size must be at least {MIN_GRID}")
        table = potential.cache[("rk4", grid_size)] = _StepTable(potential, grid_size)
    return table


def _product(table: _StepTable, lams: np.ndarray, width: int, lift: bool):
    """Ordered product of all steps at each shift, shape (2, 2, len(lams)),
    and with lift the Pruefer angle of its second column, or None.

    Steps are padded with identities on the late side to width, a power of
    two, and reduced pairwise.
    """
    n = len(table.ts) - 1
    # m[i, j] holds entry (i, j) of every step at every shift
    m = np.empty((2, 2, len(lams), width))
    m[..., n:] = np.eye(2)[:, :, None, None]
    table.entries(lams, m.reshape(4, len(lams), width)[..., :n])
    theta = None
    if lift:
        if not np.all(m[0, 1, :, :n] > 0.0):
            raise IntegratorFailure("an RK4 step turns the solution by half a "
                                    "turn or more; the grid is too coarse")
        theta = np.arctan2(m[0, 1], m[1, 1])
    while m.shape[-1] > 1:
        # each later step (odd index) left-multiplies the earlier one:
        # (R L)[i, j] = R[i, 0] L[0, j] + R[i, 1] L[1, j]
        left, right = m[..., 0::2], m[..., 1::2]
        m = right[:, :1] * left[:1]
        m += right[:, 1:] * left[1:]
        if lift:
            theta = theta[..., 1::2] + _turn(right[:, 1], m[:, 1], theta[..., 0::2])
    return m[..., 0], None if theta is None else theta[..., 0]


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


def transfer_matrix(potential: Potential, lam, grid_size: int, lift: bool = False):
    """Phi(T) for u'' + (a + lam) u = 0.  lam may be a scalar or a 1-d batch.

    With lift, also the Pruefer angles theta(T) of u1 and u2, shape (2,)
    per shift: the continuous angle of (u, u') measured as atan2(u, u'),
    from pi / 2 for u1 and 0 for u2, which passes each multiple of pi
    upward at a zero of u.  Returns (Phi(T), theta(T)) then.
    """
    table = _step_table(potential, grid_size)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    width = 1 << (grid_size - 2).bit_length()
    blocks = max(1, -(-len(lams) * width // TRANSFER_BLOCK_ENTRIES))
    parts = [_product(table, part, width, lift)
             for part in np.array_split(lams, blocks)]
    phi = np.moveaxis(np.concatenate([p[0] for p in parts], axis=-1), -1, 0)
    if not np.all(np.isfinite(phi)):
        raise IntegratorFailure("fundamental system overflowed; potential scale too large")
    if not lift:
        return phi if np.ndim(lam) else phi[0]
    theta2 = np.concatenate([p[1] for p in parts])
    # u1 starts a quarter turn ahead of u2 and stays less than half a turn
    # ahead, since det Phi > 0 keeps the turn from u2 to u1 in (0, pi)
    theta = np.stack([theta2 + np.arctan2(
        phi[:, 0, 0] * phi[:, 1, 1] - phi[:, 0, 1] * phi[:, 1, 0],
        phi[:, 0, 0] * phi[:, 0, 1] + phi[:, 1, 0] * phi[:, 1, 1]), theta2], axis=-1)
    return (phi, theta) if np.ndim(lam) else (phi[0], theta[0])


def cumulative_products(m11, m12, m21, m22) -> np.ndarray:
    """Phi_i = M_{i-1} @ ... @ M_0 for i = 0..n, Phi_0 = I, from the step
    entries as sequences of floats.  Returns (4, n + 1): the entries
    Phi11, Phi12, Phi21, Phi22 at every node, gathered in a flat array of
    doubles, which keeps no float object per entry."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    out = array("d", (a, b, c, d))
    for e, f, g, k in zip(m11, m12, m21, m22):
        a, b, c, d = e * a + f * c, e * b + f * d, g * a + k * c, g * b + k * d
        out.extend((a, b, c, d))
    return np.frombuffer(out).reshape(-1, 4).T.copy()


class FundamentalSolutions:
    """Node samples of the normalized fundamental pair of u'' + (a + lam) u = 0.

    u1 solves with u1(0)=1, u1'(0)=0 and u2 with u2(0)=0, u2'(0)=1.  Values and
    slopes are stored per node; between nodes the pair is evaluated by cubic
    Hermite interpolation, which keeps the RK4 accuracy order.
    """

    form = "numeric"

    def __init__(self, potential: Potential, lam: float = 0.0, grid_size: int | None = None):
        if grid_size is None:
            grid_size = DEFAULT_GRID
        table = _step_table(potential, grid_size)
        steps = np.empty((4, 1, grid_size - 1))
        table.entries(np.array([float(lam)]), steps)
        phis = cumulative_products(*steps[:, 0].tolist())
        if not np.all(np.isfinite(phis)):
            raise IntegratorFailure("fundamental system overflowed; potential scale too large")
        # no reference back to the potential: base_solutions keeps the pair
        # on the potential's cache, and a cycle would hold both, with their
        # tables, until the cycle collector runs
        self.lam = float(lam)
        self.ts = table.ts
        self.h = table.h
        self.u1, self.u2, self.p1, self.p2 = phis
        # slope of (u1', u2') comes from the ODE itself: u'' = -q u
        q_nodes = table.a + self.lam
        self.dp1 = -q_nodes * self.u1
        self.dp2 = -q_nodes * self.u2
        # Phi(T) = [[u1, u2], [u1', u2']] at T
        self.phi = phis[:, -1].reshape(2, 2).copy()

    @property
    def sups(self) -> np.ndarray:
        """max |.| over the nodes of [[u1, u2], [u1', u2']]."""
        return np.array([[np.max(np.abs(x)) for x in row]
                         for row in ((self.u1, self.u2), (self.p1, self.p2))])

    def eval_pair(self, x):
        """(u1(x), u2(x)) with one shared cell lookup and Hermite basis."""
        x = np.asarray(x, dtype=float)
        i = np.clip((x / self.h).astype(int), 0, len(self.ts) - 2)
        j = i + 1
        xi = (x - self.ts[i]) / self.h
        left, right = (1.0 - xi) ** 2, xi * xi
        h00 = (1.0 + 2.0 * xi) * left
        h10 = xi * left * self.h
        h01 = right * (3.0 - 2.0 * xi)
        h11 = right * (xi - 1.0) * self.h
        return tuple(h00 * y[i] + h10 * dy[i] + h01 * y[j] + h11 * dy[j]
                     for y, dy in ((self.u1, self.p1), (self.u2, self.p2)))

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
        keep marks, inf elsewhere, each refined in its node cell on the
        slice's Hermite cubic by ROOT_HALVINGS halvings."""
        row, col = np.nonzero(keep)
        a, b = alpha[row], beta[row]
        cell = np.searchsorted(self.angles, theta[keep]) - 1
        lo, hi = self.ts[cell], self.ts[cell + 1]
        # past the target phi + k pi the slice has the sign of (-1)**k
        up = (k0[row] + col) % 2 == 0
        for _ in range(ROOT_HALVINGS):
            mid = 0.5 * (lo + hi)
            u1m, u2m = self.eval_pair(mid)
            past = (a * u1m + b * u2m > 0.0) == up
            lo = np.where(past, lo, mid)
            hi = np.where(past, mid, hi)
        r = np.full(keep.shape, np.inf)
        r[keep] = 0.5 * (lo + hi)
        return r


class ConstantPair:
    """The exact normalized pair of u'' + rho**2 u = 0 on [0, T]:
    u1 = cos(rho t) and u2 = sin(rho t) / rho, one smooth piece on [0, T].

    Its modified Pruefer angle, the angle of (u1, rho u2), is exactly
    theta = rho t, so a slice alpha u1 + beta u2 vanishes at
    theta = atan2(-rho alpha, beta) modulo pi, at t = theta / rho, with no
    search (Pryce, Numerical Solution of Sturm-Liouville Problems, 1993).
    It gives what a kernel reads of FundamentalSolutions: phi, sups, ts,
    eval_pair and the angle hooks angles, target and place.
    """

    form = "closed"

    def __init__(self, rho: float, T: float):
        self.rho = float(rho)
        x = self.rho * T
        self.ts = np.array([0.0, T])
        self.angles = np.array([0.0, x])
        self.phi = np.array([[math.cos(x), math.sin(x) / self.rho],
                             [-self.rho * math.sin(x), math.cos(x)]])
        env = 1.0 if x >= math.pi / 2 else math.sin(x)  # max |sin(rho t)| on [0, T]
        self.sups = np.array([[1.0, env / self.rho], [self.rho * env, 1.0]])

    def eval_pair(self, x):
        x = self.rho * np.asarray(x, dtype=float)
        return np.cos(x), np.sin(x) / self.rho

    def target(self, alpha, beta):
        return np.arctan2(-self.rho * alpha, beta)

    def place(self, theta, keep, *_):
        """theta / rho where keep, inf elsewhere, in theta's storage: no
        slice is needed."""
        theta /= self.rho
        theta[~keep] = np.inf
        return theta


def base_solutions(potential: Potential, grid_size: int | None = None) -> FundamentalSolutions:
    """The FundamentalSolutions of the potential at lam = 0, built once per
    (potential, grid_size) and kept on the potential's cache, as the step
    table is: a numeric kernel and the resonance check of its sign verdict
    share it."""
    if grid_size is None:
        grid_size = DEFAULT_GRID
    fs = potential.cache.get(("pair0", grid_size))
    if fs is None:
        fs = potential.cache[("pair0", grid_size)] = FundamentalSolutions(potential, 0.0, grid_size)
        for x in (fs.u1, fs.u2, fs.p1, fs.p2, fs.dp1, fs.dp2):
            x.flags.writeable = False
    return fs


def fundamental_pair(potential: Potential, grid_size: int | None = None):
    """The pair a kernel of the potential is built on: the exact
    ConstantPair of a constant potential, base_solutions otherwise."""
    if isinstance(potential, ConstantPotential):
        return ConstantPair(potential.rho, potential.interval.T)
    return base_solutions(potential, grid_size)
