"""Fundamental system of u'' + q(t) u = 0 by fixed-step RK4 on a uniform grid.

The one-step map of classical RK4 applied to the first-order system
y' = [[0, 1], [-q(t), 0]] y has a closed form in the three samples
q(t_i), q(t_i + h/2), q(t_i + h):

    M11 = 1 - h^2 (q0 + 2 qm) / 6 + h^4 qm q0 / 24
    M12 = h - h^3 qm / 6
    M21 = -h (q0 + 4 qm + q1) / 6 + h^3 qm (q0 + q1) / 12
    M22 = 1 - h^2 (2 qm + q1) / 6 + h^4 q1 qm / 24

Using these expressions directly lets one integration pass vectorize over both
the grid steps and a whole batch of spectral shifts q = a + lambda, which the
eigenvalue search relies on.  Transfer matrices are then assembled by a
pairwise product tree; fundamental solutions at the nodes come from the
cumulative product.
"""
from __future__ import annotations

import numpy as np

from .errors import IntegratorFailure
from .potentials import DEFAULT_GRID, Potential


def rk4_step_matrices(q0: np.ndarray, qm: np.ndarray, q1: np.ndarray, h: float) -> np.ndarray:
    """One-step RK4 matrices for each grid cell.

    q0, qm, q1 are q at the left node, midpoint and right node of every step,
    broadcastable to a common shape (..., n).  Returns (..., n, 2, 2).
    """
    q0, qm, q1 = np.broadcast_arrays(q0, qm, q1)
    out = np.empty(q0.shape + (2, 2))
    h2, h3, h4 = h * h, h**3, h**4
    out[..., 0, 0] = 1.0 - h2 * (q0 + 2.0 * qm) / 6.0 + h4 * qm * q0 / 24.0
    out[..., 0, 1] = h - h3 * qm / 6.0
    out[..., 1, 0] = -h * (q0 + 4.0 * qm + q1) / 6.0 + h3 * qm * (q0 + q1) / 12.0
    out[..., 1, 1] = 1.0 - h2 * (2.0 * qm + q1) / 6.0 + h4 * q1 * qm / 24.0
    return out


def product_tree(mats: np.ndarray) -> np.ndarray:
    """Ordered product M_{n-1} @ ... @ M_0 along axis -3 by pairwise reduction."""
    n = mats.shape[-3]
    # pad with identities on the late side so n becomes a power of two
    target = 1 << (n - 1).bit_length()
    if target != n:
        pad_shape = mats.shape[:-3] + (target - n, 2, 2)
        eye = np.broadcast_to(np.eye(2), pad_shape)
        mats = np.concatenate([mats, eye], axis=-3)
    while mats.shape[-3] > 1:
        mats = np.matmul(mats[..., 1::2, :, :], mats[..., 0::2, :, :])
    return mats[..., 0, :, :]


def cumulative_products(mats: np.ndarray) -> np.ndarray:
    """Phi_i = M_{i-1} @ ... @ M_0 for i = 0..n, Phi_0 = I.  mats is (n, 2, 2)."""
    n = mats.shape[0]
    out = np.empty((n + 1, 2, 2))
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    out[0] = ((a, b), (c, d))
    for i in range(n):
        m = mats[i]
        m11, m12 = m[0, 0], m[0, 1]
        m21, m22 = m[1, 0], m[1, 1]
        a, b, c, d = (m11 * a + m12 * c, m11 * b + m12 * d,
                      m21 * a + m22 * c, m21 * b + m22 * d)
        out[i + 1, 0, 0] = a
        out[i + 1, 0, 1] = b
        out[i + 1, 1, 0] = c
        out[i + 1, 1, 1] = d
    return out


def _q_samples(potential: Potential, lam, grid_size: int):
    """q = a + lambda at the nodes and midpoints of the uniform grid."""
    T = potential.interval.T
    n = grid_size - 1
    ts = np.linspace(0.0, T, grid_size)
    mids = ts[:-1] + 0.5 * (T / n)
    a_nodes = potential(ts)
    a_mids = potential(mids)
    lam = np.asarray(lam, dtype=float)
    if lam.ndim == 0:
        return ts, a_nodes[:-1] + lam, a_mids + lam, a_nodes[1:] + lam
    # batch of shifts: leading lambda axis
    return (ts, a_nodes[None, :-1] + lam[:, None], a_mids[None, :] + lam[:, None],
            a_nodes[None, 1:] + lam[:, None])


def transfer_matrix(potential: Potential, lam, grid_size: int) -> np.ndarray:
    """Phi(T) for u'' + (a + lam) u = 0.  lam may be a scalar or a 1-d batch."""
    ts, q0, qm, q1 = _q_samples(potential, lam, grid_size)
    h = ts[1] - ts[0]
    phi = product_tree(rk4_step_matrices(q0, qm, q1, h))
    if not np.all(np.isfinite(phi)):
        raise IntegratorFailure("fundamental system overflowed; potential scale too large")
    return phi


class FundamentalSolutions:
    """Node samples of the normalized fundamental pair of u'' + (a + lam) u = 0.

    u1 solves with u1(0)=1, u1'(0)=0 and u2 with u2(0)=0, u2'(0)=1.  Values and
    slopes are stored per node; between nodes the pair is evaluated by cubic
    Hermite interpolation, which keeps the RK4 accuracy order.
    """

    def __init__(self, potential: Potential, lam: float = 0.0, grid_size: int | None = None):
        if grid_size is None:
            grid_size = DEFAULT_GRID
        if grid_size < 9:
            raise ValueError("grid_size must be at least 9")
        ts, q0, qm, q1 = _q_samples(potential, float(lam), grid_size)
        h = ts[1] - ts[0]
        phis = cumulative_products(rk4_step_matrices(q0, qm, q1, h))
        if not np.all(np.isfinite(phis)):
            raise IntegratorFailure("fundamental system overflowed; potential scale too large")
        self.potential = potential
        self.lam = float(lam)
        self.ts = ts
        self.h = float(h)
        self.u1 = phis[:, 0, 0].copy()
        self.u2 = phis[:, 0, 1].copy()
        self.p1 = phis[:, 1, 0].copy()
        self.p2 = phis[:, 1, 1].copy()
        # slope of (u1', u2') comes from the ODE itself: u'' = -q u
        q_nodes = potential(ts) + self.lam
        self.dp1 = -q_nodes * self.u1
        self.dp2 = -q_nodes * self.u2

    @property
    def scale(self) -> float:
        return float(max(np.max(np.abs(self.u1)), np.max(np.abs(self.u2)),
                         np.max(np.abs(self.p1)), np.max(np.abs(self.p2)), 1.0))

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip((x / self.h).astype(int), 0, len(self.ts) - 2)
        xi = (x - self.ts[i]) / self.h
        return i, xi

    def _hermite(self, y, dy, i, xi):
        h00 = (1.0 + 2.0 * xi) * (1.0 - xi) ** 2
        h10 = xi * (1.0 - xi) ** 2
        h01 = xi * xi * (3.0 - 2.0 * xi)
        h11 = xi * xi * (xi - 1.0)
        return (h00 * y[i] + h10 * self.h * dy[i]
                + h01 * y[i + 1] + h11 * self.h * dy[i + 1])

    def eval_pair(self, x):
        """(u1(x), u2(x)) with one shared cell lookup."""
        i, xi = self._locate(x)
        return self._hermite(self.u1, self.p1, i, xi), self._hermite(self.u2, self.p2, i, xi)
