"""Potentials and boundary conditions for the operator u'' + a(t) u on [0, T].

A potential is either a positive constant written as rho**2 (so problems can be
parameterized by rho directly) or a table of samples interpolated piecewise
linearly.  Each potential carries grid_size, the nodes of the one uniform grid
on which fundamental integrates it by RK4; another grid is another potential
(dataclasses.replace).  Boundary kinds cover the periodic pair and the four
separated conditions built from values and slopes at the endpoints.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

#: RK4 grid nodes of a potential by default, and the fewest it may have
DEFAULT_GRID = 2001
MIN_GRID = 9


class BoundaryKind(enum.Enum):
    """The rule that every per-condition formula reads: each end of a
    separated condition fixes u (a pinned end) or u' to zero, and a paired
    condition asks u(T) = m u(0), u'(T) = m u'(0) of its multiplier m."""

    PERIODIC = "periodic"          # u(0)=u(T), u'(0)=u'(T)
    ANTIPERIODIC = "antiperiodic"  # u(0)=-u(T), u'(0)=-u'(T)
    DIRICHLET = "dirichlet"        # u(0)=u(T)=0
    NEUMANN = "neumann"            # u'(0)=u'(T)=0
    MIXED1 = "mixed1"              # u'(0)=u(T)=0
    MIXED2 = "mixed2"              # u(0)=u'(T)=0

    def __str__(self) -> str:
        return self.value

    @property
    def pinned_ends(self) -> tuple[bool, bool]:
        """Whether the condition fixes u(0) = 0, and whether it fixes u(T) = 0."""
        return (self in (BoundaryKind.DIRICHLET, BoundaryKind.MIXED2),
                self in (BoundaryKind.DIRICHLET, BoundaryKind.MIXED1))

    def pinned(self, ts, T: float) -> np.ndarray:
        """Where a point of ts is an end of [0, T] that the condition pins:
        0 where it fixes u(0) = 0, T where it fixes u(T) = 0."""
        left, right = self.pinned_ends
        ts = np.asarray(ts, dtype=float)
        # an end that is not pinned stands as NaN, which no point equals
        return (ts == (0.0 if left else np.nan)) | (ts == (T if right else np.nan))

    @property
    def multiplier(self) -> int:
        """m: 1 periodic, -1 antiperiodic, 0 for a separated condition."""
        return (1 if self is BoundaryKind.PERIODIC
                else -1 if self is BoundaryKind.ANTIPERIODIC else 0)

    @property
    def entry(self) -> tuple[int, int]:
        """(row, column) of Phi(T) = [[u1, u2], [u1', u2']] that vanishes at a
        separated eigenvalue: row 0 (u) where u(T) = 0, else 1 (u'); column 1
        (u2, u2(0) = 0) where u(0) = 0, else 0 (u1, u1'(0) = 0)."""
        left, right = self.pinned_ends
        return int(not right), int(left)

    @property
    def unpinned(self) -> slice:
        """The samples of a profile over [0, T] that no pinned end fixes."""
        left, right = self.pinned_ends
        return slice(int(left), -1 if right else None)

    @property
    def keeps_constants(self) -> bool:
        """Whether u = 1 meets the condition, so that int G(t, s) a(s) ds = 1."""
        return self.multiplier >= 0 and not any(self.pinned_ends)


#: Kinds for which a Green's function is constructed and classified.
KERNEL_KINDS = tuple(bc for bc in BoundaryKind if bc is not BoundaryKind.ANTIPERIODIC)


@dataclass(frozen=True)
class Interval:
    """The domain [0, T], T > 0."""

    T: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"interval length must be positive and finite, got {self.T}")


@dataclass(frozen=True)
class ConstantPotential:
    """a(t) = rho**2 with rho > 0, integrated on grid_size RK4 nodes."""

    rho: float
    interval: Interval = field(default_factory=Interval)
    grid_size: int = DEFAULT_GRID
    #: tables derived from the potential alone, kept by the modules that
    #: build them (the RK4 step coefficients of ``fundamental`` and its
    #: fundamental pair at lam = 0)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if operator.index(self.grid_size) < MIN_GRID:
            raise ValueError(f"grid_size must be at least {MIN_GRID}, got {self.grid_size}")

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.rho**2)

    @property
    def sup_norm(self) -> float:
        return self.rho**2

    @property
    def max_value(self) -> float:
        return self.rho**2

    @property
    def min_value(self) -> float:
        return self.rho**2

    @property
    def breakpoints(self) -> np.ndarray:
        return np.array([])


@dataclass(frozen=True)
class SampledPotential:
    """Tabulated a(t), evaluated by piecewise-linear interpolation.

    Args:
        grid: strictly increasing sample locations covering [0, T] exactly.
        values: finite samples a(grid).
        interval: the domain; grid[0] must be 0 and grid[-1] must be T.
        grid_size: nodes of the uniform RK4 grid, at least MIN_GRID; it
            need not match the sample grid.
    """

    grid: np.ndarray
    values: np.ndarray
    interval: Interval = field(default_factory=Interval)
    grid_size: int = DEFAULT_GRID
    #: as on ConstantPotential
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ValueError("grid and values must be matching 1-d arrays with >= 2 entries")
        if not np.all(np.diff(g) > 0):
            raise ValueError("grid must be strictly increasing")
        if abs(g[0]) > 1e-12 or abs(g[-1] - self.interval.T) > 1e-12 * max(1.0, self.interval.T):
            raise ValueError("grid must span [0, T] exactly")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential samples must be finite")
        if operator.index(self.grid_size) < MIN_GRID:
            raise ValueError(f"grid_size must be at least {MIN_GRID}, got {self.grid_size}")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid, self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def max_value(self) -> float:
        return float(np.max(self.values))

    @property
    def min_value(self) -> float:
        return float(np.min(self.values))

    @property
    def breakpoints(self) -> np.ndarray:
        # interior sample nodes, where the interpolant kinks
        return self.grid[1:-1]


Potential = ConstantPotential | SampledPotential


def constant(rho: float, T: float = 1.0,
             grid_size: int = DEFAULT_GRID) -> ConstantPotential:
    return ConstantPotential(rho=rho, interval=Interval(T), grid_size=grid_size)


def sampled(grid, values, T: float | None = None,
            grid_size: int = DEFAULT_GRID) -> SampledPotential:
    g = np.asarray(grid, dtype=float)
    return SampledPotential(grid=g, values=np.asarray(values, dtype=float),
                            interval=Interval(g[-1] if T is None else T),
                            grid_size=grid_size)
