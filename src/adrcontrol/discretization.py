"""Problem constants, grid geometry, control placement, and stability checks.

The continuum problem lives on the space-time cylinder (0, L) x (0, T).  Space
is split into H cells of width h = L/H and time into N steps of length
dt = T/N.  Controls act through the two boundary fluxes plus M - 1 interior
point sources at equally spaced nodes, M + 1 control signals in total, which
forces H to be a multiple of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PhysicalConfig",
    "GridConfig",
    "DiscreteProblem",
    "control_indices",
    "cfl_ratio",
    "grid_nodes",
    "stable_step_count",
]


@dataclass(frozen=True)
class PhysicalConfig:
    """Continuum constants of the controlled advection-diffusion-reaction problem.

    Attributes
    ----------
    L, T : float
        Length of the spatial interval and the time horizon.
    mu : float
        Diffusion coefficient.  Must be positive; the boundary controls act
        through diffusive fluxes, so a vanishing mu has no meaning here.
    eps : float
        Advection speed.  May be zero or negative.
    k0, k1, k2 : float
        Cost weights for control effort, the running state penalty, and the
        terminal state penalty.  k0 must be positive so the objective is
        strongly convex in the controls; k1 and k2 only need to be nonnegative.
    """

    L: float = 1.0
    T: float = 1.0
    mu: float = 0.1
    eps: float = 0.1
    k0: float = 1.0
    k1: float = 1.0
    k2: float = 1.0

    def __post_init__(self):
        values = (self.L, self.T, self.mu, self.eps, self.k0, self.k1, self.k2)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            raise ConfigurationError("physical constants must be finite numbers")
        if self.L <= 0.0 or self.T <= 0.0:
            raise ConfigurationError("domain extents L and T must be positive")
        if self.mu <= 0.0:
            raise ConfigurationError("diffusion coefficient mu must be positive")
        if self.k0 <= 0.0:
            raise ConfigurationError("control weight k0 must be positive")
        if self.k1 < 0.0 or self.k2 < 0.0:
            raise ConfigurationError("state weights k1 and k2 must be nonnegative")


@dataclass(frozen=True)
class GridConfig:
    """Space-time grid sizes together with the step lengths they induce."""

    N: int
    H: int
    M: int
    dt: float
    h: float

    def __post_init__(self):
        for name in ("N", "H", "M"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1")
        if self.H % self.M != 0:
            raise ConfigurationError(
                f"H={self.H} must be divisible by M={self.M} so control nodes land on the grid"
            )
        for name in ("dt", "h"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ConfigurationError(f"{name} must be a positive finite number")

    @classmethod
    def from_extents(cls, L, T, N, H, M):
        """Build a grid whose steps exactly tile (0, L) x (0, T)."""
        if not (isinstance(N, int) and isinstance(H, int)) or N < 1 or H < 1:
            raise ConfigurationError("N and H must be integers >= 1")
        return cls(N=N, H=H, M=M, dt=T / N, h=L / H)


@dataclass(frozen=True)
class DiscreteProblem:
    """A physical configuration paired with a grid that actually tiles it."""

    phys: PhysicalConfig
    grid: GridConfig

    def __post_init__(self):
        p, g = self.phys, self.grid
        if abs(g.dt * g.N - p.T) > 1e-12 * p.T:
            raise ConfigurationError("dt * N does not reproduce the time horizon T")
        if abs(g.h * g.H - p.L) > 1e-12 * p.L:
            raise ConfigurationError("h * H does not reproduce the domain length L")
        # The adjoint ghost closure divides by mu - eps*h; reject near-singular setups.
        if abs(p.mu - p.eps * g.h) <= 1e-12 * p.mu:
            raise ConfigurationError(
                f"mu - eps*h = {p.mu - p.eps * g.h:.3e} is too close to zero; "
                "refine the grid or change the coefficients"
            )

    @classmethod
    def create(cls, phys, N, H, M):
        return cls(phys=phys, grid=GridConfig.from_extents(phys.L, phys.T, N, H, M))


def control_indices(grid):
    """Spatial node indices carrying controls: j_k = k*H/M for k = 0..M.

    Index 0 and H are the boundary flux controls; the rest are interior
    point sources.  GridConfig guarantees that M divides H.
    """
    step = grid.H // grid.M
    return [k * step for k in range(grid.M + 1)]


def cfl_ratio(problem):
    """Stability ratio dt*(2*mu/h^2 + eps/h) of the explicit scheme.

    Values at or below 1 are stable.  Above 1 the scheme amplifies high
    frequencies; callers are expected to warn between 1 and 2 and refuse
    to run beyond 2.
    """
    g, p = problem.grid, problem.phys
    return g.dt * (2.0 * p.mu / g.h**2 + p.eps / g.h)


def grid_nodes(grid):
    """Spatial node coordinates x_j = j*L/H for j = 0..H."""
    L = grid.h * grid.H
    return np.arange(grid.H + 1) * L / grid.H


def stable_step_count(phys, H, limit=0.5):
    """Smallest N keeping the stability ratio at or below ``limit``."""
    if limit <= 0.0:
        raise ConfigurationError("stability limit must be positive")
    h = phys.L / H
    rate = 2.0 * phys.mu / h**2 + phys.eps / h
    return max(1, math.ceil(phys.T * rate / limit))
