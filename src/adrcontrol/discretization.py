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

# Stability policy for cfl_ratio: runs warn above WARN_RATIO and are refused above REFUSE_RATIO.
WARN_RATIO = 1.0
REFUSE_RATIO = 2.0


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

    @classmethod
    def for_counts(cls, phys, N, H, counts):
        """One problem per control count on the same (N, H) grid, in order.

        ConfigurationError: no counts, a count the grid refuses, or a repeat.
        """
        counts = tuple(counts)
        if not counts:
            raise ConfigurationError("control_counts must not be empty")
        problems = tuple(cls.create(phys, N, H, m) for m in counts)
        if len(set(counts)) != len(counts):
            raise ConfigurationError(f"control_counts repeat a count: {counts}")
        return problems


def control_indices(grid):
    """Spatial node indices carrying controls: j_k = k*H/M for k = 0..M.

    Index 0 and H are the boundary flux controls; the rest are interior
    point sources.  GridConfig guarantees that M divides H.
    """
    step = grid.H // grid.M
    return [k * step for k in range(grid.M + 1)]


def _rate(phys, h):
    """Rate 2*mu/h^2 + |eps|/h at which the state (eps < 0) or the adjoint
    (eps > 0) stencil drains its diagonal weight per unit time."""
    return 2.0 * phys.mu / h**2 + abs(phys.eps) / h


def cfl_ratio(problem):
    """Stability ratio dt*(2*mu/h^2 + |eps|/h) of the explicit scheme.

    Values at or below WARN_RATIO are stable.  Above it the scheme
    amplifies high frequencies; WARN_RATIO and REFUSE_RATIO are the policy.
    """
    return problem.grid.dt * _rate(problem.phys, problem.grid.h)


def grid_nodes(grid):
    """Spatial node coordinates x_j = j*L/H for j = 0..H."""
    L = grid.h * grid.H
    return np.arange(grid.H + 1) * L / grid.H


def stable_step_count(phys, H):
    """Smallest N keeping the stability ratio at or below 0.5."""
    if not isinstance(H, int) or isinstance(H, bool) or H < 1:
        raise ConfigurationError("H must be an integer >= 1")
    return max(1, math.ceil(phys.T * _rate(phys, phys.L / H) / 0.5))
