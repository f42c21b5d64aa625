"""Problem constants, grid geometry, control placement, and stability checks.

The continuum problem lives on the space-time cylinder (0, L) x (0, T).  Space
is split into H cells of width h = L/H and time into N steps of length
dt = T/N.  Controls act through the two boundary fluxes plus M - 1 interior
point sources at equally spaced nodes, M + 1 control signals in total, which
forces H to be a multiple of M.  A GridConfig derives its steps from its sizes
and extents, so no caller hands in a step, and its nodes x_j = j*L/H come
from L, not from the rounded h; node H is L itself.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "PhysicalConfig",
    "GridConfig",
    "DiscreteProblem",
    "control_indices",
    "cfl_ratio",
    "check_stability",
    "grid_nodes",
    "stable_step_count",
]

# check_stability's policy for cfl_ratio: warn above WARN_RATIO, refuse above REFUSE_RATIO.
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
    """Sizes N, H, M on (0, L) x (0, T); its steps dt = T/N, h = L/H are finite normal floats."""

    N: int
    H: int
    M: int
    L: float
    T: float
    dt: float = field(init=False)
    h: float = field(init=False)

    def __post_init__(self):
        _require_size("N", self.N)
        _require_size("H", self.H)
        if not all(isinstance(v, (int, float)) for v in (self.L, self.T)):
            raise ConfigurationError("domain extents L and T must be numbers")
        steps = {"dt": _step(self.T, self.N, "N"), "h": _step(self.L, self.H, "H")}
        _require_size("M", self.M)
        if self.H % self.M != 0:
            raise ConfigurationError(
                f"H={self.H} must be divisible by M={self.M} so control nodes land on the grid"
            )
        for name, v in steps.items():
            if not (math.isfinite(v) and v >= sys.float_info.min):
                raise ConfigurationError(f"{name} must be a positive finite normal float")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class DiscreteProblem:
    """A physical configuration and the grid GridConfig(N, H, M, L, T) it builds."""

    phys: PhysicalConfig
    grid: GridConfig = field(init=False)
    N: InitVar[int]
    H: InitVar[int]
    M: InitVar[int]

    def __post_init__(self, N, H, M):
        p = self.phys
        g = GridConfig(N, H, M, p.L, p.T)
        object.__setattr__(self, "grid", g)
        # The flux closures weight the boundary controls by h/mu and the adjoint
        # ghost closure divides by mu - eps*h; reject an infinite or near-zero one.
        if not math.isfinite(g.h / p.mu):
            raise ConfigurationError(
                f"diffusion coefficient mu = {p.mu!r} is too small for h = {g.h!r}: "
                "the flux closure's h/mu overflows a float"
            )
        if abs(p.mu - p.eps * g.h) <= 1e-12 * p.mu:
            raise ConfigurationError(
                f"mu - eps*h = {p.mu - p.eps * g.h:.3e} is too close to zero; "
                "refine the grid or change the coefficients"
            )

    @classmethod
    def create(cls, phys, N, H, M):
        """The same as DiscreteProblem(phys, N, H, M)."""
        return cls(phys, N, H, M)

    @classmethod
    def for_counts(cls, phys, N, H, counts):
        """One problem per control count on the same (N, H) grid, in order.

        ConfigurationError: no counts, a count the grid refuses, or a repeat.
        """
        counts = tuple(counts)
        if not counts:
            raise ConfigurationError("control_counts must not be empty")
        problems = tuple(cls(phys, N, H, m) for m in counts)
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


def _require_size(name, n):
    """ConfigurationError, naming the size, unless n is an integer >= 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigurationError(f"{name} must be an integer >= 1")


def _step(extent, n, name):
    """extent/n; ConfigurationError, naming the size n, where no float holds n."""
    if n > sys.float_info.max:
        raise ConfigurationError(f"{name} is too large for a float")
    return extent / n


def _rate(phys, h):
    """Rate 2*mu/h^2 + |eps|/h at which the state (eps < 0) or the adjoint
    (eps > 0) stencil drains its diagonal weight per unit time.

    ConfigurationError, naming h, where h^2 is not a finite normal float.
    """
    try:
        square = h**2
    except OverflowError:
        raise ConfigurationError(f"the space step h = L/H = {h!r} is too large: h^2 overflows") from None
    if square < sys.float_info.min:
        raise ConfigurationError(f"the space step h = L/H = {h!r} is too small: h^2 underflows")
    return 2.0 * phys.mu / square + abs(phys.eps) / h


def cfl_ratio(problem):
    """Stability ratio dt*(2*mu/h^2 + |eps|/h) of the explicit scheme.

    Values at or below WARN_RATIO are stable.  Above it the scheme
    amplifies high frequencies; check_stability applies the policy.
    """
    return problem.grid.dt * _rate(problem.phys, problem.grid.h)


def check_stability(problem):
    """Apply the stability policy to problem and return its cfl_ratio.

    ConfigurationError above REFUSE_RATIO; a UserWarning above WARN_RATIO.
    The ratio is printed with 17 significant digits, the CLI's format for
    it, so a ratio under a bound never reads as the bound.
    """
    ratio = cfl_ratio(problem)
    if ratio > REFUSE_RATIO:
        raise ConfigurationError(
            f"stability ratio {ratio:.17g} exceeds {REFUSE_RATIO:g}; "
            "refusing to run the explicit scheme"
        )
    if ratio > WARN_RATIO:
        warnings.warn(
            f"stability ratio {ratio:.17g} exceeds {WARN_RATIO:g}; the explicit scheme may blow up",
            stacklevel=2,
        )
    return ratio


def grid_nodes(grid):
    """Spatial node coordinates x_j = j*L/H for j = 0..H-1, and x_H = L itself."""
    return np.append(np.arange(grid.H) * grid.L / grid.H, grid.L)


def stable_step_count(phys, H):
    """Smallest N keeping the stability ratio at or below 0.5.

    ConfigurationError, naming H or T, where H or that N overflows a float.
    """
    _require_size("H", H)
    steps = phys.T * _rate(phys, _step(phys.L, H, "H")) / 0.5
    if math.isinf(steps):
        raise ConfigurationError(f"the stable step count N for T = {phys.T!r} overflows a float")
    return max(1, math.ceil(steps))
