"""Explicit time stepping for the state, adjoint, and perturbation systems.

Every sweep marches a three-point stencil over a time-major buffer of the
physical nodes j = 0..H,

    x[i+1][j] = lo*x[i][j-1] + mid*x[i][j] + hi*x[i][j+1] + forcing[i+1][j],

and one kernel, ``_march``, runs them all: the state, adjoint and perturbation
sweeps differ only in the coefficients, the boundary closure, the forcing and
the direction of time.  Row j of a field's ``values`` is node j.

State trajectory, forward in time, n = 0..N:

    y[j, n+1] = y[j, n] + dt*( mu*(y[j+1,n] - 2y[j,n] + y[j-1,n])/h^2
                               - eps*(y[j+1,n] - y[j,n])/h + y[j, n] ) + source

that is lo = dt*mu/h^2, hi = dt*(mu/h^2 - eps/h) and
mid = 1 + dt*(1 - 2*mu/h^2 + eps/h).  At the boundary nodes the stencil
reads the Neumann-type closures y[-1, n] = y[0, n] + (h/mu)*v[0, n] and
y[H+1, n] = y[H, n] + (h/mu)*v[M, n]; this is the only way the boundary
flux controls enter.  Each interior control k contributes dt*v[k, n]/h at
its node, the grid form of a point source of strength v[k, n].

Adjoint trajectory, backward from p[., N] = k2*y[., N+1]:

    p[j, n-1] = p[j, n] + dt*( mu*(p[j+1,n] - 2p[j,n] + p[j-1,n])/h^2
                               + eps*(p[j+1,n] - p[j,n])/h + p[j, n] + k1*y[j, n] )

that is lo = dt*mu/h^2, hi = dt*(mu/h^2 + eps/h),
mid = 1 + dt*(1 - 2*mu/h^2 - eps/h) and the source dt*k1*y[., n], read
straight from the state's rows.  The Robin closures are
p[-1, n] = mu*p[0, n]/(mu - eps*h) and p[H+1, n] = (mu - eps*h)*p[H, n]/mu.

A sweep first writes all of its forcing into rows 1.. of the buffer.  For the
state that is lo*(h/mu)*v[0, i] at node 0, hi*(h/mu)*v[M, i] at node H (the
flux closures' share of the stencil) and dt*v[k, i]/h at each interior control
node; for the adjoint it is dt*k1*y.  The kernel then makes two passes:

1. The levels are split into blocks of GUARD_BLOCK, marched side by side,
   block 0 from the start and the others from zero.  One batched step sets
   every block's ghost nodes (index -1 and H+1) to gain*edge and applies the
   stencil as a single ``np.correlate`` over the stacked ghosted levels; the
   ghosts keep neighbouring blocks apart.
2. The step is linear, x -> A x, so level i of block b then lacks only
   A^(i+1) c_b, c_b being the true level before the block.  The c_b are
   carried from block to block through a dense A^GUARD_BLOCK, and the
   missing terms are added with the same batched step.

The guard |x| <= BLOWUP_LIMIT is checked after the march, GUARD_BLOCK levels
at a time, with overflow warnings silenced.  When it fails, the forcing is
written again and the march rerun as one block spanning every level, which
is the plain per-step march, so the reported step is a per-step guard's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import control_indices
from .errors import SolverBlowUpError

__all__ = [
    "BLOWUP_LIMIT",
    "ControlField",
    "StateField",
    "AdjointField",
    "solve_state",
    "solve_adjoint",
    "solve_perturbation",
]

# Magnitudes beyond this abort the march; far above any meaningful solution
# yet far below float overflow, so the guard fires before inf/nan spread.
BLOWUP_LIMIT = 1e150

# Levels per block of the march, and levels per chunk of the overflow guard.
# A sweep of S steps makes about 2*GUARD_BLOCK batched steps and S/GUARD_BLOCK
# carries, and a chunk of the guard stays small next to the trajectory.
GUARD_BLOCK = 64


@dataclass(frozen=True)
class ControlField:
    """Control samples values[k, n] for signals k = 0..M at times n = 0..N."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise ValueError(f"control array must be (M+1, N+1), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros((grid.M + 1, grid.N + 1)))


@dataclass(frozen=True)
class StateField:
    """State trajectory values[j, n] at nodes j = 0..H, times n = 0..N+1."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
            raise ValueError(f"state array must be (H+1, N+2), got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def interior(self):
        """The physical nodes j = 0..H, shape (H+1, N+2): the same array as values."""
        return self.values

    @property
    def terminal(self):
        """Final time level, shape (H+1,)."""
        return self.values[:, -1]


@dataclass(frozen=True)
class AdjointField:
    """Adjoint trajectory values[j, n] at nodes j = 0..H, times n = 0..N."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 1:
            raise ValueError(f"adjoint array must be (H+1, N+1), got shape {v.shape}")
        object.__setattr__(self, "values", v)


def _checked_controls(grid, control):
    v = control.values
    expected = (grid.M + 1, grid.N + 1)
    if v.shape != expected:
        raise ValueError(f"control field shape {v.shape} does not match grid {expected}")
    return v


def _stencil(problem, advection_sign):
    """Weights (lo, mid, hi) of x + dt*(mu*D2 x + advection_sign*eps*D+ x + x).

    D2 is the centred second difference and D+ the forward difference
    (x[j+1] - x[j])/h; the state has advection_sign -1, the adjoint +1.
    """
    g, p = problem.grid, problem.phys
    diffusion = p.mu / g.h**2
    advection = advection_sign * p.eps / g.h
    return (
        g.dt * diffusion,
        1.0 + g.dt * (1.0 - 2.0 * diffusion - advection),
        g.dt * (diffusion + advection),
    )


def _march(levels, stencil, gains, block=GUARD_BLOCK):
    """Run ``levels[i+1] += A levels[i]`` in place for every i, in blocks.

    ``levels`` is the (steps+1, H+1) buffer in marching order, row 0 the
    start and row i+1 the forcing of the step from level i; ``stencil`` is
    (lo, mid, hi); a level's left and right ghosts are gains[0]*edge and
    gains[1]*edge; ``block`` is the number of levels per block.
    """
    steps, width = len(levels) - 1, levels.shape[1]
    left_gain, right_gain = gains

    def step(x):
        """A applied to every row of the ghosted array x, as a new array."""
        x[:, 0] = left_gain * x[:, 1]
        x[:, -1] = right_gain * x[:, -2]
        return np.correlate(x.ravel(), stencil, "same").reshape(x.shape)[:, 1:-1]

    # Pass 1: row b of carry is the latest level of block b, the levels
    # b*block+1.., marched from the start for b = 0 and from zero otherwise.
    carry = np.zeros((-(-steps // block), width + 2))
    carry[0, 1:-1] = levels[0]
    for i in range(min(block, steps)):
        rows = levels[i + 1 :: block]
        rows += step(carry)[: len(rows)]
        carry[: len(rows), 1:-1] = rows
    if len(carry) == 1:
        return
    # Pass 2: row b of carry becomes c_b, the true level before block b, and
    # then A^(i+1) c_b, the part level i of block b lacks.
    power = np.linalg.matrix_power(step(np.eye(width, width + 2, 1)), block)  # (A^T)^block
    carry[0] = 0.0
    for b in range(1, len(carry)):
        carry[b, 1:-1] = levels[b * block] + carry[b - 1, 1:-1] @ power
    for i in range(block):
        rows = levels[i + 1 :: block]
        carry[:, 1:-1] = step(carry)
        rows += carry[: len(rows), 1:-1]


def _sweep(levels, force, stencil, gains):
    """Write the forcing with ``force(levels[1:])``, march, and guard.

    Returns the marching index of the first level beyond BLOWUP_LIMIT (or
    not a number), as a per-step march reports it, or None.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for block in (GUARD_BLOCK, len(levels) - 1):
            force(levels[1:])
            _march(levels, stencil, gains, block)
            for start in range(1, len(levels), GUARD_BLOCK):
                chunk = levels[start : start + GUARD_BLOCK]
                if not (-BLOWUP_LIMIT <= chunk.min() and chunk.max() <= BLOWUP_LIMIT):
                    break
            else:
                return None
    return start + int(np.argmin(np.all(np.abs(chunk) <= BLOWUP_LIMIT, axis=1)))


def solve_state(problem, y0, control):
    """March the controlled state forward and return the full trajectory.

    Parameters
    ----------
    problem : DiscreteProblem
    y0 : array_like, shape (H+1,)
        Initial state at the physical nodes.
    control : ControlField
        Boundary fluxes (signals 0 and M) and interior sources (1..M-1).

    Returns
    -------
    StateField
        Trajectory over n = 0..N+1.

    Raises
    ------
    SolverBlowUpError
        If any node magnitude exceeds BLOWUP_LIMIT; the exception carries the
        offending time step.
    """
    g = problem.grid
    H, N, M = g.H, g.N, g.M
    h, dt, mu = g.h, g.dt, problem.phys.mu

    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (H + 1,):
        raise ValueError(f"initial state must have shape ({H + 1},), got {y0.shape}")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    v = _checked_controls(g, control)
    spacing = control_indices(g)[1]
    lo, _, hi = stencil = _stencil(problem, -1.0)

    def force(rows):
        rows[:] = 0.0
        rows[:, 0] = lo * (h / mu) * v[0]
        rows[:, H] = hi * (h / mu) * v[M]
        rows[:, spacing:H:spacing] = (dt / h) * v[1:M].T

    # Time-major work array: work[n, j] is node j at time level n.
    work = np.empty((N + 2, H + 1))
    work[0] = y0
    bad = _sweep(work, force, stencil, gains=(1.0, 1.0))
    if bad is not None:
        raise SolverBlowUpError(step=bad)
    return StateField(work.T)


def solve_adjoint(problem, state):
    """March the adjoint backward from the terminal state penalty.

    The terminal condition is p[., N] = k2 * y[., N+1]; the running penalty
    k1 * y[., n] acts as a source while stepping from level n to n - 1.

    Parameters
    ----------
    problem : DiscreteProblem
    state : StateField
        Trajectory produced by solve_state on the same problem.

    Returns
    -------
    AdjointField
    """
    g, p = problem.grid, problem.phys
    H, N, h, dt = g.H, g.N, g.h, g.dt
    mu, eps = p.mu, p.eps

    y = state.values
    if y.shape != (H + 1, N + 2):
        raise ValueError(f"state shape {y.shape} does not match grid ({H + 1}, {N + 2})")
    left_gain = mu / (mu - eps * h)
    right_gain = (mu - eps * h) / mu

    def force(rows):
        # Marching index i is time level N - i; the step from it reads y[., N - i].
        np.multiply(y.T[N:0:-1], dt * p.k1, out=rows)

    work = np.empty((N + 1, H + 1))
    work[N] = p.k2 * y[:, N + 1]
    bad = _sweep(work[::-1], force, _stencil(problem, 1.0), gains=(left_gain, right_gain))
    if bad is not None:
        raise SolverBlowUpError(step=N - bad)
    return AdjointField(work.T)


def solve_perturbation(problem, control):
    """State response to a control increment from a zero initial state.

    The scheme is linear, so this is solve_state with y0 = 0; having it as a
    named operation keeps optimizer code close to its derivation.
    """
    return solve_state(problem, np.zeros(problem.grid.H + 1), control)
