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

A sweep writes each level of its trajectory exactly once and never reads it
back.  Its forcing is added by a per-step callback: for the state the M+1
control columns of the step, as lo*(h/mu)*v[0] at node 0, hi*(h/mu)*v[M] at
node H (the flux closures' share of the stencil) and dt*v[k]/h at each
interior control node; for the adjoint dt*k1 times the state's row.  The
kernel splits the levels into blocks of GUARD_BLOCK and makes two passes:

1. Every block but the last is marched side by side to its end, block 0
   from the start and the others from zero, in one contiguous carry array
   with a row per block.  A batched step is one ``np.correlate`` over the
   flattened rows; the boundary columns, which it mixes with the
   neighbouring rows, are then recomputed with the ghost nodes (index -1
   and H+1) set to gain*edge.  The step is linear, x -> A x, so the true
   level before block b is the zero-start end of block b-1 plus
   A^GUARD_BLOCK times the level before block b-1: the ends are carried
   through a dense (A^T)^GUARD_BLOCK, computed once per stencil, gains and
   width.
2. Every block is marched again from its true start.  Each level is
   checked against the guard |x| <= BLOWUP_LIMIT while it is still in the
   carry, then written to the trajectory; a short last block leaves the
   carry when its levels run out, so nothing past the end is marched.

Overflow warnings are silenced.  When a level fails the guard, the sweep is
marched again as one block spanning every level, which is the plain
per-step march, so the reported step is a per-step guard's; a sweep of at
most GUARD_BLOCK levels is one block already.
"""

from __future__ import annotations

import functools
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

# Levels per block of the march.  A sweep of S steps makes about
# 2*GUARD_BLOCK batched steps and S/GUARD_BLOCK carries.
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


def _step(x, stencil, gains):
    """A applied to every row of x, as a new array.

    One ``np.correlate`` over the flattened rows gives every interior node;
    the two boundary columns, which it mixes with the neighbouring rows, are
    recomputed with the ghosts gains[0]*x[:, 0] and gains[1]*x[:, -1].
    """
    lo, mid, hi = stencil
    y = np.correlate(x.ravel(), stencil, "same").reshape(x.shape)
    y[:, 0] = lo * (gains[0] * x[:, 0]) + mid * x[:, 0] + hi * x[:, 1]
    y[:, -1] = lo * x[:, -2] + mid * x[:, -1] + hi * (gains[1] * x[:, -1])
    return y


@functools.lru_cache(maxsize=8)
def _power(stencil, gains, width, block):
    """The dense (A^T)^block of a sweep kind, read-only."""
    power = np.linalg.matrix_power(_step(np.eye(width), stencil, gains), block)
    power.setflags(write=False)
    return power


def _march(levels, stencil, gains, force, block):
    """Fill ``levels[1:]`` by ``levels[i+1] = A levels[i] + forcing``, in blocks.

    ``levels`` is the (steps+1, H+1) buffer in marching order with the start
    in row 0; ``stencil`` is (lo, mid, hi); a level's left and right ghosts
    are gains[0]*edge and gains[1]*edge; ``force(rows, steps)`` adds to each
    row of ``rows`` the forcing of its step, ``steps`` being the slice of
    their marching indices; ``block`` is the number of levels per block.

    Stops at the first level that fails the guard and returns i + 1, i being
    its step within its block: with one block, its marching index.  Returns
    None when every level passes.
    """
    steps, width = len(levels) - 1, levels.shape[1]
    blocks = -(-steps // block)
    # Row b of starts is the true level before block b.
    starts = np.empty((blocks, width))
    starts[0] = levels[0]
    if blocks > 1:
        # Pass 1: every block but the last, marched from zero (block 0 from
        # the start) to its end, then the ends carried through A^block.
        x = np.zeros((blocks - 1, width))
        x[0] = levels[0]
        for i in range(block):
            x = _step(x, stencil, gains)
            force(x, slice(i, i + len(x) * block, block))
        starts[1:] = x
        power = _power(stencil, gains, width, block)
        for b in range(2, blocks):
            starts[b] += starts[b - 1] @ power
    # Pass 2: every block from its true start; level i+1 of each is guarded
    # and written once.  A short last block drops out of x when it ends.
    x = starts
    for i in range(min(block, steps)):
        rows = levels[i + 1 :: block]
        x = _step(x[: len(rows)], stencil, gains)
        force(x, slice(i, i + len(x) * block, block))
        if not (-BLOWUP_LIMIT <= x.min() and x.max() <= BLOWUP_LIMIT):
            return i + 1
        rows[...] = x
    return None


def _sweep(levels, force, stencil, gains):
    """March ``levels`` with the forcing ``force``, guarding every level.

    Returns the marching index of the first level beyond BLOWUP_LIMIT (or
    not a number), as a per-step march reports it, or None.
    """
    steps = len(levels) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        bad = _march(levels, stencil, gains, force, GUARD_BLOCK)
        if bad is not None and steps > GUARD_BLOCK:
            bad = _march(levels, stencil, gains, force, steps)
    return bad


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
    lo, _, hi = stencil = _stencil(problem, -1.0)
    # Control k enters at node nodes[k], scaled by weights[k]: the flux
    # closures' share of the stencil at the ends, dt/h at interior nodes.
    nodes = control_indices(g)
    weights = np.full(M + 1, dt / h)
    weights[0], weights[M] = lo * (h / mu), hi * (h / mu)

    def force(rows, steps):
        rows[:, nodes] += weights * v[:, steps].T

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

    # Marching index i is time level N - i; the step from it reads y[., N - i].
    source = y.T[N:0:-1]

    def force(rows, steps):
        rows += (dt * p.k1) * source[steps]

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
