"""Explicit time stepping for the state, adjoint, and perturbation systems.

Every sweep is one march of a three-point stencil over a time-major buffer,

    x[i+1][j] = lo*x[i][j-1] + mid*x[i][j] + hi*x[i][j+1] + source[i][j],

run by a single kernel, ``_march``.  The state, adjoint and perturbation
sweeps differ only in the coefficients, the boundary closure, the source and
the direction of time; the coefficients are computed once per sweep.  The
fields a sweep returns hold the physical nodes j = 0..H only: row j of
``values`` is node j.

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

The kernel works on a buffer with two ghost nodes per level (spatial index
-1 and H+1).  Just before the stencil reads a level it sets that level's
ghosts from the affine closure ghost = gain*edge + shift, so the stencil
itself is one ``np.correlate`` of the ghosted level with (lo, mid, hi).  The
ghosts are the kernel's working layout: the returned fields are views of the
buffer's physical columns.

The overflow guard |x| <= BLOWUP_LIMIT is checked once per block of
GUARD_BLOCK steps, with overflow warnings silenced.  When a block fails, it
is rescanned for its first bad level: the levels before it were computed
exactly as a per-step guard would have computed them, so the reported step
is the one a per-step guard reports.
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

# Steps marched between two checks of the overflow guard.  Checking a block
# costs about as much as checking one level, and a blown-up march wastes at
# most this many steps before it stops.
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


def _march(levels, stencil, gains, shifts, source, scale, nodes=slice(1, -1)):
    """March ``levels[i] -> levels[i+1]`` in place for every i.

    Parameters
    ----------
    levels : ndarray, shape (steps+1, H+3)
        Time-major ghosted buffer in marching order; row 0 holds the start.
    stencil : (lo, mid, hi)
        Weights of the left neighbour, the node and the right neighbour.
    gains, shifts : pairs for the left and right ghost
        Before level i is read its ghosts are set to
        gain*edge + shift[i], edge being the adjacent boundary node.
    source, scale, nodes : 2-D array or None, float, index
        ``scale*source[i]`` is added to ``levels[i+1][nodes]``; nodes
        defaults to every physical node.

    Returns
    -------
    int or None
        Index of the first level with a magnitude beyond BLOWUP_LIMIT (or
        not a number) on the physical nodes; None if the march completed.
    """
    steps = len(levels) - 1
    weights = np.asarray(stencil, dtype=float)
    left_gain, right_gain = gains
    left_shift, right_shift = shifts
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, GUARD_BLOCK):
            stop = min(start + GUARD_BLOCK, steps)
            for i in range(start, stop):
                row, nxt = levels[i], levels[i + 1]
                row[0] = left_gain * row[1] + left_shift[i]
                row[-1] = right_gain * row[-2] + right_shift[i]
                nxt[1:-1] = np.correlate(row, weights, "valid")
                if source is not None:
                    nxt[nodes] += scale * source[i]
            bounded = np.abs(levels[start + 1 : stop + 1, 1:-1]) <= BLOWUP_LIMIT
            if not bounded.all():
                return start + 1 + int(np.argmin(bounded.all(axis=1)))
    return None


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
    # Interior control nodes j_k = k*H/M sit at every (H/M)-th ghosted row.
    spacing = control_indices(g)[1]
    interior_rows = slice(spacing + 1, H + 1, spacing)

    # Time-major work array: work[n, r] with r the ghosted spatial index.
    work = np.zeros((N + 2, H + 3))
    work[0, 1:-1] = y0
    bad = _march(
        work,
        _stencil(problem, -1.0),
        gains=(1.0, 1.0),
        shifts=((h / mu) * v[0], (h / mu) * v[M]),
        source=v[1:M].T if M > 1 else None,
        scale=dt / h,
        nodes=interior_rows,
    )
    if bad is not None:
        raise SolverBlowUpError(step=bad)
    return StateField(work[:, 1:-1].T)


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

    work = np.zeros((N + 1, H + 3))
    work[N, 1:-1] = p.k2 * y[:, N + 1]
    no_shift = np.zeros(N)
    # Marching index i is time level N - i; the step from it reads y[., N - i].
    bad = _march(
        work[::-1],
        _stencil(problem, 1.0),
        gains=(left_gain, right_gain),
        shifts=(no_shift, no_shift),
        source=y.T[N:0:-1],
        scale=dt * p.k1,
    )
    if bad is not None:
        raise SolverBlowUpError(step=N - bad)
    return AdjointField(work[:, 1:-1].T)


def solve_perturbation(problem, control):
    """State response to a control increment from a zero initial state.

    The scheme is linear, so this is solve_state with y0 = 0; having it as a
    named operation keeps optimizer code close to its derivation.
    """
    return solve_state(problem, np.zeros(problem.grid.H + 1), control)
