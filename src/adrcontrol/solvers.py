"""Explicit time stepping for the state, adjoint, and perturbation systems.

Every sweep marches a three-point stencil over a time-major buffer of the
physical nodes j = 0..H,

    x[i+1][j] = lo*x[i][j-1] + mid*x[i][j] + hi*x[i][j+1] + forcing[i+1][j],

and one kernel, ``_march``, runs them all: the state, adjoint and perturbation
sweeps differ only in the coefficients, the boundary closure, the forcing and
the direction of time.  Row j of a trajectory's ``values`` is node j.

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

Each sweep gives its forcing once, as data: (nodes, weights, v), whose
step from marching index i adds weights*v[:, i] at ``nodes``.  For the
state these are the control nodes, the weights lo*(h/mu) at node 0 and
hi*(h/mu) at node H (the flux closures' share of the stencil) and dt/h at
the interior ones, and the controls; for the adjoint, every node, dt*k1
and the state's levels N..1.  A sweep writes each level of its output exactly once and never
reads it back.  The adjoint's output is its M+1 control traces, the only
rows the reduced gradient reads: every node is marched and guarded, but
only the control nodes of each level are written.

The kernel splits the levels into blocks of B levels and marches the
blocks side by side, one row per block of one contiguous carry array.  A
step is linear, x -> A x, and A is one tuple (lo, mid, hi, left, right):
the ghost nodes (index -1 and H+1) gain*edge fold into the edge diagonals
left = mid + lo*gain and right = mid + hi*gain, and A^T is the same tuple
with lo and hi swapped, so one step function applies both.  A batched
step is one ``np.correlate`` over the flattened rows; the boundary
columns, which it mixes with the neighbouring rows, are then recomputed
from the edge diagonals.  The true level s_b before block b is the
zero-start end of block b-1 plus A^B s_(b-1): the ends are
carried through a dense (A^T)^B, computed once per operator, width
and B.  Each block is marched once, and what a second pass
would add is priced through the M+1 control rows, chosen by what the
sweep stores:

- Every node (state and perturbation): the zero-start end of each block
  is its (B, M+1) control samples times the control-node unit
  rows, scaled by the weights, stepped to the block's end.  After the
  carry, every block is marched from its true start.  Each level is
  checked against the guard |x| <= BLOWUP_LIMIT at every node while it is
  still in the carry, then written; a short last block leaves the carry
  when its levels run out, so nothing past the end is marched.
- A list of nodes (adjoint): every block is marched once from zero, so
  the state is read once; the kept nodes of these levels are written and
  each level's extremes noted.  After the carry, level i of every block b
  gains the response of its block start at the kept nodes,
  s_b (A^T)^(i+1)[:, keep], whose columns are the kept unit rows stepped
  by A^T; s_0 is the terminal level.  The guard passes when
  max|particular| + ||A||_inf^B max|s_b| <= BLOWUP_LIMIT, a
  bound on |x| at every node and level that not a number fails.  Where it
  does not clear, the exact march decides: every block again from its
  true start, guarded level by level as above.

B is chosen per sweep by ``_block`` from the sweep's cost model.  A sweep
of S levels over W = H+1 nodes makes about B batched steps and unit-row
map steps, each of a roughly fixed numpy call overhead, and S/B carries
of W^2 multiply-adds.  With that overhead worth k^2 multiply-adds, the
sum B*k^2 + (S/B)*W^2 is least at B = W*sqrt(S)/k, which is rounded and
clamped to 1..S.  k = BLOCK_COST = 228 was measured on one CPU of an x86
host, timing whole CG solves at fixed B: they were fastest at B = 16..32
for H = 100, N = 4020 (k = 200..400) and at B = 96..128 for H = 200,
N = 16040 (k = 199..265).  The rule gives B = 28 and B = 112 there.

Overflow warnings are silenced, and ``_march`` alone decides the blow-up
step: when a level of a march of several blocks fails the guard, it marches
again as one block spanning every level, the plain per-step march, so the
step it reports is a per-step guard's.
"""

from __future__ import annotations

import functools
import math
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

# The constant k of the block rule B = W*sqrt(S)/k (see the module
# docstring): k^2 is one level's call overhead in carry multiply-adds.
BLOCK_COST = 228

# Levels per BLAS product of the unit-row maps that stand in for a second
# pass; the adjoint's products take half as many kept nodes and levels.
# It bounds the maps held at once.
MAP_CHUNK = 16


@dataclass(frozen=True)
class _Field:
    """Base of the fields: a frozen float array ``values``.  The type states
    its shape on a grid, ``shape_on(grid)``, and each read checks it."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    @staticmethod
    def shape_on(grid):
        return (grid.M + 1, grid.N + 1)

    def checked(self, grid):
        """``values``, after the one check of their shape against ``shape_on(grid)``."""
        shape = self.shape_on(grid)
        if self.values.shape != shape:
            raise ValueError(f"{type(self).__name__} {self.values.shape} is not the grid's {shape}")
        return self.values


class ControlField(_Field):
    """Control values[k, n], k = 0..M, n = 0..N: finite when built, shape checked when read."""

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control values must be finite")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(cls.shape_on(grid)))


class StateField(_Field):
    """State values[j, n] at nodes j = 0..H, times n = 0..N+1: shape checked when read."""

    @staticmethod
    def shape_on(grid):
        return (grid.H + 1, grid.N + 2)

    @property
    def interior(self):
        """The physical nodes j = 0..H, shape (H+1, N+2): the same array as values."""
        return self.values

    @property
    def terminal(self):
        """Final time level, shape (H+1,)."""
        return self.values[:, -1]


class AdjointField(_Field):
    """Adjoint traces values[k, n] at times n = 0..N: row k is node j_k,
    the node carrying control k = 0..M."""


def _operator(problem, advection_sign, gains=(1.0, 1.0)):
    """A of x + dt*(mu*D2 x + advection_sign*eps*D+ x + x), with the ghosts
    gains[0]*x[0] and gains[1]*x[H], as (lo, mid, hi, left, right).

    D2 is the centred second difference and D+ the forward difference
    (x[j+1] - x[j])/h; the state has advection_sign -1, the adjoint +1.
    A^T is ``op[2::-1] + op[3:]``.
    """
    g, p = problem.grid, problem.phys
    diffusion = p.mu / g.h**2
    advection = advection_sign * p.eps / g.h
    lo = g.dt * diffusion
    mid = 1.0 + g.dt * (1.0 - 2.0 * diffusion - advection)
    hi = g.dt * (diffusion + advection)
    return lo, mid, hi, mid + lo * gains[0], mid + hi * gains[1]


def _step(x, op):
    """A applied to every row of x, as a new array.

    One ``np.correlate`` over the flattened rows gives every interior node;
    the two boundary columns, which it mixes with the neighbouring rows, are
    recomputed from the edge diagonals.  One row of two nodes (H = 1) gets
    one value too many from the correlation; both its columns are boundary
    columns, so it is cut off.
    """
    lo, _, hi, left, right = op
    y = np.correlate(x.ravel(), op[:3], "same")[: x.size].reshape(x.shape)
    y[:, 0] = left * x[:, 0] + hi * x[:, 1]
    y[:, -1] = lo * x[:, -2] + right * x[:, -1]
    return y


def _norm(op):
    """||A||_inf, the largest absolute row sum of A, as a numpy float so
    that a power of it overflows to inf instead of raising."""
    lo, mid, hi, left, right = op
    return np.float64(max(abs(lo) + abs(mid) + abs(hi), abs(left) + abs(hi), abs(lo) + abs(right)))


def _block(steps, width):
    """Levels per block of a sweep of ``steps`` levels over ``width`` nodes:
    width*sqrt(steps)/BLOCK_COST, rounded and clamped to 1..steps."""
    return min(steps, max(1, round(width * math.sqrt(steps) / BLOCK_COST)))


@functools.lru_cache(maxsize=8)
def _power(op, width, block):
    """The dense (A^T)^block of an operator, read-only."""
    power = np.linalg.matrix_power(_step(np.eye(width), op), block)
    power.setflags(write=False)
    return power


def _add_ends(ends, forcing, op, block):
    """Add to row b of ``ends`` the end of block b marched from zero under
    ``forcing``: its (block, M+1) inputs times the weighted unit rows of
    their nodes stepped to the block's end, MAP_CHUNK levels per product.
    c[b, j, k] is input k j steps before the end of block b."""
    nodes, weights, v = forcing
    unit = np.zeros((len(nodes), ends.shape[1]))
    unit[np.arange(len(nodes)), nodes] = weights
    c = v[:, : len(ends) * block].reshape(len(nodes), len(ends), block)
    c = c[:, :, ::-1].transpose(1, 2, 0)
    maps = np.empty((MAP_CHUNK,) + unit.shape)
    for j in range(0, block, MAP_CHUNK):
        chunk = c[:, j : j + MAP_CHUNK]
        for m in maps[: chunk.shape[1]]:
            m[...] = unit
            unit = _step(unit, op)
        ends += chunk.reshape(len(ends), -1) @ maps[: chunk.shape[1]].reshape(-1, ends.shape[1])


def _add_responses(levels, keep, starts, op, block):
    """Add to level i of block b the response of its true start s_b, row b
    of ``starts``: s_b (A^T)^(i+1)[:, keep], whose columns are the kept unit
    rows stepped i+1 times by A^T.  Each kept node's products are BLAS
    calls of their own, so its values do not depend on how many nodes are
    kept."""
    transposed = op[2::-1] + op[3:]
    depth = MAP_CHUNK // 2  # kept nodes and levels per product
    for k in range(0, len(keep), depth):
        nodes = slice(k, k + depth)
        unit = np.zeros((len(keep[nodes]), starts.shape[1]))
        unit[np.arange(len(unit)), keep[nodes]] = 1.0
        maps = np.empty((len(unit), depth, starts.shape[1]))
        for j in range(0, block, depth):
            for m in range(depth):
                unit = _step(unit, transposed)
                maps[:, m] = unit
            response = starts @ maps.transpose(0, 2, 1)
            for m in range(min(depth, block - j)):
                rows = levels[j + m :: block, nodes]
                rows += response[:, : len(rows), m].T


def _levels(x, levels, keep, op, forcing, block):
    """March block b of ``levels`` from row b of the carry ``x`` under
    ``forcing``, writing the kept nodes of each level; a short last block
    drops out of the carry when it ends.  Yields (i, x) with x level i of
    every block before it is written; the last x holds the ends of the
    full blocks.  Each step's forcing product is written into the level it
    replaced, so the march holds two carries, and ``x`` is overwritten."""
    nodes, weights, v = forcing
    for i in range(min(block, len(levels))):
        rows = levels[i::block]
        y = _step(x[: len(rows)], op)
        # The forcing is formed in the dead level, copied and then scaled in
        # place: a product of the strided samples would allocate a buffer.
        x = x[: len(rows), : len(v)]
        x[...] = v[:, i::block].T
        x *= weights
        y[:, nodes] += x
        x = y
        yield i, x
        rows[...] = x[:, keep]


@np.errstate(over="ignore", invalid="ignore")
def _march(start, levels, keep, op, forcing, block):
    """Fill ``levels`` by ``x[i+1] = A x[i] + forcing`` from ``x[0] = start``, in blocks.

    ``start`` is the (H+1,) level the march begins from; row i of the
    (steps, len(keep)) output ``levels`` is ``x[i+1][keep]``, so ``keep`` is
    ``slice(None)`` for every node or a list of the nodes to store; ``op``
    is A as ``_operator`` gives it; ``forcing`` is (nodes, weights, v),
    one column of v per step, its nodes a list where ``keep`` is
    ``slice(None)``; ``block`` is the number of levels per block.

    Returns the marching index of the first level beyond BLOWUP_LIMIT (or
    not a number) at any node, stored or not, as a per-step march reports
    it, or None when every level passes.
    """
    steps, width = len(levels), len(start)
    blocks = -(-steps // block)
    # Row b of starts becomes the true level before block b.  A sweep that
    # stores every node prices the zero-start block ends; one that keeps a
    # list of nodes marches them from zero, before its starts are allocated,
    # and adds the starts' responses.
    priced = isinstance(keep, slice)
    if blocks > 1:
        power = _power(op, width, block)
    if blocks > 1 and not priced:
        extremes = np.empty((block, 2))
        for i, x in _levels(np.zeros((blocks, width)), levels, keep, op, forcing, block):
            extremes[i] = x.min(), x.max()
        starts = np.empty((blocks, width))
        starts[1:] = x[: blocks - 1]
        del x  # the march's last level: only the starts stay
    else:
        starts = np.zeros((blocks, width))
        if blocks > 1:
            _add_ends(starts[1:], forcing, op, block)
    starts[0] = start
    for b in range(1, blocks):
        starts[b] += starts[b - 1] @ power
    if blocks > 1 and not priced:
        # |x| <= max|particular| + ||A||_inf^(i+1) max|s_b| at level i of
        # a block, and ||A||_inf > 1 (its interior rows sum to 1 + dt).
        growth = _norm(op) ** block
        if np.abs(extremes).max() + growth * np.abs(starts).max() <= BLOWUP_LIMIT:
            _add_responses(levels, keep, starts, op, block)
            return None
    # Every block from its true start; level i+1 of each is guarded at every
    # node before its kept nodes are written.  The march alone holds the
    # starts, so it frees them after its first step.
    march = _levels(starts, levels, keep, op, forcing, block)
    del starts
    for i, x in march:
        if not (-BLOWUP_LIMIT <= x.min() and x.max() <= BLOWUP_LIMIT):
            if blocks == 1:
                return i + 1
            return _march(start, levels, keep, op, forcing, steps)
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
    v = control.checked(g)
    lo, _, hi, _, _ = op = _operator(problem, -1.0)
    weights = np.full(M + 1, dt / h)
    weights[0], weights[M] = lo * (h / mu), hi * (h / mu)
    # Time-major work array: work[n, j] is node j at time level n.
    work = np.empty((N + 2, H + 1))
    work[0] = y0
    forcing = (control_indices(g), weights, v)
    bad = _march(y0, work[1:], slice(None), op, forcing, _block(N + 1, H + 1))
    if bad is not None:
        raise SolverBlowUpError(step=bad)
    return StateField(work.T)


def solve_adjoint(problem, state):
    """March the adjoint backward from the terminal state penalty.

    The terminal condition is p[., N] = k2 * y[., N+1]; the running penalty
    k1 * y[., n] acts as a source while stepping from level n to n - 1.
    Every node is marched and guarded; only the control nodes are stored.

    Parameters
    ----------
    problem : DiscreteProblem
    state : StateField
        Trajectory produced by solve_state on the same problem.

    Returns
    -------
    AdjointField
        Row k is the trace p[j_k, .] at the node carrying control k.
    """
    g, p = problem.grid, problem.phys
    H, N, h, dt = g.H, g.N, g.h, g.dt
    mu, eps = p.mu, p.eps

    y = state.checked(g)
    op = _operator(problem, 1.0, (mu / (mu - eps * h), (mu - eps * h) / mu))
    keep = control_indices(g)

    # Marching index i is time level N - i; the step from it reads y[., N - i].
    forcing = (slice(None), dt * p.k1, y[:, N:0:-1])
    terminal = p.k2 * y[:, N + 1]
    work = np.empty((N + 1, g.M + 1))
    work[N] = terminal[keep]
    bad = _march(terminal, work[-2::-1], keep, op, forcing, _block(N, H + 1))
    if bad is not None:
        raise SolverBlowUpError(step=N - bad)
    return AdjointField(work.T)


def solve_perturbation(problem, control):
    """State response to a control increment from a zero initial state.

    The scheme is linear, so this is solve_state with y0 = 0; having it as a
    named operation keeps optimizer code close to its derivation.
    """
    return solve_state(problem, np.zeros(problem.grid.H + 1), control)
