"""Discrete cost functional, control-space inner product, and reduced gradient.

The cost is a rectangle-rule quadrature of the continuum objective:

    J(v) = (k0*dt/2) * sum_{k,n} v[k,n]^2
         + (k1*dt*h/2) * sum_{n=0..N} sum_{j=0..H} y[j,n]^2
         + (k2*h/2) * sum_j y[j,N+1]^2

with y the state driven by v.  Control increments live in the inner product
<a, b> = dt * sum_{k,n} a[k,n]*b[k,n], and in that geometry gradient returns

    grad[k, n] = k0*v[k, n] + p[j_k, n]

where p is the adjoint trajectory and j_k the node carrying control k, so
only the adjoint's M+1 traces p[j_k, .] enter.  This is the exact reduced
gradient at eps = 0; at eps != 0 the adjoint's advection difference is not
the transpose of the state's, and it is off by O(h).  The discrete point
sources carry a 1/h factor in the state scheme, which is what makes the
interior trace components land on the same h-free formula as the boundary
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solvers import ControlField

__all__ = ["CostBreakdown", "cost", "inner_product", "gradient"]


@dataclass(frozen=True)
class CostBreakdown:
    """Cost value split into its three quadrature terms."""

    control_term: float
    running_term: float
    terminal_term: float
    total: float


def cost(problem, control, state):
    """Evaluate the cost terms for a control and the state it produced."""
    g, p = problem.grid, problem.phys
    v = control.checked(g)
    y = state.checked(g)

    control_term = 0.5 * p.k0 * g.dt * float(np.einsum("ij,ij->", v, v))
    running = y[:, : g.N + 1]
    running_term = 0.5 * p.k1 * g.dt * g.h * float(np.einsum("ij,ij->", running, running))
    terminal_term = 0.5 * p.k2 * g.h * float(np.sum(y[:, g.N + 1] ** 2))
    return CostBreakdown(
        control_term=control_term,
        running_term=running_term,
        terminal_term=terminal_term,
        total=control_term + running_term + terminal_term,
    )


def inner_product(grid, a, b):
    """Control-space inner product dt * sum_{k,n} a[k,n]*b[k,n]."""
    return grid.dt * float(np.sum(a.checked(grid) * b.checked(grid)))


def gradient(problem, control, adjoint):
    """Reduced cost gradient k0*v[k, n] + p[j_k, n] as a ControlField.

    ``adjoint`` holds the traces p[j_k, .], as solve_adjoint returns them.
    It must come from the state generated by this control for the result to
    be the gradient at v; the formula itself is affine in (v, p).
    """
    grad = np.multiply(problem.phys.k0, control.checked(problem.grid))
    grad += adjoint.checked(problem.grid)  # in place: one array, the same two roundings
    return ControlField(grad)
