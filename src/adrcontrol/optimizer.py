"""Conjugate gradient minimization of the reduced control cost.

The reduced objective is an affine-quadratic in the control field.  At
eps = 0 the classical CG recurrences apply verbatim once matrix-vector
products are read as "run the perturbation solver, then its adjoint"; at
eps != 0 that A is not symmetric: at H = 100, M = 4, eps = 0.1 the relative
asymmetry |<Aw1,w2> - <w1,Aw2>| / |<Aw1,w2>| of two standard normal
directions reads 5.3e-3, 4.9e-4 and 8.9e-5 for numpy seeds 0, 1 and 2.  One
iteration costs one forward and one backward sweep.

Starting from u = 0 with gradient g and direction w = g:

    curvature   c = <A w, w>     with  A w = k0*w + adjoint traces of the
                                       perturbation driven by w
    step        rho = <g, g> / c
    update      u <- u - rho*w,  g <- g - rho*A w
    restart     gamma = <g+, g+> / <g, g>,  w <- g+ + gamma*w

Per iteration CG holds two trajectories, the state y and the perturbation
dy, each (H+1) x (N+2), and control vectors of (M+1) x (N+1) values: u, w
and grad live through both sweeps, and the previous A w is released before
them.  The adjoint traces, A w and the temporaries of the updates add at
most two more, five in all.  solve_adjoint marches every node but stores only
the M+1 control rows the gradient reads.  The stored state trajectory is
updated incrementally by linearity (y <- y - rho*dy), which prices the
per-iteration cost report at no extra solves.  The report hands that
trajectory back as
``CGReport.state``: it is the state at the returned control up to rounding
(over the nine H = 100 acceptance solves it differs from a fresh
solve_state by at most 3.3e-15 of its largest magnitude), so callers need
not solve again.
Iteration stops when <g, g> has dropped below tol^2 times its initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, CurvatureLossError
from .objective import cost, gradient, inner_product
from .solvers import ControlField, StateField, solve_adjoint, solve_perturbation, solve_state

__all__ = ["CGConfig", "CGReport", "cg_solve",
           "STATUS_CONVERGED", "STATUS_MAX_ITER", "STATUS_TRIVIAL"]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter_reached"
STATUS_TRIVIAL = "trivial_optimum"


@dataclass(frozen=True)
class CGConfig:
    """Stopping control for cg_solve.

    tol is a relative gradient-norm tolerance: the loop stops once
    <g, g> / <g0, g0> < tol^2.  The default 1e-3 drives the gradient three
    orders of magnitude down, comfortably above the level where the discrete
    gradient's own consistency error starts to dominate on production grids.

    max_iter = None resolves to 3*(M+1)*(N+1), three sweeps of the control
    dimension, which exact CG would never need and rounding-perturbed CG
    stays well under.
    """

    tol: float = 1e-3
    max_iter: Optional[int] = None

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ConfigurationError("tol must lie strictly between 0 and 1")
        m = self.max_iter
        if m is not None and (not isinstance(m, int) or isinstance(m, bool) or m < 1):
            raise ConfigurationError("max_iter must be None or an integer >= 1")


@dataclass(frozen=True)
class CGReport:
    """Iteration record: histories carry one entry per iterate, m = 0 first.

    ``state`` is the state trajectory at the final iterate, the one the last
    cost_history entry was priced on; it takes no part in comparisons.  A
    row of run_experiment holds the report with state=None, once the
    trajectory is written to state.csv.
    """

    iterations: int
    status: str
    cost_history: tuple
    grad_ratio_history: tuple
    state: Optional[StateField] = field(compare=False, repr=False)


def resolve_max_iter(config, grid):
    if config.max_iter is not None:
        return config.max_iter
    return 3 * (grid.M + 1) * (grid.N + 1)


def cg_solve(problem, y0, config=None):
    """Minimize the discrete cost over control fields for initial state y0.

    Parameters
    ----------
    problem : DiscreteProblem
    y0 : array_like, shape (H+1,)
    config : CGConfig, optional

    Returns
    -------
    (ControlField, CGReport)
        The final control iterate and the iteration record.  status is
        "converged" when the gradient ratio fell below tol^2, "trivial_optimum"
        when the initial gradient already vanishes (then u = 0 is exact), and
        "max_iter_reached" otherwise.

    Raises
    ------
    CurvatureLossError
        If a search direction produces nonpositive curvature.
    SolverBlowUpError
        Propagated from the underlying sweeps on unstable problems.
    """
    if config is None:
        config = CGConfig()
    g = problem.grid
    max_iter = resolve_max_iter(config, g)

    control = ControlField.zeros(g)  # wrapped once: u is updated in place
    u = control.values
    state = solve_state(problem, y0, control)
    y = state.values  # updated in place by linearity
    grad = gradient(problem, control, solve_adjoint(problem, state))

    gg0 = inner_product(g, grad, grad)
    cost_history = [cost(problem, control, state)]
    # A vanishing initial gradient makes u = 0 exact: the loop runs zero times.
    if gg0 == 0.0:
        status, iterations, ratio_history = STATUS_TRIVIAL, 0, [0.0]
    else:
        status, iterations, ratio_history = STATUS_MAX_ITER, max_iter, [1.0]
    direction = ControlField(grad.values.copy())
    w = direction.values
    gg = gg0
    for m in range(iterations):
        dy = aw = None  # release the previous iteration's arrays before the sweeps
        dy = solve_perturbation(problem, direction)
        aw = gradient(problem, direction, solve_adjoint(problem, dy))
        curvature = inner_product(g, aw, direction)
        if curvature <= 0.0:
            raise CurvatureLossError(iteration=m, curvature=curvature)
        rho = gg / curvature

        u -= rho * w
        y -= np.multiply(dy.values, rho, out=dy.values)  # dy is dropped next iteration
        np.subtract(grad.values, rho * aw.values, out=grad.values)
        gg_next = inner_product(g, grad, grad)

        cost_history.append(cost(problem, control, state))
        ratio = gg_next / gg0
        ratio_history.append(ratio)
        if ratio < config.tol**2:
            status = STATUS_CONVERGED
            iterations = m + 1
            break
        w *= gg_next / gg
        w += grad.values
        gg = gg_next

    report = CGReport(
        iterations=iterations,
        status=status,
        cost_history=tuple(cost_history),
        grad_ratio_history=tuple(ratio_history),
        state=state,
    )
    return control, report
