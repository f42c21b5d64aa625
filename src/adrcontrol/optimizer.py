"""Conjugate gradient minimization of the reduced control cost.

The reduced objective is an affine-quadratic in the control field, so the
classical CG recurrences apply verbatim once matrix-vector products are read
as "run the perturbation solver, then its adjoint".  One iteration costs one
forward and one backward sweep.

Starting from u = 0 with gradient g and direction w = g:

    curvature   c = <A w, w>     with  A w = k0*w + adjoint traces of the
                                       perturbation driven by w
    step        rho = <g, g> / c
    update      u <- u - rho*w,  g <- g - rho*A w
    restart     gamma = <g+, g+> / <g, g>,  w <- g+ + gamma*w

The stored state trajectory is updated incrementally by linearity
(y <- y - rho*dy), which prices the per-iteration cost report at no extra
solves.  The report hands that trajectory back as ``CGReport.state``: it is
the state at the returned control up to rounding (over the nine H = 100
acceptance solves it differs from a fresh solve_state by at most 3.3e-15
of its largest magnitude), so callers need not solve again.
Iteration stops when <g, g> has dropped below tol^2 times its initial value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, CurvatureLossError
from .objective import cost, gradient
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
        if self.max_iter is not None:
            if not isinstance(self.max_iter, int) or self.max_iter < 1:
                raise ConfigurationError("max_iter must be None or an integer >= 1")


@dataclass(frozen=True)
class CGReport:
    """Iteration record: histories carry one entry per iterate, m = 0 first.

    ``state`` is the state trajectory at the final iterate, the one the last
    cost_history entry was priced on; it takes no part in comparisons.
    """

    iterations: int
    status: str
    cost_history: tuple
    grad_ratio_history: tuple
    state: StateField = field(compare=False, repr=False)


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

    u = np.zeros((g.M + 1, g.N + 1))
    y = solve_state(problem, y0, ControlField(u)).values
    grad = gradient(problem, ControlField(u), solve_adjoint(problem, StateField(y))).values

    gg0 = g.dt * float(np.sum(grad * grad))
    cost_history = [cost(problem, ControlField(u), StateField(y))]
    if gg0 == 0.0:
        report = CGReport(
            iterations=0,
            status=STATUS_TRIVIAL,
            cost_history=tuple(cost_history),
            grad_ratio_history=(0.0,),
            state=StateField(y),
        )
        return ControlField(u), report

    ratio_history = [1.0]
    w = grad.copy()
    gg = gg0
    status = STATUS_MAX_ITER
    iterations = max_iter
    for m in range(max_iter):
        direction = ControlField(w)
        dy = None  # release the previous perturbation before the next is allocated
        dy = solve_perturbation(problem, direction)
        aw = gradient(problem, direction, solve_adjoint(problem, dy)).values
        curvature = g.dt * float(np.sum(aw * w))
        if curvature <= 0.0:
            raise CurvatureLossError(iteration=m, curvature=curvature)
        rho = gg / curvature

        u = u - rho * w
        y -= np.multiply(dy.values, rho, out=dy.values)  # dy is dropped next iteration
        grad = grad - rho * aw
        gg_next = g.dt * float(np.sum(grad * grad))

        cost_history.append(cost(problem, ControlField(u), StateField(y)))
        ratio = gg_next / gg0
        ratio_history.append(ratio)
        if ratio < config.tol**2:
            status = STATUS_CONVERGED
            iterations = m + 1
            break
        w = grad + (gg_next / gg) * w
        gg = gg_next

    report = CGReport(
        iterations=iterations,
        status=status,
        cost_history=tuple(cost_history),
        grad_ratio_history=tuple(ratio_history),
        state=StateField(y),
    )
    return ControlField(u), report
