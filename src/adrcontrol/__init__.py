"""Adjoint-based optimal control of a 1D advection-diffusion-reaction equation.

The package discretizes the controlled PDE with an explicit scheme, forms the
gradient of the discrete cost through an adjoint sweep (exact at eps = 0, off
by O(h) at eps != 0), and minimizes over boundary-flux and interior point
controls with conjugate gradients.  An experiment harness runs benchmark
initial conditions across control counts and writes CSV data; a small
companion module demonstrates why the unstable reaction term makes
uncontrolled explicit integration blow up.
"""

from .discretization import (
    DiscreteProblem,
    GridConfig,
    PhysicalConfig,
    cfl_ratio,
    control_indices,
    grid_nodes,
    stable_step_count,
)
from .errors import ConfigurationError, CurvatureLossError, SolverBlowUpError
from .harness import (
    ComparisonTable,
    ExperimentSpec,
    ExperimentSummary,
    InitialCondition,
    compare_controls,
    make_initial_condition,
    run_experiment,
)
from .instability import ReactionParams, TrajectoryEntry, euler_iterate, steady_state
from .objective import CostBreakdown, cost, gradient, inner_product
from .optimizer import CGConfig, CGReport, cg_solve
from .solvers import (
    BLOWUP_LIMIT,
    AdjointField,
    ControlField,
    StateField,
    solve_adjoint,
    solve_perturbation,
    solve_state,
)

__version__ = "0.1.0"

__all__ = [
    "AdjointField",
    "BLOWUP_LIMIT",
    "CGConfig",
    "CGReport",
    "ComparisonTable",
    "ConfigurationError",
    "ControlField",
    "CostBreakdown",
    "CurvatureLossError",
    "DiscreteProblem",
    "ExperimentSpec",
    "ExperimentSummary",
    "GridConfig",
    "InitialCondition",
    "PhysicalConfig",
    "ReactionParams",
    "SolverBlowUpError",
    "StateField",
    "TrajectoryEntry",
    "cfl_ratio",
    "cg_solve",
    "compare_controls",
    "control_indices",
    "cost",
    "euler_iterate",
    "grid_nodes",
    "gradient",
    "inner_product",
    "make_initial_condition",
    "run_experiment",
    "solve_adjoint",
    "solve_perturbation",
    "solve_state",
    "steady_state",
    "stable_step_count",
]
