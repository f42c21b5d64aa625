"""Benchmark workloads and the inputs each one derives from a seed.

Every workload solves the default physics (L = T = 1, mu = eps = 0.1,
k0 = k1 = k2 = 1) on the stable grid for its H.  The seed only scales the
amplitude of each initial profile.  The problem is linear-quadratic, so the
optimal control scales with the initial data and CG with a relative
tolerance takes the same iterations at every amplitude: each seed does the
same work, on different numbers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from adrcontrol import (
    CGConfig,
    DiscreteProblem,
    ExperimentSpec,
    InitialCondition,
    PhysicalConfig,
    make_initial_condition,
    stable_step_count,
)

# The three initial profiles of the acceptance workload, at unit amplitude.
SHAPES = {
    "pulse": dict(kind="pulse", support=(0.4, 0.6)),
    "sine5": dict(kind="sine", frequency=5),
    "sine1": dict(kind="sine", frequency=1),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``files`` selects the path: True runs ``run_experiment`` per shape, which
    also solves the uncontrolled baseline and writes every output file; False
    calls ``cg_solve`` alone, once per shape and control count.  ``gap_limit``
    bounds ``(J_cg - J_opt) / J_opt`` for every solve, and ``monotone_slack``
    the rise of the cost between iterations, relative to the initial cost.
    """

    name: str
    H: int
    tol: float
    control_counts: tuple
    shapes: tuple
    files: bool
    gap_limit: float
    monotone_slack: float = 1e-12

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, data):
        data = dict(data)
        data["control_counts"] = tuple(data["control_counts"])
        data["shapes"] = tuple(data["shapes"])
        return cls(**data)


# Seed j_gap_rel on these workloads: acceptance 2.7e-5..9.7e-5, refine_h200
# 9.4e-5.  Each limit leaves a factor of ten.  The monotone slack is the
# acceptance gate's 1e-12.
#
# A third workload, tol = 1e-8 on sine5 with M in {2, 10} (18 and 22 CG
# iterations), is left out: the host's speed drifts, and each run needs
# about a minute of repetitions for a steady median, which three workloads
# do not fit in the time all runs get.  Its layers, the optimizer's and the
# objective's per-iteration work, run on both workloads here.
WORKLOADS = {
    w.name: w
    for w in (
        # The reference workload: the only one where the CSV writers and the
        # harness's own solves show.
        Workload("acceptance", 100, 1e-3, (2, 4, 10), ("pulse", "sine5", "sine1"), True, 1e-3),
        # The scale point: sweep-bound, 26 MB trajectories, no files.
        Workload("refine_h200", 200, 1e-3, (4,), ("pulse",), False, 1e-3),
    )
}


@dataclass(frozen=True)
class Case:
    """One optimal control solve: a shape at one control count."""

    shape: str
    M: int
    ic: InitialCondition
    problem: DiscreteProblem
    y0: np.ndarray


def amplitudes(workload, seed):
    """Initial-profile amplitude per shape, drawn from the seed."""
    rng = np.random.default_rng(seed)
    return {shape: float(10.0 * rng.uniform(0.5, 2.0)) for shape in workload.shapes}


def cases(workload, seed):
    """Every solve of a workload, shape-major, in the order the program runs them."""
    phys = PhysicalConfig()
    N = stable_step_count(phys, workload.H)
    amp = amplitudes(workload, seed)
    out = []
    for shape in workload.shapes:
        ic = InitialCondition(amplitude=amp[shape], **SHAPES[shape])
        for M in workload.control_counts:
            problem = DiscreteProblem.create(phys, N, workload.H, M)
            out.append(Case(shape, M, ic, problem, make_initial_condition(ic, problem.grid)))
    return out


def experiment_specs(workload, workload_cases, out_dir):
    """One ExperimentSpec per shape, for workloads that run the harness."""
    specs = []
    for shape in workload.shapes:
        first = next(c for c in workload_cases if c.shape == shape)
        specs.append(
            ExperimentSpec(
                problem=first.problem,
                ic=first.ic,
                cg=CGConfig(tol=workload.tol),
                control_counts=workload.control_counts,
                output_dir=out_dir / shape,
            )
        )
    return specs
