"""Correctness checks on one repetition's outputs, with tolerances, not hashes.

Later changes may move results at the rounding level, so every check
compares numbers with a stated slack.  The first repetition of a run gets
the full checks, including fresh sweeps at the returned control; each later
repetition must reproduce the first one's numbers.
"""

from __future__ import annotations

import math

import numpy as np

from adrcontrol import ControlField, gradient, inner_product, solve_adjoint, solve_state

# summary.txt key set, frozen by the harness's output format.
SUMMARY_KEYS = (
    "M",
    "iterations",
    "status",
    "J_total",
    "control_energy",
    "terminal_norm",
    "uncontrolled_terminal_norm",
    "cfl_ratio",
)
OPTIMUM_SLACK = 1e-9  # J_cg below J_opt allowed for the oracle's own rounding
RATIO_SLACK = 1e-3  # fresh gradient ratio over tol^2, for the recursive gradient's drift
REPEAT_TOL = 1e-10  # later repetitions against the first, relative


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _terminal_norm(grid, terminal):
    return math.sqrt(grid.h * float(np.sum(terminal**2)))


def fresh_sweeps(case, control):
    """Gradient ratio and terminal norms from fresh solves at u and at 0."""
    problem, grid = case.problem, case.problem.grid
    zero = ControlField.zeros(grid)
    u = ControlField(control)
    base = solve_state(problem, case.y0, zero)
    state = solve_state(problem, case.y0, u)
    g0 = gradient(problem, zero, solve_adjoint(problem, base))
    g = gradient(problem, u, solve_adjoint(problem, state))
    return {
        "grad_ratio": inner_product(grid, g, g) / inner_product(grid, g0, g0),
        "terminal_norm": _terminal_norm(grid, state.terminal),
        "uncontrolled_terminal_norm": _terminal_norm(grid, base.terminal),
    }


def cost_rise(costs):
    """Largest rise of the cost between iterations, relative to the initial cost."""
    return max([0.0] + [(b - a) / abs(costs[0]) for a, b in zip(costs, costs[1:])])


def _count_lines(path):
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
    return lines


def _file_failures(case, record):
    g = case.problem.grid
    run_dir = record["run_dir"]
    failures = []
    with open(f"{run_dir}/summary.txt") as fh:
        pairs = [line.rstrip("\n").split("=", 1) for line in fh]
    keys = tuple(p[0] for p in pairs)
    if keys != SUMMARY_KEYS:
        failures.append(f"summary.txt keys {keys} differ from the frozen set")
    row = record["row"]
    for key, text in (p for p in pairs if len(p) == 2 and p[0] in row):
        want = row[key]
        same = text == want if isinstance(want, str) else float(text) == float(want)
        if not same:
            failures.append(f"summary.txt {key}={text} differs from the in-memory {want!r}")
    for name, rows in (
        ("state.csv", (g.N + 2) * (g.H + 1)),
        ("controls.csv", (g.N + 1) * (g.M + 1)),
    ):
        got = _count_lines(f"{run_dir}/{name}") - 1
        if got != rows:
            failures.append(f"{name} has {got} data rows, expected {rows}")
    return failures


def solve_failures(workload, case, record, control, j_opt, reference=None):
    """(failures, j_gap_rel, cost rise) of one solve.

    ``reference`` is the (record, control) of the same solve in the run's
    first repetition; without it, fresh sweeps check the returned control.
    """
    failures = []
    if record["status"] != "converged":
        failures.append(f"status {record['status']!r}, expected 'converged'")
    costs = record["costs"]
    rise = cost_rise(costs)
    if not rise <= workload.monotone_slack:
        failures.append(f"cost history rises by {rise:.2e} of J_0, above {workload.monotone_slack:g}")
    j_cg = costs[-1]
    gap = (j_cg - j_opt) / j_opt
    if not -OPTIMUM_SLACK <= gap <= workload.gap_limit:
        failures.append(f"j_gap_rel {gap:.3e} outside [-{OPTIMUM_SLACK:g}, {workload.gap_limit:g}]")

    if reference is None:
        fresh = fresh_sweeps(case, control)
        limit = workload.tol**2 * (1.0 + RATIO_SLACK)
        if not fresh["grad_ratio"] <= limit:
            failures.append(f"fresh gradient ratio {fresh['grad_ratio']:.3e} above tol^2 {limit:.3e}")
        if not fresh["terminal_norm"] < fresh["uncontrolled_terminal_norm"]:
            failures.append("controlled terminal norm is not below the uncontrolled one")
        row = record.get("row")
        if row is not None:
            if _rel(row["J_total"], j_cg) > REPEAT_TOL:
                failures.append("summary J_total differs from the final cost")
            for key in ("terminal_norm", "uncontrolled_terminal_norm"):
                if _rel(row[key], fresh[key]) > 1e-9:
                    failures.append(f"{key} {row[key]!r} differs from a fresh solve {fresh[key]!r}")
    else:
        ref_record, ref_control = reference
        if _rel(j_cg, ref_record["costs"][-1]) > REPEAT_TOL or record["status"] != ref_record["status"]:
            failures.append("result differs from the run's first repetition")
        scale = max(float(np.abs(ref_control).max()), 1e-300)
        if control.shape != ref_control.shape or np.abs(control - ref_control).max() > REPEAT_TOL * scale:
            failures.append("control differs from the run's first repetition")
    if workload.files:
        failures += _file_failures(case, record)
    return failures, gap, rise
