"""Experiment driver: benchmark initial conditions, batch runs, file output.

run_experiment solves one control problem per requested control count,
always against the same initial condition and grid, and writes per-run CSV
data (state trajectory, control signals, convergence history) plus a
key=value summary.  compare_controls then reduces the per-run summaries to a
table of cost and terminal-norm figures across control counts.

All floats are written with 17 significant digits, enough to round-trip
doubles exactly, and rows are emitted in a fixed order so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .discretization import DiscreteProblem, check_stability, control_indices, grid_nodes
from .errors import ConfigurationError, CurvatureLossError, SolverBlowUpError
from .objective import CostBreakdown, inner_product
from .optimizer import CGConfig, CGReport, cg_solve
from .solvers import ControlField, solve_state

__all__ = [
    "InitialCondition",
    "ExperimentSpec",
    "ExperimentSummary",
    "ComparisonRow",
    "ComparisonTable",
    "make_initial_condition",
    "run_experiment",
    "compare_controls",
    "write_state_csv",
    "write_controls_csv",
    "write_convergence_csv",
    "write_summary_txt",
]


def _fmt(x):
    """17 significant digits: exact round-trip for IEEE doubles."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class InitialCondition:
    """Benchmark initial profiles.

    kind "pulse": amplitude on the closed interval [support[0], support[1]],
    zero elsewhere.  kind "sine": amplitude * sin(frequency*pi*x/L), an
    integer count of half-waves over the domain.
    """

    kind: str
    amplitude: float = 10.0
    frequency: Optional[int] = None
    support: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("pulse", "sine"):
            raise ConfigurationError(f"unknown initial condition kind {self.kind!r}")
        if not (isinstance(self.amplitude, (int, float)) and math.isfinite(self.amplitude)):
            raise ConfigurationError("amplitude must be a finite number")
        if self.kind == "sine":
            f = self.frequency
            if not isinstance(f, int) or isinstance(f, bool) or f < 1:
                raise ConfigurationError("sine initial condition needs an integer frequency >= 1")
            if self.support is not None:
                raise ConfigurationError("support only applies to the pulse initial condition")
        else:
            if self.frequency is not None:
                raise ConfigurationError("frequency only applies to the sine initial condition")
            s = self.support
            if s is None or len(s) != 2:
                raise ConfigurationError("pulse initial condition needs support=(a, b)")
            a, b = float(s[0]), float(s[1])
            if not (math.isfinite(a) and math.isfinite(b) and 0.0 <= a < b):
                raise ConfigurationError("pulse support needs 0 <= a < b")
            object.__setattr__(self, "support", (a, b))


def make_initial_condition(ic, grid):
    """Sample an InitialCondition on the spatial nodes of a grid."""
    L = grid.h * grid.H
    x = grid_nodes(grid)
    if ic.kind == "sine":
        return ic.amplitude * np.sin(ic.frequency * np.pi * x / L)
    a, b = ic.support
    if b > L * (1.0 + 1e-12):
        raise ConfigurationError(f"pulse support ({a}, {b}) exceeds the domain length {L}")
    return ic.amplitude * ((x >= a) & (x <= b)).astype(float)


@dataclass(frozen=True)
class ExperimentSpec:
    """One initial condition solved once per control count.

    ``problem`` fixes the physics and the (N, H) grid; its own M is not used,
    each run solves the problem DiscreteProblem.for_counts builds for one
    entry of control_counts.  That function's rules (no empty list, no count
    the grid refuses, no repeat) are checked here.  Each count M yields M+1
    control signals.
    """

    problem: DiscreteProblem
    ic: InitialCondition
    cg: CGConfig
    control_counts: tuple
    output_dir: Path

    def __post_init__(self):
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        g = self.problem.grid
        problems = DiscreteProblem.for_counts(self.problem.phys, g.N, g.H, self.control_counts)
        object.__setattr__(self, "control_counts", tuple(q.grid.M for q in problems))


@dataclass(frozen=True)
class ExperimentSummary:
    """Result row of one run; metric fields stay None after a solver failure."""

    M: int
    status: str
    iterations: int
    cfl_ratio: float
    base_key: str
    cost: Optional[CostBreakdown] = None
    control_energy: Optional[float] = None
    terminal_norm: Optional[float] = None
    uncontrolled_terminal_norm: Optional[float] = None
    run_dir: Optional[Path] = None
    control: Optional[ControlField] = None
    report: Optional[CGReport] = None
    error: Optional[str] = None


def _base_key(phys, grid, ic):
    """Identity of everything an experiment shares across control counts."""
    return (
        f"ic={ic.kind};amplitude={_fmt(ic.amplitude)};frequency={ic.frequency};"
        f"support={ic.support};L={_fmt(phys.L)};T={_fmt(phys.T)};mu={_fmt(phys.mu)};"
        f"eps={_fmt(phys.eps)};k0={_fmt(phys.k0)};k1={_fmt(phys.k1)};k2={_fmt(phys.k2)};"
        f"H={grid.H};N={grid.N}"
    )


def _terminal_norm(grid, terminal):
    return math.sqrt(grid.h * float(np.sum(terminal**2)))


def _write_levels(path, header, dt, labels, levels):
    """Write the line "n,t,<label>,v" for every time level n and label.

    ``levels[n]`` holds the values of level n in label order.  The label
    part of each line is formatted once; each level is then formatted by
    one ``%`` operation, with "n,t," spliced in front of every line.
    ``"%.17g" % v`` and ``_fmt(v)`` give the same text for every double.
    """
    tail = "".join(f"%s{label},%.17g\n" for label in labels)
    fields = [None] * (2 * len(labels))
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for n, values in enumerate(levels):
            fields[0::2] = [f"{n},{_fmt(n * dt)},"] * len(labels)
            fields[1::2] = values.tolist()
            fh.write(tail % tuple(fields))


def write_state_csv(path, problem, state):
    g = problem.grid
    x = grid_nodes(g)
    labels = [f"{j},{_fmt(x[j])}" for j in range(g.H + 1)]
    _write_levels(path, "n,t,j,x,y\n", g.dt, labels, state.values.T)


def write_controls_csv(path, problem, control):
    g = problem.grid
    x = grid_nodes(g)
    labels = [f"{k},{_fmt(x[j])}" for k, j in enumerate(control_indices(g))]
    _write_levels(path, "n,t,k,x_k,v\n", g.dt, labels, control.values.T)


def write_convergence_csv(path, report):
    with open(path, "w", newline="") as fh:
        fh.write("m,J,J_control,J_running,J_terminal,grad_ratio\n")
        for m, (c, ratio) in enumerate(zip(report.cost_history, report.grad_ratio_history)):
            fh.write(
                f"{m},{_fmt(c.total)},{_fmt(c.control_term)},{_fmt(c.running_term)},"
                f"{_fmt(c.terminal_term)},{_fmt(ratio)}\n"
            )


_SUMMARY_KEYS = (
    "M",
    "iterations",
    "status",
    "J_total",
    "control_energy",
    "terminal_norm",
    "uncontrolled_terminal_norm",
    "cfl_ratio",
)


def write_summary_txt(path, row):
    optional = {
        "J_total": None if row.cost is None else row.cost.total,
        "control_energy": row.control_energy,
        "terminal_norm": row.terminal_norm,
        "uncontrolled_terminal_norm": row.uncontrolled_terminal_norm,
    }
    values = {
        "M": str(row.M),
        "iterations": str(row.iterations),
        "status": row.status,
        **{key: "nan" if v is None else _fmt(v) for key, v in optional.items()},
        "cfl_ratio": _fmt(row.cfl_ratio),
    }
    with open(path, "w", newline="") as fh:
        for key in _SUMMARY_KEYS:
            fh.write(f"{key}={values[key]}\n")


def run_experiment(spec):
    """Run the optimizer once per control count and write all output files.

    Returns one ExperimentSummary per control count, in the order requested.
    check_stability applies the stability policy first, so a refused grid
    raises ConfigurationError before any solve.  A solver failure is
    recorded in its run's row, status "blow_up" or "curvature_loss" (the
    exception's ``status``), and does not abort the remaining runs.
    """
    phys = spec.problem.phys
    base_grid = spec.problem.grid
    ratio = check_stability(spec.problem)
    y0 = make_initial_condition(spec.ic, base_grid)
    key = _base_key(phys, base_grid, spec.ic)

    # The uncontrolled baseline does not involve controls, so one solve
    # serves every control count.  If it blows up, its norm stays None: each
    # count's first CG sweep is the same zero-control march, and its row
    # records the blow-up.
    uncontrolled_norm = None
    with suppress(SolverBlowUpError):
        baseline = solve_state(spec.problem, y0, ControlField.zeros(base_grid))
        uncontrolled_norm = _terminal_norm(base_grid, baseline.terminal)

    rows = []
    for problem in DiscreteProblem.for_counts(phys, base_grid.N, base_grid.H, spec.control_counts):
        m = problem.grid.M
        run_dir = spec.output_dir / f"{spec.ic.kind}_{m}"
        run_dir.mkdir(parents=True, exist_ok=True)

        # A failed row differs from a solved one only in its metrics.
        try:
            control, report = cg_solve(problem, y0, spec.cg)
        except (SolverBlowUpError, CurvatureLossError) as exc:
            metrics = dict(status=exc.status, iterations=0, error=str(exc))
        else:
            metrics = dict(
                status=report.status,
                iterations=report.iterations,
                cost=report.cost_history[-1],
                control_energy=inner_product(problem.grid, control, control),
                terminal_norm=_terminal_norm(problem.grid, report.state.terminal),
                control=control,
                report=report,
            )
            write_state_csv(run_dir / "state.csv", problem, report.state)
            write_controls_csv(run_dir / "controls.csv", problem, control)
            write_convergence_csv(run_dir / "convergence.csv", report)
        row = ExperimentSummary(
            M=m,
            cfl_ratio=ratio,
            base_key=key,
            uncontrolled_terminal_norm=uncontrolled_norm,
            run_dir=run_dir,
            **metrics,
        )
        write_summary_txt(run_dir / "summary.txt", row)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ComparisonRow:
    controls: int
    J_total: float
    control_energy: float
    terminal_norm: float
    best: bool


@dataclass(frozen=True)
class ComparisonTable:
    """Cross-control-count comparison; ``tie`` marks a shared minimum."""

    rows: tuple
    tie: bool

    def format(self):
        header = f"{'controls':>8}  {'J_total':>14}  {'control_energy':>14}  {'terminal_norm':>14}  best"
        lines = [header]
        for r in self.rows:
            mark = "*" if r.best else ""
            lines.append(
                f"{r.controls:>8}  {r.J_total:>14.6g}  {r.control_energy:>14.6g}  "
                f"{r.terminal_norm:>14.6g}  {mark:>4}"
            )
        if self.tie:
            lines.append("tie: several control counts reach the minimal terminal norm")
        return "\n".join(lines)

    def csv_lines(self):
        lines = ["controls,J_total,control_energy,terminal_norm,best"]
        for r in self.rows:
            lines.append(
                f"{r.controls},{_fmt(r.J_total)},{_fmt(r.control_energy)},"
                f"{_fmt(r.terminal_norm)},{int(r.best)}"
            )
        return lines


def compare_controls(summaries):
    """Reduce per-run summaries from one experiment to a comparison table.

    Requires at least two comparable rows (same initial condition, physics,
    and grid; blow-up rows carry no metrics and are rejected).
    """
    if len(summaries) < 2:
        raise ValueError("need at least two runs to compare control counts")
    keys = {row.base_key for row in summaries}
    if len(keys) != 1:
        raise ValueError("summaries come from different experiments; refusing to compare")
    for row in summaries:
        if row.cost is None or row.terminal_norm is None:
            raise ValueError(f"run with M={row.M} has no metrics (status {row.status})")

    ordered = sorted(summaries, key=lambda row: row.M)
    best_norm = min(row.terminal_norm for row in ordered)
    flags = [row.terminal_norm == best_norm for row in ordered]
    rows = tuple(
        ComparisonRow(
            controls=row.M + 1,
            J_total=row.cost.total,
            control_energy=row.control_energy,
            terminal_norm=row.terminal_norm,
            best=flag,
        )
        for row, flag in zip(ordered, flags)
    )
    return ComparisonTable(rows=rows, tie=sum(flags) > 1)
