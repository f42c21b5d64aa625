"""Outside-in tracing of the adrcontrol layers and the per-layer metrics.

The package's modules bind each other's functions by name
(``from .solvers import solve_state``), so replacing ``solvers.solve_state``
alone would miss every call from ``optimizer`` and ``harness``.  ``install``
therefore wraps every public function of the timed modules under every name
any package module holds for it.  Each call records a span (layer, function,
parent span, start, end); spans stay in memory until ``layer_metrics``
reduces them.  The program's source is not edited.

``solve_perturbation`` calls ``solve_state``: that nested span is part of the
perturbation sweep, so a sweep is counted only when its parent is not itself
a sweep, and self times subtract child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# The timed layers, by module.  cli and instability are not timed: their
# work is negligible beside the march.
LAYERS = ("solvers", "objective", "optimizer", "harness")
SWEEPS = ("solve_state", "solve_perturbation", "solve_adjoint")
WRITERS = {
    "write_state_csv": "write_state_s",
    "write_controls_csv": "write_controls_s",
    "write_convergence_csv": "write_small_s",
    "write_summary_txt": "write_small_s",
}

# Names and units of every per-layer metric, in report order.
METRICS = {
    "solvers.state_sweeps": "count",
    "solvers.perturbation_sweeps": "count",
    "solvers.adjoint_sweeps": "count",
    "solvers.state_ms": "ms",
    "solvers.perturbation_ms": "ms",
    "solvers.adjoint_ms": "ms",
    "solvers.mnode_updates_per_s": "Mnode/s",
    "solvers.gb_per_s_computed": "GB/s",
    "optimizer.cg_iterations": "count",
    "optimizer.sweeps_per_iteration": "count",
    "optimizer.cg_self_s": "s",
    "optimizer.cost_rise_rel": "ratio",
    "objective.cost_calls": "count",
    "objective.cost_s": "s",
    "objective.gradient_s": "s",
    "harness.baseline_s": "s",
    "harness.extra_state_sweeps": "count",
    "harness.write_state_s": "s",
    "harness.write_controls_s": "s",
    "harness.write_small_s": "s",
    "harness.bytes_written": "B",
    "harness.write_mb_per_s": "MB/s",
    "harness.self_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


class Span:
    __slots__ = ("layer", "name", "parent", "start", "end", "grid", "iterations")

    def __init__(self, layer, name, parent, grid):
        self.layer, self.name, self.parent, self.grid = layer, name, parent, grid
        self.start = self.end = 0.0
        self.iterations = 0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, fn, layer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            grid = getattr(args[0], "grid", None) if args else None
            span = Span(layer, fn.__name__, stack[-1] if stack else None, grid)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if fn.__name__ == "cg_solve":
                span.iterations = result[1].iterations
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("adrcontrol")]
        modules += [importlib.import_module(f"adrcontrol.{m}") for m in (*LAYERS, "cli")]
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"adrcontrol.{layer}")
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[fn] = self._wrap(fn, layer)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[obj])

    def uninstall(self):
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()


def _is_sweep(span):
    return span.layer == "solvers" and span.name in SWEEPS


def _ancestors(span):
    while span.parent is not None:
        span = span.parent
        yield span


def _sweep_cost(span):
    """(node updates, computed bytes read + written) of one sweep."""
    g = span.grid
    H, N, M = g.H, g.N, g.M
    state_bytes = 8 * (H + 3) * (N + 2)
    if span.name == "solve_adjoint":
        return (H + 1) * N, state_bytes + 8 * (H + 3) * (N + 1)
    return (H + 1) * (N + 1), 8 * ((M + 1) * (N + 1) + (H + 1)) + state_bytes


def _median_ms(spans):
    return 1e3 * statistics.median(s.seconds for s in spans) if spans else 0.0


def layer_metrics(spans, traced_wall_s, bytes_written):
    """Per-layer metrics of one traced workload run (overhead excluded)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds

    def self_s(s):
        return s.seconds - child_time.get(s, 0.0)

    sweeps = [s for s in spans if _is_sweep(s) and not (s.parent and _is_sweep(s.parent))]
    by_kind = {k: [s for s in sweeps if s.name == k] for k in SWEEPS}
    in_cg = [s for s in sweeps if any(a.name == "cg_solve" for a in _ancestors(s))]
    sweep_s = sum(s.seconds for s in sweeps)
    updates = sum(_sweep_cost(s)[0] for s in sweeps)
    moved = sum(_sweep_cost(s)[1] for s in sweeps)
    cg = [s for s in spans if s.name == "cg_solve"]
    iterations = sum(s.iterations for s in cg)

    # A run_experiment's first state sweep outside CG is its uncontrolled
    # baseline; any later one repeats work CG already did.
    baseline, extra = [], 0
    for run in (s for s in spans if s.name == "run_experiment"):
        own = [s for s in by_kind["solve_state"] if s.parent is run]
        baseline += own[:1]
        extra += len(own[1:])

    harness = [s for s in spans if s.layer == "harness"]
    writes = {key: 0.0 for key in set(WRITERS.values())}
    for s in harness:
        if s.name in WRITERS:
            writes[WRITERS[s.name]] += s.seconds
    write_s = sum(writes.values())
    top = sum(s.seconds for s in spans if s.parent is None)

    return {
        "solvers.state_sweeps": len(by_kind["solve_state"]),
        "solvers.perturbation_sweeps": len(by_kind["solve_perturbation"]),
        "solvers.adjoint_sweeps": len(by_kind["solve_adjoint"]),
        "solvers.state_ms": _median_ms(by_kind["solve_state"]),
        "solvers.perturbation_ms": _median_ms(by_kind["solve_perturbation"]),
        "solvers.adjoint_ms": _median_ms(by_kind["solve_adjoint"]),
        "solvers.mnode_updates_per_s": updates / sweep_s / 1e6 if sweep_s else 0.0,
        "solvers.gb_per_s_computed": moved / sweep_s / 1e9 if sweep_s else 0.0,
        "optimizer.cg_iterations": iterations,
        "optimizer.sweeps_per_iteration": len(in_cg) / iterations if iterations else 0.0,
        "optimizer.cg_self_s": sum(self_s(s) for s in cg),
        "objective.cost_calls": sum(1 for s in spans if s.name == "cost"),
        "objective.cost_s": sum(s.seconds for s in spans if s.name == "cost"),
        "objective.gradient_s": sum(s.seconds for s in spans if s.name == "gradient"),
        "harness.baseline_s": sum(s.seconds for s in baseline),
        "harness.extra_state_sweeps": extra,
        **{f"harness.{key}": value for key, value in writes.items()},
        "harness.bytes_written": bytes_written,
        "harness.write_mb_per_s": bytes_written / write_s / 1e6 if write_s else 0.0,
        "harness.self_s": sum(self_s(s) for s in harness if s.name not in WRITERS),
        "trace.unattributed_s": traced_wall_s - top,
    }
