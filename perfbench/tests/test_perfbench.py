"""Self-tests of the benchmark: the Riccati oracle, the span reduction and
the metric set, on grids small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
from adrcontrol import ControlField, DiscreteProblem, PhysicalConfig, harness, optimizer, solvers
from adrcontrol import solve_state, stable_step_count
from workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_problem(H=4, M=2, **phys):
    p = PhysicalConfig(**phys)
    return DiscreteProblem.create(p, stable_step_count(p, H), H, M)


def test_oracle_self_check_passes():
    assert oracle.self_check() == []


def test_step_matrices_match_the_documented_stencil_and_the_march():
    problem = tiny_problem(H=10, M=5)
    A, B = oracle.step_matrices(problem)
    assert oracle.check_step_matrices(problem, A, B) == []


def test_terminal_of_a_one_step_problem_is_two_steps():
    problem = tiny_problem()
    A, _ = oracle.step_matrices(problem)
    g = problem.grid
    one = DiscreteProblem.create(replace(problem.phys, T=g.dt), 1, g.H, g.M)
    e = np.zeros(g.H + 1)
    e[1] = 1.0
    terminal = solve_state(one, e, ControlField.zeros(one.grid)).terminal
    np.testing.assert_allclose(terminal, (A @ A)[:, 1], rtol=0, atol=1e-14)


def test_riccati_optimum_matches_a_dense_solve():
    """Minimize the quadratic J over the stacked control directly, column by column."""
    problem = tiny_problem()
    g, p = problem.grid, problem.phys
    y0 = np.array([0.3, -1.0, 2.0, 0.5, -0.7])
    n_controls = (g.M + 1) * (g.N + 1)
    zero = np.zeros((g.M + 1, g.N + 1))
    free = solve_state(problem, y0, ControlField(zero)).interior.ravel()
    S = np.empty((free.size, n_controls))
    for i in range(n_controls):
        v = zero.copy()
        v.flat[i] = 1.0
        S[:, i] = solve_state(problem, np.zeros(g.H + 1), ControlField(v)).interior.ravel()
    w = np.full((g.H + 1, g.N + 2), p.k1 * g.dt * g.h)
    w[:, -1] = p.k2 * g.h
    w = w.ravel()
    r = p.k0 * g.dt
    v = np.linalg.solve(r * np.eye(n_controls) + S.T @ (w[:, None] * S), -S.T @ (w * free))
    y = free + S @ v
    j_dense = 0.5 * r * v @ v + 0.5 * np.sum(w * y * y)
    assert oracle.Oracle(problem).j_opt(y0) == pytest.approx(j_dense, rel=1e-10)


def test_oracle_cache_round_trip(tmp_path):
    problem = tiny_problem()
    first = oracle.Oracle(problem, cache_dir=tmp_path)
    (cached,) = tmp_path.glob("p0-*.npy")
    again = oracle.Oracle(problem, cache_dir=tmp_path)
    np.testing.assert_array_equal(first.P0, again.P0)
    assert list(tmp_path.glob("p0-*.npy")) == [cached]


def _span(layer, name, parent, start, end, grid=None, iterations=0):
    s = spans.Span(layer, name, parent, grid)
    s.start, s.end, s.iterations = start, end, iterations
    return s


def test_layer_metrics_count_nested_sweeps_once():
    grid = tiny_problem().grid
    run_ = _span("harness", "run_experiment", None, 0.0, 10.0)
    base = _span("solvers", "solve_state", run_, 0.0, 1.0, grid)
    cg = _span("optimizer", "cg_solve", run_, 1.0, 6.0, iterations=1)
    first = _span("solvers", "solve_state", cg, 1.0, 2.0, grid)
    adj0 = _span("solvers", "solve_adjoint", cg, 2.0, 3.0, grid)
    pert = _span("solvers", "solve_perturbation", cg, 3.0, 4.0, grid)
    nested = _span("solvers", "solve_state", pert, 3.0, 3.9, grid)
    adj1 = _span("solvers", "solve_adjoint", cg, 4.0, 5.0, grid)
    extra = _span("solvers", "solve_state", run_, 6.0, 7.0, grid)
    write = _span("harness", "write_state_csv", run_, 7.0, 9.0)
    all_spans = [run_, base, cg, first, adj0, pert, nested, adj1, extra, write]
    m = spans.layer_metrics(all_spans, traced_wall_s=10.5, bytes_written=4_000_000)
    assert m["solvers.state_sweeps"] == 3
    assert m["solvers.perturbation_sweeps"] == 1
    assert m["solvers.adjoint_sweeps"] == 2
    assert m["optimizer.sweeps_per_iteration"] == 4
    assert m["optimizer.cg_self_s"] == pytest.approx(1.0)
    assert m["harness.baseline_s"] == pytest.approx(1.0)
    assert m["harness.extra_state_sweeps"] == 1
    assert m["harness.write_state_s"] == pytest.approx(2.0)
    assert m["harness.write_mb_per_s"] == pytest.approx(2.0)
    assert m["harness.self_s"] == pytest.approx(1.0)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert set(m) | {"trace.overhead_pct", "optimizer.cost_rise_rel"} == set(spans.METRICS)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (optimizer.solve_state, harness.solve_state, solvers.solve_state, harness.cg_solve)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert optimizer.solve_state is not originals[0]
        assert harness.solve_state is solvers.solve_state is not originals[2]
        assert harness.cg_solve is optimizer.cg_solve
    finally:
        tracer.uninstall()
    assert (optimizer.solve_state, harness.solve_state, solvers.solve_state, harness.cg_solve) == originals


# At H = 10 the adjoint's O(h) inconsistency is large, so the gap and the
# cost's rises between iterations get coarse-grid limits.
def test_scaled_times_read_at_reference_speed():
    ref = run.REFERENCE_S
    assert run.scaled([2.0, 3.0], [ref, ref, ref]) == pytest.approx(5.0)
    # A CPU running at half speed takes twice as long on both.
    assert run.scaled([4.0], [2 * ref, 2 * ref]) == pytest.approx(2.0)


TINY = {
    "cg": Workload("tiny_cg", 10, 1e-3, (2, 5), ("sine1",), False, 0.05, 1e-3),
    "files": Workload("tiny_files", 10, 1e-3, (2,), ("pulse", "sine1"), True, 0.05, 1e-3),
}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")
    saved, run.CACHE_DIR = run.CACHE_DIR, cache
    try:
        return {
            (kind, trace): run.run(w, seed=7, seconds=0, trace=trace, work=tmp_path_factory.mktemp(kind))
            for kind, w in TINY.items()
            for trace in (0, 1)
        }
    finally:
        run.CACHE_DIR = saved


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_listed_metric_is_emitted(tiny_runs, kind, trace):
    out = tiny_runs[kind, trace]
    assert out["notes"] == [] and out["failed"] == 0 and out["attempted"] >= 1
    metrics = out["metrics"]
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in listed}
    units = spans.METRICS if trace else run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in listed} == units


def test_harness_layers_are_zero_without_files(tiny_runs):
    cg = tiny_runs["cg", 1]["metrics"]
    files = tiny_runs["files", 1]["metrics"]
    writes = [n for n in spans.METRICS if n.startswith("harness.")]
    assert all(cg[n] == 0 for n in writes)
    assert files["harness.bytes_written"] > 0 and files["harness.write_state_s"] > 0
    for m in (cg, files):
        assert m["solvers.perturbation_sweeps"] == m["optimizer.cg_iterations"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refine_h200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
