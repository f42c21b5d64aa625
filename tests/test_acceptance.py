"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Each test emits a single `ACCEPTANCE <name>: PASS|FAIL` line outside the
capture machinery so a plain pytest run shows the verdict table, then
asserts, so the suite stays a genuine gate.

The reference values for the Euler reaction demo are compared within one
unit in the last printed digit of the reference table.  One entry of the
upper branch (n = 6) genuinely disagrees: exact float64 evaluation of the
recursion gives 5011408.36, eleven printed units away from the quoted
5.0103e6, which is reproducible only by re-running the recursion from
display-rounded intermediate values.  That failure is reported honestly.
"""

import time

import numpy as np
import pytest

from adrcontrol import (
    CGConfig,
    ControlField,
    DiscreteProblem,
    ExperimentSpec,
    InitialCondition,
    PhysicalConfig,
    ReactionParams,
    cfl_ratio,
    cg_solve,
    compare_controls,
    euler_iterate,
    gradient,
    inner_product,
    run_experiment,
    solve_adjoint,
    solve_perturbation,
    solve_state,
    stable_step_count,
)
from adrcontrol.objective import cost

from conftest import make_problem, smooth_probe_set, smooth_profile


def verdict(capsys, name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    return ok


# reference table entries as (index, printed value, unit of last printed digit)
UPPER_REFERENCE = [
    (1, 0.20517, 1e-5),
    (2, 0.4329, 1e-4),
    (3, 0.97464, 1e-5),
    (4, 2.6248, 1e-4),
    (5, 15.427, 1e-3),
    (6, 5.0103e6, 1e2),
]
LOWER_REFERENCE = [
    (1, -0.19516, 1e-5),
    (2, -0.37246, 1e-5),
    (3, -0.68342, 1e-5),
    (4, -1.1785, 1e-4),
    (5, -1.8708, 1e-4),
    (6, -2.7168, 1e-4),
    (7, -3.6507, 1e-4),
    (8, -4.6247, 1e-4),
    (9, -5.6149, 1e-4),
    (10, -6.6113, 1e-4),
    (11, -7.6100, 1e-4),
]
OVERFLOW_LOG10_REFERENCE = 2.176e6


EXPERIMENTS = {
    "pulse": InitialCondition(kind="pulse", amplitude=10.0, support=(0.4, 0.6)),
    "sine5": InitialCondition(kind="sine", amplitude=10.0, frequency=5),
    "sine1": InitialCondition(kind="sine", amplitude=10.0, frequency=1),
}


@pytest.fixture(scope="module")
def default_rows(tmp_path_factory):
    """All benchmark experiments at default settings, with wall time."""
    phys = PhysicalConfig()
    H = 100
    N = stable_step_count(phys, H)
    out_root = tmp_path_factory.mktemp("acceptance")
    started = time.perf_counter()
    results = {}
    for name, ic in EXPERIMENTS.items():
        spec = ExperimentSpec(
            problem=DiscreteProblem.create(phys, N, H, 2),
            ic=ic,
            cg=CGConfig(),
            control_counts=(2, 4, 10),
            output_dir=out_root / name,
        )
        results[name] = run_experiment(spec)
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_instability_tables(capsys):
    started = time.perf_counter()
    upper = euler_iterate(ReactionParams(dphi=0.1, steps=12))
    lower = euler_iterate(ReactionParams(dphi=-0.1, steps=11))
    elapsed = time.perf_counter() - started

    failures = []
    for n, ref, unit in UPPER_REFERENCE:
        got = upper[n].phi
        off = abs(got - ref) / unit
        if off > 1.0:
            failures.append(
                f"upper n={n}: computed {got!r} vs printed {ref!r}, "
                f"{off:.2f} units in the last printed digit"
            )
    for n, ref, unit in LOWER_REFERENCE:
        got = lower[n].phi
        off = abs(got - ref) / unit
        if off > 1.0:
            failures.append(
                f"lower n={n}: computed {got!r} vs printed {ref!r}, "
                f"{off:.2f} units in the last printed digit"
            )

    overflow = upper[7]
    if overflow.phi is not None or overflow.log10_magnitude is None:
        failures.append("upper n=7 did not report overflow")
    else:
        rel = abs(overflow.log10_magnitude - OVERFLOW_LOG10_REFERENCE) / OVERFLOW_LOG10_REFERENCE
        if rel > 1e-3:
            failures.append(f"overflow magnitude off by {rel:.2e} relative")
    if elapsed > 0.5:
        failures.append(f"took {elapsed:.3f} s, expected milliseconds")

    ok = verdict(
        capsys,
        "instability-tables",
        not failures,
        failures[0] if failures else f"19 entries within one printed unit, {elapsed * 1e3:.1f} ms",
    )
    assert ok, (
        "table reproduction failures:\n  " + "\n  ".join(failures)
        + "\n  exact evaluation of the recursion (verified against 50-digit arithmetic)"
        " gives 5011408.359... at n=6; the printed 5.0103e6 arises only when each"
        " iterate is re-entered in display-rounded form"
    )


def test_criterion_gradient_fd_agreement(capsys):
    def relative_error(H, N):
        p = make_problem(N=N, H=H, M=2)
        assert cfl_ratio(p) <= 0.5
        g = p.grid
        v, dv, y0 = smooth_probe_set(g, p.phys, seed=0)
        grad = gradient(p, v, solve_adjoint(p, solve_state(p, y0, v)))
        directional = inner_product(g, grad, dv)
        sigma = 1e-5
        plus = ControlField(v.values + sigma * dv.values)
        minus = ControlField(v.values - sigma * dv.values)
        J_plus = cost(p, plus, solve_state(p, y0, plus)).total
        J_minus = cost(p, minus, solve_state(p, y0, minus)).total
        fd = (J_plus - J_minus) / (2.0 * sigma)
        return abs(directional - fd) / abs(fd)

    started = time.perf_counter()
    coarse = relative_error(10, 100)
    fine = relative_error(20, 200)
    elapsed = time.perf_counter() - started
    ratio = coarse / fine

    ok = verdict(
        capsys,
        "gradient-fd-agreement",
        coarse < 5e-2 and ratio >= 1.8 and elapsed < 5.0,
        f"rel={coarse:.3e}, refinement ratio={ratio:.2f}, {elapsed:.2f} s",
    )
    assert coarse < 5e-2
    assert ratio >= 1.8
    assert elapsed < 5.0
    assert ok


def test_criterion_cg_exact_termination(capsys):
    p = make_problem(mu=0.1, eps=0.0, N=2, H=4, M=2)
    g = p.grid
    dim = (g.M + 1) * (g.N + 1)
    assert dim == 9
    y0 = smooth_profile(g, p.phys.L, np.array([1.0, 0.2, -0.5]))

    started = time.perf_counter()
    u, report = cg_solve(p, y0, CGConfig(tol=1e-10, max_iter=50))

    A = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        w = ControlField(e.reshape(g.M + 1, g.N + 1))
        A[:, i] = gradient(p, w, solve_adjoint(p, solve_perturbation(p, w))).values.ravel()
    state0 = solve_state(p, y0, ControlField.zeros(g))
    g0 = gradient(p, ControlField.zeros(g), solve_adjoint(p, state0)).values.ravel()
    exact = np.linalg.solve(A, -g0)
    elapsed = time.perf_counter() - started

    rel = np.linalg.norm(u.values.ravel() - exact) / np.linalg.norm(exact)
    ok = verdict(
        capsys,
        "cg-exact-termination",
        report.status == "converged" and report.iterations <= 11 and rel < 1e-8 and elapsed < 1.0,
        f"{report.iterations} iterations, dense match rel={rel:.2e}, {elapsed:.2f} s",
    )
    assert report.status == "converged"
    assert report.iterations <= 11
    assert rel < 1e-8
    assert elapsed < 1.0
    assert ok


def test_criterion_monotone_descent(default_rows, capsys):
    rows, elapsed = default_rows
    failures = []
    for name, experiment in rows.items():
        for row in experiment:
            if row.status != "converged":
                failures.append(f"{name} M={row.M}: status {row.status}")
                continue
            totals = [c.total for c in row.report.cost_history]
            for m, (a, b) in enumerate(zip(totals, totals[1:])):
                if b > a * (1.0 + 1e-12):
                    failures.append(f"{name} M={row.M}: cost rose at iterate {m + 1}")
    if elapsed > 120.0:
        failures.append(f"experiments took {elapsed:.1f} s, budget 120 s")
    ok = verdict(
        capsys,
        "monotone-descent",
        not failures,
        failures[0] if failures else f"9 runs converged monotonically in {elapsed:.1f} s",
    )
    assert ok, "\n".join(failures)


def test_criterion_control_effectiveness(default_rows, capsys):
    rows, _ = default_rows
    failures = []
    for name, experiment in rows.items():
        for row in experiment:
            if not row.terminal_norm < row.uncontrolled_terminal_norm:
                failures.append(
                    f"{name} M={row.M}: terminal {row.terminal_norm} vs "
                    f"uncontrolled {row.uncontrolled_terminal_norm}"
                )
    worst = max(
        row.terminal_norm / row.uncontrolled_terminal_norm
        for experiment in rows.values()
        for row in experiment
    )
    ok = verdict(
        capsys,
        "control-effectiveness",
        not failures,
        failures[0] if failures else f"worst residual fraction {worst:.3f} of uncontrolled",
    )
    assert ok, "\n".join(failures)


def test_criterion_linearity_and_determinism(tmp_path, capsys):
    p = make_problem(N=200, H=20, M=2)
    rng = np.random.default_rng(101)
    va = ControlField(rng.standard_normal((3, 201)))
    vb = ControlField(rng.standard_normal((3, 201)))
    both = solve_perturbation(p, ControlField(va.values + vb.values)).values
    split = solve_perturbation(p, va).values + solve_perturbation(p, vb).values
    scale = np.max(np.abs(split))
    superposition = np.max(np.abs(both - split)) / scale

    q = make_problem(N=168, H=20, M=2)
    y0 = smooth_profile(q.grid, q.phys.L, np.array([0.8, -0.3, 0.4]))
    u1, r1 = cg_solve(q, y0, CGConfig(tol=1e-8))
    u2, r2 = cg_solve(q, 2.5 * y0, CGConfig(tol=1e-8))
    scaling = np.linalg.norm(u2.values - 2.5 * u1.values) / np.linalg.norm(u1.values)

    u3, r3 = cg_solve(q, y0, CGConfig(tol=1e-8))
    cg_bitwise = bool(np.array_equal(u1.values, u3.values)) and r1 == r3

    ic = InitialCondition(kind="sine", amplitude=1.0, frequency=1)
    files_identical = True
    specs = []
    for leaf in ("first", "second"):
        spec = ExperimentSpec(
            problem=make_problem(N=50, H=10, M=2),
            ic=ic,
            cg=CGConfig(tol=1e-2),
            control_counts=(2, 5),
            output_dir=tmp_path / leaf,
        )
        specs.append(run_experiment(spec))
    for row_a, row_b in zip(*specs):
        for name in ("state.csv", "controls.csv", "convergence.csv", "summary.txt"):
            a = (row_a.run_dir / name).read_bytes()
            b = (row_b.run_dir / name).read_bytes()
            if a != b:
                files_identical = False

    ok = verdict(
        capsys,
        "linearity-determinism",
        superposition < 1e-12 and scaling < 1e-8 and cg_bitwise and files_identical,
        f"superposition={superposition:.2e}, y0-scaling={scaling:.2e}, "
        f"bitwise reruns={'yes' if cg_bitwise and files_identical else 'no'}",
    )
    assert superposition < 1e-12
    assert scaling < 1e-8
    assert cg_bitwise
    assert files_identical
    assert ok


def test_criterion_observation_tables(default_rows, capsys):
    rows, _ = default_rows
    recorded = {}
    with capsys.disabled():
        for name, experiment in rows.items():
            table = compare_controls(experiment)
            recorded[name] = table
            print(f"ACCEPTANCE observations [{name}]:")
            for line in table.format().splitlines():
                print(f"  {line}")

    # structural checks only: the comparison is a recorded observation
    ok = True
    for name, table in recorded.items():
        ok = ok and [r.controls for r in table.rows] == [3, 5, 11]
        ok = ok and sum(r.best for r in table.rows) >= 1
    ok = verdict(capsys, "observation-tables", ok, "tables recorded for pulse, sine5, sine1")
    for name, table in recorded.items():
        assert [r.controls for r in table.rows] == [3, 5, 11]
        assert sum(r.best for r in table.rows) >= 1
    assert ok
