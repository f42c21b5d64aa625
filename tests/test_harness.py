import dataclasses

import numpy as np
import pytest

from adrcontrol import (
    CGConfig,
    ConfigurationError,
    ControlField,
    DiscreteProblem,
    ExperimentSpec,
    InitialCondition,
    PhysicalConfig,
    CurvatureLossError,
    SolverBlowUpError,
    cg_solve,
    compare_controls,
    grid_nodes,
    make_initial_condition,
    run_experiment,
    solve_state,
)
from adrcontrol import harness
from adrcontrol.harness import _SUMMARY_KEYS, STATUS_BLOWUP, write_controls_csv, write_state_csv
from adrcontrol.solvers import StateField


def small_problem(mu=0.1, eps=0.1, N=50, H=10, M=2, **weights):
    phys = PhysicalConfig(mu=mu, eps=eps, **weights)
    return DiscreteProblem.create(phys, N=N, H=H, M=M)


def small_spec(out, ic=None, counts=(2, 5), tol=1e-2, **problem_kwargs):
    if ic is None:
        ic = InitialCondition(kind="sine", amplitude=1.0, frequency=1)
    problem = small_problem(M=counts[0], **problem_kwargs)
    return ExperimentSpec(
        problem=problem,
        ic=ic,
        cg=CGConfig(tol=tol),
        control_counts=counts,
        output_dir=out,
    )


def read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [line.strip().split(",") for line in fh if line.strip()]
    return header, data


def read_summary(path):
    with open(path) as fh:
        pairs = [line.strip().split("=", 1) for line in fh if line.strip()]
    return [p[0] for p in pairs], dict(pairs)


def _fmt(x):
    return format(float(x), ".17g")


def reference_state_csv(path, problem, state):
    """Row-by-row state writer, one formatted line per node and level."""
    g = problem.grid
    x = grid_nodes(g)
    with open(path, "w", newline="") as fh:
        fh.write("n,t,j,x,y\n")
        for n in range(g.N + 2):
            t = _fmt(n * g.dt)
            column = state.values[:, n]
            for j in range(g.H + 1):
                fh.write(f"{n},{t},{j},{_fmt(x[j])},{_fmt(column[j])}\n")


def reference_controls_csv(path, problem, control):
    """Row-by-row controls writer, one formatted line per signal and level."""
    g = problem.grid
    x = grid_nodes(g)
    step = g.H // g.M
    v = control.values
    with open(path, "w", newline="") as fh:
        fh.write("n,t,k,x_k,v\n")
        for n in range(g.N + 1):
            t = _fmt(n * g.dt)
            for k in range(g.M + 1):
                fh.write(f"{n},{t},{k},{_fmt(x[k * step])},{_fmt(v[k, n])}\n")


class TestWriters:
    SPECIAL = [-0.0, 5e-324, 1e-300, 1e300, 1.0, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, 123456789.12345678, -1e-5]

    def values(self, shape, seed):
        """Random values over many decades, starting with SPECIAL."""
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        v.flat[: len(self.SPECIAL)] = self.SPECIAL
        return v

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_state_csv_is_byte_identical_to_row_writer(self, tmp_path, order):
        p = small_problem(N=7, H=6, M=3)
        state = StateField(np.array(self.values((7, 9), 1), order=order))
        write_state_csv(tmp_path / "fast.csv", p, state)
        reference_state_csv(tmp_path / "ref.csv", p, state)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_controls_csv_is_byte_identical_to_row_writer(self, tmp_path, order):
        p = small_problem(N=7, H=6, M=3)
        control = ControlField(np.array(self.values((4, 8), 2), order=order))
        write_controls_csv(tmp_path / "fast.csv", p, control)
        reference_controls_csv(tmp_path / "ref.csv", p, control)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestInitialCondition:
    def test_sine_sample_values(self):
        p = small_problem(H=10)
        ic = InitialCondition(kind="sine", amplitude=10.0, frequency=5)
        y0 = make_initial_condition(ic, p.grid)
        # x = 0.1: 10*sin(5*pi*0.1) = 10*sin(pi/2)
        assert y0[1] == pytest.approx(10.0, rel=1e-12)
        assert y0[0] == 0.0
        assert abs(y0[10]) < 1e-12

    def test_single_half_wave_is_symmetric_and_positive(self):
        p = small_problem(H=10)
        y0 = make_initial_condition(InitialCondition(kind="sine", amplitude=2.0, frequency=1), p.grid)
        assert np.all(y0[1:-1] > 0.0)
        assert y0[3] == pytest.approx(y0[7], rel=1e-12)
        assert y0[5] == pytest.approx(2.0, rel=1e-12)

    def test_pulse_covers_closed_support(self):
        p = small_problem(H=10)
        ic = InitialCondition(kind="pulse", amplitude=10.0, support=(0.4, 0.6))
        y0 = make_initial_condition(ic, p.grid)
        assert np.array_equal(y0, 10.0 * np.isin(np.arange(11), [4, 5, 6]))

    def test_pulse_endpoint_membership_uses_grid_nodes(self):
        p = small_problem(H=10)
        x = grid_nodes(p.grid)
        ic = InitialCondition(kind="pulse", amplitude=1.0, support=(float(x[4]), float(x[6])))
        y0 = make_initial_condition(ic, p.grid)
        assert y0[4] == 1.0 and y0[6] == 1.0

    def test_pulse_support_must_fit_domain(self):
        p = small_problem(H=10)
        ic = InitialCondition(kind="pulse", amplitude=1.0, support=(0.5, 1.5))
        with pytest.raises(ConfigurationError):
            make_initial_condition(ic, p.grid)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "spike", "amplitude": 1.0},
            {"kind": "sine", "amplitude": 1.0},  # missing frequency
            {"kind": "sine", "amplitude": 1.0, "frequency": 0},
            {"kind": "sine", "amplitude": 1.0, "frequency": 2.5},
            {"kind": "sine", "amplitude": 1.0, "frequency": 1, "support": (0.1, 0.2)},
            {"kind": "pulse", "amplitude": 1.0},  # missing support
            {"kind": "pulse", "amplitude": 1.0, "support": (0.6, 0.4)},
            {"kind": "pulse", "amplitude": 1.0, "support": (-0.1, 0.4)},
            {"kind": "pulse", "amplitude": 1.0, "support": (0.1, 0.4), "frequency": 2},
            {"kind": "pulse", "amplitude": float("nan"), "support": (0.1, 0.4)},
        ],
    )
    def test_rejects_inconsistent_descriptions(self, kwargs):
        with pytest.raises(ConfigurationError):
            InitialCondition(**kwargs)


class TestExperimentSpec:
    def test_rejects_count_not_dividing_cells(self, tmp_path):
        with pytest.raises(ConfigurationError):
            small_spec(tmp_path, counts=(2, 3))

    def test_rejects_empty_counts(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(
                problem=small_problem(),
                ic=InitialCondition(kind="sine", amplitude=1.0, frequency=1),
                cg=CGConfig(),
                control_counts=(),
                output_dir=tmp_path,
            )

    def test_rejects_repeated_counts(self, tmp_path):
        with pytest.raises(ConfigurationError, match="repeat"):
            small_spec(tmp_path / "out", counts=(2, 5, 2))
        assert not (tmp_path / "out").exists()


class TestRunExperiment:
    def test_rows_files_and_roundtrip(self, tmp_path):
        spec = small_spec(tmp_path / "out")
        rows = run_experiment(spec)
        assert [row.M for row in rows] == [2, 5]

        for row in rows:
            assert row.status == "converged"
            run_dir = tmp_path / "out" / f"sine_{row.M}"
            assert row.run_dir == run_dir
            for name in ("state.csv", "controls.csv", "convergence.csv", "summary.txt"):
                assert (run_dir / name).is_file()

            g = DiscreteProblem.create(spec.problem.phys, 50, 10, row.M).grid

            header, data = read_table(run_dir / "state.csv")
            assert header == ["n", "t", "j", "x", "y"]
            assert len(data) == (g.N + 2) * (g.H + 1)
            y_read = np.zeros((g.H + 1, g.N + 2))
            for n, t, j, x, y in data:
                y_read[int(j), int(n)] = float(y)
                assert float(t) == int(n) * g.dt
            assert np.array_equal(y_read, row.state.values)

            header, data = read_table(run_dir / "controls.csv")
            assert header == ["n", "t", "k", "x_k", "v"]
            assert len(data) == (g.N + 1) * (g.M + 1)
            v_read = np.zeros((g.M + 1, g.N + 1))
            for n, t, k, xk, v in data:
                v_read[int(k), int(n)] = float(v)
            assert np.array_equal(v_read, row.control.values)

            header, data = read_table(run_dir / "convergence.csv")
            assert header == ["m", "J", "J_control", "J_running", "J_terminal", "grad_ratio"]
            assert len(data) == row.iterations + 1
            totals = [float(r[1]) for r in data]
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(totals, totals[1:]))
            assert float(data[-1][5]) < spec.cg.tol**2

            keys, summary = read_summary(run_dir / "summary.txt")
            assert keys == list(_SUMMARY_KEYS)
            assert summary["M"] == str(row.M)
            assert summary["status"] == "converged"
            assert int(summary["iterations"]) == row.iterations
            assert float(summary["J_total"]) == row.cost.total
            assert float(summary["terminal_norm"]) == row.terminal_norm
            assert float(summary["cfl_ratio"]) == row.cfl_ratio

    def test_uncontrolled_baseline_matches_zero_control_solve(self, tmp_path):
        spec = small_spec(tmp_path / "out")
        rows = run_experiment(spec)
        problem = small_problem(M=2)
        y0 = make_initial_condition(spec.ic, problem.grid)
        baseline = solve_state(problem, y0, ControlField.zeros(problem.grid))
        for row in rows:
            expected_norm = float(
                np.sqrt(problem.grid.h * np.sum(baseline.terminal**2))
            )
            assert row.uncontrolled_terminal_norm == expected_norm
            assert row.terminal_norm < row.uncontrolled_terminal_norm

    def test_state_is_solved_once_per_experiment(self, tmp_path, monkeypatch):
        # The baseline is the only state solve of the harness itself; each
        # run's trajectory comes from cg_solve's report.
        calls = []

        def counting_solve_state(*args):
            calls.append(args)
            return solve_state(*args)

        monkeypatch.setattr(harness, "solve_state", counting_solve_state)
        rows = run_experiment(small_spec(tmp_path / "out", counts=(2, 5, 10)))
        assert len(calls) == 1
        for row in rows:
            assert row.state is row.report.state

    def test_reruns_are_byte_identical(self, tmp_path):
        rows_a = run_experiment(small_spec(tmp_path / "a"))
        rows_b = run_experiment(small_spec(tmp_path / "b"))
        assert [r.M for r in rows_a] == [r.M for r in rows_b]
        for row in rows_a:
            for name in ("state.csv", "controls.csv", "convergence.csv", "summary.txt"):
                a = (tmp_path / "a" / f"sine_{row.M}" / name).read_bytes()
                b = (tmp_path / "b" / f"sine_{row.M}" / name).read_bytes()
                assert a == b

    def test_zero_profile_short_circuits(self, tmp_path):
        ic = InitialCondition(kind="sine", amplitude=0.0, frequency=1)
        rows = run_experiment(small_spec(tmp_path / "out", ic=ic))
        for row in rows:
            assert row.status == "trivial_optimum"
            assert row.iterations == 0
            assert np.all(row.control.values == 0.0)
            assert row.terminal_norm == 0.0

    def test_blow_up_recorded_per_run(self, tmp_path):
        ic = InitialCondition(kind="pulse", amplitude=10.0, support=(0.4, 0.6))
        spec = small_spec(tmp_path / "out", ic=ic, counts=(2, 5), mu=1.0, N=2503, H=50)
        with pytest.warns(UserWarning):
            rows = run_experiment(spec)
        assert [row.M for row in rows] == [2, 5]
        for row in rows:
            assert row.status == STATUS_BLOWUP
            assert row.cost is None and row.terminal_norm is None
            assert "time step" in row.error
            keys, summary = read_summary(row.run_dir / "summary.txt")
            assert keys == list(_SUMMARY_KEYS)
            assert summary["status"] == STATUS_BLOWUP
            assert summary["J_total"] == "nan"

    @pytest.mark.parametrize(
        "failure, status, text",
        [
            (SolverBlowUpError(step=7), STATUS_BLOWUP, "time step 7"),
            (
                CurvatureLossError(iteration=0, curvature=-1.0),
                "curvature_loss",
                "nonpositive curvature -1.000000e+00 in CG iteration 0",
            ),
        ],
        ids=["blow_up", "curvature_loss"],
    )
    def test_blow_up_of_one_count_after_a_sound_baseline(
        self, tmp_path, monkeypatch, failure, status, text
    ):
        def cg_solve_failing_for_m5(problem, y0, config):
            if problem.grid.M == 5:
                raise failure
            return cg_solve(problem, y0, config)

        monkeypatch.setattr(harness, "cg_solve", cg_solve_failing_for_m5)
        spec = small_spec(tmp_path / "out", counts=(2, 5))
        converged, blown = run_experiment(spec)

        assert converged.status == "converged"
        assert converged.uncontrolled_terminal_norm is not None
        assert blown.status == status
        assert blown.iterations == 0
        assert text in blown.error
        assert blown.cost is None and blown.terminal_norm is None and blown.report is None
        assert blown.uncontrolled_terminal_norm == converged.uncontrolled_terminal_norm
        keys, summary = read_summary(blown.run_dir / "summary.txt")
        assert keys == list(_SUMMARY_KEYS)
        assert summary["status"] == status
        assert summary["J_total"] == "nan"
        assert summary["uncontrolled_terminal_norm"] == _fmt(converged.uncontrolled_terminal_norm)
        assert not (blown.run_dir / "state.csv").exists()

    def test_refuses_severely_unstable_grid(self, tmp_path):
        spec = small_spec(tmp_path / "out", mu=1.0, N=2000, H=50)
        with pytest.raises(ConfigurationError):
            run_experiment(spec)


class TestCompareControls:
    def test_orders_rows_and_flags_best(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        table = compare_controls(rows)
        assert [r.controls for r in table.rows] == [3, 6]
        assert [r.best for r in table.rows] == [False, True]
        assert not table.tie
        assert table.rows[1].terminal_norm < table.rows[0].terminal_norm
        text = table.format()
        assert "controls" in text and "*" in text
        lines = table.csv_lines()
        assert lines[0] == "controls,J_total,control_energy,terminal_norm,best"
        assert len(lines) == 3

    def test_identical_rows_tie(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        table = compare_controls([rows[0], rows[0]])
        assert table.tie
        assert all(r.best for r in table.rows)

    def test_single_row_rejected(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out", counts=(2,)))
        with pytest.raises(ValueError):
            compare_controls(rows)

    def test_mixed_experiments_rejected(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "a"))
        other = dataclasses.replace(rows[1], base_key="something-else")
        with pytest.raises(ValueError):
            compare_controls([rows[0], other])

    def test_rows_without_metrics_rejected(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        broken = dataclasses.replace(rows[1], cost=None)
        with pytest.raises(ValueError):
            compare_controls([rows[0], broken])
