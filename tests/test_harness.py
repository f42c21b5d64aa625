import dataclasses
import functools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from adrcontrol.harness import write_controls_csv, write_state_csv
from adrcontrol.solvers import StateField
from conftest import default_problem, traced_peak

# summary.txt key set and order, frozen by the output format.
SUMMARY_KEYS = [
    "M",
    "iterations",
    "status",
    "J_total",
    "control_energy",
    "terminal_norm",
    "uncontrolled_terminal_norm",
    "cfl_ratio",
]


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

    def test_level_labels_follow_the_grid(self, tmp_path):
        # Grids written one after the other in one process: another N, then
        # the same N with another T, so another dt, must not reuse labels.
        for k, (N, T) in enumerate([(7, 1.0), (8, 1.0), (8, 0.5)]):
            p = small_problem(N=N, H=6, M=3, T=T)
            state = StateField(self.values((7, N + 2), 3 + k))
            control = ControlField(self.values((4, N + 1), 6 + k))
            write_state_csv(tmp_path / "state.csv", p, state)
            reference_state_csv(tmp_path / "state_ref.csv", p, state)
            write_controls_csv(tmp_path / "controls.csv", p, control)
            reference_controls_csv(tmp_path / "controls_ref.csv", p, control)
            for name in ("state", "controls"):
                fast, ref = tmp_path / f"{name}.csv", tmp_path / f"{name}_ref.csv"
                assert fast.read_bytes() == ref.read_bytes(), (N, T, name)

    def test_right_control_sits_at_L(self, tmp_path):
        # at L = 0.7, H = 187, (H*L)/H is 0.70000000000000007, above L
        p = DiscreteProblem.create(PhysicalConfig(L=0.7), N=3, H=187, M=11)
        write_controls_csv(tmp_path / "controls.csv", p, ControlField.zeros(p.grid))
        _, rows = read_table(tmp_path / "controls.csv")
        assert rows[-1][2:4] == ["11", _fmt(0.7)]

    @pytest.mark.parametrize("N", [4, 10])
    def test_field_of_another_grid_writes_no_file(self, tmp_path, N):
        # Same H and M, another N: without the check the control file would
        # hold the other grid's rows under this grid's times.
        p = small_problem(N=7, H=6, M=3)
        state = StateField(self.values((7, N + 2), 1))
        control = ControlField(self.values((4, N + 1), 2))
        with pytest.raises(ValueError):
            write_state_csv(tmp_path / "state.csv", p, state)
        with pytest.raises(ValueError):
            write_controls_csv(tmp_path / "controls.csv", p, control)
        assert list(tmp_path.iterdir()) == []


def assert_formats_as_percent(values):
    """Each row of _value_text, NULs dropped, reads as ``"%.17g" %`` of its own value."""
    rows = harness._value_text(values)
    assert rows.shape == (len(values), harness._VALUE_BYTES)
    ended = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    got = ended.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    want = ["%.17g" % v for v in values.tolist()]
    assert len(got) == len(want), "a row holds a newline"
    if got != want:
        bad = [(v, g) for v, g, w in zip(values.tolist(), got, want) if g != w]
        pytest.fail(f"{len(bad)} values differ from %.17g, first (value, text): {bad[:5]}")


def near_tie_doubles(k, count, rng):
    """Doubles x with x * 10**k in [1e16, 1e17) and within 2**-31 of a tie.

    x = m * 2**-(s + k) gives x * 10**k = m * 5**k / 2**s, whose fraction
    is 1/2 + t / 2**s when m * 5**k = 2**(s - 1) + t modulo 2**s.  With few
    fraction bits (small k) only t = 0 is close enough: exact ties, which
    %.17g rounds to even.
    """
    s = round(52.5 + k * math.log2(5) - 16.5 * math.log2(10))  # fraction bits
    span = 1 << (s - 31) if s > 31 else 0
    inverse = pow(5**k, -1, 1 << s)
    found = []
    while len(found) < count:
        t = int(rng.integers(-span, span + 1))
        m = ((1 << (s - 1)) + t) * inverse % (1 << s)
        if s < 53:  # any m + j * 2**s meets the congruence too
            m += int(rng.integers(-(-(2**52 - m) >> s), ((2**53 - m) >> s) + 1)) << s
        if 2**52 <= m < 2**53 and 10**16 << s <= m * 5**k < 10**17 << s:
            found.append(math.ldexp(m, -s - k))
    return found


EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    np.nextafter(2.2250738585072014e-308, 0.0),  # the largest subnormal
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e16,
    1e17,
    9.9999999999999999e16,
    1e-4,
    1e-5,
    *[s * np.nextafter(1e280, d) for s in (1.0, -1.0) for d in (0.0, np.inf)],
    *[s * np.nextafter(1e-280, d) for s in (1.0, -1.0) for d in (0.0, np.inf)],
    *[float(f"1e{k}") for k in range(-300, 301)],
    *[np.nextafter(float(f"1e{k}"), d) for k in range(-300, 301) for d in (0.0, np.inf)],
]


class TestValueText:
    """The vectorized writer's number text against ``"%.17g" %`` itself."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(12)
        values = rng.integers(0, 2**64, 1_100_000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert len(values) >= 1_000_000
        assert_formats_as_percent(values)

    def test_constructed_near_ties(self):
        # 18 significant digits ending in 5 are ties of two 17-digit
        # decimals, though the nearest double often lies a few units off;
        # near_tie_doubles adds doubles within 2**-31 of a tie, or on one.
        rng = np.random.default_rng(13)
        digits = rng.integers(10**16, 10**17, 200_000).tolist()
        exponents = rng.integers(-60, 60, 200_000).tolist()
        values = [float(f"{d}5e{e}") for d, e in zip(digits, exponents)]
        for k in range(2, 29):
            values += near_tie_doubles(k, 10, rng)
        values = np.array(values)
        assert_formats_as_percent(np.concatenate([values, -values]))

    def test_edge_values(self):
        assert_formats_as_percent(np.array(EDGE_VALUES + [np.nan, np.inf, -np.inf]))

    def test_scaled_integers_and_decades(self):
        rng = np.random.default_rng(14)
        n = 200_000
        ints = rng.integers(1, 2**53, n) * 2.0 ** rng.integers(-80, 40, n)
        decades = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        assert_formats_as_percent(np.concatenate([ints, decades, rng.uniform(-10, 10, n)]))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_any_finite_doubles(self, values):
        assert_formats_as_percent(np.array(values))

    def test_every_digit_count_at_every_fixed_exponent(self):
        # 1-17 significant digits at decimal exponents -13..-10 and -6..18:
        # digits 13-16 are all zero, end in zeros or end in a nonzero digit,
        # and the point falls before, at and after digit 13.  The fast path
        # trusts exponents -11..4, so these cross both ends of its window;
        # the values past them take "%".  So do the same digit counts at every
        # 13th exponent of -279..279 but -6 and 7, mostly in exponent notation.
        rng = np.random.default_rng(16)
        exponents = [*range(-13, -9), *range(-6, 19)]
        values = [1234567890123.4, 12345678901234.5, 1.2e13, 1.2e16, 1.0000000000001e13]
        values += [float(f"1.234567890123e{e}") for e in range(-6, 19)]  # 13-16 all zero
        values += [float(f"1.2345678901230001e{e}") for e in range(-6, 19)]
        for k in range(1, 18):
            digits = rng.integers(10 ** (k - 1), 10**k, 40).tolist()
            values += [float(f"{d}e{e - k + 1}") for d in digits for e in exponents]
        for k in range(1, 18):
            digits = rng.integers(10 ** (k - 1), 10**k, 20).tolist()
            values += [float(f"{d}e{e - k + 1}") for d in digits for e in range(-279, 280, 13)]
        values = np.array(values)
        assert_formats_as_percent(np.concatenate([values, -values]))

    def test_narrow_long_double_takes_the_exact_path(self, monkeypatch, tmp_path):
        # Without a 64-bit long double significand nothing is trusted, so
        # even wrong digit tables leave the text exact.
        monkeypatch.setattr(harness, "_WIDE_LONG_DOUBLE", False)
        tables = harness._tables()
        wrong = tables._replace(
            digit_words=np.zeros_like(tables.digit_words),
            digit_quads=np.zeros_like(tables.digit_quads),
            trimmed_quads=np.zeros_like(tables.trimmed_quads),
        )
        monkeypatch.setattr(harness, "_tables", lambda: wrong)
        rng = np.random.default_rng(15)
        values = rng.standard_normal(10_000) * 10.0 ** rng.integers(-20, 20, 10_000)
        assert_formats_as_percent(values)
        p = small_problem(N=7, H=6, M=3)
        state = StateField(TestWriters().values((7, 9), 1))
        write_state_csv(tmp_path / "fast.csv", p, state)
        reference_state_csv(tmp_path / "ref.csv", p, state)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.skipif(
        not harness._WIDE_LONG_DOUBLE, reason="only a 64-bit significand takes the fast path"
    )
    def test_fast_path_formats_almost_every_trajectory_value(self, monkeypatch):
        # With wrong digit tables every value the fast path formats comes out
        # wrong, so the exact rows are those "%" formatted: at most 1% of the
        # H = 100 sine5 M = 4 optimum's trajectory (1,286 of 406,222 when measured).
        p = default_problem(H=100, M=4)
        _, report = cg_solve(p, make_initial_condition(InitialCondition("sine", frequency=5), p.grid))
        values = report.state.values.ravel()
        exact = harness._value_text(values)
        tables = harness._tables()
        wrong = tables._replace(
            digit_words=np.zeros_like(tables.digit_words),
            digit_quads=np.zeros_like(tables.digit_quads),
            trimmed_quads=np.zeros_like(tables.trimmed_quads),
        )
        monkeypatch.setattr(harness, "_tables", lambda: wrong)
        unchanged = np.all(harness._value_text(values) == exact, axis=1)
        assert len(values) == 406_222 and unchanged.sum() <= 0.01 * len(values)

    @pytest.mark.skipif(
        not harness._WIDE_LONG_DOUBLE, reason="the table is only read with a 64-bit significand"
    )
    def test_powers_of_ten_are_correctly_rounded(self):
        # Where the fast path trusts E, its proof needs 10**(16 - E) exact;
        # the padding rows next to the window are only correctly rounded.
        trusted = harness._TRUSTED
        assert set(trusted) <= set(harness._EXPONENTS.tolist())
        for x, power in zip(harness._EXPONENTS.tolist(), harness._tables().pow10):
            mantissa, exponent = np.frexp(power)
            m, e = int(np.ldexp(mantissa, 64)), int(exponent) - 64
            error = Fraction(m) * Fraction(2) ** e - Fraction(10) ** (16 - x)
            assert abs(error) <= (0 if x in trusted else Fraction(2) ** e / 2), x

    def test_importing_and_solving_build_no_tables(self):
        # A run that writes no CSV, such as cg_solve alone, allocates none of
        # the formatter's tables, import included.
        script = (
            "from adrcontrol import harness, cg_solve, InitialCondition, make_initial_condition\n"
            "from adrcontrol import DiscreteProblem, PhysicalConfig\n"
            "p = DiscreteProblem.create(PhysicalConfig(), N=50, H=10, M=2)\n"
            "y0 = make_initial_condition(InitialCondition('sine', frequency=1), p.grid)\n"
            "cg_solve(p, y0)\n"
            "print(harness._tables.cache_info().misses)\n"
        )
        src = str(Path(harness.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
        )
        assert proc.stdout == "0\n"

    def test_the_first_write_builds_the_tables_once(self, monkeypatch, tmp_path):
        monkeypatch.setattr(harness, "_tables", functools.cache(harness._tables.__wrapped__))
        p = small_problem(N=7, H=6, M=3)
        cg_solve(p, make_initial_condition(InitialCondition("sine", frequency=1), p.grid))
        assert harness._tables.cache_info().misses == 0
        state = StateField(TestWriters().values((7, 9), 1))
        write_state_csv(tmp_path / "state.csv", p, state)
        write_controls_csv(tmp_path / "controls.csv", p, ControlField(np.ones((4, 8))))
        info = harness._tables.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 1
        reference_state_csv(tmp_path / "ref.csv", p, state)
        assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_memory_stays_bounded_on_a_full_trajectory(self, tmp_path):
        # write_state_csv formats blocks of about 2**13 values, about 2 MB
        # traced; one block for this whole trajectory traces about 100 MB.
        p = small_problem(N=4020, H=100, M=4)
        values = TestWriters().values((101, 4022), 16)
        state = StateField(np.asfortranarray(values))
        _, peak = traced_peak(write_state_csv, tmp_path / "state.csv", p, state)
        assert peak <= 8 * 2**20
        reference_state_csv(tmp_path / "ref.csv", p, state)
        assert (tmp_path / "state.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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

    def test_pulse_support_is_checked_against_L_itself(self):
        # at H = 49, h*H is 0.99999999999999989, not L = 1
        p = small_problem(H=49, M=7)
        past = InitialCondition(kind="pulse", amplitude=1.0, support=(0.4, float(np.nextafter(1.0, 2.0))))
        with pytest.raises(ConfigurationError, match="exceeds the domain length 1.0$"):
            make_initial_condition(past, p.grid)
        y0 = make_initial_condition(InitialCondition(kind="pulse", amplitude=1.0, support=(0.4, 1.0)), p.grid)
        assert y0[49] == 1.0

    def test_pulse_to_L_marks_the_last_node(self):
        # at L = 0.7, H = 187, (H*L)/H is 0.70000000000000007, above L
        p = DiscreteProblem.create(PhysicalConfig(L=0.7), N=10, H=187, M=11)
        y0 = make_initial_condition(InitialCondition(kind="pulse", support=(0.5, 0.7)), p.grid)
        assert y0[187] == 10.0

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

    def test_keeps_the_problems_it_checks(self, tmp_path, monkeypatch):
        # for_counts runs once per experiment: run_experiment solves the
        # spec's problems, in the order of the counts.
        calls = []
        for_counts = DiscreteProblem.for_counts

        def counting_for_counts(*args):
            calls.append(args)
            return for_counts(*args)

        monkeypatch.setattr(DiscreteProblem, "for_counts", counting_for_counts)
        spec = small_spec(tmp_path / "out", counts=(5, 2))
        assert [q.grid.M for q in spec.problems] == [5, 2]
        assert all(q.phys == spec.problem.phys for q in spec.problems)
        assert [row.M for row in run_experiment(spec)] == [5, 2]
        assert len(calls) == 1
        assert dataclasses.replace(spec, control_counts=(2,)).problems == spec.problems[1:]


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

            problem = DiscreteProblem.create(spec.problem.phys, 50, 10, row.M)
            g = problem.grid

            header, data = read_table(run_dir / "state.csv")
            assert header == ["n", "t", "j", "x", "y"]
            assert len(data) == (g.N + 2) * (g.H + 1)
            y_read = np.zeros((g.H + 1, g.N + 2))
            for n, t, j, x, y in data:
                y_read[int(j), int(n)] = float(y)
                assert float(t) == int(n) * g.dt
            # The row drops the trajectory; CG is deterministic, so a
            # direct solve of the same count gives it back bit for bit.
            assert row.report.state is None
            _, report = cg_solve(problem, make_initial_condition(spec.ic, g), spec.cg)
            assert np.array_equal(y_read, report.state.values)

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
            assert keys == SUMMARY_KEYS
            assert summary["M"] == str(row.M)
            assert summary["status"] == "converged"
            assert int(summary["iterations"]) == row.iterations
            assert float(summary["J_total"]) == row.cost.total
            assert float(summary["terminal_norm"]) == row.terminal_norm
            assert float(summary["cfl_ratio"]) == row.cfl_ratio

    def test_holds_one_count_at_a_time(self, tmp_path):
        # The acceptance shape: CG holds about 2.4 trajectories; keeping the
        # baseline and every finished count's state read 5.8.
        p = default_problem(M=2)
        spec = ExperimentSpec(
            problem=p,
            ic=InitialCondition("sine", frequency=5),
            cg=CGConfig(),
            control_counts=(2, 4, 10),
            output_dir=tmp_path,
        )
        rows, peak = traced_peak(run_experiment, spec)
        assert [row.status for row in rows] == ["converged"] * 3
        assert peak <= 3.0 * (p.grid.H + 1) * (p.grid.N + 2) * 8

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

    def test_level_labels_are_built_once_per_level_count(self, tmp_path):
        # state.csv has N + 2 levels and controls.csv N + 1, whatever the count.
        harness._level_labels.cache_clear()
        run_experiment(small_spec(tmp_path / "out", counts=(2, 5, 10)))
        assert harness._level_labels.cache_info().misses <= 2

    def test_state_is_solved_once_per_experiment(self, tmp_path, monkeypatch):
        # The baseline is the only state solve of the harness itself; each
        # run's trajectory comes from cg_solve's report.
        calls = []

        def counting_solve_state(*args):
            calls.append(args)
            return solve_state(*args)

        monkeypatch.setattr(harness, "solve_state", counting_solve_state)
        run_experiment(small_spec(tmp_path / "out", counts=(2, 5, 10)))
        assert len(calls) == 1

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
        # Each count's first CG sweep is the uncontrolled march, so each row
        # names the step at which that march blows up.
        grid = spec.problem.grid
        with pytest.raises(SolverBlowUpError) as uncontrolled:
            solve_state(spec.problem, make_initial_condition(ic, grid), ControlField.zeros(grid))
        assert [row.M for row in rows] == [2, 5]
        for row in rows:
            assert row.status == SolverBlowUpError.status
            assert row.cost is None and row.terminal_norm is None
            assert row.uncontrolled_terminal_norm is None
            assert row.error == str(uncontrolled.value)
            assert row.error.endswith(f"time step {uncontrolled.value.step}")
            keys, summary = read_summary(row.run_dir / "summary.txt")
            assert keys == SUMMARY_KEYS
            assert summary["status"] == SolverBlowUpError.status
            assert summary["J_total"] == "nan"
            assert summary["uncontrolled_terminal_norm"] == "nan"

    @pytest.mark.parametrize(
        "failure, status, text",
        [
            (SolverBlowUpError(step=7), SolverBlowUpError.status, "time step 7"),
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

        # A solved run first fills the failing count's directory; the failed
        # count must not leave that run's data beside its summary.
        spec = small_spec(tmp_path / "out", counts=(2, 5))
        data_files = ("state.csv", "controls.csv", "convergence.csv")
        earlier = run_experiment(spec)[1].run_dir
        assert all((earlier / name).exists() for name in data_files)
        monkeypatch.setattr(harness, "cg_solve", cg_solve_failing_for_m5)
        converged, blown = run_experiment(spec)

        assert converged.status == "converged"
        assert converged.uncontrolled_terminal_norm is not None
        assert blown.status == status
        assert blown.iterations == 0
        assert text in blown.error
        assert blown.cost is None and blown.terminal_norm is None and blown.report is None
        assert blown.uncontrolled_terminal_norm == converged.uncontrolled_terminal_norm
        keys, summary = read_summary(blown.run_dir / "summary.txt")
        assert keys == SUMMARY_KEYS
        assert summary["status"] == status
        assert summary["J_total"] == "nan"
        assert summary["uncontrolled_terminal_norm"] == _fmt(converged.uncontrolled_terminal_norm)
        assert blown.run_dir == earlier
        assert not any((blown.run_dir / name).exists() for name in data_files)

    def test_refuses_other_counts_of_its_kind_in_the_directory(self, tmp_path):
        run_experiment(small_spec(tmp_path, counts=(2, 5)))
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        (tmp_path / "sine_10").mkdir()  # no summary.txt, so no run
        with pytest.raises(ConfigurationError, match="sine_5$"):
            run_experiment(small_spec(tmp_path, counts=(2,)))
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files
        # Another kind's runs are refused too: they share comparison.csv.
        pulse = InitialCondition(kind="pulse", amplitude=1.0, support=(0.4, 0.6))
        with pytest.raises(ConfigurationError, match="sine_2, sine_5$"):
            run_experiment(small_spec(tmp_path, ic=pulse, counts=(2,)))
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    def test_refuses_severely_unstable_grid(self, tmp_path):
        spec = small_spec(tmp_path / "out", mu=1.0, N=2000, H=50)
        with pytest.raises(ConfigurationError):
            run_experiment(spec)


class TestCompareControls:
    def test_orders_rows_and_flags_best(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        table = compare_controls(rows)
        assert [r.M + 1 for r in table.rows] == [3, 6]
        assert table.best == (False, True)
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
        assert all(table.best)

    def test_rows_are_the_given_runs_in_count_order(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        table = compare_controls(rows[::-1])
        assert len(table.rows) == 2
        assert all(r is run for r, run in zip(table.rows, rows))

    def test_csv_lines_print_each_run(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out"))
        table = compare_controls(rows)
        expected = [
            f"{r.M + 1},{_fmt(r.cost.total)},{_fmt(r.control_energy)},{_fmt(r.terminal_norm)},{int(best)}"
            for r, best in zip(rows, (False, True))
        ]
        assert table.csv_lines()[1:] == expected

    def test_single_row_rejected(self, tmp_path):
        rows = run_experiment(small_spec(tmp_path / "out", counts=(2,)))
        with pytest.raises(ValueError):
            compare_controls(rows)

    def test_equal_configs_in_other_directories_compare(self, tmp_path):
        rows_a = run_experiment(small_spec(tmp_path / "a"))
        rows_b = run_experiment(small_spec(tmp_path / "b"))
        table = compare_controls([rows_a[0], rows_b[1]])
        assert [r.M + 1 for r in table.rows] == [3, 6]

    @pytest.mark.parametrize(
        "change",
        [
            dict(eps=0.2),
            dict(ic=InitialCondition(kind="sine", amplitude=2.0, frequency=1)),
            dict(N=60),
        ],
        ids=["eps", "amplitude", "N"],
    )
    def test_runs_differing_in_one_value_rejected(self, tmp_path, change):
        rows_a = run_experiment(small_spec(tmp_path / "a"))
        rows_b = run_experiment(small_spec(tmp_path / "b", **change))
        with pytest.raises(ValueError, match="different experiments"):
            compare_controls([rows_a[0], rows_b[1]])

    def test_runs_at_different_tolerances_rejected(self, tmp_path):
        # M = 5 at tol 1e-1 stops after one iteration with a larger terminal
        # norm than M = 2 at tol 1e-8, which would be flagged best.
        tight = run_experiment(small_spec(tmp_path / "a", tol=1e-8))
        loose = run_experiment(small_spec(tmp_path / "b", tol=1e-1))
        assert loose[1].terminal_norm > tight[0].terminal_norm
        with pytest.raises(ValueError, match="different experiments"):
            compare_controls([tight[0], loose[1]])

    def test_signed_zero_eps_is_one_experiment(self, tmp_path):
        # eps = 0.0 and -0.0 march the same numbers.
        rows_a = run_experiment(small_spec(tmp_path / "a", eps=0.0))
        rows_b = run_experiment(small_spec(tmp_path / "b", eps=-0.0))
        assert [r.cost for r in rows_a] == [r.cost for r in rows_b]
        table = compare_controls([rows_a[0], rows_b[1]])
        assert [r.M + 1 for r in table.rows] == [3, 6]

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
