import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import adrcontrol
from adrcontrol import CGConfig, InitialCondition, PhysicalConfig
from adrcontrol.cli import build_parser, main
from adrcontrol.instability import ReactionParams

SRC = str(Path(adrcontrol.__file__).resolve().parent.parent)


def run_args(out, *extra):
    return [
        "run",
        "--ic", "sine",
        "--frequency", "1",
        "--amplitude", "1",
        "--H", "10",
        "--N", "50",
        "--M", "2",
        "--M", "5",
        "--tol", "1e-2",
        "--out", str(out),
        *extra,
    ]


def test_parsed_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    runs = [parser.parse_args(["check"]), parser.parse_args(["run", "--out", "x"])]
    for args in runs:
        for f in dataclasses.fields(PhysicalConfig):
            assert getattr(args, f.name) == getattr(PhysicalConfig(), f.name)
    for f in dataclasses.fields(CGConfig):
        assert getattr(runs[1], f.name) == getattr(CGConfig(), f.name)
    assert runs[1].amplitude == InitialCondition.amplitude
    demo = parser.parse_args(["demo-instability"])
    for f in dataclasses.fields(ReactionParams):
        assert getattr(demo, f.name) == getattr(ReactionParams(), f.name)


class TestCheck:
    def test_default_grid_is_accepted(self, capsys):
        assert main(["check"]) == 0
        text = capsys.readouterr().out
        assert "cfl_ratio=0.49999999999999994 " in text
        assert "control_nodes=[0, 50, 100]" in text

    def test_indivisible_control_count(self):
        assert main(["check", "--H", "10", "--M", "3"]) == 1

    @pytest.mark.parametrize(
        "cells, counts",
        [("10", ("2", "2")), ("6", ("2", "4"))],
        ids=["repeated", "indivisible-after-valid"],
    )
    def test_refused_counts_print_no_grid_line(self, capsys, cells, counts):
        # check refuses the counts run refuses, before reporting any of them
        argv = ["check", "--H", cells]
        for m in counts:
            argv += ["--M", m]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "M=" not in captured.out
        assert captured.err.startswith("error: invalid configuration")

    def test_severely_unstable_grid(self, capsys):
        assert main(["check", "--H", "100", "--N", "100"]) == 1
        captured = capsys.readouterr()
        assert "M=" not in captured.out
        assert "refusing to run the explicit scheme" in captured.err

    def test_marginally_unstable_grid_warns_but_passes(self, capsys):
        # H=50, mu=1, N=2503 sits just below the hard limit of 2
        with pytest.warns(UserWarning, match="stability ratio 1.99"):
            assert main(["check", "--mu", "1", "--H", "50", "--N", "2503", "--M", "2"]) == 0
        assert "M=2:" in capsys.readouterr().out

    def test_ratio_prints_all_its_digits(self, capsys):
        # 1.9999999 passes; six digits used to print it as the bound 2
        argv = ["check", "--mu", "1", "--H", "50", "--N", "5005", "--T", "1.9999999", "--M", "2"]
        with pytest.warns(UserWarning):
            assert main(argv) == 0
        assert "cfl_ratio=1.9999998999999999 " in capsys.readouterr().out

    def test_warning_and_grid_line_print_the_same_ratio(self, capsys):
        # repr gives 1.9999999 for this double; both lines use 17 digits
        argv = ["check", "--mu", "1", "--H", "50", "--N", "5005", "--T", "1.9999999", "--M", "2"]
        with pytest.warns(UserWarning) as record:
            assert main(argv) == 0
        assert str(record[0].message).startswith("stability ratio 1.9999998999999999 exceeds 1;")
        assert "cfl_ratio=1.9999998999999999 " in capsys.readouterr().out

    def test_invalid_constants(self):
        assert main(["check", "--mu", "0"]) == 1
        assert main(["check", "--mu", "0.1", "--eps", "1", "--H", "10"]) == 1

    def test_subnormal_step_is_refused_by_name(self, capsys):
        # T/N = 5e-311 is a subnormal double
        assert main(["check", "--T", "1e-310", "--H", "10", "--N", "2", "--M", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid configuration: dt must be")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            # h = 1e-302 and 1e299 are normal floats; their squares are not
            (["--L", "1e-300"], "the space step h = L/H = 1e-302 is too small: h^2 underflows"),
            (["--L", "1e300", "--H", "10", "--N", "10", "--M", "2"], "the space step h = L/H = 1e+299 is too large: h^2 overflows"),
        ],
        ids=["tiny", "huge"],
    )
    def test_step_whose_square_is_out_of_range_is_refused_by_name(self, capsys, argv, message):
        assert main(["check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid configuration: {message}\n"

    @pytest.mark.parametrize(
        "argv, T",
        [
            # T * (2*mu/h^2 + |eps|/h) is about 2e322 and 2e311: finite factors, infinite product
            (["--T=1e308", "--mu=1e10"], "1e+308"),
            (["--L=1e-150", "--H", "10", "--T", "1e10"], "10000000000.0"),
        ],
        ids=["long-horizon", "tiny-step"],
    )
    def test_step_count_that_overflows_is_refused_by_name(self, capsys, argv, T):
        assert main(["check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"the stable step count N for T = {T} overflows a float"
        assert captured.err == f"error: invalid configuration: {message}\n"

    @pytest.mark.parametrize(
        "argv, name",
        [
            # the default N needs h = L/H; a given N needs dt = T/N
            (["--H", "1" + "0" * 400], "H"),
            (["--H", "100", "--N", "1" + "0" * 400, "--M", "2"], "N"),
        ],
        ids=["default-N", "given-N"],
    )
    def test_size_too_large_for_a_float_is_refused_by_name(self, capsys, argv, name):
        assert main(["check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid configuration: {name} is too large for a float\n"

    @pytest.mark.parametrize(
        "argv, mu, h",
        [
            # h/mu = 0.1/1e-320 overflows; so does 1e10/1e-299, with a normal mu
            (["--H", "10", "--M", "2", "--mu", "1e-320"], "1e-320", "0.1"),
            (["--H", "1", "--M", "1", "--L", "1e10", "--mu", "1e-299", "--eps", "0"], "1e-299", "10000000000.0"),
        ],
        ids=["subnormal-mu", "long-domain"],
    )
    def test_mu_whose_flux_closure_overflows_is_refused_by_name(self, tmp_path, capsys, argv, mu, h):
        assert main(["check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = (
            f"diffusion coefficient mu = {mu} is too small for h = {h}: "
            "the flux closure's h/mu overflows a float"
        )
        assert captured.err == f"error: invalid configuration: {message}\n"
        assert main(["run", "--ic", "sine", *argv, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: invalid configuration: {message}\n"
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--H", "abc"], "argument --H: invalid int value: 'abc'"),
        (["run", "--H", "10"], "the following arguments are required: --out"),
        # argparse reads -1e-3 as an option; --eps=-1e-3 is the way to write it
        (["check", "--eps", "-1e-3"], "argument --eps: expected one argument"),
    ],
    ids=["not-an-int", "no-out", "negative-exponent-value"],
)
def test_usage_error_is_one_configuration_error_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid configuration: {message}\n"


def test_negative_exponent_value_with_equals_sign(capsys):
    assert main(["check", "--eps=-1e-3", "--M", "2"]) == 0
    assert "M=2:" in capsys.readouterr().out


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: adrcontrol check")


@pytest.mark.parametrize(
    "grid, refused, warned",
    [
        ((), False, False),
        (("--mu", "1", "--H", "50", "--N", "2503"), False, True),
        (("--H", "100", "--N", "100"), True, False),
    ],
    ids=["default", "warned", "refused"],
)
def test_check_and_run_share_the_stability_policy(tmp_path, capsys, grid, refused, warned):
    # check exits 1 exactly when run does, with the same stderr text, and
    # warns exactly when run does, with the same message.
    outcomes = []
    for argv in (["check", *grid, "--M", "2"], ["run", *grid, "--M", "2", "--out", str(tmp_path)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        err = capsys.readouterr().err
        messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        outcomes.append((rc == 1, err if rc == 1 else None, messages))
    assert outcomes[0] == outcomes[1]
    is_refused, err, messages = outcomes[0]
    assert is_refused == refused
    assert refused == (err is not None and "refusing to run the explicit scheme" in err)
    assert len(messages) == int(warned)


@pytest.mark.parametrize("command", ["check", "run"])
def test_warning_is_one_stderr_line(tmp_path, command):
    # Outside pytest's warning capture: the CLI's own stderr text.
    argv = [command, "--mu", "1", "--H", "50", "--N", "2503", "--M", "2"]
    if command == "run":
        argv += ["--out", str(tmp_path)]
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), "PYTHONWARNINGS": "default"}
    proc = subprocess.run(
        [sys.executable, "-m", "adrcontrol.cli", *argv], capture_output=True, text=True, env=env
    )
    lines = proc.stderr.splitlines()
    assert lines[0] == (
        "warning: stability ratio 1.9996004794246904 exceeds 1; the explicit scheme may blow up"
    )
    assert all(line.startswith(("warning: ", "error: ")) for line in lines)
    assert proc.returncode == (0 if command == "check" else 2)  # run's march blows up


class TestRun:
    def test_small_experiment(self, tmp_path, capsys):
        assert main(run_args(tmp_path)) == 0
        text = capsys.readouterr().out
        assert "M=2 status=converged" in text
        assert "M=5 status=converged" in text
        assert "controls" in text
        for sub in ("sine_2", "sine_5"):
            for name in ("state.csv", "controls.csv", "convergence.csv", "summary.txt"):
                assert (tmp_path / sub / name).is_file()
        assert (tmp_path / "comparison.csv").is_file()

    def test_pulse_with_default_support(self, tmp_path):
        assert main([
            "run", "--ic", "pulse", "--H", "10", "--N", "50",
            "--M", "2", "--tol", "1e-2", "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "pulse_2" / "summary.txt").is_file()
        # one run only: nothing to compare
        assert not (tmp_path / "comparison.csv").exists()

    def test_indivisible_control_count(self, tmp_path):
        assert main(run_args(tmp_path, "--M", "3")) == 1

    def test_malformed_support(self, tmp_path):
        rc = main([
            "run", "--ic", "pulse", "--support", "0.4", "--H", "10",
            "--N", "50", "--M", "2", "--out", str(tmp_path),
        ])
        assert rc == 1

    def test_pulse_with_given_support(self, tmp_path):
        assert main([
            "run", "--ic", "pulse", "--support", "0.3,0.7", "--amplitude", "3",
            "--H", "10", "--N", "50", "--M", "2", "--tol", "1e-2", "--out", str(tmp_path),
        ]) == 0
        with open(tmp_path / "pulse_2" / "state.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        initial = [(int(j), float(x), float(y)) for n, t, j, x, y in rows if n == "0"]
        assert [j for j, x, y in initial] == list(range(11))
        inside = [j for j, x, y in initial if 0.3 <= x <= 0.7]
        assert inside == [3, 4, 5, 6, 7]
        assert [y for j, x, y in initial] == [3.0 if j in inside else 0.0 for j in range(11)]

    def test_non_numeric_support(self, tmp_path, capsys):
        rc = main([
            "run", "--ic", "pulse", "--support", "a,b", "--H", "10",
            "--N", "50", "--M", "2", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "support must be two numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flag, message",
        [
            ("sine", ["--support", "0.1,0.2"], "support only applies to the pulse"),
            ("pulse", ["--frequency", "3"], "frequency only applies to the sine"),
        ],
        ids=["support-with-sine", "frequency-with-pulse"],
    )
    def test_flag_of_the_other_kind_is_refused(self, tmp_path, capsys, kind, flag, message):
        out = tmp_path / "out"
        rc = main([
            "run", "--ic", kind, *flag, "--H", "10", "--M", "2", "--M", "5", "--out", str(out),
        ])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_amplitude(self, tmp_path):
        assert main(run_args(tmp_path, "--amplitude", "nan")) == 1

    def test_blow_up_exit_code(self, tmp_path, capsys):
        with pytest.warns(UserWarning):
            rc = main([
                "run", "--ic", "pulse", "--mu", "1", "--H", "50", "--N", "2503",
                "--M", "2", "--out", str(tmp_path),
            ])
        assert rc == 2
        assert "blow_up" in capsys.readouterr().out
        summary = (tmp_path / "pulse_2" / "summary.txt").read_text()
        assert "status=blow_up" in summary

    def test_failed_count_leaves_no_data_of_an_earlier_run(self, tmp_path, capsys):
        # A sound run fills sine_2/, sine_5/ and comparison.csv; a rerun of the
        # same counts into the same directory, where both blow up, must leave
        # neither their data files nor the comparison table.
        counts = ["--M", "2", "--M", "5", "--out", str(tmp_path)]
        assert main(["run", "--ic", "sine", "--H", "20", *counts]) == 0
        assert (tmp_path / "comparison.csv").exists()
        with pytest.warns(UserWarning):
            rc = main(["run", "--ic", "sine", "--mu", "1", "--H", "50", "--N", "2503", *counts])
        assert rc == 2
        for m in (2, 5):
            assert "status=blow_up" in (tmp_path / f"sine_{m}" / "summary.txt").read_text()
            assert sorted(p.name for p in (tmp_path / f"sine_{m}").iterdir()) == ["summary.txt"]
        assert not (tmp_path / "comparison.csv").exists()

    def test_stale_count_directory_is_refused(self, tmp_path, capsys):
        # A rerun without --M 5 would leave the first run's sine_5/ beside its
        # own rows, unmarked: it is refused before any solve, touching no file.
        grid = ["run", "--ic", "sine", "--H", "10", "--N", "50", "--out", str(tmp_path)]
        assert main([*grid, "--M", "2", "--M", "5"]) == 0
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([*grid, "--M", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and err.endswith("sine_5\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    def test_run_directory_of_another_kind_is_refused(self, tmp_path, capsys):
        # A pulse run would otherwise write its comparison.csv over the sine
        # run's beside the sine run's rows.
        grid = ["run", "--H", "10", "--N", "50", "--M", "2", "--M", "5", "--out", str(tmp_path)]
        assert main([*grid, "--ic", "sine"]) == 0
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main([*grid, "--ic", "pulse"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration") and err.endswith("sine_2, sine_5\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    def test_refused_grid_exit_code(self, tmp_path, capsys):
        rc = main([
            "run", "--ic", "pulse", "--mu", "1", "--H", "50", "--N", "2000",
            "--M", "2", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_zero_cells_with_the_default_step_count(self, tmp_path, capsys):
        assert main(["run", "--H", "0", "--M", "2", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid configuration")

    def test_curvature_loss_exit_code(self, tmp_path, capsys):
        # Ratio 1.52 only warns; with k0 = 1e-10 the amplified sweeps give
        # CG a negative curvature in its first iteration.
        with pytest.warns(UserWarning):
            rc = main([
                "run", "--ic", "sine", "--frequency", "1", "--mu", "0.01", "--eps", "1.5",
                "--k0", "1e-10", "--H", "20", "--N", "25", "--M", "2", "--out", str(tmp_path),
            ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "nonpositive curvature" in err

    def test_curvature_loss_of_every_count_is_a_row_each(self, tmp_path, capsys):
        # The same problem as above with two counts: a failed count does not
        # stop the next one, and each gets its summary and its stderr line.
        with pytest.warns(UserWarning):
            rc = main([
                "run", "--ic", "sine", "--frequency", "1", "--mu", "0.01", "--eps", "1.5",
                "--k0", "1e-10", "--H", "20", "--N", "25", "--M", "4", "--M", "2",
                "--out", str(tmp_path),
            ])
        assert rc == 2
        captured = capsys.readouterr()
        rows = captured.out.splitlines()
        assert [row.split()[:2] for row in rows] == [
            ["M=4", "status=curvature_loss"],
            ["M=2", "status=curvature_loss"],
        ]
        err = captured.err.splitlines()
        assert len(err) == 2
        for m, line in zip((4, 2), err):
            assert line.startswith(f"error: solver failure: M={m}: nonpositive curvature")
            summary = (tmp_path / f"sine_{m}" / "summary.txt").read_text()
            assert "status=curvature_loss" in summary

    def test_repeated_control_count(self, tmp_path, capsys):
        assert main(run_args(tmp_path / "out", "--M", "2")) == 1
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_io_failure(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not a directory\n")
        rc = main(run_args(blocker / "sub"))
        assert rc == 3


class TestDemoInstability:
    def test_default_trajectory(self, capsys):
        assert main(["demo-instability"]) == 0
        text = capsys.readouterr().out
        assert "steady_state=0" in text
        assert "0.20517" in text
        assert "15.427" in text
        assert "overflow log10_magnitude=2176426.997" in text

    def test_negative_offset_stays_finite(self, capsys):
        assert main(["demo-instability", "--dphi", "-0.1", "--steps", "11"]) == 0
        text = capsys.readouterr().out
        assert "overflow" not in text
        assert "-7.60996" in text

    def test_general_rates(self, capsys):
        assert main(["demo-instability", "--C", "8", "--lambda", "2", "--dphi", "0", "--steps", "2"]) == 0
        text = capsys.readouterr().out
        assert "steady_state=1.3862943611198906" in text

    def test_rejects_bad_parameters(self):
        assert main(["demo-instability", "--C", "-1"]) == 1
        assert main(["demo-instability", "--steps", "-4"]) == 1
        assert main(["demo-instability", "--dt", "0"]) == 1
