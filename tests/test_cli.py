import pytest

from adrcontrol.cli import main


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


class TestCheck:
    def test_default_grid_is_accepted(self, capsys):
        assert main(["check"]) == 0
        text = capsys.readouterr().out
        assert "cfl_ratio=0.5" in text
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
        assert "refused" in capsys.readouterr().out

    def test_marginally_unstable_grid_warns_but_passes(self, capsys):
        # H=50, mu=1, N=2503 sits just below the hard limit of 2
        assert main(["check", "--mu", "1", "--H", "50", "--N", "2503", "--M", "2"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_invalid_constants(self):
        assert main(["check", "--mu", "0"]) == 1
        assert main(["check", "--mu", "0.1", "--eps", "1", "--H", "10"]) == 1


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
