"""Command line front end.

Subcommands:
  run                solve one benchmark experiment across control counts
  demo-instability   print the explicit Euler trajectory of the reaction ODE
  check              validate a grid and report its stability ratio

Exit codes: 0 success, 1 invalid configuration or command line (also a size N or H, a step, its
square, the stable step count or the flux closure's h/mu out of float range, each named; write a
negative exponent as --eps=-1e-3), 2 a solver failure (blow-up or CG curvature loss) in some
count's row, each named on stderr, 3 output I/O error.  A warning is one "warning: ..." line on
stderr, like "error: ..." lines.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from .discretization import (
    DiscreteProblem,
    PhysicalConfig,
    check_stability,
    control_indices,
    stable_step_count,
)
from .errors import ConfigurationError
from .harness import (
    ExperimentSpec,
    InitialCondition,
    _KINDS,
    _fmt,
    compare_controls,
    run_experiment,
)
from .instability import ReactionParams, euler_iterate, steady_state
from .optimizer import CGConfig

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_IO = 3

DEFAULT_CONTROL_COUNTS = (2, 4, 10)
DEFAULT_FREQUENCY = 5


def _add_problem_args(parser):
    g = parser.add_argument_group("problem")
    g.add_argument("--L", type=float, help="domain length (default %(default)s)")
    g.add_argument("--T", type=float, help="time horizon (default %(default)s)")
    g.add_argument("--mu", type=float, help="diffusion coefficient (default %(default)s)")
    g.add_argument("--eps", type=float, help="advection speed (default %(default)s)")
    g.add_argument("--k0", type=float, help="control cost weight (default %(default)s)")
    g.add_argument("--k1", type=float, help="running state weight (default %(default)s)")
    g.add_argument("--k2", type=float, help="terminal state weight (default %(default)s)")
    g.add_argument("--H", type=int, default=100, help="spatial cells (default %(default)s)")
    g.add_argument(
        "--N",
        type=int,
        default=None,
        help="time steps; default is the smallest N with stability ratio <= 0.5",
    )
    g.add_argument(
        "--M",
        type=int,
        action="append",
        dest="control_counts",
        metavar="M",
        help="control count, repeatable; M+1 signals each (default %s)"
        % ", ".join(map(str, DEFAULT_CONTROL_COUNTS)),
    )
    parser.set_defaults(**asdict(PhysicalConfig()))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 with one line, like any bad input
        raise ConfigurationError(message)


def build_parser():
    parser = _Parser(
        prog="adrcontrol",
        description="Adjoint-based optimal control of a 1D advection-diffusion-reaction equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one experiment across control counts")
    _add_problem_args(run)
    run.add_argument("--ic", choices=_KINDS, default="pulse", help="initial condition")
    run.add_argument("--amplitude", type=float, help="profile amplitude (default %(default)s)")
    run.add_argument(
        "--frequency",
        type=int,
        help=f"sine half-waves over the domain (default {DEFAULT_FREQUENCY})",
    )
    run.add_argument(
        "--support",
        type=str,
        default=None,
        metavar="A,B",
        help="pulse support as two comma-separated abscissae (default 0.4L,0.6L)",
    )
    run.add_argument("--tol", type=float, help="relative gradient tolerance (default %(default)s)")
    run.add_argument("--max-iter", type=int, help="CG iteration cap")
    run.add_argument("--out", type=Path, required=True, help="output directory")
    run.set_defaults(amplitude=InitialCondition.amplitude, **asdict(CGConfig()))

    demo = sub.add_parser("demo-instability", help="explicit Euler on the reaction ODE")
    demo.add_argument("--C", type=float, help="constant supply rate (default %(default)s)")
    demo.add_argument(
        "--lambda", type=float, dest="lam", help="reaction coefficient (default %(default)s)"
    )
    demo.add_argument(
        "--dphi", type=float, help="offset from the steady state (default %(default)s)"
    )
    demo.add_argument("--dt", type=float, help="Euler step (default %(default)s)")
    demo.add_argument("--steps", type=int, help="number of Euler steps (default %(default)s)")
    demo.set_defaults(**asdict(ReactionParams()))

    check = sub.add_parser("check", help="validate grid settings and report stability")
    _add_problem_args(check)

    return parser


def _parse_support(text, L):
    if text is None:
        return (0.4 * L, 0.6 * L)
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"support must be 'a,b', got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigurationError(f"support must be two numbers, got {text!r}") from exc


def _build_setup(args):
    phys = PhysicalConfig(
        L=args.L, T=args.T, mu=args.mu, eps=args.eps, k0=args.k0, k1=args.k1, k2=args.k2
    )
    counts = tuple(args.control_counts) if args.control_counts else DEFAULT_CONTROL_COUNTS
    n_steps = args.N if args.N is not None else stable_step_count(phys, args.H)
    return phys, counts, n_steps


def _cmd_run(args, out):
    phys, counts, n_steps = _build_setup(args)
    # A given --frequency or --support reaches InitialCondition whatever the
    # kind, which refuses the one that does not apply.
    sine = args.ic == "sine"
    frequency = DEFAULT_FREQUENCY if sine and args.frequency is None else args.frequency
    support = None if sine and args.support is None else _parse_support(args.support, phys.L)
    ic = InitialCondition(args.ic, args.amplitude, frequency, support)
    problem = DiscreteProblem(phys, n_steps, args.H, counts[0])
    cg = CGConfig(tol=args.tol, max_iter=args.max_iter)
    spec = ExperimentSpec(
        problem=problem, ic=ic, cg=cg, control_counts=counts, output_dir=args.out
    )

    rows = run_experiment(spec)
    for row in rows:
        line = f"M={row.M} status={row.status} iterations={row.iterations}"
        if row.cost is not None:
            line += (
                f" J_total={row.cost.total:.8g}"
                f" terminal_norm={row.terminal_norm:.8g}"
                f" uncontrolled={row.uncontrolled_terminal_norm:.8g}"
            )
        if row.error is not None:
            line += f" error={row.error!r}"
        print(line, file=out)

    usable = [row for row in rows if row.cost is not None]
    comparison_path = Path(args.out) / "comparison.csv"
    if len(usable) < 2:
        comparison_path.unlink(missing_ok=True)  # an earlier run's table
    else:
        table = compare_controls(usable)
        print(table.format(), file=out)
        with open(comparison_path, "w", newline="") as fh:
            fh.write("\n".join(table.csv_lines()) + "\n")
        print(f"comparison table written to {comparison_path}", file=out)

    failed = [row for row in rows if row.error is not None]
    for row in failed:
        print(f"error: solver failure: M={row.M}: {row.error}", file=sys.stderr)
    return EXIT_BLOWUP if failed else EXIT_OK


def _cmd_demo(args, out):
    params = ReactionParams(C=args.C, lam=args.lam, dphi=args.dphi, dt=args.dt, steps=args.steps)
    print(f"steady_state={_fmt(steady_state(params.C, params.lam))}", file=out)
    for entry in euler_iterate(params):
        if entry.phi is not None:
            print(f"n={entry.n} phi={_fmt(entry.phi)}", file=out)
        else:
            print(f"n={entry.n} overflow log10_magnitude={_fmt(entry.log10_magnitude)}", file=out)
    return EXIT_OK


def _cmd_check(args, out):
    """Report each count's grid and stability ratio, or refuse as run would.

    The counts pass DiscreteProblem.for_counts and the grid passes
    check_stability, the rules run applies, so a bad or repeated count and
    a refused grid stop check before any line; a warned grid gives run's
    UserWarning.  The ratio does not depend on the count.
    """
    phys, counts, n_steps = _build_setup(args)
    problems = DiscreteProblem.for_counts(phys, n_steps, args.H, counts)
    ratio = check_stability(problems[0])
    for problem in problems:
        print(
            f"M={problem.grid.M}: h={_fmt(problem.grid.h)} dt={_fmt(problem.grid.dt)} "
            f"cfl_ratio={_fmt(ratio)} control_nodes={control_indices(problem.grid)}",
            file=out,
        )
    return EXIT_OK


def _warning_line(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None):
    out = sys.stdout
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _warning_line
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, out)
        if args.command == "demo-instability":
            return _cmd_demo(args, out)
        return _cmd_check(args, out)
    except (ConfigurationError, ValueError, ArithmeticError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: output failure: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
