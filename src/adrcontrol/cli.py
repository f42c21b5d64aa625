"""Command line front end.

Subcommands:
  run                solve one benchmark experiment across control counts
  demo-instability   print the explicit Euler trajectory of the reaction ODE
  check              validate a grid and report its stability ratio

Exit codes: 0 success, 1 invalid configuration (also a float overflow or underflow
while deriving the grid), 2 a solver failure (blow-up or CG curvature loss) in some
count's row, each named on stderr, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .discretization import (
    REFUSE_RATIO,
    WARN_RATIO,
    DiscreteProblem,
    PhysicalConfig,
    cfl_ratio,
    control_indices,
    stable_step_count,
)
from .errors import ConfigurationError
from .harness import (
    ExperimentSpec,
    InitialCondition,
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


def _add_problem_args(parser):
    g = parser.add_argument_group("problem")
    g.add_argument("--L", type=float, default=1.0, help="domain length (default 1)")
    g.add_argument("--T", type=float, default=1.0, help="time horizon (default 1)")
    g.add_argument("--mu", type=float, default=0.1, help="diffusion coefficient (default 0.1)")
    g.add_argument("--eps", type=float, default=0.1, help="advection speed (default 0.1)")
    g.add_argument("--k0", type=float, default=1.0, help="control cost weight (default 1)")
    g.add_argument("--k1", type=float, default=1.0, help="running state weight (default 1)")
    g.add_argument("--k2", type=float, default=1.0, help="terminal state weight (default 1)")
    g.add_argument("--H", type=int, default=100, help="spatial cells (default 100)")
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
        help="control count, repeatable; M+1 signals each (default 2, 4, 10)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adrcontrol",
        description="Adjoint-based optimal control of a 1D advection-diffusion-reaction equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one experiment across control counts")
    _add_problem_args(run)
    run.add_argument("--ic", choices=("pulse", "sine"), default="pulse", help="initial condition")
    run.add_argument("--amplitude", type=float, default=10.0, help="profile amplitude (default 10)")
    run.add_argument(
        "--frequency", type=int, default=5, help="sine half-waves over the domain (default 5)"
    )
    run.add_argument(
        "--support",
        type=str,
        default=None,
        metavar="A,B",
        help="pulse support as two comma-separated abscissae (default 0.4L,0.6L)",
    )
    run.add_argument("--tol", type=float, default=1e-3, help="relative gradient tolerance")
    run.add_argument("--max-iter", type=int, default=None, help="CG iteration cap")
    run.add_argument("--out", type=Path, required=True, help="output directory")

    demo = sub.add_parser("demo-instability", help="explicit Euler on the reaction ODE")
    demo.add_argument("--C", type=float, default=1.0, help="constant supply rate (default 1)")
    demo.add_argument("--lambda", type=float, default=1.0, dest="lam", help="reaction coefficient")
    demo.add_argument("--dphi", type=float, default=0.1, help="offset from the steady state")
    demo.add_argument("--dt", type=float, default=1.0, help="Euler step (default 1)")
    demo.add_argument("--steps", type=int, default=12, help="number of Euler steps (default 12)")

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
    if args.ic == "sine":
        ic = InitialCondition(kind="sine", amplitude=args.amplitude, frequency=args.frequency)
    else:
        ic = InitialCondition(
            kind="pulse", amplitude=args.amplitude, support=_parse_support(args.support, phys.L)
        )
    problem = DiscreteProblem.create(phys, n_steps, args.H, counts[0])
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
    if len(usable) >= 2:
        table = compare_controls(usable)
        print(table.format(), file=out)
        comparison_path = Path(args.out) / "comparison.csv"
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
    """Report each count's grid and stability ratio; 1 if run would refuse it.

    The counts pass DiscreteProblem.for_counts first, the rule ExperimentSpec
    applies in run, so a bad or repeated count stops check before any line.
    """
    phys, counts, n_steps = _build_setup(args)
    status = EXIT_OK
    for problem in DiscreteProblem.for_counts(phys, n_steps, args.H, counts):
        m = problem.grid.M
        ratio = cfl_ratio(problem)
        idx = control_indices(problem.grid)
        print(
            f"M={m}: h={_fmt(problem.grid.h)} dt={_fmt(problem.grid.dt)} "
            f"cfl_ratio={ratio:.6g} control_nodes={idx}",
            file=out,
        )
        if ratio > REFUSE_RATIO:
            print(f"M={m}: stability ratio exceeds {REFUSE_RATIO:g}; run would be refused", file=out)
            status = EXIT_CONFIG
        elif ratio > WARN_RATIO:
            print(f"M={m}: warning, stability ratio exceeds {WARN_RATIO:g}", file=out)
    return status


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
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


if __name__ == "__main__":
    raise SystemExit(main())
