"""Experiment driver: benchmark initial conditions, batch runs, file output.

run_experiment solves one control problem per requested control count,
always against the same initial condition and grid, and writes per-run CSV
data (state trajectory, control signals, convergence history) plus a
key=value summary.  compare_controls then orders the per-run summaries by
control count in a table that prints their cost and terminal-norm figures.

All floats are written with 17 significant digits, enough to round-trip
doubles exactly, and rows are emitted in a fixed order so identical runs
produce byte-identical files.
"""

from __future__ import annotations

import functools
import math
import re
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional

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


_KINDS = ("pulse", "sine")


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
        if self.kind not in _KINDS:
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
    L, x = grid.L, grid_nodes(grid)
    if ic.kind == "sine":
        return ic.amplitude * np.sin(ic.frequency * np.pi * x / L)
    a, b = ic.support
    if b > L:
        raise ConfigurationError(f"pulse support ({a}, {b}) exceeds the domain length {L}")
    return ic.amplitude * ((x >= a) & (x <= b)).astype(float)


@dataclass(frozen=True)
class ExperimentSpec:
    """One initial condition solved once per control count.

    ``problem`` fixes the physics and the (N, H) grid; its own M is not used.
    ``problems``, not an argument, keeps what DiscreteProblem.for_counts
    builds here, one problem per entry of control_counts in order, and
    run_experiment solves them.  That function's rules (no empty list, no
    count the grid refuses, no repeat) are checked here.  Each count M
    yields M+1 control signals.
    """

    problem: DiscreteProblem
    ic: InitialCondition
    cg: CGConfig
    control_counts: tuple
    output_dir: Path
    problems: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        g = self.problem.grid
        problems = DiscreteProblem.for_counts(self.problem.phys, g.N, g.H, self.control_counts)
        object.__setattr__(self, "problems", problems)
        object.__setattr__(self, "control_counts", tuple(q.grid.M for q in problems))


@dataclass(frozen=True)
class ExperimentSummary:
    """Result row of one run; metric fields stay None after a solver failure.

    ``base_key`` is (phys, N, H, ic, cg), the values the counts of one
    experiment share, and compare_controls compares rows by it.  ``report``
    is cg_solve's report with state=None: run_experiment writes the
    trajectory to state.csv and keeps no copy.
    """

    M: int
    status: str
    iterations: int
    cfl_ratio: float
    base_key: tuple
    cost: Optional[CostBreakdown] = None
    control_energy: Optional[float] = None
    terminal_norm: Optional[float] = None
    uncontrolled_terminal_norm: Optional[float] = None
    run_dir: Optional[Path] = None
    control: Optional[ControlField] = None
    report: Optional[CGReport] = None
    error: Optional[str] = None


def _terminal_norm(grid, terminal):
    return math.sqrt(grid.h * float(np.sum(terminal**2)))


# "%.17g" in numpy, a fast path with an exact fallback as in Loitsch, PLDI
# 2010.  A double x with decimal exponent E has the 17 digits
# D = round(|x| * 10**(16 - E)).  The fast path trusts only -11 <= E <= 4,
# 1e-11 <= |x| < 1e5.  There the power is exact in long double, so the
# product p carries one rounding while D + 1/2 is representable, and only a
# computed fraction of exactly 1/2 can sit on the wrong side of it; and the
# point, if any, follows one of digits 0-4, which have point slots.  "%"
# formats every other value: zeros, nan, inf and the rest outside the window,
# exact halves, those whose log10 misses E or whose rounding carries to
# 10**17, and those whose digits 13-16 are all 0, whose trailing zeros the
# digit table cannot strip; without a 64-bit significand, every value.
_WIDE_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63
_TRUSTED = range(-11, 5)  # the exponents E the fast path trusts
_EXPONENTS = np.arange(_TRUSTED.start - 1, _TRUSTED.stop + 1)  # log10 can pass an end by one

# A value's text takes 32 bytes, four uint64 words: byte 0 the sign, 1-5 the
# "0." and leading zeros of fixed notation below 1, 6 + 2i digit i and 7 + 2i
# the slot for a point after it for i <= 4, 16-23 digits 5-12 and 24-27
# digits 13-16 without point slots, 28-31 the exponent; absent bytes are NUL.
# The newline is not part of it: the writer puts it before the next row.
_VALUE_BYTES = 32


class _Tables(NamedTuple):
    pow10: np.ndarray  # 10**(16 - E) per exponent, in long double
    digit_words: np.ndarray  # uint64 "0000".."9999", each digit followed by a NUL
    digit_quads: np.ndarray  # uint32 "0000".."9999"
    trimmed_quads: np.ndarray  # the same with trailing zeros NUL
    templates: np.ndarray  # per exponent, the words of a value's text that depend on E alone


@functools.cache
def _tables():
    """The formatter's tables, built on the first call: a run that writes no
    CSV allocates none of them."""
    x = _EXPONENTS
    pow10 = np.fromstring(" ".join(f"1e{16 - e}" for e in x.tolist()), np.longdouble, sep=" ")
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(48)
    quads = np.ascontiguousarray(digits)  # "0000".."9999", a row each
    trimmed = quads.copy()
    for col in (3, 2, 1, 0):  # a "0" that no digit follows is a trailing zero
        trimmed[(trimmed[:, col] == ord("0")) & ~trimmed[:, col + 1 :].any(1), col] = 0
    spaced = np.zeros((10000, 8), np.uint8)
    spaced[:, 0::2] = quads

    text = np.zeros((len(x), _VALUE_BYTES), np.uint8)
    for row, e in zip(text, x.tolist()):
        if e < -4:
            row[28:] = list(b"e%+03d" % e)
            e = 0  # the point follows digit 0
        elif e < 0:
            row[1 : 2 - e] = list(b"0." + b"0" * (-e - 1))
        if 0 <= e <= 4:
            row[7 + 2 * e] = ord(".")
    return _Tables(
        pow10=pow10,
        digit_words=spaced.view(np.uint64).ravel(),
        digit_quads=quads.view(np.uint32).ravel(),
        trimmed_quads=trimmed.view(np.uint32).ravel(),
        templates=text.view(np.uint64),
    )


def _value_text(x):
    """``"%.17g" % v`` of each double v in x, as NUL-padded 32-byte rows."""
    t = _tables()
    a = np.abs(x)
    ok = (a >= 10.0**_TRUSTED.start) & (a < 10.0**_TRUSTED.stop)  # log10 can pass an end
    a[~ok] = 1.0
    E = np.floor(np.log10(a)).astype(np.int16)
    X = E - _EXPONENTS[0]  # the row of E in the tables
    p = a.astype(np.longdouble) * t.pow10.take(X)
    D = p.astype(np.int64)
    p -= D
    frac = p.astype(np.float64)  # exact: p < 2**57 has at most 10 fraction bits
    D += frac > 0.5
    # A log10 miss or a carry leaves D without 17 digits, except a miss up
    # rounded to 10**16, whose zeros the rule on digits 13-16 below distrusts.
    trust = ok & (E >= _TRUSTED.start) & (E < _TRUSTED.stop)
    trust &= (frac != 0.5) & (D >= 10**16) & (D < 10**17) & _WIDE_LONG_DOUBLE
    D[~trust] = 10**16  # keeps the table lookups in range

    top = D // 10**8
    hi = top.astype(np.int32)  # digits 0-8
    lo = (D - top * 10**8).astype(np.int32)  # digits 9-16
    lead, q, r = hi // 10**8, hi // 10**4, lo // 10**4
    last = lo - r * 10**4  # digits 13-16
    words = t.templates.take(X, axis=0)
    words[:, 1] |= t.digit_words.take(q - lead * 10**4)  # digits 1-4
    quads = words.view(np.uint32)
    quads[:, 4] = t.digit_quads.take(hi - q * 10**4)  # digits 5-8
    quads[:, 5] = t.digit_quads.take(r)  # digits 9-12
    # %g strips trailing zeros after the point, and the point if bare.  The
    # point comes before digit 5, so the trimmed quads strip them where
    # digits 13-16 are not all 0; where they are, the value is distrusted.
    quads[:, 6] = t.trimmed_quads.take(last)
    trust &= last != 0
    text = words.view(np.uint8)
    text[:, 6] = lead + 48
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))

    slow = np.flatnonzero(~trust)
    if len(slow):
        exact = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{_VALUE_BYTES}")
        text[slow] = exact.view(np.uint8).reshape(len(slow), _VALUE_BYTES)
    return text


def _text_rows(strings):
    """ASCII strings as the rows of a NUL-padded uint8 array."""
    rows = np.array(strings, dtype="S")
    return rows.view(np.uint8).reshape(len(strings), rows.itemsize)


@functools.lru_cache(maxsize=4)
def _level_labels(n_levels, dt):
    """The text rows "\\nn,t," of levels 0 .. n_levels - 1, read-only."""
    heads = _text_rows(["\n%d,%.17g," % (n, n * dt) for n in range(n_levels)])
    heads.setflags(write=False)
    return heads


_CHUNK = 1 << 13  # values per block; one block buffer per file, so larger ones only cost memory


def _write_levels(path, header, grid, nodes, levels):
    """Write the line "n,t,i,x_j,v" for every time level n and node j = nodes[i].

    ``levels[n]`` holds the values of level n in node order.  Each block of
    about _CHUNK values is laid out as NUL-padded rows "\\nn,t," | "i,x_j," |
    _value_text(v) in one buffer that keeps the node labels, and one
    translate drops the padding.  Each line's newline leads the next one, so
    ``header`` has none and the file ends with one.  Every number reads as
    ``_fmt(v)``.
    """
    n_levels, n_nodes = levels.shape
    x = grid_nodes(grid)
    heads = _level_labels(n_levels, grid.dt)
    tails = _text_rows([f"{i},{_fmt(x[j])}," for i, j in enumerate(nodes)])
    hw, tw = heads.shape[1], tails.shape[1]
    step = min(n_levels, max(1, _CHUNK // n_nodes))
    buf = bytearray(step * n_nodes * (hw + tw + _VALUE_BYTES))
    rows = np.frombuffer(buf, np.uint8).reshape(step, n_nodes, -1)
    rows[:, :, hw : hw + tw] = tails
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n_levels, step):
            block = levels[start : start + step]
            used = rows[: len(block)]
            used[:, :, :hw] = heads[start : start + step, None]
            used[:, :, hw + tw :] = _value_text(block.ravel()).reshape(*block.shape, -1)
            fh.write((buf if len(block) == step else buf[: used.nbytes]).translate(None, b"\0"))
        fh.write(b"\n")


def write_state_csv(path, problem, state):
    g = problem.grid
    y = state.checked(g)
    _write_levels(path, "n,t,j,x,y", g, range(g.H + 1), y.T)


def write_controls_csv(path, problem, control):
    g = problem.grid
    v = control.checked(g)
    _write_levels(path, "n,t,k,x_k,v", g, control_indices(g), v.T)


def write_convergence_csv(path, report):
    with open(path, "w", newline="") as fh:
        fh.write("m,J,J_control,J_running,J_terminal,grad_ratio\n")
        for m, (c, ratio) in enumerate(zip(report.cost_history, report.grad_ratio_history)):
            fh.write(
                f"{m},{_fmt(c.total)},{_fmt(c.control_term)},{_fmt(c.running_term)},"
                f"{_fmt(c.terminal_term)},{_fmt(ratio)}\n"
            )


def write_summary_txt(path, row):
    """One key=value line per entry of ``values``, in its order; the key set is frozen."""
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
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def _run_count(spec, problem, y0, shared):
    """Solve one control count, write its files and return its row.

    A failed row differs from a solved one only in its metrics, and its
    directory holds only ``summary.txt``.
    """
    run_dir = spec.output_dir / f"{spec.ic.kind}_{problem.grid.M}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        control, report = cg_solve(problem, y0, spec.cg)
    except (SolverBlowUpError, CurvatureLossError) as exc:
        metrics = dict(status=exc.status, iterations=0, error=str(exc))
        for name in ("state.csv", "controls.csv", "convergence.csv"):
            (run_dir / name).unlink(missing_ok=True)  # an earlier run's data
    else:
        metrics = dict(
            status=report.status,
            iterations=report.iterations,
            cost=report.cost_history[-1],
            control_energy=inner_product(problem.grid, control, control),
            terminal_norm=_terminal_norm(problem.grid, report.state.terminal),
            control=control,
            report=replace(report, state=None),
        )
        write_state_csv(run_dir / "state.csv", problem, report.state)
        write_controls_csv(run_dir / "controls.csv", problem, control)
        write_convergence_csv(run_dir / "convergence.csv", report)
    row = ExperimentSummary(M=problem.grid.M, run_dir=run_dir, **shared, **metrics)
    write_summary_txt(run_dir / "summary.txt", row)
    return row


_RUN_DIR = re.compile(f"({'|'.join(_KINDS)})_[1-9][0-9]*")


def run_experiment(spec):
    """Run the optimizer once per control count and write all output files.

    Returns one ExperimentSummary per control count, in the order requested.
    check_stability applies the stability policy first, so a refused grid
    raises ConfigurationError before any solve, as does an earlier run's
    ``<kind>_<M>/summary.txt`` in output_dir for a kind or count M this
    run does not request.  A solver failure is recorded in its run's row,
    status "blow_up" or "curvature_loss" (the exception's ``status``), and
    does not abort the remaining runs.  At most one count's trajectories
    are held at a time.
    """
    base_grid = spec.problem.grid
    ratio = check_stability(spec.problem)
    kind = spec.ic.kind
    names = (path.parent.name for path in spec.output_dir.glob("*_*/summary.txt"))
    runs = {(k, int(m)) for k, m in (n.split("_") for n in names if _RUN_DIR.fullmatch(n))}
    runs -= {(kind, m) for m in spec.control_counts}
    if stale := ", ".join(f"{k}_{m}" for k, m in sorted(runs)):
        raise ConfigurationError(f"{spec.output_dir} holds runs this run does not request: {stale}")
    y0 = make_initial_condition(spec.ic, base_grid)

    # The uncontrolled baseline does not involve controls, so one solve
    # serves every control count, and only its terminal norm is kept.  If
    # it blows up, the norm stays None: each count's first CG sweep is the
    # same zero-control march, and its row records the blow-up.
    uncontrolled_norm = None
    with suppress(SolverBlowUpError):
        zero = ControlField.zeros(base_grid)
        uncontrolled_norm = _terminal_norm(base_grid, solve_state(spec.problem, y0, zero).terminal)

    shared = dict(
        cfl_ratio=ratio,
        base_key=(spec.problem.phys, base_grid.N, base_grid.H, spec.ic, spec.cg),
        uncontrolled_terminal_norm=uncontrolled_norm,
    )
    return [_run_count(spec, problem, y0, shared) for problem in spec.problems]


@dataclass(frozen=True)
class ComparisonTable:
    """The runs of one experiment, ordered by M; ``best`` flags the rows at
    the minimal terminal norm, and ``tie`` marks a minimum several share."""

    rows: tuple

    @property
    def best(self):
        least = min(r.terminal_norm for r in self.rows)
        return tuple(r.terminal_norm == least for r in self.rows)

    @property
    def tie(self):
        return sum(self.best) > 1

    def format(self):
        header = f"{'controls':>8}  {'J_total':>14}  {'control_energy':>14}  {'terminal_norm':>14}  best"
        lines = [header]
        for r, best in zip(self.rows, self.best):
            lines.append(
                f"{r.M + 1:>8}  {r.cost.total:>14.6g}  {r.control_energy:>14.6g}  "
                f"{r.terminal_norm:>14.6g}  {'*' if best else '':>4}"
            )
        if self.tie:
            lines.append("tie: several control counts reach the minimal terminal norm")
        return "\n".join(lines)

    def csv_lines(self):
        lines = ["controls,J_total,control_energy,terminal_norm,best"]
        for r, best in zip(self.rows, self.best):
            lines.append(
                f"{r.M + 1},{_fmt(r.cost.total)},{_fmt(r.control_energy)},"
                f"{_fmt(r.terminal_norm)},{int(best)}"
            )
        return lines


def compare_controls(summaries):
    """The table of per-run summaries from one experiment, ordered by M.

    Requires at least two rows with equal ``base_key`` values, wherever
    they were run (eps 0.0 equals -0.0); rows of failed runs carry no
    metrics and are rejected.
    """
    if len(summaries) < 2:
        raise ValueError("need at least two runs to compare control counts")
    keys = {row.base_key for row in summaries}
    if len(keys) != 1:
        raise ValueError("summaries come from different experiments; refusing to compare")
    for row in summaries:
        if row.cost is None or row.terminal_norm is None:
            raise ValueError(f"run with M={row.M} has no metrics (status {row.status})")
    return ComparisonTable(tuple(sorted(summaries, key=lambda row: row.M)))
