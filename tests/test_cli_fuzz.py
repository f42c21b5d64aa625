"""Property tests: `adrcontrol check` and `run` exit with a code, never a traceback."""

import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrcontrol.cli import main

FLOAT_OPTIONS = ("L", "T", "mu", "eps", "k0", "k1", "k2")

edge_floats = st.sampled_from(
    [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324]
)
# Moderate values get past PhysicalConfig's checks to the grid arithmetic.
moderate_floats = st.floats(min_value=1e-3, max_value=1e3)
floats = st.one_of(edge_floats, moderate_floats, st.floats())
# Bounded above so that no case asks for millions of control nodes.
ints = st.integers(min_value=-5, max_value=10_000)


@st.composite
def check_options(draw):
    args = []
    for name in FLOAT_OPTIONS:
        if draw(st.booleans()):
            args.append(f"--{name}={draw(floats)!r}")
    for name in ("H", "N"):
        if draw(st.booleans()):
            args.append(f"--{name}={draw(ints)}")
    args.extend(f"--M={m}" for m in draw(st.lists(ints, max_size=3)))
    return args


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(check_options())
@example(["--L=1e-300"])  # h**2 underflows to zero
@example(["--L=1e200"])  # h**2 overflows
@example(["--T=1e308", "--mu=1e10"])  # the step count is infinite
def test_check_exits_0_or_1(args):
    assert main(["check", *args]) in (0, 1)


@st.composite
def run_cases(draw):
    """An initial condition, 1 to 3 control counts and the options of a tiny run."""
    H = draw(st.integers(1, 12))
    divisors = [m for m in range(1, H + 1) if H % m == 0]
    # Mostly distinct divisors of H and moderate values, so that most cases
    # get past the checks and solve; repeated counts are refused early.
    count = st.one_of(st.sampled_from(divisors), st.integers(1, 12))
    counts = draw(st.lists(count, min_size=1, max_size=3, unique=True))
    args = [f"--H={H}", f"--N={draw(st.integers(1, 80))}"]
    for name in ("mu", "eps", "k0", "k1", "k2"):
        if draw(st.booleans()):
            value = draw(edge_floats if draw(st.integers(0, 3)) == 3 else moderate_floats)
            args.append(f"--{name}={value!r}")
    return draw(st.sampled_from(["sine", "pulse"])), counts, args


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(run_cases())
# CG meets a negative curvature for both counts; each must still get its row.
@example(
    ("sine", [4, 2], ["--frequency=1", "--mu=0.01", "--eps=1.5", "--k0=1e-10", "--H=20", "--N=25"])
)
def test_run_exits_0_1_or_2_and_writes_every_summary(case):
    ic, counts, options = case
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        args = [f"--ic={ic}", *options, *(f"--M={m}" for m in counts)]
        rc = main(["run", *args, "--tol=1e-2", "--max-iter=20", f"--out={out}"])
        assert rc in (0, 1, 2)
        if rc != 1:
            for m in counts:
                assert (Path(out) / f"{ic}_{m}" / "summary.txt").is_file()
