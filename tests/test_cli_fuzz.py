"""Property test: `adrcontrol check` exits 0 or 1 on any option values."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrcontrol.cli import main

FLOAT_OPTIONS = ("L", "T", "mu", "eps", "k0", "k1", "k2")

edge_floats = st.sampled_from(
    [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324]
)
# Moderate values get past PhysicalConfig's checks to the grid arithmetic.
floats = st.one_of(edge_floats, st.floats(min_value=1e-3, max_value=1e3), st.floats())
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
