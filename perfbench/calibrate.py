"""A fixed reference loop that measures how fast this CPU runs right now.

The benchmark's host is a share of a machine whose speed drifts by tens of
percent over seconds to minutes, and the drift is per CPU: two CPUs of one
host do not drift together.  Measured on a 2-vCPU VM, back-to-back
refine_h200 solves ran at about 5.3 s for minutes, then at about 3.8 s, so
medians of raw times from runs a few minutes apart spread by 0.23 to 0.29
of their median.  run.py therefore pins itself and its children to one CPU
and times this loop on it just before and just after each timed call, and
scales the call's time by REFERENCE_S over the mean of the two.  In ten
runs per workload the spread of wall_s medians fell from 0.20 to 0.067
(acceptance) and from 0.11 to 0.056 (refine_h200).

The loop is the program's kind of work, a Python march of small numpy
stencil operations, but no code of the program: a change to the program
cannot change the loop.
"""

import time

import numpy as np

STEPS = 4000
WIDTH = 203
REPEATS = 8
# speed_seconds() at the median speed of the host the bounds were set on (a
# 2-vCPU Intel Xeon VM, numpy 2, Python 3.11), so scaled times read close to
# seconds there.
REFERENCE_S = 0.45


def loop_seconds():
    """Time STEPS steps of a damped explicit stencil march on WIDTH nodes."""
    row = np.linspace(0.0, 1.0, WIDTH)
    start = time.perf_counter()
    for _ in range(STEPS):
        diffusion = (row[2:] - 2.0 * row[1:-1] + row[:-2]) * 0.25
        advection = (row[2:] - row[1:-1]) * 0.1
        nxt = row[1:-1] + 0.5 * (diffusion - advection)
        if not np.all(np.abs(nxt) <= 1e30):
            raise FloatingPointError("calibration loop diverged")
        row[1:-1] = nxt
    return time.perf_counter() - start


def speed_seconds():
    """Total time of REPEATS loops, about 0.45 s.

    A total, not a median: the CPU's speed flips between modes within a
    fraction of a second, and the program's times are totals too.
    """
    return sum(loop_seconds() for _ in range(REPEATS))
