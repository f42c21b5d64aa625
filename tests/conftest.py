"""Shared numeric helpers for the test suite.

The gradient and duality checks need probe data that represents one fixed
continuum function regardless of grid resolution, otherwise refinement
studies measure noise instead of consistency order.  The helpers below build
low-order Fourier curves in time and smooth profiles in space from a given
coefficient array; tests draw the coefficients once from a seeded generator.
"""

import tracemalloc

import numpy as np

from adrcontrol import ControlField, DiscreteProblem, PhysicalConfig, stable_step_count


def default_problem(H=100, M=4):
    """The default physics on its stable grid."""
    phys = PhysicalConfig()
    return DiscreteProblem.create(phys, N=stable_step_count(phys, H), H=H, M=M)


def traced_peak(fn, *args):
    """(result of fn(*args), peak bytes allocated while it ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def smooth_controls(grid, horizon, coef):
    """Control field v[k](t) = a0 + a1*sin(pi t/T) + a2*cos(2 pi t/T)."""
    t = np.linspace(0.0, horizon, grid.N + 1)
    v = np.zeros((grid.M + 1, grid.N + 1))
    for k in range(grid.M + 1):
        a = coef[k]
        v[k] = a[0] + a[1] * np.sin(np.pi * t / horizon) + a[2] * np.cos(2 * np.pi * t / horizon)
    return ControlField(v)


def smooth_profile(grid, length, b):
    """Initial state b0*sin(pi x/L) + b1*cos(pi x/L) + b2*x*(L - x)."""
    x = np.linspace(0.0, length, grid.H + 1)
    return (
        b[0] * np.sin(np.pi * x / length)
        + b[1] * np.cos(np.pi * x / length)
        + b[2] * x * (length - x)
    )


def smooth_probe_set(grid, phys, seed):
    """Draw (controls, direction, initial state) probes in a fixed order."""
    rng = np.random.default_rng(seed)
    cv = rng.standard_normal((grid.M + 1, 3))
    cd = rng.standard_normal((grid.M + 1, 3))
    cb = rng.standard_normal(3)
    v = smooth_controls(grid, phys.T, cv)
    dv = smooth_controls(grid, phys.T, cd)
    y0 = smooth_profile(grid, phys.L, cb)
    return v, dv, y0
