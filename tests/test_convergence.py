"""Observed order of the state against a closed-form solution of the PDE.

With zero controls the ends are homogeneous Neumann, and

    y = exp(lam*t) * exp(a*x) * (cos(k*x) - (a/k)*sin(k*x)),
    a = eps/(2*mu),  k = m*pi/L,  lam = 1 - mu*k^2 - eps^2/(4*mu),

solves y_t = mu*y_xx - eps*y_x + y with y_x = 0 at both ends.  Each grid is
the stable one of the default physics at that eps (ratio 0.5), level N is
time T, and the error is the discrete L2 norm sqrt(h * sum e^2) over the
nodes.

Read on the vertex grid x_j = j*h of [0, L], the scheme converges at first
order: the closure y[-1] = y[0] is a one-sided Neumann condition there.  The
same closure is the second-order condition of a cell-centred grid on
[-h/2, L + h/2], and read that way (x_j + h/2, length L + h) the error falls
at second order.
"""

import math

import numpy as np
import pytest

from adrcontrol import (
    ControlField,
    DiscreteProblem,
    PhysicalConfig,
    grid_nodes,
    solve_state,
    stable_step_count,
)

MODE = 2
CELLS = (25, 50, 100, 200)


def closed_form(phys, x, t, length):
    a = phys.eps / (2.0 * phys.mu)
    k = MODE * math.pi / length
    lam = 1.0 - phys.mu * k**2 - phys.eps**2 / (4.0 * phys.mu)
    return math.exp(lam * t) * np.exp(a * x) * (np.cos(k * x) - (a / k) * np.sin(k * x))


def terminal_error(eps, H, cell_centred):
    phys = PhysicalConfig(eps=eps)
    p = DiscreteProblem.create(phys, N=stable_step_count(phys, H), H=H, M=1)
    g = p.grid
    x, length = grid_nodes(g), phys.L
    if cell_centred:
        x, length = x + g.h / 2.0, length + g.h
    y0 = closed_form(phys, x, 0.0, length)
    y = solve_state(p, y0, ControlField.zeros(g)).values[:, g.N]
    return math.sqrt(g.h * np.sum((y - closed_form(phys, x, phys.T, length)) ** 2))


def observed_orders(eps, cell_centred):
    errors = [terminal_error(eps, H, cell_centred) for H in CELLS]
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("eps", [0.0, 0.1, -0.2])
def test_vertex_grid_converges_at_first_order(eps):
    # measured halving ratios 1.980/1.991/1.995 (eps = 0) and 1.982/1.991/1.996
    orders = observed_orders(eps, cell_centred=False)
    assert all(abs(order - 1.0) < 0.05 for order in orders), orders


def test_cell_centred_reading_converges_at_second_order():
    # measured halving ratios 4.91/4.45/4.23: orders 2.30/2.15/2.08, falling to 2
    orders = observed_orders(0.0, cell_centred=True)
    assert all(abs(order - 2.0) < 0.35 for order in orders), orders
    assert orders == sorted(orders, reverse=True)
    assert abs(orders[-1] - 2.0) < 0.1
