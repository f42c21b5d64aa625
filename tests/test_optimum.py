"""CG's optimum against an independent exact optimum, at full grid size.

The discrete problem is a finite-horizon discrete-time LQR (Anderson &
Moore, *Optimal Control: Linear Quadratic Methods*, 1990):

    y_{n+1} = A y_n + B v_n,   n = 0..N,
    J = sum_{n=0..N} (q |y_n|^2 + r |v_n|^2) / 2 + qf |y_{N+1}|^2 / 2,

with q = k1*dt*h, r = k0*dt and qf = k2*h, the weights of
``objective.cost``.  The backward Riccati recursion gives its value matrix
P_0 and the optimum J_opt = y0' P_0 y0 / 2 without CG, the adjoint or the
gradient; only A and B are read, from one step of ``solve_state``.
"""

from dataclasses import replace

import numpy as np
import pytest

from adrcontrol import (
    CGConfig,
    ControlField,
    DiscreteProblem,
    InitialCondition,
    PhysicalConfig,
    cg_solve,
    cost,
    make_initial_condition,
    solve_state,
    stable_step_count,
)


def step_matrices(problem):
    """A and B of one step, the columns of one-step marches of unit data.

    A one-step problem still marches to level N + 1 = 2, so the step is
    column 1 of the trajectory.
    """
    g = problem.grid
    one = DiscreteProblem.create(replace(problem.phys, T=g.dt), 1, g.H, g.M)
    zero_state, zero_control = np.zeros(g.H + 1), ControlField.zeros(one.grid)
    A = [solve_state(one, e, zero_control).values[:, 1] for e in np.eye(g.H + 1)]
    B = [solve_state(one, zero_state, ControlField(np.outer(e, [1.0, 0.0]))).values[:, 1]
         for e in np.eye(g.M + 1)]
    return np.transpose(A), np.transpose(B)


def riccati_optimum(problem, y0):
    """J_opt = y0' P_0 y0 / 2, P_0 by the backward Riccati recursion."""
    g, p = problem.grid, problem.phys
    A, B = step_matrices(problem)
    q, r = p.k1 * g.dt * g.h, p.k0 * g.dt
    P = p.k2 * g.h * np.eye(g.H + 1)
    for _ in range(g.N + 1):
        PA, PB = P @ A, P @ B
        K = np.linalg.solve(r * np.eye(g.M + 1) + B.T @ PB, PB.T @ A)
        P = A.T @ (PA - PB @ K)
        P = 0.5 * (P + P.T) + q * np.eye(g.H + 1)
    return 0.5 * float(y0 @ P @ y0)


def stable_problem(phys, H, M):
    return DiscreteProblem.create(phys, N=stable_step_count(phys, H), H=H, M=M)


def sine(problem, frequency):
    ic = InitialCondition("sine", amplitude=10.0, frequency=frequency)
    return make_initial_condition(ic, problem.grid)


def test_riccati_matches_a_dense_least_squares_optimum():
    # The control-to-state map is affine, so J is half the squared norm of
    # a weighted residual; its columns come from full-horizon marches.
    problem = stable_problem(PhysicalConfig(), H=6, M=2)
    g, p = problem.grid, problem.phys
    y0 = sine(problem, 1) + np.linspace(0.0, 1.0, g.H + 1)
    shape = (g.M + 1, g.N + 1)
    weights = np.full((g.H + 1, g.N + 2), np.sqrt(p.k1 * g.dt * g.h))
    weights[:, -1] = np.sqrt(p.k2 * g.h)

    def residual(v, y_start):
        y = solve_state(problem, y_start, ControlField(v.reshape(shape))).values
        return np.concatenate([(weights * y).ravel(), np.sqrt(p.k0 * g.dt) * v])

    free = residual(np.zeros(np.prod(shape)), y0)
    columns = np.transpose([residual(e, np.zeros_like(y0)) for e in np.eye(np.prod(shape))])
    v = np.linalg.lstsq(columns, -free, rcond=None)[0].reshape(shape)
    j_dense = cost(problem, ControlField(v), solve_state(problem, y0, ControlField(v))).total

    j_opt = riccati_optimum(problem, y0)
    assert abs(j_opt - j_dense) <= 1e-12 * j_dense


@pytest.mark.parametrize("M, max_iterations", [(2, 7), (4, 9), (10, 10)])
def test_cg_reaches_the_exact_optimum_at_the_acceptance_grid(M, max_iterations):
    # At eps = 0 the adjoint is the exact transpose, so CG's gradient is
    # exact.  Measured gaps 7.7e-15, 4.0e-15 and 3.7e-15.
    problem = stable_problem(PhysicalConfig(eps=0.0), H=100, M=M)
    y0 = sine(problem, 5)
    _, report = cg_solve(problem, y0, CGConfig(tol=1e-8))
    j_cg, j_opt = report.cost_history[-1].total, riccati_optimum(problem, y0)
    assert report.status == "converged"
    assert report.iterations <= max_iterations
    assert abs(j_cg - j_opt) <= 1e-12 * j_opt


def test_optimum_refines_and_cg_gap_falls_at_second_order():
    # Default physics (eps = 0.1), sine1, M = 4, the stable N at each H.
    # J_opt reads 15.6408035692, 15.4776634467 and 15.4106261864: its
    # differences shrink by 2.43.  CG with the paper's adjoint ends above
    # J_opt by 1.78e-4, 4.49e-5 and 1.13e-5 relative, ratios 3.96 and 3.99.
    j_opt, gaps = [], []
    for H in (20, 40, 80):
        problem = stable_problem(PhysicalConfig(), H=H, M=4)
        y0 = sine(problem, 1)
        _, report = cg_solve(problem, y0, CGConfig(tol=1e-8))
        j_opt.append(riccati_optimum(problem, y0))
        gaps.append((report.cost_history[-1].total - j_opt[-1]) / j_opt[-1])
    shrink = (j_opt[0] - j_opt[1]) / (j_opt[1] - j_opt[2])
    assert 1.8 <= shrink <= 3.0, j_opt
    assert all(gap > 0.0 for gap in gaps), gaps
    assert all(abs(a / b - 4.0) <= 0.5 for a, b in zip(gaps, gaps[1:])), gaps
