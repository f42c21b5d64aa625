import numpy as np
import pytest

from adrcontrol import (
    AdjointField,
    ControlField,
    control_indices,
    cost,
    gradient,
    inner_product,
    solve_adjoint,
    solve_state,
)

from conftest import default_problem, make_problem, smooth_probe_set, traced_peak


def brute_force_cost(problem, v, y):
    """Plain-loop quadrature, kept independent of the vectorized code."""
    g, p = problem.grid, problem.phys
    acc_control = 0.0
    for k in range(g.M + 1):
        for n in range(g.N + 1):
            acc_control += v[k][n] ** 2
    acc_running = 0.0
    for n in range(g.N + 1):
        for j in range(g.H + 1):
            acc_running += y[j][n] ** 2
    acc_terminal = 0.0
    for j in range(g.H + 1):
        acc_terminal += y[j][g.N + 1] ** 2
    return (
        0.5 * p.k0 * g.dt * acc_control,
        0.5 * p.k1 * g.dt * g.h * acc_running,
        0.5 * p.k2 * g.h * acc_terminal,
    )


class TestCost:
    def test_zero_everything(self):
        p = make_problem(N=5)
        c = cost(p, ControlField.zeros(p.grid), solve_state(p, np.zeros(11), ControlField.zeros(p.grid)))
        assert c.total == 0.0
        assert (c.control_term, c.running_term, c.terminal_term) == (0.0, 0.0, 0.0)

    def test_single_control_sample(self):
        # dt = 0.5 and v[0,0] = 2: control term (1/2)*dt*4 = 1
        p = make_problem(T=0.5, N=1, H=2, M=2, k1=0.0, k2=0.0)
        v = np.zeros((3, 2))
        v[0, 0] = 2.0
        field = ControlField(v)
        y = solve_state(p, np.zeros(3), field)
        c = cost(p, field, y)
        assert c.control_term == 1.0
        assert c.running_term == 0.0
        assert c.terminal_term == 0.0
        assert c.total == 1.0

    def test_matches_brute_force_quadrature(self):
        p = make_problem(N=7, H=4, M=2, k0=0.8, k1=1.3, k2=0.4)
        rng = np.random.default_rng(21)
        v = ControlField(rng.standard_normal((3, 8)))
        y = solve_state(p, rng.standard_normal(5), v)
        c = cost(p, v, y)
        ctrl, run, term = brute_force_cost(p, v.values.tolist(), y.values.tolist())
        assert c.control_term == pytest.approx(ctrl, rel=1e-14)
        assert c.running_term == pytest.approx(run, rel=1e-14)
        assert c.terminal_term == pytest.approx(term, rel=1e-14)
        assert c.total == pytest.approx(ctrl + run + term, rel=1e-14)

    def test_terms_are_nonnegative_and_sum(self):
        p = make_problem(N=12, H=6, M=3)
        rng = np.random.default_rng(6)
        v = ControlField(rng.standard_normal((4, 13)))
        y = solve_state(p, rng.standard_normal(7), v)
        c = cost(p, v, y)
        assert c.control_term >= 0.0 and c.running_term >= 0.0 and c.terminal_term >= 0.0
        assert c.total == pytest.approx(c.control_term + c.running_term + c.terminal_term, rel=1e-14)

    def test_quadratic_scaling_from_rest(self):
        # from y0 = 0 the state is linear in v, so J(alpha*v) = alpha^2 * J(v)
        p = make_problem(N=30, H=10, M=2)
        rng = np.random.default_rng(17)
        v = ControlField(rng.standard_normal((3, 31)))
        scaled = ControlField(3.0 * v.values)
        J1 = cost(p, v, solve_state(p, np.zeros(11), v)).total
        J3 = cost(p, scaled, solve_state(p, np.zeros(11), scaled)).total
        assert J3 == pytest.approx(9.0 * J1, rel=1e-12)

    def test_allocates_no_trajectory_sized_temporary(self):
        p = default_problem()
        rng = np.random.default_rng(3)
        v = ControlField(rng.standard_normal((p.grid.M + 1, p.grid.N + 1)))
        y = solve_state(p, rng.standard_normal(p.grid.H + 1), v)
        c, peak = traced_peak(cost, p, v, y)
        assert c.running_term > 0.0
        assert peak < 0.05 * y.values.nbytes

    def test_rejects_shape_mismatch(self):
        p = make_problem(N=5)
        q = make_problem(N=6)
        y = solve_state(q, np.zeros(11), ControlField.zeros(q.grid))
        with pytest.raises(ValueError):
            cost(p, ControlField.zeros(p.grid), y)
        with pytest.raises(ValueError):
            cost(q, ControlField.zeros(p.grid), y)


class TestInnerProduct:
    def test_single_entry(self):
        # dt = 0.1 and one shared sample of 3: 0.1 * 9 = 0.9
        p = make_problem(N=10, H=4)
        a = np.zeros((3, 11))
        a[1, 4] = 3.0
        assert inner_product(p.grid, ControlField(a), ControlField(a)) == pytest.approx(0.9, rel=1e-15)

    def test_zero(self):
        p = make_problem(N=10)
        z = ControlField.zeros(p.grid)
        assert inner_product(p.grid, z, z) == 0.0

    def test_symmetric_and_bilinear(self):
        p = make_problem(N=14, H=6, M=2)
        rng = np.random.default_rng(30)
        a, b, c = (ControlField(rng.standard_normal((3, 15))) for _ in range(3))
        ab = inner_product(p.grid, a, b)
        assert ab == pytest.approx(inner_product(p.grid, b, a), rel=1e-14)
        lhs = inner_product(p.grid, ControlField(2.0 * a.values + b.values), c)
        rhs = 2.0 * inner_product(p.grid, a, c) + inner_product(p.grid, b, c)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)

    def test_rejects_mismatched_shapes(self):
        p = make_problem(N=10)
        with pytest.raises(ValueError):
            inner_product(p.grid, ControlField.zeros(p.grid), ControlField(np.zeros((3, 5))))
        with pytest.raises(ValueError):
            inner_product(p.grid, ControlField(np.zeros((3, 5))), ControlField.zeros(p.grid))


class TestGradient:
    def test_zero_inputs_give_zero(self):
        p = make_problem(N=8)
        g = gradient(p, ControlField.zeros(p.grid), AdjointField(np.zeros((11, 9))))
        assert np.all(g.values == 0.0)

    def test_combines_weighted_control_and_traces(self):
        p = make_problem(N=4, H=10, M=2, k0=3.0)
        v = ControlField(np.ones((3, 5)))
        adj = AdjointField(np.full((11, 5), 2.0))
        g = gradient(p, v, adj)
        assert np.array_equal(g.values, np.full((3, 5), 5.0))

    def test_reads_traces_at_control_nodes(self):
        p = make_problem(N=3, H=10, M=2)
        adj = np.zeros((11, 4))
        adj[0, :] = 1.0   # node 0
        adj[5, :] = 7.0   # node 5
        adj[10, :] = -2.0 # node 10
        adj[3, :] = 99.0  # not a control node; must be ignored
        g = gradient(p, ControlField.zeros(p.grid), AdjointField(adj))
        assert control_indices(p.grid) == [0, 5, 10]
        assert np.array_equal(g.values[0], np.full(4, 1.0))
        assert np.array_equal(g.values[1], np.full(4, 7.0))
        assert np.array_equal(g.values[2], np.full(4, -2.0))

    def test_affine_in_both_arguments(self):
        # integer-valued data keeps every operation exact in floats
        p = make_problem(N=6, H=4, M=2, k0=2.0)
        rng = np.random.default_rng(40)
        v1 = ControlField(rng.integers(-5, 6, size=(3, 7)).astype(float))
        v2 = ControlField(rng.integers(-5, 6, size=(3, 7)).astype(float))
        a1 = AdjointField(rng.integers(-5, 6, size=(5, 7)).astype(float))
        a2 = AdjointField(rng.integers(-5, 6, size=(5, 7)).astype(float))
        lhs = gradient(p, ControlField(v1.values + v2.values), AdjointField(a1.values + a2.values))
        rhs = gradient(p, v1, a1).values + gradient(p, v2, a2).values
        assert np.array_equal(lhs.values, rhs)

    def test_rejects_mismatched_adjoint(self):
        p = make_problem(N=6)
        with pytest.raises(ValueError):
            gradient(p, ControlField.zeros(p.grid), AdjointField(np.zeros((11, 5))))
        with pytest.raises(ValueError):
            gradient(p, ControlField(np.zeros((3, 6))), AdjointField(np.zeros((11, 7))))


class TestGradientAgainstFiniteDifferences:
    @staticmethod
    def relative_error(H, N, seed=0, sigma=1e-5):
        p = make_problem(N=N, H=H, M=2)
        g = p.grid
        v, dv, y0 = smooth_probe_set(g, p.phys, seed)
        grad = gradient(p, v, solve_adjoint(p, solve_state(p, y0, v)))
        directional = inner_product(g, grad, dv)
        plus = ControlField(v.values + sigma * dv.values)
        minus = ControlField(v.values - sigma * dv.values)
        J_plus = cost(p, plus, solve_state(p, y0, plus)).total
        J_minus = cost(p, minus, solve_state(p, y0, minus)).total
        fd = (J_plus - J_minus) / (2.0 * sigma)
        return abs(directional - fd) / abs(fd)

    def test_matches_central_differences(self):
        assert self.relative_error(10, 100) < 5e-2

    def test_error_drops_under_refinement(self):
        coarse = self.relative_error(10, 100)
        fine = self.relative_error(20, 200)
        assert coarse / fine >= 1.8
