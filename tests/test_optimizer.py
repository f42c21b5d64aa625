import numpy as np
import pytest

from adrcontrol import (
    CGConfig,
    ConfigurationError,
    ControlField,
    CurvatureLossError,
    DiscreteProblem,
    InitialCondition,
    PhysicalConfig,
    cfl_ratio,
    cg_solve,
    cost,
    gradient,
    inner_product,
    make_initial_condition,
    solve_adjoint,
    solve_perturbation,
    solve_state,
)
from adrcontrol.optimizer import (
    STATUS_CONVERGED,
    STATUS_MAX_ITER,
    STATUS_TRIVIAL,
    resolve_max_iter,
)

from conftest import default_problem, make_problem, smooth_profile, traced_peak


def tiny_symmetric_problem():
    # eps = 0 makes the forward/adjoint pair an exact transpose, so CG sees a
    # genuine SPD system of dimension (M+1)*(N+1) = 9
    return make_problem(mu=0.1, eps=0.0, N=2, H=4, M=2)


def bump(problem, scale=1.0):
    return scale * smooth_profile(problem.grid, problem.phys.L, np.array([1.0, 0.2, -0.5]))


def control_dimension(grid):
    return (grid.M + 1) * (grid.N + 1)


def hessian_action(problem, w_flat):
    g = problem.grid
    w = ControlField(w_flat.reshape(g.M + 1, g.N + 1))
    dy = solve_perturbation(problem, w)
    return gradient(problem, w, solve_adjoint(problem, dy)).values.ravel()


def assemble_dense_system(problem):
    """Hessian columns from unit controls plus the gradient at u = 0."""
    g = problem.grid
    dim = control_dimension(g)
    A = np.zeros((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        A[:, i] = hessian_action(problem, e)
    y0 = bump(problem)
    state = solve_state(problem, y0, ControlField.zeros(g))
    g0 = gradient(problem, ControlField.zeros(g), solve_adjoint(problem, state)).values.ravel()
    return A, g0


class TestCGConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 2.0])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ConfigurationError):
            CGConfig(tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -2, 1.5, True])
    def test_rejects_bad_iteration_cap(self, max_iter):
        with pytest.raises(ConfigurationError):
            CGConfig(max_iter=max_iter)

    def test_default_cap_is_three_control_dimensions(self):
        p = make_problem(N=9, H=10, M=5)
        assert resolve_max_iter(CGConfig(), p.grid) == 3 * 6 * 10
        assert resolve_max_iter(CGConfig(max_iter=7), p.grid) == 7


class TestTrivialOptimum:
    def test_zero_initial_state(self):
        p = make_problem(N=20)
        u, report = cg_solve(p, np.zeros(11), CGConfig(tol=1e-8))
        assert report.status == STATUS_TRIVIAL
        assert report.iterations == 0
        assert np.all(u.values == 0.0)
        assert len(report.cost_history) == 1
        assert report.cost_history[0].total == 0.0
        assert report.grad_ratio_history == (0.0,)


class TestReportedState:
    """CGReport.state is the trajectory cg_solve priced its final cost on."""

    CASES = {
        STATUS_CONVERGED: (dict(N=60, H=10, M=2), CGConfig(tol=1e-6)),
        STATUS_MAX_ITER: (dict(N=60, H=10, M=5), CGConfig(tol=1e-12, max_iter=3)),
        # no state penalty: the gradient at u = 0 vanishes though y0 does not
        STATUS_TRIVIAL: (dict(N=60, H=10, M=2, k1=0.0, k2=0.0), CGConfig()),
    }

    @pytest.mark.parametrize("status", CASES)
    def test_matches_a_fresh_solve_at_the_returned_control(self, status):
        kwargs, config = self.CASES[status]
        p = make_problem(**kwargs)
        y0 = bump(p)
        u, report = cg_solve(p, y0, config)
        assert report.status == status
        fresh = solve_state(p, y0, u).values
        assert report.state.values.shape == fresh.shape
        assert np.abs(report.state.values - fresh).max() <= 1e-12 * np.abs(fresh).max()

    @pytest.mark.parametrize("status", CASES)
    def test_final_cost_is_priced_on_it(self, status):
        kwargs, config = self.CASES[status]
        p = make_problem(**kwargs)
        u, report = cg_solve(p, bump(p), config)
        assert cost(p, u, report.state).total == report.cost_history[-1].total


class TestPeakMemory:
    def test_holds_two_trajectories_and_the_adjoint_traces(self):
        # State y and perturbation dy are trajectories; the adjoint sweeps
        # store only the M+1 control traces.  Storing the whole adjoint read
        # 3.40 trajectories here, a third trajectory.
        p = default_problem()
        y0 = make_initial_condition(InitialCondition("sine", frequency=5), p.grid)
        (_, report), peak = traced_peak(cg_solve, p, y0)
        assert report.status == STATUS_CONVERGED
        assert peak <= 2.6 * report.state.values.nbytes

    def test_sweeps_hold_no_dead_control_vector(self):
        # With M = H a control vector is about one trajectory, so each one
        # alive through a sweep shows.  Both sweeps run with u, w and grad
        # alive; the adjoint traces, A w and the updates' temporaries add at
        # most two more.  Keeping the last A w through the sweeps read 6.18.
        p = default_problem(H=100, M=100)
        y0 = make_initial_condition(InitialCondition("sine", frequency=5), p.grid)
        (u, report), peak = traced_peak(cg_solve, p, y0)
        assert report.status == STATUS_CONVERGED
        assert peak <= 2 * report.state.values.nbytes + 5.5 * u.values.nbytes

    def test_wraps_each_control_array_once(self, monkeypatch):
        # Each ControlField scans its array for finiteness.  CG wraps u and w
        # once and the gradient wraps the first gradient and each A w: k + 3
        # for k iterations.  Re-wrapping u and w every iteration read 3k + 5.
        wraps = []
        check = ControlField.__post_init__
        monkeypatch.setattr(ControlField, "__post_init__", lambda self: wraps.append(1) or check(self))
        p = make_problem(N=60, H=10, M=5)
        u, report = cg_solve(p, bump(p), CGConfig(tol=1e-12, max_iter=3))
        assert report.iterations == 3 and np.any(u.values != 0.0)
        assert len(wraps) <= report.iterations + 3


class TestIterationPins:
    # Iteration counts do not drift with the host, unlike times: a change
    # that slows CG's convergence shows here.  Measured: 18/18/22.
    @pytest.mark.parametrize("M, bound", [(2, 18), (4, 18), (10, 22)])
    def test_sine5_at_tol_1e_8(self, M, bound):
        p = default_problem(M=M)
        y0 = make_initial_condition(InitialCondition("sine", frequency=5), p.grid)
        _, report = cg_solve(p, y0, CGConfig(tol=1e-8))
        assert report.status == STATUS_CONVERGED
        assert report.iterations <= bound


class TestTinySymmetricInstance:
    def test_terminates_within_dimension_plus_slack(self):
        p = tiny_symmetric_problem()
        u, report = cg_solve(p, bump(p), CGConfig(tol=1e-10, max_iter=50))
        assert report.status == STATUS_CONVERGED
        assert report.iterations <= 11
        assert report.grad_ratio_history[-1] < 1e-20

    def test_matches_dense_solve(self):
        p = tiny_symmetric_problem()
        A, g0 = assemble_dense_system(p)
        exact = np.linalg.solve(A, -g0)
        u, _ = cg_solve(p, bump(p), CGConfig(tol=1e-10, max_iter=50))
        err = np.linalg.norm(u.values.ravel() - exact) / np.linalg.norm(exact)
        assert err < 1e-8

    def test_hessian_is_symmetric_without_advection(self):
        p = tiny_symmetric_problem()
        A, _ = assemble_dense_system(p)
        assert np.max(np.abs(A - A.T)) / np.max(np.abs(A)) < 1e-14


class TestRecurrences:
    """Mirror the documented recurrences step by step with the public
    operators, checking the internal identities cg_solve relies on, then
    confirm cg_solve lands on the same iterate."""

    def run_mirror(self, problem, y0, iterations, noise_floor=0.0):
        g = problem.grid
        vdot = lambda a, b: g.dt * float(np.sum(a * b))
        u = np.zeros((g.M + 1, g.N + 1))
        grad = gradient(
            problem,
            ControlField(u),
            solve_adjoint(problem, solve_state(problem, y0, ControlField(u))),
        ).values
        w = grad.copy()
        gg0 = vdot(grad, grad)
        gg = gg0
        directions, curvatures, states = [], [], []
        for _ in range(iterations):
            if gg / gg0 < noise_floor:
                break
            aw = hessian_action(problem, w.ravel()).reshape(w.shape)
            curv = vdot(aw, w)
            rho = gg / curv
            directions.append(w.copy())
            curvatures.append(curv)
            states.append((u.copy(), rho))
            u = u - rho * w
            grad = grad - rho * aw
            gg_next = vdot(grad, grad)
            w = grad + (gg_next / gg) * w
            gg = gg_next
        return u, grad, directions, curvatures, states

    def test_directions_stay_conjugate(self):
        # conjugacy is only meaningful for directions built before the
        # gradient collapses to rounding noise, hence the 1e-12 ratio floor
        p = tiny_symmetric_problem()
        _, _, directions, _, _ = self.run_mirror(p, bump(p), 9, noise_floor=1e-12)
        assert len(directions) >= 7
        actions = [hessian_action(p, w.ravel()) for w in directions]
        norms = [p.grid.dt * float(np.sum(a * w.ravel())) for a, w in zip(actions, directions)]
        worst = 0.0
        for i in range(len(directions)):
            for j in range(i):
                cross = p.grid.dt * float(np.sum(actions[i] * directions[j].ravel()))
                worst = max(worst, abs(cross) / np.sqrt(norms[i] * norms[j]))
        assert worst < 1e-6

    def test_recursive_gradient_tracks_fresh_gradient(self):
        p = make_problem(N=50, H=10, M=2)
        y0 = bump(p)
        u, grad, _, _, _ = self.run_mirror(p, y0, 6)
        fresh = gradient(
            p, ControlField(u), solve_adjoint(p, solve_state(p, y0, ControlField(u)))
        ).values
        scale = np.linalg.norm(
            gradient(
                p,
                ControlField.zeros(p.grid),
                solve_adjoint(p, solve_state(p, y0, ControlField.zeros(p.grid))),
            ).values
        )
        assert np.linalg.norm(grad - fresh) / scale < 1e-8

    def test_step_length_is_a_line_minimum(self):
        p = make_problem(N=100, H=10, M=2)
        y0 = bump(p)
        _, _, _, _, states = self.run_mirror(p, y0, 3)
        for (u, rho), w in zip(states, self.run_mirror(p, y0, 3)[2]):
            costs = []
            for s in (0.5, 1.0, 1.5):
                candidate = ControlField(u - s * rho * w)
                costs.append(cost(p, candidate, solve_state(p, y0, candidate)).total)
            assert costs[1] < costs[0]
            assert costs[1] < costs[2]

    def test_mirror_loop_matches_cg_solve(self):
        p = tiny_symmetric_problem()
        y0 = bump(p)
        u_mirror, _, _, _, _ = self.run_mirror(p, y0, 9)
        u, report = cg_solve(p, y0, CGConfig(tol=1e-10, max_iter=9))
        if report.iterations == 9:
            assert np.allclose(u.values, u_mirror, rtol=1e-12, atol=1e-14)


class TestConvergenceBehavior:
    def test_cost_history_non_increasing_on_symmetric_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(4):
            H = int(rng.choice([4, 8, 12]))
            p = make_problem(mu=0.15, eps=0.0, N=30, H=H, M=2)
            y0 = rng.standard_normal(H + 1)
            _, report = cg_solve(p, y0, CGConfig(tol=1e-6))
            totals = [c.total for c in report.cost_history]
            assert report.status == STATUS_CONVERGED
            for a, b in zip(totals, totals[1:]):
                assert b <= a * (1.0 + 1e-12)
            assert report.grad_ratio_history[-1] < 1e-12

    def test_histories_align_with_iterations(self):
        p = make_problem(N=40, H=10, M=2)
        _, report = cg_solve(p, bump(p), CGConfig(tol=1e-4))
        assert report.status == STATUS_CONVERGED
        assert len(report.cost_history) == report.iterations + 1
        assert len(report.grad_ratio_history) == report.iterations + 1
        assert report.grad_ratio_history[0] == 1.0
        assert report.grad_ratio_history[-1] < 1e-8

    def test_iteration_cap_reported(self):
        p = make_problem(N=40, H=10, M=2)
        _, report = cg_solve(p, bump(p), CGConfig(tol=1e-12, max_iter=2))
        assert report.status == STATUS_MAX_ITER
        assert report.iterations == 2
        assert len(report.cost_history) == 3

    def test_solution_scales_with_initial_state(self):
        p = make_problem(N=60, H=10, M=2)
        y0 = bump(p)
        u1, r1 = cg_solve(p, y0, CGConfig(tol=1e-8))
        u2, r2 = cg_solve(p, 2.5 * y0, CGConfig(tol=1e-8))
        assert r1.status == r2.status == STATUS_CONVERGED
        err = np.linalg.norm(u2.values - 2.5 * u1.values) / np.linalg.norm(u1.values)
        assert err < 1e-8

    def test_power_of_two_scaling_is_exact(self):
        # doubling y0 scales every float operation exactly, so the iterates
        # must agree to the last bit
        p = make_problem(N=60, H=10, M=2)
        y0 = bump(p)
        u1, r1 = cg_solve(p, y0, CGConfig(tol=1e-8))
        u2, r2 = cg_solve(p, 2.0 * y0, CGConfig(tol=1e-8))
        assert r1.iterations == r2.iterations
        assert np.array_equal(u2.values, 2.0 * u1.values)

    def test_deterministic_rerun(self):
        p = make_problem(N=50, H=10, M=2)
        y0 = bump(p)
        u1, r1 = cg_solve(p, y0, CGConfig(tol=1e-6))
        u2, r2 = cg_solve(p, y0, CGConfig(tol=1e-6))
        assert np.array_equal(u1.values, u2.values)
        assert r1 == r2


class TestCurvatureGuard:
    def test_wildly_unstable_problem_reports_curvature_loss(self):
        # amplification overwhelms the k0 term and flips the curvature sign
        phys = PhysicalConfig(mu=0.01, eps=1.5, k0=1e-10)
        p = DiscreteProblem.create(phys, N=10, H=20, M=2)
        assert cfl_ratio(p) > 2.0
        y0 = np.sin(np.pi * np.arange(21) / 20)
        with pytest.raises(CurvatureLossError) as info:
            cg_solve(p, y0, CGConfig(tol=1e-3))
        assert info.value.iteration == 0
        assert info.value.curvature <= 0.0
        assert "iteration 0" in str(info.value)
