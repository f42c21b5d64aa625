import numpy as np
import pytest

from adrcontrol import (
    ControlField,
    DiscreteProblem,
    PhysicalConfig,
    SolverBlowUpError,
    cfl_ratio,
    control_indices,
    gradient,
    inner_product,
    solve_adjoint,
    solve_perturbation,
    solve_state,
)
from adrcontrol import solvers
from adrcontrol.solvers import BLOWUP_LIMIT, GUARD_BLOCK, AdjointField, StateField

from conftest import default_problem, make_problem, smooth_probe_set, traced_peak


def random_controls(grid, rng, scale=1.0):
    return ControlField(scale * rng.standard_normal((grid.M + 1, grid.N + 1)))


def reference_state(problem, y0, v):
    """Plain per-step march of the state with a per-step overflow guard."""
    g, p = problem.grid, problem.phys
    H, N, M, h, dt, mu, eps = g.H, g.N, g.M, g.h, g.dt, p.mu, p.eps
    nodes = control_indices(g)[1:-1]
    work = np.zeros((N + 2, H + 3))
    work[0, 1:-1] = y0
    for n in range(N + 1):
        row = work[n]
        row[0] = row[1] + (h / mu) * v[0, n]
        row[-1] = row[-2] + (h / mu) * v[M, n]
        for j in range(1, H + 2):
            diffusion = (row[j + 1] - 2.0 * row[j] + row[j - 1]) / h**2
            advection = (row[j + 1] - row[j]) / h
            work[n + 1, j] = row[j] + dt * (mu * diffusion - eps * advection + row[j])
        for k, node in enumerate(nodes, start=1):
            work[n + 1, node + 1] += (dt / h) * v[k, n]
        if not np.all(np.abs(work[n + 1, 1:-1]) <= BLOWUP_LIMIT):
            raise SolverBlowUpError(step=n + 1)
    return work[:, 1:-1].T


def reference_adjoint(problem, y):
    """Plain per-step backward march of the adjoint with a per-step guard."""
    g, p = problem.grid, problem.phys
    H, N, h, dt, mu, eps = g.H, g.N, g.h, g.dt, p.mu, p.eps
    left_gain = mu / (mu - eps * h)
    right_gain = (mu - eps * h) / mu
    work = np.zeros((N + 1, H + 3))
    work[N, 1:-1] = p.k2 * y[:, N + 1]
    for n in range(N, 0, -1):
        row = work[n]
        row[0] = left_gain * row[1]
        row[-1] = right_gain * row[-2]
        for j in range(1, H + 2):
            diffusion = (row[j + 1] - 2.0 * row[j] + row[j - 1]) / h**2
            advection = (row[j + 1] - row[j]) / h
            work[n - 1, j] = row[j] + dt * (mu * diffusion + eps * advection + row[j] + p.k1 * y[j - 1, n])
        if not np.all(np.abs(work[n - 1, 1:-1]) <= BLOWUP_LIMIT):
            raise SolverBlowUpError(step=n - 1)
    return work[:, 1:-1].T


def boundary_update_defect(lo, mid, hi, left_ghost, x, right_ghost, nxt, source=0.0):
    """Largest defect of the boundary-node updates, relative to their terms.

    The next level must satisfy nxt[0] = lo*left_ghost + mid*x[0] + hi*x[1]
    + source[0] at node 0, and the mirror image at node H, up to rounding.
    """
    source = np.broadcast_to(source, x.shape)
    terms = (
        (lo * left_ghost, mid * x[0], hi * x[1], source[0], -nxt[0]),
        (lo * x[-2], mid * x[-1], hi * right_ghost, source[-1], -nxt[-1]),
    )
    return max(
        float(np.max(np.abs(sum(t)) / np.maximum(sum(np.abs(u) for u in t), 1e-300)))
        for t in terms
    )


def unstable_problem(N=2503):
    # cfl ratio near 2 amplifies the highest mode by about 3 per step
    p = DiscreteProblem.create(PhysicalConfig(mu=1.0, eps=0.1, T=N / 2503), N=N, H=50, M=2)
    assert cfl_ratio(p) > 1.9
    return p


def blow_up_step(solve, *args):
    with pytest.raises(SolverBlowUpError) as info:
        solve(*args)
    assert str(info.value.step) in str(info.value)
    return info.value.step


class TestFields:
    @pytest.mark.parametrize(
        "field, values",
        [
            *[
                (cls, values)
                for cls in (ControlField, StateField, AdjointField)
                for values in (np.zeros(4), np.zeros((1, 4)), np.zeros((3, 0)))
            ],
            (StateField, np.zeros((3, 1))),
            (ControlField, np.array([[0.0, np.nan], [0.0, 0.0]])),
            (ControlField, np.array([[0.0, 0.0], [np.inf, 0.0]])),
        ],
    )
    def test_rejects_invalid_arrays(self, field, values):
        with pytest.raises(ValueError):
            field(values)


class TestSolveState:
    def test_zero_data_gives_zero_trajectory(self):
        p = make_problem(N=20)
        y = solve_state(p, np.zeros(11), ControlField.zeros(p.grid))
        assert y.values.shape == (11, 22)
        assert np.all(y.values == 0.0)

    def test_constant_state_grows_by_reaction_factor(self):
        # with zero controls a spatially constant state obeys y^(n+1) = (1+dt)*y^n
        p = make_problem(mu=0.3, eps=0.2, N=25, H=5, M=1)
        c = 0.7
        y = solve_state(p, np.full(6, c), ControlField.zeros(p.grid))
        expected = c
        for n in range(p.grid.N + 2):
            assert y.values[:, n] == pytest.approx(np.full(6, expected), rel=1e-13)
            expected *= 1.0 + p.grid.dt

    def test_single_step_by_hand(self):
        # H=2, h=0.5, dt=0.1, mu=0.1, eps=0, y0 = (0,1,0), no controls:
        # each boundary node receives dt*mu/h^2 * 1 = 0.04, the peak loses
        # 2*dt*mu/h^2 but grows by dt through the reaction: 1 - 0.08 + 0.1
        p = make_problem(T=0.1, mu=0.1, eps=0.0, N=1, H=2, M=2)
        y = solve_state(p, np.array([0.0, 1.0, 0.0]), ControlField.zeros(p.grid))
        assert y.values[:, 1] == pytest.approx([0.04, 1.02, 0.04], abs=1e-15)

    def test_boundary_nodes_follow_flux_closure_at_every_step(self):
        # The Neumann closure y[-1] = y[0] + (h/mu)*v[0], y[H+1] = y[H] + (h/mu)*v[M]
        # substituted into the stencil at nodes 0 and H.
        p = make_problem(N=40, H=8, M=2)
        rng = np.random.default_rng(5)
        v = random_controls(p.grid, rng).values
        y = solve_state(p, rng.standard_normal(9), ControlField(v)).values
        g, mu, eps = p.grid, p.phys.mu, p.phys.eps
        lo = g.dt * mu / g.h**2
        mid = 1.0 + g.dt * (1.0 - 2.0 * mu / g.h**2 + eps / g.h)
        hi = g.dt * (mu / g.h**2 - eps / g.h)
        x, nxt = y[:, :-1], y[:, 1:]
        left = x[0] + (g.h / mu) * v[0]
        right = x[-1] + (g.h / mu) * v[g.M]
        assert boundary_update_defect(lo, mid, hi, left, x, right, nxt) <= 1e-14

    def test_interior_sources_inject_at_control_nodes_only(self):
        p = make_problem(N=10, H=10, M=2)
        v = np.zeros((3, 11))
        v[1, 0] = 2.0  # middle control, first step only
        y = solve_state(p, np.zeros(11), ControlField(v))
        g = p.grid
        expected = np.zeros(11)
        expected[control_indices(g)[1]] = g.dt * 2.0 / g.h
        assert np.array_equal(y.values[:, 1], expected)

    def test_linearity_in_data_and_controls(self):
        p = make_problem(N=60, H=12, M=3)
        rng = np.random.default_rng(9)
        y0a, y0b = rng.standard_normal((2, 13))
        va, vb = random_controls(p.grid, rng), random_controls(p.grid, rng)
        ya = solve_state(p, y0a, va)
        yb = solve_state(p, y0b, vb)
        combo = solve_state(p, 2.0 * y0a - 0.5 * y0b, ControlField(2.0 * va.values - 0.5 * vb.values))
        reference = 2.0 * ya.values - 0.5 * yb.values
        assert np.allclose(combo.values, reference, rtol=1e-12, atol=1e-12)

    def test_rejects_mismatched_shapes(self):
        p = make_problem()
        with pytest.raises(ValueError):
            solve_state(p, np.zeros(12), ControlField.zeros(p.grid))
        with pytest.raises(ValueError):
            solve_state(p, np.zeros(11), ControlField(np.zeros((3, 50))))

    def test_blow_up_raises_with_step_index(self):
        # The guard is checked once per block of steps.  These amplitudes
        # blow up on the last level of a block, on the first level of the
        # next one and inside one, and each must report the per-step answer.
        p = unstable_problem()
        v = ControlField.zeros(p.grid)
        offsets = set()
        for amplitude in (0.3, 0.1, 10.0):
            y0 = np.zeros(51)
            y0[20:31] = amplitude
            step = blow_up_step(solve_state, p, y0, v)
            assert 0 < step <= 2504
            assert step == blow_up_step(reference_state, p, y0, v.values)
            offsets.add(step % GUARD_BLOCK)
        assert 0 in offsets and len(offsets) == 3

    def test_guard_reports_the_per_step_step_where_rounding_differs(self, monkeypatch):
        # The blocked march differs from the per-step march in the last bits.
        # With the limit at the per-step running peak on the first level where
        # the blocked peak is higher, the blocked march crosses the limit on
        # that level and the per-step march later: the later step is reported.
        p = make_problem(N=400, H=10, M=2)
        y0 = np.ones(11)
        v = ControlField(np.abs(np.random.default_rng(0).standard_normal((3, 401))))
        blocked = solve_state(p, y0, v).values
        monkeypatch.setattr(solvers, "GUARD_BLOCK", p.grid.N + 1)  # one block
        per_step = solve_state(p, y0, v).values
        monkeypatch.undo()
        peak, blocked_peak = (np.maximum.accumulate(np.abs(y).max(axis=0)) for y in (per_step, blocked))
        first = int(np.argmax(blocked_peak > peak))
        assert blocked_peak[first] > peak[first]
        monkeypatch.setattr(solvers, "BLOWUP_LIMIT", peak[first])
        assert blow_up_step(solve_state, p, y0, v) == np.argmax(peak > peak[first]) > first

    def test_deterministic_rerun(self):
        p = make_problem(N=30, H=6, M=2)
        rng = np.random.default_rng(3)
        v = random_controls(p.grid, rng)
        y0 = rng.standard_normal(7)
        a = solve_state(p, y0, v)
        b = solve_state(p, y0, v)
        assert np.array_equal(a.values, b.values)


class TestSolvePerturbation:
    def test_equals_state_from_rest(self):
        p = make_problem(N=30, H=10, M=5)
        v = random_controls(p.grid, np.random.default_rng(2))
        assert np.array_equal(
            solve_perturbation(p, v).values,
            solve_state(p, np.zeros(11), v).values,
        )

    def test_superposition(self):
        p = make_problem(N=50, H=10, M=2)
        rng = np.random.default_rng(4)
        va, vb = random_controls(p.grid, rng), random_controls(p.grid, rng)
        both = solve_perturbation(p, ControlField(va.values + vb.values))
        split = solve_perturbation(p, va).values + solve_perturbation(p, vb).values
        assert np.allclose(both.values, split, rtol=1e-12, atol=1e-12)


class TestSolveAdjoint:
    def test_zero_state_gives_zero_adjoint(self):
        p = make_problem(N=20)
        y = solve_state(p, np.zeros(11), ControlField.zeros(p.grid))
        q = solve_adjoint(p, y)
        assert q.values.shape == (11, 21)
        assert np.all(q.values == 0.0)

    def test_terminal_condition_scales_final_state(self):
        p = make_problem(T=0.1, mu=0.1, eps=0.0, N=1, H=2, M=2, k2=2.0)
        y = solve_state(p, np.array([1.0, 0.0, -1.0]), ControlField.zeros(p.grid))
        q = solve_adjoint(p, y)
        assert np.array_equal(q.values[:, -1], 2.0 * y.terminal)

    def test_boundary_nodes_follow_robin_closure(self):
        # The Robin closure p[-1] = gain_left*p[0], p[H+1] = gain_right*p[H]
        # substituted into the backward stencil at nodes 0 and H.
        # mu=0.2, eps=0.1, h=0.1: left gain mu/(mu - eps*h) = 0.2/0.19
        p = make_problem(mu=0.2, eps=0.1, N=60, H=10, M=2)
        rng = np.random.default_rng(8)
        y = solve_state(p, rng.standard_normal(11), random_controls(p.grid, rng))
        q = solve_adjoint(p, y).values
        left_gain = 0.2 / 0.19
        right_gain = 0.19 / 0.2
        assert left_gain == pytest.approx(1.0526315789473684, rel=1e-15)
        g, mu, eps = p.grid, p.phys.mu, p.phys.eps
        lo = g.dt * mu / g.h**2
        mid = 1.0 + g.dt * (1.0 - 2.0 * mu / g.h**2 - eps / g.h)
        hi = g.dt * (mu / g.h**2 + eps / g.h)
        x, nxt = q[:, 1:], q[:, :-1]
        source = g.dt * p.phys.k1 * y.values[:, 1 : g.N + 1]
        defect = boundary_update_defect(lo, mid, hi, left_gain * x[0], x, right_gain * x[-1], nxt, source)
        assert defect <= 1e-14

    def test_linearity_in_state(self):
        p = make_problem(N=40, H=8, M=2)
        rng = np.random.default_rng(12)
        ya = solve_state(p, rng.standard_normal(9), random_controls(p.grid, rng))
        yb = solve_state(p, rng.standard_normal(9), random_controls(p.grid, rng))
        qa, qb = solve_adjoint(p, ya), solve_adjoint(p, yb)
        combined = solve_adjoint(p, StateField(3.0 * ya.values + 0.25 * yb.values))
        assert np.allclose(combined.values, 3.0 * qa.values + 0.25 * qb.values, rtol=1e-12, atol=1e-12)

    def test_blow_up_raises_with_step_index(self):
        # Marching index N - step counts the adjoint's steps; these terminal
        # amplitudes blow up on the last level of a guard block and inside one.
        p = unstable_problem()
        g = p.grid
        running = 1e-6 * np.random.default_rng(6).standard_normal((g.H + 1, g.N + 1))
        offsets = set()
        for amplitude in (0.1, 0.3, 1.0):
            values = np.zeros((g.H + 1, g.N + 2))
            values[:, : g.N + 1] = running
            values[20:31, -1] = amplitude
            y = StateField(values)
            step = blow_up_step(solve_adjoint, p, y)
            assert 0 <= step < g.N
            assert step == blow_up_step(reference_adjoint, p, y.values)
            offsets.add((g.N - step) % GUARD_BLOCK)
        assert 0 in offsets and len(offsets) == 3

    def test_rejects_mismatched_state_shape(self):
        p = make_problem(N=10, H=10)
        other = make_problem(N=20, H=10)
        y = solve_state(other, np.zeros(11), ControlField.zeros(other.grid))
        with pytest.raises(ValueError):
            solve_adjoint(p, y)


class TestKernelAgainstLoopReference:
    """The blocked march kernel against the per-step formulas."""

    TOL = 1e-12  # relative to the largest magnitude of the reference

    def check_against_loops(self, p, seed):
        g = p.grid
        assert cfl_ratio(p) < 0.5
        rng = np.random.default_rng(seed)
        v = random_controls(g, rng)
        assert np.all(v.values != 0.0)
        y0 = rng.standard_normal(g.H + 1)

        y = solve_state(p, y0, v)
        y_ref = reference_state(p, y0, v.values)
        assert np.abs(y.values - y_ref).max() <= self.TOL * np.abs(y_ref).max()

        q = solve_adjoint(p, y)
        q_ref = reference_adjoint(p, y.values)
        assert np.abs(q.values - q_ref).max() <= self.TOL * np.abs(q_ref).max()

    @pytest.mark.parametrize("eps", [0.3, -0.2])
    def test_state_and_adjoint_match_plain_loops(self, eps):
        p = make_problem(mu=0.1, eps=eps, N=1500, H=20, M=4, k1=0.7, k2=1.3)
        self.check_against_loops(p, seed=21)

    @pytest.mark.parametrize("N", [20, 3 * GUARD_BLOCK + 5])
    def test_a_single_cell_matches_plain_loops(self, N):
        # H = 1: a batched step of one row has fewer values than the stencil.
        p = make_problem(T=N / 100, mu=0.1, eps=0.05, N=N, H=1, M=1, k1=0.7, k2=1.3)
        self.check_against_loops(p, seed=N)

    @pytest.mark.parametrize("levels", [GUARD_BLOCK - 1, GUARD_BLOCK, GUARD_BLOCK + 1, 3 * GUARD_BLOCK + 5])
    @pytest.mark.parametrize("eps", [0.3, -0.2])
    def test_block_boundaries_match_plain_loops(self, eps, levels):
        # The state marches N+1 levels and the adjoint N, so over these two
        # grids each sweep marches exactly `levels` levels once; dt = 1/1500.
        for N in (levels - 1, levels):
            p = make_problem(T=N / 1500, mu=0.1, eps=eps, N=N, H=20, M=4, k1=0.7, k2=1.3)
            self.check_against_loops(p, seed=N)

    def test_blow_up_in_a_short_last_block(self):
        # 3*GUARD_BLOCK + 5 levels end in a block of 5.  From this amplitude
        # the highest spatial mode overflows the guard inside that last block.
        levels, alternating = 3 * GUARD_BLOCK + 5, (-1.0) ** np.arange(51)
        p = unstable_problem(N=levels - 1)
        zero = ControlField.zeros(p.grid)
        step = blow_up_step(solve_state, p, 1e58 * alternating, zero)
        assert step > 3 * GUARD_BLOCK
        assert step == blow_up_step(reference_state, p, 1e58 * alternating, zero.values)

        p = unstable_problem(N=levels)
        values = np.zeros((51, p.grid.N + 2))
        values[:, -1] = 1e58 * alternating
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert p.grid.N - step > 3 * GUARD_BLOCK
        assert step == blow_up_step(reference_adjoint, p, values)


    def test_overrun_of_a_short_last_block(self, monkeypatch):
        # 3*GUARD_BLOCK + 5 levels end in a block of 5.  From this amplitude
        # the per-step march stays under the guard through the last level and
        # crosses it within the next GUARD_BLOCK steps, so a last block marched
        # to its full length would trip the guard or write past the end.
        levels, alternating = 3 * GUARD_BLOCK + 5, (-1.0) ** np.arange(51)
        marches = []
        march = solvers._march
        monkeypatch.setattr(solvers, "_march", lambda *args: marches.append(args[-1]) or march(*args))

        longer = unstable_problem(N=levels - 1 + GUARD_BLOCK)
        y0, zero = 1e45 * alternating, np.zeros((3, longer.grid.N + 1))
        assert levels < blow_up_step(reference_state, longer, y0, zero) < levels + GUARD_BLOCK - 5
        p = unstable_problem(N=levels - 1)
        y = solve_state(p, y0, ControlField.zeros(p.grid)).values
        y_ref = reference_state(p, y0, zero[:, : p.grid.N + 1])
        assert np.abs(y - y_ref).max() <= self.TOL * np.abs(y_ref).max()

        longer = unstable_problem(N=levels + GUARD_BLOCK)
        values = np.zeros((51, longer.grid.N + 2))
        values[:, -1] = 1e45 * alternating
        crossed = longer.grid.N - blow_up_step(reference_adjoint, longer, values)
        assert levels < crossed < levels + GUARD_BLOCK - 5
        p = unstable_problem(N=levels)
        q = solve_adjoint(p, StateField(values[:, -(p.grid.N + 2) :])).values
        q_ref = reference_adjoint(p, values[:, -(p.grid.N + 2) :])
        assert np.abs(q - q_ref).max() <= self.TOL * np.abs(q_ref).max()
        assert marches == [GUARD_BLOCK, GUARD_BLOCK]  # neither sweep reran


class TestCarryPower:
    """The dense (A^T)^GUARD_BLOCK is computed once per kind of sweep."""

    def test_computed_once_per_sweep_kind(self, monkeypatch):
        solvers._power.cache_clear()
        powers = []
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(np.linalg, "matrix_power", lambda a, n: powers.append(n) or matrix_power(a, n))
        p = make_problem(N=400, H=10, M=2)
        rng = np.random.default_rng(1)
        for _ in range(3):
            v = random_controls(p.grid, rng)
            y = solve_state(p, rng.standard_normal(11), v)
            solve_perturbation(p, v)
            solve_adjoint(p, y)
        assert powers == [GUARD_BLOCK, GUARD_BLOCK]  # the state's and the adjoint's

    def test_is_read_only(self):
        p = make_problem(N=400, H=10, M=2)
        power = solvers._power(solvers._stencil(p, -1.0), (1.0, 1.0), 11, GUARD_BLOCK)
        with pytest.raises(ValueError):
            power[0, 0] = 0.0


class TestPeakMemory:
    """A sweep allocates little beyond the trajectory it returns."""

    LIMIT = 1.15  # peak bytes traced over the returned trajectory's bytes

    def test_state_and_adjoint_sweeps(self):
        p = default_problem()
        g = p.grid
        rng = np.random.default_rng(0)
        v = random_controls(g, rng)
        y, peak = traced_peak(solve_state, p, rng.standard_normal(g.H + 1), v)
        assert peak <= self.LIMIT * y.values.nbytes
        q, peak = traced_peak(solve_adjoint, p, y)
        assert peak <= self.LIMIT * q.values.nbytes


class TestDuality:
    @staticmethod
    def defect(H, N, seed):
        """Integration-by-parts residual between state and adjoint pairings."""
        p = make_problem(N=N, H=H, M=2)
        g = p.grid
        v, dv, y0 = smooth_probe_set(g, p.phys, seed)
        y = solve_state(p, y0, v)
        dy = solve_perturbation(p, dv)
        q = solve_adjoint(p, y)
        running = g.dt * g.h * float(np.sum(y.values[:, : g.N + 1] * dy.values[:, : g.N + 1]))
        terminal = g.h * float(np.sum(y.terminal * dy.terminal))
        traces = gradient(p, ControlField.zeros(g), q)
        paired = inner_product(g, traces, dv)
        return abs(running + terminal - paired) / (abs(running) + abs(terminal) + abs(paired))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_defect_shrinks_under_refinement(self, seed):
        defects = [self.defect(10, 100, seed), self.defect(20, 200, seed), self.defect(40, 400, seed)]
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 2e-2
