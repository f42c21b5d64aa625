import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrcontrol import (
    ControlField,
    DiscreteProblem,
    PhysicalConfig,
    SolverBlowUpError,
    cfl_ratio,
    control_indices,
    cost,
    gradient,
    inner_product,
    solve_adjoint,
    solve_perturbation,
    solve_state,
)
from adrcontrol import solvers
from adrcontrol.harness import write_controls_csv, write_state_csv
from adrcontrol.solvers import BLOWUP_LIMIT, AdjointField, StateField

from conftest import default_problem, make_problem, smooth_probe_set, traced_peak

# The levels per block that the block-geometry tests are built around.
BLOCK = 64


def pin_block(monkeypatch, block=BLOCK):
    """Make every sweep march blocks of ``block`` levels, or one block
    where it has fewer levels."""
    monkeypatch.setattr(solvers, "_block", lambda steps, width: min(steps, block))


@pytest.fixture
def blocks_of_64(monkeypatch):
    pin_block(monkeypatch)


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


def unstable_problem(N=2503, M=2):
    # cfl ratio near 2 amplifies the highest mode by about 3 per step
    p = DiscreteProblem.create(PhysicalConfig(mu=1.0, eps=0.1, T=N / 2503), N=N, H=50, M=M)
    assert cfl_ratio(p) > 1.9
    return p


def every_node(problem):
    """The problem with a control at every node, M = H, whose adjoint traces
    are the whole adjoint trajectory.  The adjoint march has no control term,
    so its rows control_indices(problem.grid) are problem's own traces."""
    g = problem.grid
    return DiscreteProblem.create(problem.phys, N=g.N, H=g.H, M=g.H)


def blow_up_step(solve, *args):
    with pytest.raises(SolverBlowUpError) as info:
        solve(*args)
    assert str(info.value.step) in str(info.value)
    return info.value.step


def field_readers(problem, tmp_path):
    """Every reader of each field type, as a call on a field in that type's
    place beside well-shaped fields of ``problem``'s grid."""
    g = problem.grid
    v, y0 = ControlField.zeros(g), np.zeros(g.H + 1)
    y, a = (cls(np.zeros(cls.shape_on(g))) for cls in (StateField, AdjointField))
    return {
        ControlField: {
            "solve_state": lambda f: solve_state(problem, y0, f),
            "cost": lambda f: cost(problem, f, y),
            "inner_product(a, .)": lambda f: inner_product(g, f, v),
            "inner_product(., b)": lambda f: inner_product(g, v, f),
            "gradient": lambda f: gradient(problem, f, a),
            "write_controls_csv": lambda f: write_controls_csv(tmp_path / "controls.csv", problem, f),
        },
        StateField: {
            "solve_adjoint": lambda f: solve_adjoint(problem, f),
            "cost": lambda f: cost(problem, v, f),
            "write_state_csv": lambda f: write_state_csv(tmp_path / "state.csv", problem, f),
        },
        AdjointField: {"gradient": lambda f: gradient(problem, v, f)},
    }


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
    def test_rejects_invalid_arrays(self, tmp_path, field, values):
        # Non-finite controls are refused when built; a shape, by every
        # reader of the field, before a writer opens its file.
        if not np.all(np.isfinite(values)):
            with pytest.raises(ValueError, match="^control values must be finite$"):
                field(values)
            return
        p = make_problem(N=6, H=4, M=2)
        bad = field(values)
        expected = f"{field.__name__} {values.shape} is not the grid's {field.shape_on(p.grid)}"
        for name, read in field_readers(p, tmp_path)[field].items():
            with pytest.raises(ValueError) as raised:
                read(bad)
            assert str(raised.value) == expected, name
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, shape",
        [(ControlField, (3, 7)), (StateField, (5, 8)), (AdjointField, (3, 7))],
    )
    def test_shape_on_the_grid(self, field, shape):
        # N = 6 steps, H = 4 cells, M = 2: 3 controls, 5 nodes, 7 control and 8 state levels
        g = make_problem(N=6, H=4, M=2).grid
        assert field.shape_on(g) == shape
        assert field(np.zeros(shape)).checked(g).shape == shape


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

    def test_rejects_non_finite_initial_state(self):
        p = make_problem()
        y0 = np.zeros(11)
        y0[4] = np.nan
        with pytest.raises(ValueError, match="initial state must be finite"):
            solve_state(p, y0, ControlField.zeros(p.grid))

    @pytest.mark.usefixtures("blocks_of_64")
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
            offsets.add(step % BLOCK)
        assert 0 in offsets and len(offsets) == 3

    def test_guard_reports_the_per_step_step_where_rounding_differs(self, monkeypatch):
        # Where the blocked march rounds differently from the per-step march,
        # a level can fail the guard in blocks and pass step by step.  Here
        # level 5 of every march of several blocks reads inf: each sweep must
        # redo itself as one block, whose result or step is the one reported.
        p = make_problem(N=400, H=10, M=2)
        rng = np.random.default_rng(0)
        y0, v = np.ones(11), random_controls(p.grid, rng)
        y = StateField(rng.standard_normal((11, p.grid.N + 2)))
        pin_block(monkeypatch, p.grid.N + 1)  # one block
        per_step = solve_state(p, y0, v).values, solve_adjoint(p, y).values
        pin_block(monkeypatch)
        levels = solvers._levels

        def tripping(x, *args):
            several = len(x) > 1
            for i, level in levels(x, *args):
                yield i, np.full_like(level, np.inf) if i == 5 and several else level

        monkeypatch.setattr(solvers, "_levels", tripping)
        assert np.array_equal(solve_state(p, y0, v).values, per_step[0])
        assert np.array_equal(solve_adjoint(p, y).values, per_step[1])
        p = unstable_problem()
        y0 = np.zeros(51)
        y0[20:31] = 0.3
        v = ControlField.zeros(p.grid)
        assert blow_up_step(solve_state, p, y0, v) == blow_up_step(reference_state, p, y0, v.values)
        values = np.zeros((51, p.grid.N + 2))
        values[20:31, -1] = 0.3
        y = StateField(values)
        assert blow_up_step(solve_adjoint, p, y) == blow_up_step(reference_adjoint, p, values)

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
        assert q.values.shape == (3, 21)
        assert np.all(q.values == 0.0)
        q = solve_adjoint(every_node(p), y)
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
        q = solve_adjoint(every_node(p), y).values
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

    @pytest.mark.usefixtures("blocks_of_64")
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
            offsets.add((g.N - step) % BLOCK)
        assert 0 in offsets and len(offsets) == 3

    def test_rejects_mismatched_state_shape(self):
        p = make_problem(N=10, H=10)
        other = make_problem(N=20, H=10)
        y = solve_state(other, np.zeros(11), ControlField.zeros(other.grid))
        with pytest.raises(ValueError):
            solve_adjoint(p, y)


@st.composite
def adjoint_cases(draw, max_ratio=1.0, cells=st.integers(1, 12), levels=None, horizon=np.inf):
    """(problem, state) on a small grid of stability ratio 0.05..max_ratio,
    M any divisor of H, whose adjoint marches a level count near a multiple
    of BLOCK; or H drawn from ``cells``, N from ``levels`` and T at most
    ``horizon``, which bounds the reaction's growth (1 + dt)^N."""
    H = draw(cells)
    M = draw(st.sampled_from([m for m in range(1, H + 1) if H % m == 0]))
    if levels is None:
        N = max(1, BLOCK * draw(st.integers(0, 3)) + draw(st.integers(-2, 2)))
    else:
        N = draw(levels)
    mu, eps, h = 0.1, draw(st.floats(-0.5, 0.5)), 1.0 / H
    if abs(mu - eps * h) <= 0.01:  # keep clear of the refused mu = eps*h
        eps = -eps
    T = min(horizon, draw(st.floats(0.05, max_ratio)) * N / (2.0 * mu / h**2 + abs(eps) / h))
    p = make_problem(T=T, mu=mu, eps=eps, N=N, H=H, M=M, k1=0.7, k2=1.3)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, StateField(rng.standard_normal((H + 1, N + 2)))


class TestStoredNodes:
    """solve_adjoint stores exactly the control rows of the M = H sweep."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(adjoint_cases())
    def test_rows_are_the_full_trajectorys_bitwise(self, case):
        p, state = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin_block(monkeypatch)
            stored = solve_adjoint(p, state).values
            full = solve_adjoint(every_node(p), state).values
        assert stored.shape == (p.grid.M + 1, p.grid.N + 1)
        assert full.shape == (p.grid.H + 1, p.grid.N + 1)
        assert stored.tobytes() == full[control_indices(p.grid)].tobytes()

    @pytest.mark.usefixtures("blocks_of_64")
    def test_blow_up_at_an_unstored_node_reports_the_same_step(self):
        # With M = 1 only nodes 0 and 50 are stored.  The terminal data sit
        # in between, and at the step the guard fires those two nodes are
        # still about 3e148, so only the unstored nodes can trip it; the
        # march of several blocks redoes itself as one block.
        p = unstable_problem(M=1)
        values = np.zeros((p.grid.H + 1, p.grid.N + 2))
        values[20:31, -1] = 0.3
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert p.grid.N - step > BLOCK
        assert step == blow_up_step(solve_adjoint, every_node(p), StateField(values))


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

        q = solve_adjoint(every_node(p), y).values
        q_ref = reference_adjoint(p, y.values)
        assert np.abs(q - q_ref).max() <= self.TOL * np.abs(q_ref).max()
        assert solve_adjoint(p, y).values.tobytes() == q[control_indices(g)].tobytes()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(adjoint_cases(max_ratio=0.49), st.integers(0, 2**32 - 1))
    def test_drawn_grids_match_plain_loops(self, case, seed):
        # One block, a short last block and several blocks, each under the
        # state's forcing at its control nodes and the adjoint's at every node.
        with pytest.MonkeyPatch.context() as monkeypatch:
            pin_block(monkeypatch)
            self.check_against_loops(case[0], seed)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        adjoint_cases(max_ratio=0.49, cells=st.integers(1, 64), levels=st.integers(1, 2000), horizon=20.0),
        st.integers(0, 2**32 - 1),
    )
    def test_drawn_grids_match_plain_loops_at_the_rules_block(self, case, seed):
        # The blocks _block chooses, 1 to 6 levels on these grids.
        self.check_against_loops(case[0], seed)

    @pytest.mark.parametrize("eps", [0.3, -0.2])
    def test_state_and_adjoint_match_plain_loops(self, eps):
        p = make_problem(mu=0.1, eps=eps, N=1500, H=20, M=4, k1=0.7, k2=1.3)
        self.check_against_loops(p, seed=21)

    @pytest.mark.usefixtures("blocks_of_64")
    @pytest.mark.parametrize("N", [20, 3 * BLOCK + 5])
    def test_a_single_cell_matches_plain_loops(self, N):
        # H = 1: a batched step of one row has fewer values than the stencil.
        p = make_problem(T=N / 100, mu=0.1, eps=0.05, N=N, H=1, M=1, k1=0.7, k2=1.3)
        self.check_against_loops(p, seed=N)

    @pytest.mark.usefixtures("blocks_of_64")
    @pytest.mark.parametrize("levels", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("eps", [0.3, -0.2])
    def test_block_boundaries_match_plain_loops(self, eps, levels):
        # The state marches N+1 levels and the adjoint N, so over these two
        # grids each sweep marches exactly `levels` levels once; dt = 1/1500.
        for N in (levels - 1, levels):
            p = make_problem(T=N / 1500, mu=0.1, eps=eps, N=N, H=20, M=4, k1=0.7, k2=1.3)
            self.check_against_loops(p, seed=N)

    @pytest.mark.usefixtures("blocks_of_64")
    def test_blow_up_in_a_short_last_block(self):
        # 3*BLOCK + 5 levels end in a block of 5.  From this amplitude
        # the highest spatial mode overflows the guard inside that last block.
        levels, alternating = 3 * BLOCK + 5, (-1.0) ** np.arange(51)
        p = unstable_problem(N=levels - 1)
        zero = ControlField.zeros(p.grid)
        step = blow_up_step(solve_state, p, 1e58 * alternating, zero)
        assert step > 3 * BLOCK
        assert step == blow_up_step(reference_state, p, 1e58 * alternating, zero.values)

        p = unstable_problem(N=levels)
        values = np.zeros((51, p.grid.N + 2))
        values[:, -1] = 1e58 * alternating
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert p.grid.N - step > 3 * BLOCK
        assert step == blow_up_step(reference_adjoint, p, values)


    @pytest.mark.usefixtures("blocks_of_64")
    def test_overrun_of_a_short_last_block(self, monkeypatch):
        # 3*BLOCK + 5 levels end in a block of 5.  From this amplitude
        # the per-step march stays under the guard through the last level and
        # crosses it within the next BLOCK steps, so a last block marched
        # to its full length would trip the guard or write past the end.
        levels, alternating = 3 * BLOCK + 5, (-1.0) ** np.arange(51)
        marches = []
        march = solvers._march
        monkeypatch.setattr(solvers, "_march", lambda *args: marches.append(args[-1]) or march(*args))

        longer = unstable_problem(N=levels - 1 + BLOCK)
        y0, zero = 1e45 * alternating, np.zeros((3, longer.grid.N + 1))
        assert levels < blow_up_step(reference_state, longer, y0, zero) < levels + BLOCK - 5
        p = unstable_problem(N=levels - 1)
        y = solve_state(p, y0, ControlField.zeros(p.grid)).values
        y_ref = reference_state(p, y0, zero[:, : p.grid.N + 1])
        assert np.abs(y - y_ref).max() <= self.TOL * np.abs(y_ref).max()

        longer = unstable_problem(N=levels + BLOCK)
        values = np.zeros((51, longer.grid.N + 2))
        values[:, -1] = 1e45 * alternating
        crossed = longer.grid.N - blow_up_step(reference_adjoint, longer, values)
        assert levels < crossed < levels + BLOCK - 5
        p = unstable_problem(N=levels)
        q = solve_adjoint(every_node(p), StateField(values[:, -(p.grid.N + 2) :])).values
        q_ref = reference_adjoint(p, values[:, -(p.grid.N + 2) :])
        assert np.abs(q - q_ref).max() <= self.TOL * np.abs(q_ref).max()
        assert marches == [BLOCK, BLOCK]  # neither sweep reran


@pytest.mark.usefixtures("blocks_of_64")
class TestOnePass:
    """Each sweep marches its blocks once.  The state prices each block's
    zero-start end from its control samples; the adjoint marches every block
    from zero and adds the true starts' response at the kept nodes, unless
    its bound does not clear the guard, where the exact march decides."""

    @staticmethod
    def record(monkeypatch, name, entry):
        """Append entry(*args) to a list on every call of solvers.<name>."""
        calls, original = [], getattr(solvers, name)
        monkeypatch.setattr(solvers, name, lambda *args: calls.append(entry(*args)) or original(*args))
        return calls

    def test_each_sweep_makes_one_pass_of_batched_steps(self, monkeypatch):
        # 21 blocks: the carry has 20 or 21 rows, the maps at most 11.
        N = 20 * BLOCK + 7
        p = make_problem(T=N / 100, N=N, H=10, M=2)
        rng = np.random.default_rng(3)
        v, y0 = random_controls(p.grid, rng), rng.standard_normal(11)
        y = solve_state(p, y0, v)
        rows = self.record(monkeypatch, "_step", lambda x, *rest: len(x))
        for sweep, args in ((solve_state, (p, y0, v)), (solve_perturbation, (p, v)), (solve_adjoint, (p, y))):
            rows.clear()
            sweep(*args)
            assert sum(n >= 20 for n in rows) == BLOCK

    @pytest.mark.parametrize("M", [1, 8])
    def test_adjoint_where_the_transposed_stencil_has_no_ghost(self, M, monkeypatch):
        # h = 1/8, mu = 1/64, eps = -mu/h: the adjoint's hi = dt*(mu/h^2 + eps/h)
        # is exactly 0, so the responses' A^T has lo = 0 and its edges stand
        # on the folded diagonals alone.
        N = 3 * BLOCK + 5
        p = make_problem(T=N / 100, mu=1 / 64, eps=-1 / 8, N=N, H=8, M=M, k1=0.7, k2=1.3)
        assert solvers._operator(p, 1.0)[2] == 0.0
        values = np.random.default_rng(M).standard_normal((9, N + 2))
        priced = self.record(monkeypatch, "_add_responses", lambda *args: 1)
        q = solve_adjoint(p, StateField(values)).values
        q_ref = reference_adjoint(p, values)[control_indices(p.grid)]
        assert priced
        assert np.abs(q - q_ref).max() <= 1e-12 * np.abs(q_ref).max()

    @pytest.mark.parametrize("index", [2 * BLOCK + 3, 3 * BLOCK + 2])
    def test_nan_in_the_adjoint_source_raises_at_the_reference_step(self, index):
        # The step from marching index i reads the state at time N - i.  The
        # second index lies in the short last block, after every block start,
        # so only the particular peak can see it.
        N = 3 * BLOCK + 5
        p = make_problem(T=N / 100, N=N, H=10, M=2)
        values = np.random.default_rng(4).standard_normal((11, N + 2))
        values[4, N - index] = np.nan
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert step == blow_up_step(reference_adjoint, p, values) == N - index - 1

    def test_adjoint_blow_up_in_a_later_block(self, monkeypatch):
        # The terminal data are small, so the first block passes; a later one
        # overflows, its bound cannot clear, and the exact march redoes itself
        # as one block.
        p = unstable_problem()
        g = p.grid
        values = np.zeros((51, g.N + 2))
        values[20:31, -1] = 1e-20
        marches = self.record(monkeypatch, "_march", lambda *args: args[-1])
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert g.N - step > 2 * BLOCK
        assert step == blow_up_step(reference_adjoint, p, values)
        assert marches == [BLOCK, g.N]

    @pytest.mark.parametrize("amplitude", [1e140, 1e145, 1e149])
    def test_adjoint_blow_up_in_the_first_block(self, amplitude):
        # Terminal data of alternating sign, the mode that grows fastest,
        # overflow within the first block, which is marched from zero like
        # every other block and gains the terminal level's response.
        p = unstable_problem()
        g = p.grid
        values = np.zeros((51, g.N + 2))
        values[:, -1] = amplitude * (-1.0) ** np.arange(51)
        step = blow_up_step(solve_adjoint, p, StateField(values))
        assert step == blow_up_step(reference_adjoint, p, values)
        assert g.N - step < BLOCK

    def test_exact_march_decides_where_the_bound_does_not_clear(self, monkeypatch):
        # With the limit just above the true peak, the bound, which adds the
        # particular peak to the starts' growth, cannot clear it: the exact
        # march runs, passes, and the traces still match the plain loops.
        N = 20 * BLOCK + 7
        p = make_problem(T=N / 100, N=N, H=10, M=2)
        values = np.random.default_rng(5).standard_normal((11, N + 2))
        q_ref = reference_adjoint(p, values)
        monkeypatch.setattr(solvers, "BLOWUP_LIMIT", np.abs(q_ref).max() * (1 + 1e-9))
        rows = self.record(monkeypatch, "_step", lambda x, *rest: len(x))
        q = solve_adjoint(p, StateField(values)).values
        assert sum(n >= 20 for n in rows) == 2 * BLOCK
        assert np.abs(q - q_ref[control_indices(p.grid)]).max() <= 1e-12 * np.abs(q_ref).max()


class TestOperator:
    """A sweep's operator tuple: its transpose is lo and hi swapped."""

    @pytest.mark.parametrize(
        "p, sign, robin",
        [
            (default_problem(), -1.0, False),
            (default_problem(), 1.0, True),
            (make_problem(mu=0.1, eps=-0.2, N=1500, H=40, M=8), -1.0, False),
            (make_problem(mu=0.1, eps=-0.2, N=1500, H=40, M=8), 1.0, True),
            (make_problem(T=2.0, mu=1 / 64, eps=-1 / 8, N=200, H=8, M=1), 1.0, True),
        ],
    )
    def test_transpose_and_norm_of_the_dense_operator(self, p, sign, robin):
        mu, eps, h = p.phys.mu, p.phys.eps, p.grid.h
        gains = (mu / (mu - eps * h), (mu - eps * h) / mu) if robin else (1.0, 1.0)
        op = solvers._operator(p, sign, gains)
        eye = np.eye(p.grid.H + 1)
        a = solvers._step(eye, op).T  # row r of _step(eye, op) is A e_r
        assert np.array_equal(a, solvers._step(eye, op[2::-1] + op[3:]))
        assert solvers._norm(op) == pytest.approx(np.abs(a).sum(axis=1).max(), rel=1e-15)


class TestCarryPower:
    """The dense (A^T)^BLOCK is computed once per kind of sweep."""

    @pytest.mark.usefixtures("blocks_of_64")
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
        assert powers == [BLOCK, BLOCK]  # the state's and the adjoint's

    def test_is_read_only(self):
        p = make_problem(N=400, H=10, M=2)
        power = solvers._power(solvers._operator(p, -1.0), 11, BLOCK)
        with pytest.raises(ValueError):
            power[0, 0] = 0.0


class TestBlockRule:
    """A sweep of S levels over W nodes marches blocks of W*sqrt(S)/BLOCK_COST levels."""

    @pytest.mark.parametrize("H, N, block", [(100, 4020, 28), (200, 16040, 112)])
    def test_value_at_the_benchmark_grids(self, H, N, block, monkeypatch):
        # The acceptance grid and the refine_h200 grid.
        p = default_problem(H=H)
        assert p.grid.N == N
        marches = []
        march = solvers._march
        monkeypatch.setattr(solvers, "_march", lambda *args: marches.append(args[-1]) or march(*args))
        solve_adjoint(p, solve_state(p, np.zeros(H + 1), ControlField.zeros(p.grid)))
        assert marches == [block, block]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(1, 10**9), st.integers(2, 10**5))
    def test_between_one_and_the_level_count(self, steps, width):
        block = solvers._block(steps, width)
        assert isinstance(block, int) and 1 <= block <= steps


class TestPeakMemory:
    """A sweep allocates little beyond what it returns."""

    LIMIT = 1.15  # peak bytes traced over the returned trajectory's bytes

    def test_state_and_adjoint_sweeps(self):
        # With M = H the adjoint's traces are the whole adjoint trajectory.
        p = default_problem()
        g = p.grid
        rng = np.random.default_rng(0)
        v = random_controls(g, rng)
        y, peak = traced_peak(solve_state, p, rng.standard_normal(g.H + 1), v)
        assert peak <= self.LIMIT * y.values.nbytes
        q, peak = traced_peak(solve_adjoint, every_node(p), y)
        assert q.values.shape == (g.H + 1, g.N + 1)
        assert peak <= self.LIMIT * q.values.nbytes

    def test_adjoint_traces_store_no_trajectory(self):
        # A sweep storing every node peaks at 1.10-1.12 of a trajectory.  The
        # first sweep of a kind also computes its cached carry power (forming
        # it peaks near 0.1 of a trajectory here), so the traced sweep is the
        # second.
        p = default_problem()
        g = p.grid
        y = solve_state(p, np.random.default_rng(1).standard_normal(g.H + 1), ControlField.zeros(g))
        solve_adjoint(p, y)
        q, peak = traced_peak(solve_adjoint, p, y)
        assert q.values.shape == (g.M + 1, g.N + 1)
        assert peak <= 0.15 * (g.H + 1) * (g.N + 1) * 8


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
