import math

import numpy as np
import pytest

from adrcontrol import (
    ConfigurationError,
    ControlField,
    DiscreteProblem,
    GridConfig,
    PhysicalConfig,
    cfl_ratio,
    control_indices,
    grid_nodes,
    solve_state,
    stable_step_count,
)

from conftest import make_problem


class TestPhysicalConfig:
    def test_defaults(self):
        p = PhysicalConfig()
        assert (p.L, p.T, p.mu, p.eps) == (1.0, 1.0, 0.1, 0.1)
        assert (p.k0, p.k1, p.k2) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"L": 0.0},
            {"T": -1.0},
            {"mu": 0.0},
            {"mu": -0.5},
            {"k0": 0.0},
            {"k1": -1e-9},
            {"k2": -2.0},
            {"mu": math.nan},
            {"T": math.inf},
        ],
    )
    def test_rejects_bad_constants(self, kwargs):
        with pytest.raises(ConfigurationError):
            PhysicalConfig(**kwargs)

    def test_zero_state_weights_allowed(self):
        PhysicalConfig(k1=0.0, k2=0.0)
        PhysicalConfig(eps=0.0)
        PhysicalConfig(eps=-0.3)


class TestGridConfig:
    def test_from_extents(self):
        g = GridConfig.from_extents(1.0, 1.0, N=100, H=10, M=2)
        assert g.dt == 0.01
        assert g.h == 0.1

    @pytest.mark.parametrize("kwargs", [{"N": 0}, {"H": 0}, {"M": 0}, {"N": -3}])
    def test_rejects_nonpositive_sizes(self, kwargs):
        base = {"N": 10, "H": 10, "M": 2, "dt": 0.1, "h": 0.1}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            GridConfig(**base)

    def test_rejects_indivisible_control_count(self):
        with pytest.raises(ConfigurationError):
            GridConfig.from_extents(1.0, 1.0, N=10, H=10, M=3)

    def test_rejects_bad_steps(self):
        with pytest.raises(ConfigurationError):
            GridConfig(N=10, H=10, M=2, dt=0.0, h=0.1)
        with pytest.raises(ConfigurationError):
            GridConfig(N=10, H=10, M=2, dt=0.1, h=-0.1)


class TestDiscreteProblem:
    def test_consistent_steps_required(self):
        phys = PhysicalConfig()
        with pytest.raises(ConfigurationError):
            DiscreteProblem(phys, GridConfig(N=10, H=10, M=2, dt=0.2, h=0.1))
        with pytest.raises(ConfigurationError):
            DiscreteProblem(phys, GridConfig(N=10, H=10, M=2, dt=0.1, h=0.2))

    def test_rejects_singular_adjoint_closure(self):
        # mu = eps*h makes the adjoint ghost gain blow up
        with pytest.raises(ConfigurationError):
            make_problem(mu=0.1, eps=1.0, H=10)

    def test_accepts_negative_advection(self):
        make_problem(eps=-0.1)


class TestControlIndices:
    def test_three_controls_on_ten_cells(self):
        p = make_problem(H=10, M=2)
        assert control_indices(p.grid) == [0, 5, 10]

    def test_four_controls_on_twelve_cells(self):
        p = make_problem(H=12, M=3)
        assert control_indices(p.grid) == [0, 4, 8, 12]

    def test_endpoint_and_spacing_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            M = int(rng.integers(1, 9))
            H = M * int(rng.integers(1, 12))
            p = make_problem(H=H, M=M, N=50)
            idx = control_indices(p.grid)
            assert idx[0] == 0
            assert idx[-1] == H
            assert len(idx) == M + 1
            diffs = {b - a for a, b in zip(idx, idx[1:])}
            assert diffs == {H // M}


class TestCflRatio:
    def test_moderate_grid(self):
        p = make_problem(mu=0.1, eps=0.1, N=100, H=10)
        assert cfl_ratio(p) == pytest.approx(0.21, rel=1e-12)

    def test_fine_space_coarse_time(self):
        p = make_problem(mu=0.1, eps=0.0, N=100, H=100)
        assert cfl_ratio(p) == pytest.approx(20.0, rel=1e-12)

    def test_monotone_in_resolution_and_coefficients(self):
        base = make_problem(N=200, H=10)
        finer_space = make_problem(N=200, H=20)
        finer_time = make_problem(N=400, H=10)
        more_diffusion = make_problem(N=200, H=10, mu=0.2)
        assert cfl_ratio(finer_space) > cfl_ratio(base)
        assert cfl_ratio(finer_time) < cfl_ratio(base)
        assert cfl_ratio(more_diffusion) > cfl_ratio(base)

    def test_sign_of_advection_does_not_matter(self):
        # The state stencil drains its diagonal for eps < 0 as the adjoint's
        # does for eps > 0, so both signs bound the scheme alike.
        assert cfl_ratio(make_problem(eps=-0.3)) == cfl_ratio(make_problem(eps=0.3))


class TestGridNodes:
    def test_endpoints_and_spacing(self):
        p = make_problem(H=10)
        x = grid_nodes(p.grid)
        assert x[0] == 0.0
        assert x[-1] == 1.0
        assert x[6] == 0.6  # j*L/H avoids the 6*0.1 rounding artifact
        assert np.allclose(np.diff(x), p.grid.h, rtol=1e-15, atol=0)


class TestStableStepCount:
    def test_default_scale(self):
        phys = PhysicalConfig()
        n = stable_step_count(phys, H=100)
        assert n == 4020
        p = DiscreteProblem.create(phys, N=n, H=100, M=2)
        assert cfl_ratio(p) <= 0.5

    @pytest.mark.parametrize("H", [0, -3, 2.5, True])
    def test_rejects_invalid_cell_count(self, H):
        with pytest.raises(ConfigurationError):
            stable_step_count(PhysicalConfig(), H)

    def test_negative_advection_gets_a_bounded_baseline(self):
        # With a signed eps this grid had N = 2000, a state stencil with
        # mid = -0.4995, and a baseline from sin(pi x) blowing up at step 516.
        phys = PhysicalConfig(eps=-10.0)
        n = stable_step_count(phys, 100)
        assert n == 6000
        p = DiscreteProblem.create(phys, N=n, H=100, M=2)
        y = solve_state(p, np.sin(np.pi * grid_nodes(p.grid)), ControlField.zeros(p.grid))
        assert np.all(np.isfinite(y.values))

    def test_is_smallest(self):
        phys = PhysicalConfig(mu=0.07, eps=0.3)
        n = stable_step_count(phys, H=40)
        ok = DiscreteProblem.create(phys, N=n, H=40, M=2)
        assert cfl_ratio(ok) <= 0.5
        if n > 1:
            tight = DiscreteProblem.create(phys, N=n - 1, H=40, M=2)
            assert cfl_ratio(tight) > 0.5
