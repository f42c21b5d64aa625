import math
import re
import sys

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
from adrcontrol.discretization import check_stability

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
    @pytest.mark.parametrize("kwargs", [{"N": 0}, {"H": 0}, {"M": 0}, {"N": -3}])
    def test_rejects_nonpositive_sizes(self, kwargs):
        base = {"N": 10, "H": 10, "M": 2, "L": 1.0, "T": 1.0}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            GridConfig(**base)

    def test_rejects_indivisible_control_count(self):
        with pytest.raises(ConfigurationError):
            DiscreteProblem.create(PhysicalConfig(), N=10, H=10, M=3)

    def test_rejects_bad_steps(self):
        with pytest.raises(ConfigurationError):
            GridConfig(N=10, H=10, M=2, L=1.0, T=0.0)
        with pytest.raises(ConfigurationError):
            GridConfig(N=10, H=10, M=2, L=-1.0, T=1.0)
        # a subnormal step is refused by name: the smallest normal float over 10
        tiny = sys.float_info.min
        with pytest.raises(ConfigurationError, match="^dt must be"):
            GridConfig(N=10, H=10, M=2, L=1.0, T=tiny)
        with pytest.raises(ConfigurationError, match="^h must be"):
            GridConfig(N=10, H=10, M=2, L=tiny, T=1.0)

    @pytest.mark.parametrize("extents", [{"L": "1", "T": 1.0}, {"L": 1.0, "T": None}], ids=["L", "T"])
    def test_rejects_an_extent_that_is_not_a_number(self, extents):
        with pytest.raises(ConfigurationError, match="^domain extents L and T must be numbers$"):
            GridConfig(N=10, H=10, M=2, **extents)


class TestDiscreteProblem:
    def test_create_steps_tile_the_extents(self):
        g = DiscreteProblem.create(PhysicalConfig(), N=100, H=10, M=2).grid
        assert g.dt == 0.01
        assert g.h == 0.1

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"N": 0, "H": 10}, "^N must be an integer >= 1"),
            ({"N": 10, "H": 0}, "^H must be an integer >= 1"),
            ({"N": True, "H": 10}, "N must be an integer >= 1"),
            ({"N": 10, "H": 2.5}, "^H must be an integer >= 1$"),
            ({"N": 10**400, "H": 10}, "^N is too large for a float$"),
            ({"N": 10, "H": 10**400}, "^H is too large for a float$"),
            # M = 3 does not divide 10**400, but the size is refused first
            ({"N": 10, "H": 10**400, "M": 3}, "^H is too large for a float$"),
            ({"N": int(sys.float_info.max) + 1, "H": 10}, "^N is too large for a float$"),
            # the largest float is a size, refused for its subnormal step T/N
            ({"N": int(sys.float_info.max), "H": 10}, "^dt must be"),
        ],
        ids=[
            "N=0", "H=0", "N=True", "H=2.5", "N=1e400", "H=1e400", "H=1e400-M=3",
            "N-past-the-largest-float", "N-the-largest-float",
        ],
    )
    def test_create_rejects_bad_sizes(self, sizes, message):
        with pytest.raises(ConfigurationError, match=message):
            DiscreteProblem.create(PhysicalConfig(), **{"M": 1, **sizes})

    def test_constructor_builds_the_grid_create_builds(self):
        phys = PhysicalConfig(L=3.0, T=0.7)
        p = DiscreteProblem(phys, 70, 30, 3)
        assert p == DiscreteProblem.create(phys, 70, 30, 3)
        assert p.grid == GridConfig(N=70, H=30, M=3, L=3.0, T=0.7)
        assert (p.grid.dt, p.grid.h) == (0.7 / 70, 3.0 / 30)

    @pytest.mark.parametrize(
        "phys, H, M",
        [
            # h/mu = 0.1/1e-320 and 1e10/1e-299 overflow; mu is a normal float in the second
            (PhysicalConfig(mu=1e-320), 10, 2),
            (PhysicalConfig(L=1e10, mu=1e-299, eps=0.0), 1, 1),
        ],
        ids=["subnormal-mu", "long-domain"],
    )
    def test_rejects_mu_whose_flux_closure_overflows(self, phys, H, M):
        N = stable_step_count(phys, H)
        with pytest.raises(ConfigurationError, match=f"^diffusion coefficient mu = {phys.mu!r} is too small"):
            DiscreteProblem(phys, N, H, M)

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


class TestCheckStability:
    def test_ratio_just_below_the_refusal_bound_does_not_read_as_the_bound(self):
        # mu=1, H=50, N=2503 gives 1.9996..., which 4 significant digits print as "2"
        p = make_problem(mu=1.0, N=2503, H=50)
        ratio = cfl_ratio(p)
        assert 1.0 < ratio < 2.0
        with pytest.warns(UserWarning) as record:
            assert check_stability(p) == ratio
        message = str(record[0].message)
        assert message.startswith(f"stability ratio {ratio:.17g} exceeds 1;")

    def test_refuses_above_the_bound(self):
        p = make_problem(mu=0.1, eps=0.0, N=100, H=100)
        with pytest.raises(ConfigurationError, match=re.escape(f"ratio {cfl_ratio(p):.17g} exceeds 2;")):
            check_stability(p)


class TestGridNodes:
    def test_endpoints_and_spacing(self):
        p = make_problem(H=10)
        x = grid_nodes(p.grid)
        assert x[0] == 0.0
        assert x[-1] == 1.0
        assert x[6] == 0.6  # j*L/H avoids the 6*0.1 rounding artifact
        assert np.allclose(np.diff(x), p.grid.h, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("L", [0.7, 1.0, 3.0])
    def test_nodes_are_j_L_over_H_and_end_at_L(self, L):
        # h*H is not L for every H (at L = 1, H = 49 gives 0.99999999999999989),
        # nor is (H*L)/H: at L = 0.7 it misses L at 26 of these H and lies
        # above it at H = 187, 369, 374 and 379.  eps = 0 keeps the adjoint
        # closure regular at h = mu/eps
        phys = PhysicalConfig(L=L, eps=0.0)
        for H in range(1, 400):
            x = grid_nodes(DiscreteProblem(phys, 10, H, 1).grid)
            assert x[:-1].tobytes() == (np.arange(H) * L / H).tobytes(), H
            assert x[-1] == L and x.max() <= L, H


class TestStableStepCount:
    def test_default_scale(self):
        phys = PhysicalConfig()
        n = stable_step_count(phys, H=100)
        assert n == 4020
        p = DiscreteProblem.create(phys, N=n, H=100, M=2)
        assert cfl_ratio(p) <= 0.5

    @pytest.mark.parametrize("H", [0, -3, 2.5, True, pytest.param(10**400, id="1e400")])
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
