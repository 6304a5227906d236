import numpy as np
import pytest

from klayer.core import Params, RadialProfile, make_graded_grid, refine_grid
from klayer.errors import AxisSingularityError, NoConvergenceError
import klayer.radial_steady
from klayer.radial_steady import (
    barrier_lower,
    barrier_upper,
    boundary_slope,
    layer_profile_constant,
    solve_local_radial,
    upper_barrier_sigma_max,
    _operator_bands,
    _solve_tridiag,
)

P1 = Params(epsilon=1.0, p=2, b=1, m=1, n=1)
P2 = Params(epsilon=1.0, p=2, b=1, m=1, n=2)
P3 = Params(epsilon=1.0, p=2, b=1, m=1, n=3)


@pytest.fixture(scope="module")
def halfline_solve():
    grid = make_graded_grid(40.0, 1, 0.077, 2000)
    return solve_local_radial(1.0, P1, grid)


class TestSolveLocalRadial:
    def test_halfline_form_near_boundary(self, halfline_solve):
        # the algebraic profile solves the ODE exactly; on [0, R] its
        # finite-domain correction grows inward like the cubed layer
        # variable, so the tight comparison region is the first couple of
        # layer widths
        z = 40.0 - halfline_solve.grid.nodes
        form = (1.0 + z / np.sqrt(2.0)) ** (-1.0)
        err = np.abs(halfline_solve.values - form)
        assert err[z <= 2.0].max() <= 1e-5

    def test_dirichlet_exact_and_bounds(self, halfline_solve):
        W = halfline_solve.values
        assert W[-1] == 1.0
        assert np.all(W > 0)
        assert np.all(W <= 1.0)
        assert np.all(np.diff(W) >= -1e-14)

    def test_invalid_sigma(self):
        grid = make_graded_grid(1.0, 2, 0.1, 64)
        with pytest.raises(ValueError):
            solve_local_radial(-1.0, P2, grid)

    def test_large_sigma_linear_oracle(self):
        # reaction is negligible at sigma = 1e6: start from W == b and
        # compare against the linearized problem sigma * L W = b^p W solved
        # directly
        grid = make_graded_grid(1.0, 2, 10.0 / 399, 400)
        W = solve_local_radial(1e6, P2, grid, initial=np.ones(grid.count))
        assert np.max(np.abs(W.values - 1.0)) <= 1e-3

        lo, di, up = _operator_bands(grid)
        sigma = 1e6
        jl, jd, ju = sigma * lo, sigma * di - 1.0, sigma * up.copy()
        jl[-1], jd[-1], ju[-1] = 0.0, 1.0, 0.0
        rhs = np.zeros(grid.count)
        rhs[-1] = 1.0
        W_lin = _solve_tridiag(jl.copy(), jd, ju, rhs)
        assert np.max(np.abs(W.values - W_lin)) <= 1e-9

    def test_no_convergence_with_single_iteration(self, monkeypatch):
        grid = make_graded_grid(1.0, 2, 0.02, 200)
        monkeypatch.setattr(klayer.radial_steady, "MAX_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            solve_local_radial(1e-4, P2, grid)

    def test_grid_convergence_order(self):
        g0 = make_graded_grid(40.0, 1, 0.154, 1000)
        g1 = refine_grid(g0)
        g2 = refine_grid(g1)
        W0 = solve_local_radial(1.0, P1, g0).values
        W1 = solve_local_radial(1.0, P1, g1).values
        W2 = solve_local_radial(1.0, P1, g2).values
        d01 = np.max(np.abs(W0 - W1[::2]))
        d12 = np.max(np.abs(W1 - W2[::2]))
        assert np.log2(d01 / d12) >= 1.9

    def test_monotone_in_sigma(self):
        grid = make_graded_grid(1.0, 2, 0.02, 600)
        W1 = solve_local_radial(2e-3, P2, grid).values
        W2 = solve_local_radial(4e-3, P2, grid).values
        assert np.min(W2 - W1) >= -1e-9


class TestBarriers:
    def test_lower_boundary_value(self):
        assert barrier_lower(10.0, 1.0, P1, 10.0) == pytest.approx(1.0, abs=1e-15)

    def test_lower_layer_value(self):
        # c_p = sqrt(2) at p = 2; one layer width below b the profile halves
        r = 10.0 - np.sqrt(2.0)
        assert barrier_lower(r, 1.0, P1, 10.0) == pytest.approx(0.5, rel=1e-12)

    def test_lower_decreasing_inward(self):
        r = np.linspace(0, 1, 50)
        v = barrier_lower(r, 1e-4, P2, 1.0)
        assert np.all(np.diff(v) > 0)

    def test_lower_vanishes_for_small_sigma(self):
        vals = [barrier_lower(0.0, s, P2, 1.0) for s in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[-1] < 1e-2

    def test_upper_boundary_value_n3(self):
        assert barrier_upper(1.0, 1e-3, P3, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_upper_n2_printed_example(self):
        # independent arithmetic: a_p = 1, c_{p,1} = sqrt(2)(1 - 1e-4)^(-1/2),
        # value = 2 / (1 + 0.5 / (0.01 c_{p,1}))
        got = barrier_upper(0.5, 1e-4, P2, 1.0)
        assert got == pytest.approx(0.05501522770201665, rel=1e-12)
        assert got == pytest.approx(0.0550, abs=1e-4)

    def test_upper_n1_additive_tail(self):
        lower = barrier_lower(40.0, 1.0, P1, 40.0)
        upper = barrier_upper(40.0, 1.0, P1, 40.0)
        tail = layer_profile_constant(2.0) ** 1.0 * 1.0 / 40.0
        assert upper - lower == pytest.approx(tail, rel=1e-12)

    def test_upper_singular_at_axis(self):
        with pytest.raises(AxisSingularityError):
            barrier_upper(0.0, 1e-4, P2, 1.0)

    def test_upper_sigma_too_large_n2(self):
        with pytest.raises(ValueError):
            barrier_upper(0.5, 2.0, P2, 1.0)  # needs sigma < b^p R^2 / a_p^2 = 1

    @pytest.mark.parametrize("params", [P1, P2, P3])
    def test_sandwich_ordering(self, params):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sigma = 10.0 ** rng.uniform(-6, -1)
            if params.n == 2 and sigma >= upper_barrier_sigma_max(params, 1.0):
                continue
            r = rng.uniform(0.05, 1.0)
            assert barrier_upper(r, sigma, params, 1.0) >= barrier_lower(
                r, sigma, params, 1.0
            ) - 1e-14

    def test_sigma_threshold_explicit_value(self):
        # conservative threshold for the tested configuration
        s0 = upper_barrier_sigma_max(P2, 1.0)
        assert 1e-4 < s0 < 1e-2
        assert upper_barrier_sigma_max(P3, 1.0) == np.inf


class TestConvergedSandwich:
    def test_solution_between_barriers(self):
        params = P2
        sigma = 1.26e-3
        assert sigma < upper_barrier_sigma_max(params, 1.0)
        grid = make_graded_grid(1.0, 2, 5e-4, 3000)
        W = solve_local_radial(sigma, params, grid)
        r = grid.nodes
        low = barrier_lower(r, sigma, params, 1.0)
        up = np.full_like(low, np.inf)
        up[1:] = barrier_upper(r[1:], sigma, params, 1.0)
        tol_disc = 1e-4
        assert np.min(W.values - low) >= -tol_disc
        assert np.min(up - W.values) >= -tol_disc


class TestBoundarySlope:
    def test_linear_exact(self):
        grid = make_graded_grid(2.0, 1, 0.3, 40)
        f = RadialProfile(grid, grid.nodes.copy())
        assert boundary_slope(f) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_exact_to_rounding(self):
        grid = make_graded_grid(2.0, 1, 0.3, 40)
        f = RadialProfile(grid, grid.nodes**2)
        assert boundary_slope(f) == pytest.approx(4.0, rel=1e-10)

    def test_needs_four_nodes(self):
        import klayer.core as core

        g = core.RadialGrid(R=1.0, nodes=np.array([0.0, 0.5, 1.0]), n=1)
        with pytest.raises(ValueError):
            boundary_slope(RadialProfile(g, np.zeros(3)))

    def test_halfline_slope_leading_term(self, halfline_solve):
        # sqrt(2/(p+2)) b^(1+p/2) / sqrt(sigma) = 1/sqrt(2) for this setup
        assert boundary_slope(halfline_solve) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-3
        )
