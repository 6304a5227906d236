import numpy as np
import pytest
from scipy.linalg import solve_banded

from klayer.cli import RunConfig, _evolve_grid
from klayer.core import Field, Params, make_graded_grid, newton, radial_weights, refine_grid
from klayer.errors import AxisSingularityError, NoConvergenceError
from klayer.evolve_radial import relax_to_discrete_steady, step
from klayer.mass_constraint import ball_grid, solve_nonlocal
import klayer.core
import klayer.radial_steady
from klayer.radial_steady import (
    ball_system,
    barrier_lower,
    barrier_upper,
    boundary_slope,
    layer_profile_constant,
    solve_local_radial,
    upper_barrier_sigma_max,
)


def fv_operator(grid):
    """(lo, di, up, V): the bands of the flux-difference operator K over the
    grid's cells and the cell volumes, so that K W / V approximates
    W'' + (n-1)/r W'; zero row sums and no flux across r = 0."""
    g = grid.conductances
    lo = np.concatenate(([0.0], g))
    up = np.concatenate((g, [0.0]))
    return lo, -(lo + up), up, grid.volumes


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
        # reaction is negligible at sigma = 1e6: Newton on the ball's system
        # from W == b, compared against the linearized problem
        # sigma K W = b^p V W on the solver's finite volumes, solved directly
        grid = make_graded_grid(1.0, 2, 10.0 / 399, 400)
        W, _, _ = newton(np.ones(grid.count), 1e6, P2, ball_system(grid, radial_weights(grid)))
        assert np.max(np.abs(W - 1.0)) <= 1e-3

        lo, di, up, V = fv_operator(grid)
        sigma = 1e6
        jl, jd, ju = sigma * lo, sigma * di - V, sigma * up
        jl[-1], jd[-1] = 0.0, 1.0
        rhs = np.zeros(grid.count)
        rhs[-1] = 1.0
        W_lin = klayer.radial_steady.solve_banded(jl[1:], jd, ju[:-1], rhs)
        assert np.max(np.abs(W - W_lin)) <= 1e-9

    def test_no_convergence_with_single_iteration(self, monkeypatch):
        grid = make_graded_grid(1.0, 2, 0.02, 200)
        monkeypatch.setattr(klayer.core, "MAX_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            solve_local_radial(1e-4, P2, grid)

    def test_no_convergence_on_non_finite_iterate(self, monkeypatch):
        grid = make_graded_grid(1.0, 2, 0.02, 200)
        monkeypatch.setattr(
            klayer.radial_steady, "solve_banded", lambda lo, di, up, rhs: np.full_like(rhs, np.nan)
        )
        with pytest.raises(NoConvergenceError, match="non-finite"):
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


class TestFiniteVolumeOperator:
    """K over the grid's cells, the one radial operator of the ball's solves
    and of evolve_radial."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_on_r_squared(self, n):
        # grad r^2 = 2r has the flux 2 f^n through the face at f, the midpoint
        # of its nodes, exactly, so the divergence theorem on each cell gives
        # K r^2 = 2n V on every row but the Dirichlet one, to rounding
        # (measured 1.5 eps |K_ii| r^2)
        ulp = np.finfo(float).eps
        for graded in (make_graded_grid(1.0, n, 0.02, 300), make_graded_grid(1.0, n, 1e-3, 512)):
            for grid in (graded, refine_grid(graded)):
                lo, di, up, V = fv_operator(grid)
                W = grid.nodes**2
                dW = np.diff(W)
                KW = np.r_[up[:-1] * dW, 0.0] - np.r_[0.0, lo[1:] * dW]
                gap = np.abs(KW - 2 * n * V)[:-1]
                assert np.all(gap <= 4 * ulp * (np.abs(di) * W + 2 * n * V)[:-1])


class TestNewtonStop:
    """The local Newton stops on max |F_i| / |J_ii| < STEP_TOL * b together
    with |F_i| < NEWTON_TOL min(1, b^(1+p)) or its rounding floor.  The
    absolute bound alone, max |F_i| < 1e-10, accepted unconverged profiles
    wherever W^(1+p) is that small: lambda_eps came out 13.6 % low at p = 40,
    7.0 % low at p = 120 and 8.2e-5 high at eps 5e-4, p = 1.  The scaled test
    alone stops short where diffusion dominates: at eps 2, p 120 it left W
    7.5e-8 b from convergence, at b = 1 and at b = 0.5.  A rounding floor
    taken at max |L_ii| in place of each row's left it 7.6e-9 b away at
    eps 0.5, p 120, n 1."""

    @pytest.mark.parametrize(
        "eps, p, b, n, lam",
        [
            (0.1, 40, 0.5, 2, 1.748312e-13),
            (0.1, 120, 0.5, 2, 4.917847e-38),
            (5e-4, 1, 0.5, 1, 5.935810e-3),
            (2.0, 120, 0.5, 2, 7.009068e-37),
            (2.0, 120, 1.0, 2, 9.316649e-1),
            (0.5, 120, 1.0, 1, 3.382497e-2),
        ],
    )
    def test_next_newton_step_negligible(self, eps, p, b, n, lam):
        # at the converged sigma = eps * lambda_eps on its adapted grid, one
        # more full Newton step, assembled here with scipy's banded solver,
        # moves W by at most 1e-10 b (measured 5e-14 to 1.9e-12 b)
        par = Params(epsilon=eps, p=p, b=b, m=1, n=n)
        sigma = eps * lam
        grid = ball_grid(sigma, par, 1.0, 2500)
        W = solve_local_radial(sigma, par, grid).values
        lo, di, up, V = fv_operator(grid)
        dW = np.diff(W)
        F = sigma * (np.r_[up[:-1] * dW, 0.0] - np.r_[0.0, lo[1:] * dW])
        F -= V * W ** (1.0 + p)
        F[-1] = W[-1] - b
        ab = np.zeros((3, W.size))
        ab[0, 1:] = sigma * up[:-1]
        ab[1] = sigma * di - (1.0 + p) * V * W**p
        ab[1, -1] = 1.0
        ab[2, :-2] = sigma * lo[1:-1]
        step = solve_banded((1, 1), ab, -F)
        assert np.max(np.abs(step)) <= 1e-10 * b


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
        f = Field(grid, grid.nodes.copy())
        assert boundary_slope(f) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_exact_to_rounding(self):
        grid = make_graded_grid(2.0, 1, 0.3, 40)
        f = Field(grid, grid.nodes**2)
        assert boundary_slope(f) == pytest.approx(4.0, rel=1e-10)

    def test_needs_four_nodes(self):
        import klayer.core as core

        g = core.RadialGrid(nodes=np.array([0.0, 0.5, 1.0]), n=1)
        with pytest.raises(ValueError):
            boundary_slope(Field(g, np.zeros(3)))

    def test_halfline_slope_leading_term(self, halfline_solve):
        # sqrt(2/(p+2)) b^(1+p/2) / sqrt(sigma) = 1/sqrt(2) for this setup
        assert boundary_slope(halfline_solve) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-3
        )


def scipy_tridiag(lo, di, up, rhs):
    """Reference for radial_steady.solve_banded: scipy's banded solver on the
    packed bands, which runs the same LAPACK gtsv."""
    ab = np.zeros((3, di.size))
    ab[0, 1:] = up
    ab[1] = di
    ab[2, :-1] = lo
    return solve_banded((1, 1), ab, rhs)


def dominant_system(N, cols, order):
    """A random strictly diagonally dominant tridiagonal system; cols None
    gives a one-dimensional right-hand side."""
    rng = np.random.default_rng(0)
    lo, up = rng.uniform(-1.0, 1.0, (2, N - 1))
    off = np.abs(np.r_[0.0, lo]) + np.abs(np.r_[up, 0.0])
    di = rng.choice((-1.0, 1.0), N) * (off + rng.uniform(0.1, 1.0, N))
    rhs = rng.uniform(-1.0, 1.0, N if cols is None else (N, cols))
    return lo, di, up, np.array(rhs, order=order)


class TestSolveBanded:
    """radial_steady.solve_banded, the one tridiagonal kernel, against scipy's
    solve_banded on the packed bands."""

    @pytest.mark.parametrize("N", [2, 3, 128, 1593])
    @pytest.mark.parametrize("cols", [None, 1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_scipy(self, N, cols, order):
        system = dominant_system(N, cols, order)
        before = [a.copy() for a in system]
        x = klayer.radial_steady.solve_banded(*system)
        for a, b in zip(system, before):
            assert np.array_equal(a, b)
        assert np.array_equal(x, scipy_tridiag(*system))

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, which, bad):
        system = list(dominant_system(128, 2, "C"))
        system[which][5] = bad
        with pytest.raises(ValueError):
            klayer.radial_steady.solve_banded(*system)

    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("cols, order", [(None, "C"), (2, "F")])
    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_at_ends(self, which, bad, cols, order, at):
        # the first and the last entry of each argument, with a 1-D and a
        # strided (F-ordered, two-column) rhs: the one-pass guard reads all
        system = list(dominant_system(128, cols, order))
        a = system[which]
        a[(at,) * a.ndim] = bad
        with pytest.raises(ValueError):
            klayer.radial_steady.solve_banded(*system)

    @pytest.mark.parametrize("row", [0, 64, 127])
    def test_singular_rejected(self, row):
        lo, di, up, rhs = dominant_system(128, None, "C")
        di[row] = 0.0
        lo[row - 1 : row] = 0.0
        up[row : row + 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            klayer.radial_steady.solve_banded(lo, di, up, rhs)


class TestSolveBandedPaths:
    """The Newton and evolve paths give bit-identical results with the
    helper swapped for scipy's banded solver; since step finds the helper as
    a module attribute, the swap reaches both of its solves."""

    @staticmethod
    def evolve_decay_run():
        par = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
        grid = _evolve_grid(RunConfig(command="evolve", params=par, grid_count=128))
        ref = relax_to_discrete_steady(grid, par)
        u = ref.U.values * (1.0 + 0.01 * np.cos(np.pi * grid.nodes))
        v = np.log(ref.W.values)
        out = [ref.U.values.tobytes(), v.tobytes()]
        for _ in range(200):
            u, v = step(grid, u, v, par, 5e-3)
            out += [u.tobytes(), v.tobytes()]
        return out

    @staticmethod
    def ball_run():
        res = solve_nonlocal(Params(epsilon=0.004, p=2, b=1, m=1, n=2), 1.0)
        return res.W.values.tobytes(), res.lambda_eps

    @pytest.mark.parametrize(
        "run, solves",
        # the pair's 1-6 Newton steps, then two solves per step; the ball's
        # 6-7 Newton steps (test_newton_steps_per_solve)
        [("evolve_decay_run", range(401, 407)), ("ball_run", range(1, 8))],
    )
    def test_bit_identical_to_scipy(self, monkeypatch, run, solves):
        fast = getattr(self, run)()
        calls = []
        monkeypatch.setattr(
            klayer.radial_steady,
            "solve_banded",
            lambda *args: calls.append(1) or scipy_tridiag(*args),
        )
        assert getattr(self, run)() == fast
        assert len(calls) in solves
