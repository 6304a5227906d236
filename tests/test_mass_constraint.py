import itertools

import numpy as np
import pytest

import klayer.mass_constraint
import klayer.radial_steady
from klayer.asymptotics import measure_thickness
from klayer.core import STEP_TOL, Field, Params, RadialGrid, newton, radial_weights
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import ball_grid, solve_nonlocal
from klayer.planar2d import Disk, Ellipse, build_domain, solve_nonlocal_2d
from klayer.radial_steady import ball_system, boundary_slope

from constraint_oracle import BallLocalSolves, constraint_value, full_grid_passes, illinois

PAR = Params(epsilon=2e-3, p=2, b=1, m=1, n=2)


@pytest.fixture(scope="module")
def domain():
    return BallLocalSolves(R=1.0, n=2, count=2000)


@pytest.fixture(scope="module")
def result():
    return solve_nonlocal(PAR, 1.0, 2000)


class TestConstraintValue:
    def test_strictly_increasing(self, domain):
        lam = 2.0
        g1 = constraint_value(lam, PAR, domain)
        g2 = constraint_value(2 * lam, PAR, domain)
        g3 = constraint_value(4 * lam, PAR, domain)
        assert g1 < g2 < g3

    def test_increasing_under_small_steps(self, domain):
        lams = 3.0 * (1.0 + 0.02 * np.arange(5))
        gs = [constraint_value(lam, PAR, domain) for lam in lams]
        assert all(b > a * (1 - 1e-9) and b > a for a, b in zip(gs, gs[1:]))

    def test_lower_bracket_below_mass(self, domain):
        lam_lo = PAR.m / (PAR.b**PAR.p * domain.volume())
        assert constraint_value(lam_lo, PAR, domain) <= PAR.m * (1 + 1e-9)

    def test_rejects_nonpositive(self, domain):
        with pytest.raises(ValueError):
            constraint_value(0.0, PAR, domain)


class TestSolveNonlocal:
    def test_mass_closure(self, result):
        assert radial_weights(result.U.grid) @ result.U.values == pytest.approx(PAR.m, rel=1e-12)
        assert result.constraint_residual < 1e-8

    def test_reciprocal_constants(self, result):
        assert abs(result.amplitude * result.lambda_eps - 1.0) <= 1e-10
        assert result.sigma == pytest.approx(PAR.epsilon * result.lambda_eps, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_reported_constants_use_the_quadrature(self, n, p):
        # bit for bit: the constants are built from the quadrature the
        # Newton iterates with, applied to the W it returns
        par = Params(epsilon=4e-3, p=p, b=1, m=1, n=n)
        st = solve_nonlocal(par, 1.0)
        integral = float(radial_weights(st.W.grid) @ st.W.values**p)
        assert st.amplitude == par.m / integral
        assert st.lambda_eps == integral / par.m

    def test_density_is_scaled_power(self, result):
        assert result.U.grid is result.W.grid
        assert np.array_equal(result.U.values, result.amplitude * result.W.values**PAR.p)

    def test_bracket_seed_independence(self, domain, result):
        # doubling the lower bracket endpoint (via a volume-doubled view of
        # the same domain) must not move the root
        class WideBracket:
            def volume(self):
                return 2.0 * domain.volume()

            def solve_local(self, sigma, params):
                return domain.solve_local(sigma, params)

        alt = illinois(PAR, WideBracket(), tol_rel=1e-8)
        assert alt.amplitude == pytest.approx(result.amplitude, rel=5e-8)

    def test_fixed_point_consistency(self, domain, result):
        lam = result.amplitude
        _, integral = domain.solve_local(PAR.epsilon / lam, PAR)
        assert abs(lam * integral - PAR.m) / PAR.m < 2e-8

    def test_lambda_eps_ratio_bounded_over_sweep(self):
        ratios = []
        for eps in (4e-3, 2e-3, 1e-3):
            par = Params(epsilon=eps, p=2, b=1, m=1, n=2)
            st = solve_nonlocal(par, 1.0, 2000)
            ratios.append(st.lambda_eps / eps)
        assert max(ratios) / min(ratios) < 1.3
        assert all(30 < r < 200 for r in ratios)

    def test_invalid_tolerance(self, domain):
        with pytest.raises(ValueError):
            illinois(PAR, domain, tol_rel=0.0)


@pytest.mark.parametrize(
    "shape", [Disk(1.0), Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0))], ids=["disk", "ellipse"]
)
def test_planar_pair_shares_one_grid(shape):
    # as test_density_is_scaled_power on the ball: U is amplitude * W^p on
    # W's own grid, bit for bit
    par = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
    st = solve_nonlocal_2d(par, build_domain(shape, 0.05))
    assert st.U.grid is st.W.grid
    assert np.array_equal(st.U.values, st.amplitude * st.W.values**par.p)


@pytest.mark.parametrize("R", [0.0, -1.0, np.nan, np.inf])
def test_ball_radius_checked(R):
    # NaN compares False with everything, so R <= 0 alone lets it through
    with pytest.raises(ValueError, match="R must be positive"):
        solve_nonlocal(PAR, R)


@pytest.mark.parametrize("count", [1, 15, 2.5])
def test_ball_count_checked(count, monkeypatch):
    # count 1 used to divide by zero in the boundary spacing, and 2.5 was
    # truncated to 2; both are rejected before any grid is built
    built = []
    monkeypatch.setattr(klayer.mass_constraint, "make_graded_grid", lambda *a: built.append(a))
    with pytest.raises(ValueError, match="count must be an integer >= 16"):
        solve_nonlocal(PAR, 1.0, count)
    assert built == []


# the W of every stub domain: a constant field on a two-node grid
_STUB_W = Field(RadialGrid(nodes=np.array([0.0, 1.0]), n=1), np.ones(2))


class SteepConstraint:
    """Stub domain with a prescribed strictly increasing g(lam); records
    every amplitude the root-finder visits."""

    def __init__(self, g):
        self.g = g
        self.visited = []

    def volume(self):
        return 1.0

    def solve_local(self, sigma, params):
        lam = params.epsilon / sigma
        self.visited.append(lam)
        return _STUB_W, self.g(lam) / lam


def plain_bisection(g, lam_lo, m, tol_rel):
    """Doubling then midpoint bisection to |g - m| / m < tol_rel; returns
    (lam, number of g evaluations)."""
    evals = 1
    lam, val = lam_lo, g(lam_lo)
    lam_hi = lam_lo
    while val <= m and abs(val - m) / m >= tol_rel:
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
        lam, val = lam_hi, g(lam_hi)
        evals += 1
    while abs(val - m) / m >= tol_rel:
        lam = 0.5 * (lam_lo + lam_hi)
        val = g(lam)
        evals += 1
        if val > m:
            lam_hi = lam
        else:
            lam_lo = lam
    return lam, evals


class TestIllinois:
    @pytest.mark.parametrize(
        "g, smooth",
        [
            (lambda lam: (lam / 5.3) ** 40, True),
            (lambda lam: np.exp(40.0 * (lam / 5.3 - 1.0)), True),
            # slope jumps 11-fold at the root: regula falsi converges only
            # linearly there, but must still stay in the bracket
            (lambda lam: np.exp(lam - 5.3) if lam < 5.3 else (lam / 5.3) ** 60, False),
        ],
        ids=["power40", "exponential", "kinked"],
    )
    def test_iterates_stay_in_bracket(self, g, smooth):
        dom = SteepConstraint(g)
        res = illinois(PAR, dom, tol_rel=1e-10)
        assert res.constraint_residual < 1e-10
        assert res.bisection_iters == len(dom.visited)
        gs = [g(lam) for lam in dom.visited]
        # doubling phase: the first amplitude above m closes the bracket
        k = next(i for i, val in enumerate(gs) if val > PAR.m)
        lo, hi = dom.visited[k - 1], dom.visited[k]
        assert gs[k - 1] < PAR.m
        for lam, val in zip(dom.visited[k + 1 :], gs[k + 1 :]):
            assert lo < lam < hi
            if val > PAR.m:
                hi = lam
            else:
                lo = lam
        if smooth:
            _, bisection_evals = plain_bisection(g, 1.0, PAR.m, 1e-10)
            assert res.bisection_iters <= bisection_evals

    def test_matches_plain_bisection_on_disk(self):
        par = Params(epsilon=0.01, p=2, b=1, m=1, n=2)
        dom = BallLocalSolves(R=1.0, n=2, count=2500)
        res = solve_nonlocal(par, 1.0, 2500)
        lam_lo = par.m / (par.b**par.p * dom.volume())
        lam_ref, _ = plain_bisection(
            lambda lam: constraint_value(lam, par, dom), lam_lo, par.m, 1e-8
        )
        # g grows like lam^(1/2) here: each root sits within 2e-8 of the
        # exact one
        assert res.amplitude == pytest.approx(lam_ref, rel=4e-8)
        assert res.constraint_residual < 1e-8
        # pins the direct path that every ball takes: on a ball
        # bisection_iters counts Newton steps over all grid passes, here 4
        # on the coarse first pass and 2 on the full grid
        assert res.bisection_iters == 6


class TestBracketFailure:
    def test_reported_after_doubling_cap(self):
        class TinyConstraint:
            """g(lam) never reaches m: forces the doubling loop to exhaust."""

            def volume(self):
                return 1.0

            def solve_local(self, sigma, params):
                return None, 1e-60

        with pytest.raises(NoConvergenceError):
            illinois(PAR, TinyConstraint(), tol_rel=1e-8)


# (n, p, b, eps) over n 1-3, p 1-120, b 0.5-2 and eps 5e-4-2, m = 1
DIRECT_CASES = [
    (1, 1, 1.0, 5e-4),
    (1, 120, 1.0, 2e-3),
    (1, 2, 0.5, 2.0),
    (1, 40, 2.0, 0.1),
    (2, 2, 1.0, 1e-2),
    (2, 5, 2.0, 5e-4),
    (2, 120, 1.0, 0.1),
    (2, 120, 1.0, 2.0),
    (2, 120, 0.5, 2.0),
    (2, 1, 0.5, 2.0),
    (3, 3, 0.5, 2e-3),
    (3, 20, 1.0, 0.5),
    (3, 120, 2.0, 1e-2),
    (3, 1, 1.0, 2.0),
]


class TestDirectRadial:
    """The ball's direct Newton against Illinois over its own local solves."""

    @pytest.mark.parametrize("n, p, b, eps", DIRECT_CASES)
    def test_matches_illinois_over_local_solves(self, n, p, b, eps):
        par = Params(epsilon=eps, p=p, b=b, m=1, n=n)
        ball = BallLocalSolves(R=1.0, n=n)
        st = solve_nonlocal(par, 1.0)
        st_ref = illinois(par, ball, tol_rel=1e-11)
        W = st.W.values
        W_ref = np.interp(st.W.grid.nodes, st_ref.W.grid.nodes, st_ref.W.values)
        # measured worst over these cases: lambda_eps 2.8e-10, W 5.9e-10 b
        # and the slope 4.1e-8
        assert st.lambda_eps == pytest.approx(st_ref.lambda_eps, rel=1e-9)
        assert np.max(np.abs(W - W_ref)) <= 3e-9 * b
        if not (n == 1 and p == 120 and eps <= 2e-3):
            # there a 1-ulp move of a node near R is 3e-9 of a 3.5e-8
            # spacing, and the one-sided slope moves by up to 1.5e-5
            assert boundary_slope(st.W) == pytest.approx(
                boundary_slope(st_ref.W), rel=2e-7
            )
        # W lives on the grid adapted to its own sigma (measured 1.7e-11)
        nodes = ball_grid(st.sigma, par, 1.0, 2500).nodes
        assert np.max(np.abs(st.W.grid.nodes - nodes)) <= 1e-10
        # W solves sigma K W = V W^(1+p) on the finite volumes with
        # sigma = eps int W^p / m taken from W itself, to the Newton stop
        sigma = eps * (radial_weights(st.W.grid) @ W**p) / par.m
        assert sigma == pytest.approx(st.sigma, rel=1e-14)
        g, V = st.W.grid.conductances, st.W.grid.volumes
        di = -(np.r_[0.0, g] + np.r_[g, 0.0])
        flux = g * np.diff(W)
        F = sigma * (np.r_[flux, 0.0] - np.r_[0.0, flux])
        F = (F - V * W ** (1.0 + p))[:-1]
        jd = (sigma * di - (1.0 + p) * V * W**p)[:-1]
        assert np.max(np.abs(F / jd)) <= STEP_TOL * b
        assert W[-1] == b and np.all(W > 0) and np.all(W <= b)
        again = solve_nonlocal(par, 1.0)
        assert again.W.values.tobytes() == W.tobytes()
        assert again.lambda_eps == st.lambda_eps

    def test_newton_steps_per_solve(self, monkeypatch):
        # the README sweep (eps 0.004, 0.002, 0.001 x p 2, 4 on the unit
        # disk): one tridiagonal solve per Newton step, 6-7 steps over all
        # grid passes, against about 40 under Illinois over local solves
        solve = klayer.radial_steady.solve_banded
        calls = []
        monkeypatch.setattr(
            klayer.radial_steady,
            "solve_banded",
            lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs),
        )
        for eps in (0.004, 0.002, 0.001):
            for p in (2, 4):
                calls.clear()
                par = Params(epsilon=eps, p=p, b=1, m=1, n=2)
                res = solve_nonlocal(par, 1.0)
                assert res.bisection_iters == len(calls) <= 7

    def test_pass_cap(self, monkeypatch):
        # the first pass always moves sigma off its asymptotic start
        monkeypatch.setattr(klayer.mass_constraint, "_MAX_PASSES", 1)
        with pytest.raises(NoConvergenceError):
            solve_nonlocal(PAR, 1.0)

    def test_scaled_stop_regression(self):
        # W^(1+p) <= 0.5^41 = 4.5e-13 here, below the absolute residual
        # bound of 1e-10 that the local solve used to stop on: Illinois over
        # those local solves returned 1.5104e-13, 13.6 % low
        par = Params(epsilon=0.1, p=40, b=0.5, m=1, n=2)
        ball = BallLocalSolves(R=1.0, n=2)
        ref = illinois(par, ball, tol_rel=1e-10)
        assert ref.lambda_eps == pytest.approx(1.748312e-13, rel=1e-6)
        direct = solve_nonlocal(par, 1.0)
        assert direct.lambda_eps == pytest.approx(1.748312e-13, rel=1e-6)


# (n, p, eps, b, m): n 1-3, p 1-40, eps 0.05-2.5e-4, (b, m) (1, 1) and (2, 3)
COARSE_CASES = [
    (n, p, eps, b, m)
    for n, p, eps, (b, m) in itertools.product(
        (1, 2, 3), (1, 2, 8, 40), (0.05, 0.004, 2.5e-4), ((1, 1), (2, 3))
    )
]


def _stencil_conditioning(W, b):
    """Relative move of the three-node boundary slope of W when a node next
    to R moves by one ulp: ulp(R) * b / (h^2 |slope|), h the last spacing."""
    r = W.grid.nodes
    return np.spacing(r[-1]) * b / ((r[-1] - r[-2]) ** 2 * abs(boundary_slope(W)))


class TestCoarseStart:
    """The ball solve's coarse first pass against full_grid_passes, the same
    passes with every one on the full grid."""

    @pytest.fixture()
    def pass_sizes(self, monkeypatch):
        """The node count of each grid pass of the ball solves that follow."""
        sizes = []
        monkeypatch.setattr(
            klayer.mass_constraint,
            "newton",
            lambda W, *args: sizes.append(W.size) or newton(W, *args),
        )
        return sizes

    @pytest.mark.parametrize("n, p, eps, b, m", COARSE_CASES)
    def test_matches_full_grid_passes(self, n, p, eps, b, m):
        par = Params(epsilon=eps, p=p, b=b, m=m, n=n)
        st = solve_nonlocal(par, 1.0)
        ref = full_grid_passes(par, 1.0)
        assert st.W.grid.count == 2500
        # measured worst over these cases: lambda_eps 1.9e-10, thickness
        # 2.0e-11 and slope_U 8.1e-8; the thickness at the reported level
        # b/2, where the profile reaches it
        assert st.lambda_eps == pytest.approx(ref.lambda_eps, rel=1e-9)
        if ref.W.values[0] < b / 2:
            assert measure_thickness(st.W, b / 2) == pytest.approx(
                measure_thickness(ref.W, b / 2), rel=1e-10
            )
        else:
            assert st.W.values[0] > b / 2
        assert boundary_slope(st.U) == pytest.approx(boundary_slope(ref.U), rel=4e-7)
        # slope_W moved by up to 1.1e-7 at p <= 8 and 3.2e-6 at p 40, never
        # more than half the move of a one-ulp node shift next to R
        assert boundary_slope(st.W) == pytest.approx(
            boundary_slope(ref.W), rel=4e-7 + _stencil_conditioning(ref.W, b)
        )

    def test_slope_move_is_the_stencil_conditioning(self):
        # n 1, p 120, eps 2.5e-4: the coarse start moves slope_W by 1.0e-5,
        # exactly as far as the reference's own slope_W moves when the sigma
        # of its grid moves by 1e-12 (a one-ulp move of the nodes next to R)
        par = Params(epsilon=2.5e-4, p=120, b=1, m=1, n=1)
        ref = full_grid_passes(par, 1.0)
        grid = ball_grid(ref.sigma * (1 + 1e-12), par, 1.0, 2500)
        W = np.interp(grid.nodes, ref.W.grid.nodes, ref.W.values)
        shifted, _ = newton(W, None, par, ball_system(grid, radial_weights(grid)))
        shifted = Field(grid, shifted)
        slope = boundary_slope(ref.W)
        shift = abs(boundary_slope(shifted) / slope - 1)
        move = abs(boundary_slope(solve_nonlocal(par, 1.0).W) / slope - 1)
        assert 5e-6 < move <= shift <= _stencil_conditioning(ref.W, par.b)

    @pytest.mark.parametrize("count", [16, 17, 63, 64, 80])
    @pytest.mark.parametrize("n, p, eps", [(2, 2, 1e-3), (1, 8, 2.5e-4), (3, 40, 0.004)])
    def test_returns_count_nodes(self, count, n, p, eps):
        # below count 64 every pass takes count nodes, from 64 on the first
        # takes 16 or 20
        par = Params(epsilon=eps, p=p, b=1, m=1, n=n)
        st = solve_nonlocal(par, 1.0, count)
        ref = full_grid_passes(par, 1.0, count)
        assert st.W.grid.count == count
        # measured worst 1.8e-11
        assert st.lambda_eps == pytest.approx(ref.lambda_eps, rel=1e-10)

    def test_only_a_full_grid_pass_ends_the_solve(self, monkeypatch, pass_sizes):
        # sigma0 set to the coarse grid's own converged sigma: the coarse pass
        # moves sigma by less than the pass tolerance, and the solve still
        # goes on to the grid of count nodes
        par = Params(epsilon=2e-3, p=2, b=1, m=1, n=2)
        sigma = full_grid_passes(par, 1.0, 625).sigma
        monkeypatch.setattr(
            klayer.mass_constraint, "lambda_leading", lambda params, R: sigma / params.epsilon**2
        )
        st = solve_nonlocal(par, 1.0)
        assert pass_sizes[0] == 625 and st.W.grid.count == 2500

    @pytest.mark.parametrize("count", [16, 40, 63])
    def test_small_count_unchanged(self, count, pass_sizes):
        # below count 64 a quarter of the nodes is too few to pay: every
        # pass runs on count nodes, exactly as full_grid_passes does
        par = Params(epsilon=1e-3, p=2, b=1, m=1, n=2)
        res, ref = solve_nonlocal(par, 1.0, count), full_grid_passes(par, 1.0, count)
        assert set(pass_sizes) == {count}
        for got, want in ((res.W, ref.W), (res.U, ref.U)):
            assert got.grid.nodes.tobytes() == want.grid.nodes.tobytes()
            assert got.values.tobytes() == want.values.tobytes()
        assert res.bisection_iters == ref.bisection_iters

    def test_capped_grid_starts_coarse(self, pass_sizes):
        # the README disk: its spacing is capped at R / (count - 1), and it
        # too takes a coarse first pass (4 steps on 625 nodes, 2 on 2500)
        par = Params(epsilon=0.01, p=2, b=1, m=1, n=2)
        res, ref = solve_nonlocal(par, 1.0), full_grid_passes(par, 1.0)
        assert pass_sizes[0] == 625 and res.W.grid.count == 2500
        assert res.W.grid.nodes.tobytes() == ref.W.grid.nodes.tobytes()
        # measured 2.2e-16 and 1.1e-16 b
        assert res.lambda_eps == pytest.approx(ref.lambda_eps, rel=1e-14)
        assert np.max(np.abs(res.W.values - ref.W.values)) <= 1e-14 * par.b

    def test_first_pass_is_coarse(self, pass_sizes):
        # the README sweep at p 2 and 4: a pass on a quarter of the nodes,
        # then two on all of them
        for eps in (0.004, 0.002, 0.001):
            for p in (2, 4):
                pass_sizes.clear()
                solve_nonlocal(Params(epsilon=eps, p=p, b=1, m=1, n=2), 1.0)
                assert pass_sizes == [625, 2500, 2500]
