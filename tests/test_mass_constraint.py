import numpy as np
import pytest

import klayer.mass_constraint
import klayer.radial_steady
from klayer.core import Params, RadialProfile, integrate_radial, radial_weights
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import ball_grid, solve_nonlocal
from klayer.radial_steady import STEP_TOL, boundary_slope

from constraint_oracle import BallLocalSolves, constraint_value, illinois

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
        st = result.steady
        assert integrate_radial(st.U) == pytest.approx(PAR.m, rel=1e-12)
        assert result.constraint_residual < 1e-8

    def test_reciprocal_constants(self, result):
        st = result.steady
        assert abs(st.amplitude * st.lambda_eps - 1.0) <= 1e-10
        assert st.sigma == pytest.approx(PAR.epsilon * st.lambda_eps, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_reported_constants_use_the_quadrature(self, n, p):
        # bit for bit: the constants are built from the quadrature the
        # Newton iterates with, applied to the W it returns
        par = Params(epsilon=4e-3, p=p, b=1, m=1, n=n)
        st = solve_nonlocal(par, 1.0).steady
        integral = float(radial_weights(st.W.grid) @ st.W.values**p)
        assert st.amplitude == par.m / integral
        assert st.lambda_eps == integral / par.m

    def test_density_is_scaled_power(self, result):
        st = result.steady
        np.testing.assert_allclose(
            st.U.values, st.amplitude * st.W.values**PAR.p, rtol=1e-10, atol=0.0
        )

    def test_bracket_seed_independence(self, domain, result):
        # doubling the lower bracket endpoint (via a volume-doubled view of
        # the same domain) must not move the root
        class WideBracket:
            def volume(self):
                return 2.0 * domain.volume()

            def solve_local(self, sigma, params):
                return domain.solve_local(sigma, params)

        alt = illinois(PAR, WideBracket(), tol_rel=1e-8)
        assert alt.steady.amplitude == pytest.approx(
            result.steady.amplitude, rel=5e-8
        )

    def test_fixed_point_consistency(self, domain, result):
        st = result.steady
        lam = st.amplitude
        _, integral = domain.solve_local(PAR.epsilon / lam, PAR)
        assert abs(lam * integral - PAR.m) / PAR.m < 2e-8

    def test_lambda_eps_ratio_bounded_over_sweep(self):
        ratios = []
        for eps in (4e-3, 2e-3, 1e-3):
            par = Params(epsilon=eps, p=2, b=1, m=1, n=2)
            st = solve_nonlocal(par, 1.0, 2000).steady
            ratios.append(st.lambda_eps / eps)
        assert max(ratios) / min(ratios) < 1.3
        assert all(30 < r < 200 for r in ratios)

    def test_invalid_tolerance(self, domain):
        with pytest.raises(ValueError):
            illinois(PAR, domain, tol_rel=0.0)


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


class _Stub:
    """W stand-in for stub domains: scaling it returns itself."""

    def scaled_power(self, amplitude, p):
        return self


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
        return _Stub(), self.g(lam) / lam


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
        assert res.steady.amplitude == pytest.approx(lam_ref, rel=4e-8)
        assert res.constraint_residual < 1e-8
        # pins the direct path that every ball takes: on a ball
        # bisection_iters counts Newton steps over all grid passes
        assert res.bisection_iters == 4


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
        res = solve_nonlocal(par, 1.0)
        ref = illinois(par, ball, tol_rel=1e-11)
        st, st_ref = res.steady, ref.steady
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
        sigma = eps * integrate_radial(RadialProfile(st.W.grid, W**p)) / par.m
        assert sigma == pytest.approx(st.sigma, rel=1e-14)
        g, V = st.W.grid.conductances, st.W.grid.volumes
        di = -(np.r_[0.0, g] + np.r_[g, 0.0])
        flux = g * np.diff(W)
        F = sigma * (np.r_[flux, 0.0] - np.r_[0.0, flux])
        F = (F - V * W ** (1.0 + p))[:-1]
        jd = (sigma * di - (1.0 + p) * V * W**p)[:-1]
        assert np.max(np.abs(F / jd)) <= STEP_TOL * b
        assert W[-1] == b and np.all(W > 0) and np.all(W <= b)
        again = solve_nonlocal(par, 1.0).steady
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
        assert ref.steady.lambda_eps == pytest.approx(1.748312e-13, rel=1e-6)
        direct = solve_nonlocal(par, 1.0)
        assert direct.steady.lambda_eps == pytest.approx(1.748312e-13, rel=1e-6)
