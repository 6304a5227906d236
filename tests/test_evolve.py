import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exprel

import klayer.evolve_radial
import klayer.mass_constraint
import klayer.radial_steady
from klayer.core import (
    Params,
    RadialGrid,
    RadialProfile,
    ball_volume,
    integrate_radial,
    make_graded_grid,
    radial_weights,
    refine_grid,
)
from klayer.errors import PositivityError
from klayer.evolve_radial import (
    DiscreteSteady,
    evolve,
    fit_decay_rate,
    lyapunov_energy,
    relax_to_discrete_steady,
    step,
    _mass,
)
from klayer.mass_constraint import solve_nonlocal
from klayer.radial_steady import solve_local_radial

from constraint_oracle import illinois

PAR = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
ULP = np.finfo(float).eps


@pytest.fixture(scope="module")
def setup():
    grid = make_graded_grid(1.0, 2, 10.0 / 199, 200)
    return grid, relax_to_discrete_steady(grid, PAR)


@pytest.fixture(scope="module")
def small():
    grid = make_graded_grid(1.0, 2, 10.0 / 63, 64)
    return grid, relax_to_discrete_steady(grid, PAR)


@pytest.fixture(scope="module")
def strong():
    # coarse grid, strong drift: |p dV / 2| reaches 1.19 on a face
    par = Params(epsilon=0.005, p=8, b=1, m=1, n=2)
    grid = make_graded_grid(1.0, 2, 0.5, 20)
    return par, grid, relax_to_discrete_steady(grid, par)


class FixedGridBall:
    """Ball domain whose local solves all use one grid (for illinois)."""

    def __init__(self, grid):
        self.grid = grid

    def volume(self):
        return ball_volume(self.grid.R, self.grid.n)

    def solve_local(self, sigma, params):
        W = solve_local_radial(sigma, params, self.grid)
        return W, integrate_radial(RadialProfile(self.grid, W.values**params.p))


def count_newton_steps(monkeypatch, grid, par):
    # one banded solve per Newton step, the final step in W^(-p/2) included
    calls = []
    solve = klayer.radial_steady.solve_banded
    monkeypatch.setattr(
        klayer.radial_steady,
        "solve_banded",
        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs),
    )
    return relax_to_discrete_steady(grid, par), len(calls)


def density_spread(par, ref):
    """Relative spread of U / W^p, which the scheme's pair keeps constant."""
    ratio = ref.U / ref.W**par.p
    return np.max(ratio) / np.min(ratio) - 1.0


def step_move(grid, par, ref):
    """Largest relative change of (u, v) over one step from the pair."""
    u, v = step(grid, ref.U, ref.V, par, 1e-3)
    du = np.max(np.abs(u - ref.U)) / np.max(ref.U)
    dv = np.max(np.abs(v - ref.V)) / (np.max(np.abs(ref.V)) + 1.0)
    return max(du, dv)


def perturbed_state(grid, reference, amp=0.01):
    r = grid.nodes
    u0 = reference.U * (1.0 + amp * np.cos(np.pi * r))
    v0 = reference.V * (1.0 + amp * np.cos(np.pi * r / 2.0))
    return u0, v0


def mass_anti_derivative_endpoint(u, steady):
    """Value of int_0^R (u - U) s^(n-1) ds; zero (to quadrature) at equal mass."""
    r = steady.grid.nodes
    return float(np.trapezoid((u - steady.U) * r ** (steady.grid.n - 1), r))


def reference_step(grid, u, v, params, dt):
    """step() with V / dt formed at each use and the face differences taken
    by np.diff: the byte reference for step()."""
    V = grid.volumes
    g = grid.conductances
    d = params.p * np.diff(v)
    leave = g / exprel(-d)
    enter = g / exprel(d)
    di = V / dt
    di[:-1] += leave
    di[1:] += enter
    u_new = klayer.radial_steady.solve_banded(-leave, di, -enter, V / dt * u)
    a = params.epsilon * g
    di = V / dt + V * u_new
    di[:-1] += a
    di[1:] += a
    di[-1] = 1.0
    lo = -a
    lo[-1] = 0.0
    rhs = V / dt * np.exp(v)
    rhs[-1] = params.b
    v_new = np.log(klayer.radial_steady.solve_banded(lo, di, -a, rhs))
    v_new[-1] = math.log(params.b)
    return u_new, v_new


ORACLE_DTS = [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2]


class TestStepOracle:
    """step() gives the reference's bits, step after step."""

    @staticmethod
    def assert_same_run(grid, par, ref, dt, steps=200):
        u, v = perturbed_state(grid, ref, amp=0.3)
        u_ref, v_ref = u, v
        for _ in range(steps):
            u, v = step(grid, u, v, par, dt)
            u_ref, v_ref = reference_step(grid, u_ref, v_ref, par, dt)
        assert np.array_equal(u, u_ref)
        assert np.array_equal(v, v_ref)

    @pytest.mark.parametrize("dt", ORACLE_DTS)
    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_identical(self, n, p, dt):
        par = Params(epsilon=0.05, p=p, b=1, m=1, n=n)
        grid = make_graded_grid(1.0, n, 10.0 / 63, 64)
        self.assert_same_run(grid, par, relax_to_discrete_steady(grid, par), dt)

    @pytest.mark.parametrize("dt", ORACLE_DTS)
    def test_bit_identical_under_strong_drift(self, strong, dt):
        par, grid, ref = strong
        self.assert_same_run(grid, par, ref, dt)


class TestStep:
    def test_steady_state_is_fixed_point(self, setup):
        grid, ref = setup
        u, v = ref.U, ref.V
        for _ in range(100):
            u, v = step(grid, u, v, PAR, 1e-3)
        assert np.max(np.abs(u - ref.U)) <= 1e-8
        assert np.max(np.abs(v - ref.V)) <= 1e-8

    def test_mass_conserved_each_step(self, setup):
        grid, ref = setup
        u, v = perturbed_state(grid, ref)
        mass = _mass(grid, u)
        for _ in range(50):
            u, v = step(grid, u, v, PAR, 1e-3)
            new_mass = _mass(grid, u)
            assert abs(new_mass - mass) / mass <= 1e-12
            mass = new_mass

    def test_dirichlet_on_v(self, setup):
        grid, ref = setup
        u, v = step(grid, *perturbed_state(grid, ref), PAR, 1e-3)
        assert v[-1] == np.log(PAR.b)

    @settings(max_examples=60, deadline=None)
    @given(
        log_dt=st.floats(-4.0, 3.0),
        amp_u=st.floats(-0.5, 0.5),
        amp_v=st.floats(-0.5, 0.5),
        mode=st.integers(1, 6),
        drift=st.booleans(),
    )
    def test_positive_and_conservative_for_any_dt(
        self, setup, strong, log_dt, amp_u, amp_v, mode, drift
    ):
        # no time-step restriction: both solves are M-matrix systems, also
        # where |p dv / 2| > 1 makes a central flux lose positivity
        if drift:
            par, grid, ref = strong
        else:
            par, (grid, ref) = PAR, setup
        r = grid.nodes
        dt = 10.0**log_dt
        u = ref.U * (1.0 + amp_u * np.cos(mode * np.pi * r))
        v = ref.V * (1.0 + amp_v * np.cos(np.pi * r / 2.0))
        u_new, v_new = step(grid, u, v, par, dt)
        assert np.all(u_new > 0)
        assert np.all(np.isfinite(v_new))
        assert v_new[-1] == np.log(par.b)
        if dt <= 1.0:
            mass = _mass(grid, u)
            assert abs(_mass(grid, u_new) - mass) <= 1e-10 * mass

    @staticmethod
    def spoil(monkeypatch, solve, node, value):
        # the solve-th tridiagonal solve of a step (0: u, 1: w) returns value
        # at node
        calls = []
        banded = klayer.radial_steady.solve_banded

        def spoiled(*args):
            x = banded(*args)
            if len(calls) == solve:
                x[node] = value
            calls.append(1)
            return x

        monkeypatch.setattr(klayer.radial_steady, "solve_banded", spoiled)

    def test_positivity_guard(self, setup):
        grid, ref = setup
        for value in (0.0, -1e-3):
            with pytest.MonkeyPatch.context() as mp:
                self.spoil(mp, 0, 7, value)
                with pytest.raises(PositivityError):
                    step(grid, ref.U, ref.V, PAR, 1e-3)

    @pytest.mark.parametrize("solve", [0, 1])
    def test_non_finite_rejected(self, setup, monkeypatch, solve):
        grid, ref = setup
        self.spoil(monkeypatch, solve, 7, np.nan)
        with pytest.raises(ValueError):
            step(grid, ref.U, ref.V, PAR, 1e-3)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
    def test_dt_checked(self, setup, dt):
        grid, ref = setup
        with pytest.raises(ValueError, match="dt must be a finite positive number"):
            step(grid, ref.U, ref.V, PAR, dt)


class TestEvolve:
    def test_small_perturbation_decays(self, setup):
        grid, ref = setup
        r = grid.nodes
        u0 = ref.U * (1.0 + 0.01 * np.cos(np.pi * r))
        w0 = np.exp(ref.V * (1.0 + 0.01 * np.cos(np.pi * r / 2)))
        series = evolve(ref, u0, w0, dt=1e-3, t_end=8.0, output_every=20)
        d = series.distance()
        assert d[-1] < 0.2 * d[0]
        # mass conserved over the horizon
        assert np.max(np.abs(series.mass - series.mass[0])) / series.mass[0] <= 1e-9
        # Lyapunov energy non-increasing after the initial transient
        E = series.energy
        after = series.t >= 0.05 * series.t[-1]
        Ea = E[after]
        assert np.all(np.diff(Ea) <= Ea[:-1] * 1e-10)
        mu = fit_decay_rate(np.column_stack([series.t, d]))
        assert mu > 0

    def test_renormalizes_initial_mass(self, setup):
        grid, ref = setup
        u0 = 1.3 * ref.U
        w0 = np.exp(ref.V)
        series = evolve(ref, u0, w0, dt=1e-3, t_end=5e-3, output_every=1)
        assert series.renormalized_mass_factor == pytest.approx(1 / 1.3, rel=1e-12)
        assert series.mass[0] == pytest.approx(PAR.m, rel=1e-12)

    def test_w_boundary_value_checked(self, setup):
        grid, ref = setup
        w_bad = 1.1 * np.exp(ref.V)
        with pytest.raises(ValueError):
            evolve(ref, ref.U, w_bad, dt=1e-3, t_end=1e-2)

    @pytest.mark.parametrize("field", ["u0", "w0"])
    @pytest.mark.parametrize("bad", ["short", np.nan, np.inf, 0.0])
    def test_initial_fields_checked(self, small, field, bad):
        # one finite positive value per node; a NaN is not <= 0, so only the
        # finiteness check catches it
        grid, ref = small
        fields = {"u0": ref.U.copy(), "w0": ref.W}
        if bad == "short":
            fields[field] = fields[field][:-1]
        else:
            fields[field][3] = bad
        with pytest.raises(ValueError, match=f"^{field}"):
            evolve(ref, fields["u0"], fields["w0"], dt=1e-3, t_end=1e-2)

    def test_params_dimension_checked(self, small):
        # n = 3 cells under params.n = 2 would step with the wrong volumes
        # and renormalise the mass by 0.649; the pair that carries both
        # refuses them, so evolve cannot be handed the mismatch
        grid, ref = small
        grid3 = RadialGrid(nodes=grid.nodes, n=3)
        with pytest.raises(ValueError, match="grid dimension 3 != params dimension 2"):
            DiscreteSteady(grid3, PAR, ref.U, ref.V)

    @pytest.mark.parametrize("field", ["U", "V"])
    @pytest.mark.parametrize("bad", ["short", np.nan])
    def test_pair_fields_checked(self, small, field, bad):
        grid, ref = small
        fields = {"U": ref.U.copy(), "V": ref.V.copy()}
        if bad == "short":
            fields[field] = fields[field][1:]
        else:
            fields[field][3] = bad
        with pytest.raises(ValueError, match=f"^{field}"):
            DiscreteSteady(grid, PAR, fields["U"], fields["V"])

    @pytest.mark.parametrize(
        "dt, t_end, output_every, named",
        [
            (0.0, 1e-2, 1, "dt"),
            (np.nan, 1e-2, 1, "dt"),
            (np.inf, 1e-2, 1, "dt"),
            (1e-3, -1.0, 1, "t_end"),
            (1e-3, np.nan, 1, "t_end"),
            (1e-3, np.inf, 1, "t_end"),
            (1e-3, 1e-2, 0, "output_every"),
        ],
    )
    def test_controls_checked(self, small, dt, t_end, output_every, named):
        # a NaN fails every comparison, so it is rejected, not stepped with
        grid, ref = small
        with pytest.raises(ValueError, match=f"^{named} must"):
            evolve(ref, ref.U, ref.W, dt, t_end, output_every)

    def test_w_only_perturbation_returns_to_steady(self, setup):
        # mass unchanged, so the attractor is the same pair
        grid, ref = setup
        r = grid.nodes
        w0 = np.exp(ref.V * (1 + 0.02 * np.cos(np.pi * r / 2)))
        series = evolve(ref, ref.U, w0, dt=1e-2, t_end=8.0, output_every=50)
        assert series.distance()[-1] < 0.05 * series.distance()[0]


class TestLyapunov:
    def test_zero_at_steady(self, setup):
        grid, ref = setup
        energy = lyapunov_energy(ref.U, ref.V, ref)
        assert energy == pytest.approx(0.0, abs=1e-14)

    def test_positive_off_steady(self, setup):
        grid, ref = setup
        assert lyapunov_energy(*perturbed_state(grid, ref), ref) > 0

    def test_mass_matched_antiderivative_endpoint(self, setup):
        grid, ref = setup
        u, _ = perturbed_state(grid, ref)
        u_fixed = u * (PAR.m / _mass(grid, u))
        # endpoint vanishes up to the difference between the FV mass used for
        # normalisation and the trapezoid rule used for the anti-derivative
        assert abs(mass_anti_derivative_endpoint(u_fixed, ref)) <= 1e-6


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        mu = fit_decay_rate(np.column_stack([t, 3.0 * np.exp(-2.0 * t)]))
        assert mu == pytest.approx(2.0, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 50)
        mu = fit_decay_rate(np.column_stack([t, np.ones_like(t)]))
        assert mu == pytest.approx(0.0, abs=1e-10)

    def test_floored_series_uses_prefloor_window(self):
        t = np.linspace(0.0, 30.0, 400)
        d = np.exp(-2.0 * t) + 1e-16
        mu = fit_decay_rate(np.column_stack([t, d]))
        assert mu == pytest.approx(2.0, rel=1e-2)

    def test_needs_ten_samples(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            fit_decay_rate(np.column_stack([t, np.exp(-t)]))

    def test_takes_pairs_only(self):
        # rows of (t, distance); the transposed (2, N) layout is rejected
        t = np.linspace(0.0, 5.0, 50)
        with pytest.raises(ValueError, match="pairs"):
            fit_decay_rate(np.vstack([t, np.exp(-t)]))


class TestRelaxation:
    def test_reference_mass_matches(self, setup):
        grid, ref = setup
        assert _mass(grid, ref.U) == pytest.approx(PAR.m, rel=1e-12)

    def test_reference_close_to_elliptic_pair(self):
        # the elliptic pair on the same grid, by Illinois over local solves:
        # both solve sigma K W = V W^(1+p) on the same finite volumes and
        # differ only in the quadrature of int W^p in sigma, trapezoid on the
        # ball and cell volumes in the pair.  For n = 1 the two coincide, and
        # the gap is the constraint tolerance (measured 1.8e-11 in U, 1.6e-12
        # in W); for n >= 2 the trapezoid error is second order, and the gap
        # falls 4.00x per refinement (at 200 nodes 1.2e-5 in U, 5.3e-6 in W)
        for n in (1, 2, 3):
            par = Params(epsilon=0.05, p=2, b=1, m=1, n=n)
            grid = make_graded_grid(1.0, n, 10.0 / 199, 200)
            gaps = []
            for _ in range(4 if n > 1 else 1):
                ref = relax_to_discrete_steady(grid, par)
                steady = illinois(par, FixedGridBall(grid), tol_rel=1e-10).steady
                gaps.append((np.max(np.abs(ref.U - steady.U.values)),
                             np.max(np.abs(ref.W - steady.W.values))))
                grid = refine_grid(grid)
            gaps = np.array(gaps)
            if n == 1:
                assert gaps[0, 0] <= 1e-10 and gaps[0, 1] <= 1e-11
            else:
                assert np.all(gaps[0] <= (1.5e-5, 6.5e-6))
                assert np.all(gaps[:-1] / gaps[1:] >= 3.9)

    def test_shares_the_ball_operator(self, monkeypatch):
        # one Newton, whose bands come from the grid's cells: the pair's and
        # the ball's nonlocal solves differ only in their quadrature weights,
        # omega_n V for the pair and radial_weights for the ball
        calls = []
        newton = klayer.radial_steady._newton
        for module in (klayer.evolve_radial, klayer.mass_constraint):
            monkeypatch.setattr(
                module, "_newton", lambda *args, **kw: calls.append(args) or newton(*args, **kw)
            )
        grid = make_graded_grid(1.0, 2, 10.0 / 63, 64)
        relax_to_discrete_steady(grid, PAR)
        solve_nonlocal(PAR, 1.0, 64)
        pair, *ball = calls
        assert pair[3] is grid and ball
        assert np.array_equal(pair[4], 2 * np.pi * grid.volumes)
        assert not np.array_equal(pair[4], radial_weights(grid))
        for args in ball:
            assert np.array_equal(args[4], radial_weights(args[3]))

    def test_fixed_point_to_rounding(self, small):
        grid, ref = small
        assert step_move(grid, PAR, ref) <= 4 * ULP

    def test_density_proportional_to_w_power_p(self, small):
        # zero Scharfetter-Gummel flux on every face means U = C W^p exactly
        grid, ref = small
        assert density_spread(PAR, ref) <= 4 * ULP
        assert _mass(grid, ref.U) == pytest.approx(PAR.m, rel=4 * ULP)

    def test_positive_pair_under_strong_drift(self, strong):
        # |p dV / 2| > 1 on a face: a central chemotactic flux has no positive
        # stationary density here, the exponentially fitted one has
        par, grid, ref = strong
        assert np.max(np.abs(0.5 * par.p * np.diff(ref.V))) >= 1.0
        assert np.all(ref.U > 0)
        assert np.all(ref.W > 0)
        assert _mass(grid, ref.U) == pytest.approx(par.m, rel=4 * ULP)

    @pytest.mark.parametrize(
        "count, n, p, eps, width",
        [
            (64, 1, 40, 0.5, 10 / 63),
            (64, 3, 8, 0.5, 10 / 63),
            (128, 2, 2, 0.05, 10 / 127),
            (128, 3, 40, 0.05, 10 / 127),
            (200, 2, 8, 0.005, 10 / 199),
            (200, 3, 2, 0.002, 10 / 199),
            (320, 1, 8, 0.005, 10 / 319),
        ],
    )
    def test_cold_start(self, monkeypatch, count, n, p, eps, width):
        # from the lower barrier at sigma0 = eps^2 lambda_leading: 4-6 Newton
        # steps on the 360 CLI grids measured.  The one-step check needs a
        # well-conditioned step: on resolved layers at small eps, rounding in
        # step alone moves u by up to 5e2 ulps at p = 2 and 4e4 at p = 40
        par = Params(epsilon=eps, p=p, b=1, m=1, n=n)
        grid = make_graded_grid(1.0, n, width, count)
        ref, steps = count_newton_steps(monkeypatch, grid, par)
        assert 1 <= steps <= 6
        assert density_spread(par, ref) <= 4 * ULP
        assert _mass(grid, ref.U) == pytest.approx(par.m, rel=4 * ULP)
        assert step_move(grid, par, ref) <= 4 * ULP

    def test_cold_start_where_plain_update_cycles(self, monkeypatch):
        # from the constant W = b, Newton steps added to W fall into a
        # two-cycle on the CLI grids with n = 1, p = 40, eps <= 0.005: on the
        # 64-node grid W(0) alternates between 0.55 and 0.91 (the pair has
        # 0.70).  From the lower barrier they converge, the 512-node grid
        # being cli._evolve_grid's at eps 0.002.  One step moves these pairs
        # by 1e4 ulps and more (rounding in step, see test_cold_start), so
        # that is not checked here
        for count, eps, w0 in ((64, 0.005, 0.70098), (512, 0.002, 0.67062)):
            par = Params(epsilon=eps, p=40, b=1, m=1, n=1)
            grid = make_graded_grid(1.0, 1, 1e-3, count)
            ref, steps = count_newton_steps(monkeypatch, grid, par)
            assert 1 <= steps <= 6
            assert ref.W[0] == pytest.approx(w0, abs=1e-5)
            assert density_spread(par, ref) <= 4 * ULP
            assert _mass(grid, ref.U) == pytest.approx(par.m, rel=4 * ULP)
