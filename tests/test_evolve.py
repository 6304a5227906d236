import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klayer.radial_steady
from klayer.core import (
    Params,
    RadialProfile,
    ball_volume,
    integrate_radial,
    make_graded_grid,
)
from klayer.errors import PositivityError
from klayer.evolve_radial import (
    DiscreteSteady,
    EvolutionState,
    SchemeConfig,
    evolve,
    fit_decay_rate,
    lyapunov_energy,
    mass_anti_derivative_endpoint,
    relax_to_discrete_steady,
    step,
    _Cells,
)
from klayer.mass_constraint import solve_nonlocal
from klayer.radial_steady import solve_local_radial

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
    """Ball domain whose local solves all use one grid (for solve_nonlocal)."""

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
    ratio = ref.U.values / ref.W.values**par.p
    return np.max(ratio) / np.min(ratio) - 1.0


def step_move(grid, par, ref):
    """Largest relative change of (u, v) over one step from the pair."""
    new = step(EvolutionState(t=0.0, u=ref.U, v=ref.V), par, SchemeConfig(dt=1e-3, t_end=1.0))
    du = np.max(np.abs(new.u.values - ref.U.values)) / np.max(ref.U.values)
    dv = np.max(np.abs(new.v.values - ref.V.values)) / (np.max(np.abs(ref.V.values)) + 1.0)
    return max(du, dv)


def perturbed_state(grid, reference, amp=0.01):
    r = grid.nodes
    u0 = reference.U.values * (1.0 + amp * np.cos(np.pi * r))
    v0 = reference.V.values * (1.0 + amp * np.cos(np.pi * r / 2.0))
    return EvolutionState(
        t=0.0,
        u=RadialProfile(grid, u0),
        v=RadialProfile(grid, v0),
    )


class TestStep:
    def test_steady_state_is_fixed_point(self, setup):
        grid, ref = setup
        state = EvolutionState(t=0.0, u=ref.U, v=ref.V)
        cfg = SchemeConfig(dt=1e-3, t_end=1.0)
        for _ in range(100):
            state = step(state, PAR, cfg)
        assert np.max(np.abs(state.u.values - ref.U.values)) <= 1e-8
        assert np.max(np.abs(state.v.values - ref.V.values)) <= 1e-8

    def test_mass_conserved_each_step(self, setup):
        grid, ref = setup
        cells = _Cells(grid)
        state = perturbed_state(grid, ref)
        cfg = SchemeConfig(dt=1e-3, t_end=1.0)
        mass = cells.mass(state.u.values)
        for _ in range(50):
            state = step(state, PAR, cfg)
            new_mass = cells.mass(state.u.values)
            assert abs(new_mass - mass) / mass <= 1e-12
            mass = new_mass

    def test_dirichlet_on_v(self, setup):
        grid, ref = setup
        state = perturbed_state(grid, ref)
        cfg = SchemeConfig(dt=1e-3, t_end=1.0)
        out = step(state, PAR, cfg)
        assert out.v.values[-1] == np.log(PAR.b)

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
        state = EvolutionState(
            t=0.0,
            u=RadialProfile(grid, ref.U.values * (1.0 + amp_u * np.cos(mode * np.pi * r))),
            v=RadialProfile(grid, ref.V.values * (1.0 + amp_v * np.cos(np.pi * r / 2.0))),
        )
        out = step(state, par, SchemeConfig(dt=dt, t_end=1e4))
        assert np.all(out.u.values > 0)
        assert np.all(np.isfinite(out.v.values))
        assert out.v.values[-1] == np.log(par.b)
        if dt <= 1.0:
            cells = _Cells(grid)
            mass = cells.mass(state.u.values)
            assert abs(cells.mass(out.u.values) - mass) <= 1e-10 * mass

    def test_positivity_guard(self, setup):
        grid, ref = setup
        with pytest.raises(PositivityError):
            EvolutionState(
                t=0.0,
                u=RadialProfile(grid, np.zeros(grid.count)),
                v=ref.V,
            )


class TestEvolve:
    def test_small_perturbation_decays(self, setup):
        grid, ref = setup
        r = grid.nodes
        u0 = RadialProfile(grid, ref.U.values * (1.0 + 0.01 * np.cos(np.pi * r)))
        w0 = RadialProfile(grid, np.exp(ref.V.values * (1.0 + 0.01 * np.cos(np.pi * r / 2))))
        cfg = SchemeConfig(dt=1e-3, t_end=8.0, output_every=20)
        series = evolve(u0, w0, PAR, ref, cfg)
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
        u0 = RadialProfile(grid, 1.3 * ref.U.values)
        w0 = RadialProfile(grid, np.exp(ref.V.values))
        cfg = SchemeConfig(dt=1e-3, t_end=5e-3, output_every=1)
        series = evolve(u0, w0, PAR, ref, cfg)
        assert series.renormalized_mass_factor == pytest.approx(1 / 1.3, rel=1e-12)
        assert series.mass[0] == pytest.approx(PAR.m, rel=1e-12)

    def test_w_boundary_value_checked(self, setup):
        grid, ref = setup
        w_bad = RadialProfile(grid, 1.1 * np.exp(ref.V.values))
        cfg = SchemeConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError):
            evolve(ref.U, w_bad, PAR, ref, cfg)

    def test_reference_grid_checked(self, setup):
        grid, ref = setup
        other = make_graded_grid(1.0, 2, 10.0 / 99, 100)
        wrong = DiscreteSteady(
            U=RadialProfile(other, np.ones(other.count)),
            V=RadialProfile(other, np.zeros(other.count)),
        )
        cfg = SchemeConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError, match="incompatible grid"):
            evolve(ref.U, ref.W, PAR, wrong, cfg)
        # same node count, different layer width: the nodes themselves differ
        moved = make_graded_grid(1.0, 2, 5.0 / 199, 200)
        shifted = DiscreteSteady(
            U=RadialProfile(moved, ref.U.values), V=RadialProfile(moved, ref.V.values)
        )
        with pytest.raises(ValueError, match="incompatible grid"):
            evolve(ref.U, ref.W, PAR, shifted, cfg)

    def test_w_only_perturbation_returns_to_steady(self, setup):
        # mass unchanged, so the attractor is the same pair
        grid, ref = setup
        r = grid.nodes
        w0 = RadialProfile(grid, np.exp(ref.V.values * (1 + 0.02 * np.cos(np.pi * r / 2))))
        cfg = SchemeConfig(dt=1e-2, t_end=8.0, output_every=50)
        series = evolve(ref.U, w0, PAR, ref, cfg)
        assert series.distance()[-1] < 0.05 * series.distance()[0]


class TestLyapunov:
    def test_zero_at_steady(self, setup):
        grid, ref = setup
        state = EvolutionState(t=0.0, u=ref.U, v=ref.V)
        assert lyapunov_energy(state, ref, PAR) == pytest.approx(0.0, abs=1e-14)

    def test_positive_off_steady(self, setup):
        grid, ref = setup
        state = perturbed_state(grid, ref)
        assert lyapunov_energy(state, ref, PAR) > 0

    def test_mass_matched_antiderivative_endpoint(self, setup):
        grid, ref = setup
        cells = _Cells(grid)
        state = perturbed_state(grid, ref)
        u_fixed = state.u.values * (PAR.m / cells.mass(state.u.values))
        state = EvolutionState(t=0.0, u=RadialProfile(grid, u_fixed), v=state.v)
        # endpoint vanishes up to the difference between the FV mass used for
        # normalisation and the trapezoid rule used for the anti-derivative
        assert abs(mass_anti_derivative_endpoint(state, ref)) <= 1e-6


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
        cells = _Cells(grid)
        assert cells.mass(ref.U.values) == pytest.approx(PAR.m, rel=1e-12)

    def test_reference_close_to_elliptic_pair(self, setup):
        # the finite-difference elliptic pair on the same grid, an independent
        # discretisation of the same nonlocal problem
        grid, ref = setup
        steady = solve_nonlocal(PAR, FixedGridBall(grid), tol_rel=1e-10).steady
        assert np.max(np.abs(ref.U.values - steady.U.values)) < 1e-3
        assert np.max(np.abs(np.exp(ref.V.values) - steady.W.values)) < 1e-3

    def test_fixed_point_to_rounding(self, small):
        grid, ref = small
        assert step_move(grid, PAR, ref) <= 4 * ULP

    def test_density_proportional_to_w_power_p(self, small):
        # zero Scharfetter-Gummel flux on every face means U = C W^p exactly
        grid, ref = small
        assert density_spread(PAR, ref) <= 4 * ULP
        assert _Cells(grid).mass(ref.U.values) == pytest.approx(PAR.m, rel=4 * ULP)

    def test_positive_pair_under_strong_drift(self, strong):
        # |p dV / 2| > 1 on a face: a central chemotactic flux has no positive
        # stationary density here, the exponentially fitted one has
        par, grid, ref = strong
        assert np.max(np.abs(0.5 * par.p * np.diff(ref.V.values))) >= 1.0
        assert np.all(ref.U.values > 0)
        assert np.all(ref.W.values > 0)
        assert _Cells(grid).mass(ref.U.values) == pytest.approx(par.m, rel=4 * ULP)

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
        assert _Cells(grid).mass(ref.U.values) == pytest.approx(par.m, rel=4 * ULP)
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
            assert ref.W.values[0] == pytest.approx(w0, abs=1e-5)
            assert density_spread(par, ref) <= 4 * ULP
            assert _Cells(grid).mass(ref.U.values) == pytest.approx(par.m, rel=4 * ULP)
