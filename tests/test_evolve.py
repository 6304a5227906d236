import numpy as np
import pytest

from klayer.core import Params, RadialProfile, make_graded_grid
from klayer.errors import PositivityError, TimeStepError
from klayer.evolve_radial import (
    DiscreteSteady,
    EvolutionState,
    SchemeConfig,
    cfl_time_step,
    evolve,
    fit_decay_rate,
    lyapunov_energy,
    mass_anti_derivative_endpoint,
    relax_to_discrete_steady,
    step,
    _cells,
)
from klayer.mass_constraint import RadialBallDomain, solve_nonlocal

PAR = Params(epsilon=0.05, p=2, b=1, m=1, n=2)


@pytest.fixture(scope="module")
def setup():
    grid = make_graded_grid(1.0, 2, 10.0 / 199, 200)
    dom = RadialBallDomain(R=1.0, n=2, fixed_grid=grid)
    steady = solve_nonlocal(PAR, dom, tol_rel=1e-10).steady
    reference = relax_to_discrete_steady(steady, grid, PAR)
    return grid, steady, reference


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
        grid, steady, ref = setup
        state = EvolutionState(t=0.0, u=ref.U, v=ref.V)
        dt = 0.5 * cfl_time_step(state, PAR)
        cfg = SchemeConfig(dt=dt, t_end=1.0)
        for _ in range(100):
            state = step(state, PAR, cfg)
        assert np.max(np.abs(state.u.values - ref.U.values)) <= 1e-8
        assert np.max(np.abs(state.v.values - ref.V.values)) <= 1e-8

    def test_mass_conserved_each_step(self, setup):
        grid, steady, ref = setup
        cells = _cells(grid)
        state = perturbed_state(grid, ref)
        dt = 0.5 * cfl_time_step(state, PAR)
        cfg = SchemeConfig(dt=dt, t_end=1.0)
        mass = cells.mass(state.u.values)
        for _ in range(50):
            state = step(state, PAR, cfg)
            new_mass = cells.mass(state.u.values)
            assert abs(new_mass - mass) / mass <= 1e-12
            mass = new_mass

    def test_dirichlet_on_v(self, setup):
        grid, steady, ref = setup
        state = perturbed_state(grid, ref)
        cfg = SchemeConfig(dt=0.5 * cfl_time_step(state, PAR), t_end=1.0)
        out = step(state, PAR, cfg)
        assert out.v.values[-1] == np.log(PAR.b)

    def test_cfl_violation_raises(self, setup):
        grid, steady, ref = setup
        state = perturbed_state(grid, ref)
        cfg = SchemeConfig(dt=1e3, t_end=1e4)
        with pytest.raises(TimeStepError):
            step(state, PAR, cfg)

    def test_positivity_guard(self, setup):
        grid, steady, ref = setup
        with pytest.raises(PositivityError):
            EvolutionState(
                t=0.0,
                u=RadialProfile(grid, np.zeros(grid.count)),
                v=ref.V,
            )


class TestEvolve:
    def test_small_perturbation_decays(self, setup):
        grid, steady, ref = setup
        r = grid.nodes
        u0 = RadialProfile(grid, ref.U.values * (1.0 + 0.01 * np.cos(np.pi * r)))
        w0 = RadialProfile(grid, np.exp(ref.V.values * (1.0 + 0.01 * np.cos(np.pi * r / 2))))
        state = EvolutionState(t=0.0, u=u0, v=RadialProfile(grid, np.log(w0.values)))
        dt = 0.5 * cfl_time_step(state, PAR)
        cfg = SchemeConfig(dt=dt, t_end=8.0, output_every=20)
        series = evolve(u0, w0, PAR, steady, cfg, reference=ref)
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
        grid, steady, ref = setup
        u0 = RadialProfile(grid, 1.3 * ref.U.values)
        w0 = RadialProfile(grid, np.exp(ref.V.values))
        cfg = SchemeConfig(dt=1e-3, t_end=5e-3, output_every=1)
        series = evolve(u0, w0, PAR, steady, cfg, reference=ref)
        assert series.renormalized_mass_factor == pytest.approx(1 / 1.3, rel=1e-12)
        assert series.mass[0] == pytest.approx(PAR.m, rel=1e-12)

    def test_w_boundary_value_checked(self, setup):
        grid, steady, ref = setup
        w_bad = RadialProfile(grid, 1.1 * np.exp(ref.V.values))
        cfg = SchemeConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError):
            evolve(ref.U, w_bad, PAR, steady, cfg, reference=ref)

    def test_reference_grid_checked(self, setup):
        grid, steady, ref = setup
        other = make_graded_grid(1.0, 2, 10.0 / 99, 100)
        wrong = DiscreteSteady(
            U=RadialProfile(other, np.ones(other.count)),
            V=RadialProfile(other, np.zeros(other.count)),
        )
        cfg = SchemeConfig(dt=1e-3, t_end=1e-2)
        with pytest.raises(ValueError, match="incompatible grid"):
            evolve(ref.U, ref.W, PAR, steady, cfg, reference=wrong)

    def test_w_only_perturbation_returns_to_steady(self, setup):
        # mass unchanged, so the attractor is the same pair
        grid, steady, ref = setup
        r = grid.nodes
        w0 = RadialProfile(grid, np.exp(ref.V.values * (1 + 0.02 * np.cos(np.pi * r / 2))))
        cfg = SchemeConfig(dt=2e-4, t_end=8.0, output_every=50)
        series = evolve(ref.U, w0, PAR, steady, cfg, reference=ref)
        assert series.distance()[-1] < 0.05 * series.distance()[0]


class TestLyapunov:
    def test_zero_at_steady(self, setup):
        grid, steady, ref = setup
        state = EvolutionState(t=0.0, u=ref.U, v=ref.V)
        assert lyapunov_energy(state, ref, PAR) == pytest.approx(0.0, abs=1e-14)

    def test_positive_off_steady(self, setup):
        grid, steady, ref = setup
        state = perturbed_state(grid, ref)
        assert lyapunov_energy(state, ref, PAR) > 0

    def test_mass_matched_antiderivative_endpoint(self, setup):
        grid, steady, ref = setup
        cells = _cells(grid)
        state = perturbed_state(grid, ref)
        u_fixed = state.u.values * (PAR.m / cells.mass(state.u.values))
        state = EvolutionState(t=0.0, u=RadialProfile(grid, u_fixed), v=state.v)
        # endpoint vanishes up to the difference between the FV mass used for
        # normalisation and the trapezoid rule used for the anti-derivative
        assert abs(mass_anti_derivative_endpoint(state, ref)) <= 1e-6

    def test_works_against_elliptic_steady(self, setup):
        grid, steady, ref = setup
        state = EvolutionState(t=0.0, u=steady.U, v=RadialProfile(grid, np.log(steady.W.values)))
        assert lyapunov_energy(state, steady, PAR) == pytest.approx(0.0, abs=1e-14)


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


class TestRelaxation:
    def test_reference_mass_matches(self, setup):
        grid, steady, ref = setup
        cells = _cells(grid)
        assert cells.mass(ref.U.values) == pytest.approx(PAR.m, rel=1e-12)

    def test_reference_close_to_elliptic_pair(self, setup):
        grid, steady, ref = setup
        assert np.max(np.abs(ref.U.values - steady.U.values)) < 1e-3
        assert np.max(np.abs(np.exp(ref.V.values) - steady.W.values)) < 1e-3

    def test_stops_at_rounding_floor(self):
        # tol = 0 can only be met on an exact fixed point, which rounding may
        # never reach: the stop falls back to 16 ulps of change per step
        grid = make_graded_grid(1.0, 2, 10.0 / 63, 64)
        dom = RadialBallDomain(R=1.0, n=2, fixed_grid=grid)
        steady = solve_nonlocal(PAR, dom, tol_rel=1e-10).steady
        state = EvolutionState(
            t=0.0, u=steady.U, v=RadialProfile(grid, np.log(steady.W.values))
        )
        dt = 0.5 * cfl_time_step(state, PAR)
        ref = relax_to_discrete_steady(
            steady, grid, PAR, dt=dt, tol=0.0, max_steps=100_000
        )
        new = step(
            EvolutionState(t=0.0, u=ref.U, v=ref.V), PAR, SchemeConfig(dt=dt, t_end=1.0)
        )
        floor = 16 * np.finfo(float).eps
        du = np.max(np.abs(new.u.values - ref.U.values)) / np.max(ref.U.values)
        scale_v = np.max(np.abs(ref.V.values)) + 1.0
        dv = np.max(np.abs(new.v.values - ref.V.values)) / scale_v
        # the rounding limit cycle peaks at ~16.5 ulps on this grid, and the
        # returned U carries the final mass renormalisation
        assert du <= 2 * floor
        assert dv <= 2 * floor
