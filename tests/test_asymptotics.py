from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klayer import asymptotics
from klayer.asymptotics import (
    QUANTITIES,
    ExpansionReport,
    boundary_mass_fraction,
    measure_thickness,
    slope_U_leading,
    slope_W_leading,
    thickness_leading,
    verify_expansion,
    verify_p_limit,
)
from klayer.core import Field, Params, SteadyState, make_graded_grid, unit_sphere_area
from klayer.errors import NoCrossingError
from klayer.mass_constraint import solve_nonlocal
from klayer.radial_steady import barrier_lower, lambda_leading, layer_profile_constant


def envelope_constants(
    W: Field, eps: float, params: Params, band: float = 5.0
) -> tuple[float, float]:
    """Tightest constants r1 <= r2 with r1 * s(d) <= W <= r2 * s(d) over the
    layer band d <= band * eps, where s(d) = (1 + d/eps)^(-2/p).

    The ratio r2/r1 staying bounded along an eps-sweep is the two-sided
    similarity statement for the layer profile.
    """
    grid = W.grid
    d = grid.R - grid.nodes
    mask = d <= band * eps
    if np.count_nonzero(mask) < 4:
        raise ValueError("layer band contains fewer than 4 nodes; refine the grid")
    shape = (1.0 + d[mask] / eps) ** (-2.0 / params.p)
    ratio = W.values[mask] / shape
    return float(ratio.min()), float(ratio.max())


def interior_sup(W: Field, delta: float) -> float:
    """Max of W over the interior region dist(r, boundary) > delta."""
    grid = W.grid
    mask = (grid.R - grid.nodes) > delta
    if not np.any(mask):
        raise ValueError(f"no nodes deeper than delta={delta}")
    return float(np.max(W.values[mask]))


DISK = Params(epsilon=1e-3, p=2, b=1, m=1, n=2)


class TestLayerConstant:
    def test_values(self):
        assert layer_profile_constant(2) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert layer_profile_constant(4) == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)

    def test_vanishes_monotonically(self):
        ps = [2.0, 8.0, 32.0, 128.0, 512.0]
        vals = [layer_profile_constant(p) for p in ps]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1


class TestLeadingCoefficients:
    def test_slope_W_disk(self):
        assert slope_W_leading(DISK, 1.0) == pytest.approx(1 / (4 * np.pi), rel=1e-12)

    def test_slope_W_interval(self):
        par = Params(epsilon=1e-3, p=2, b=1, m=1, n=1)
        assert slope_W_leading(par, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_slope_W_linear_in_m(self):
        par2 = Params(epsilon=1e-3, p=2, b=1, m=2, n=2)
        assert slope_W_leading(par2, 1.0) == pytest.approx(
            2 * slope_W_leading(DISK, 1.0), rel=1e-12
        )

    def test_slope_U_disk(self):
        assert slope_U_leading(DISK, 1.0) == pytest.approx(
            16.0 / (32.0 * (2 * np.pi) ** 3), rel=1e-12
        )

    def test_slope_U_cubic_in_m(self):
        par2 = Params(epsilon=1e-3, p=2, b=1, m=2, n=2)
        assert slope_U_leading(par2, 1.0) == pytest.approx(
            8 * slope_U_leading(DISK, 1.0), rel=1e-12
        )

    def test_slope_U_independent_of_b(self):
        par_b = Params(epsilon=1e-3, p=2, b=7.5, m=1, n=2)
        assert slope_U_leading(par_b, 1.0) == pytest.approx(
            slope_U_leading(DISK, 1.0), rel=1e-12
        )

    def test_lambda_disk(self):
        assert lambda_leading(DISK, 1.0) == pytest.approx(8 * np.pi**2, rel=1e-12)

    def test_lambda_interval(self):
        par = Params(epsilon=1e-3, p=2, b=1, m=1, n=1)
        assert lambda_leading(par, 1.0) == pytest.approx(8.0, rel=1e-12)

    def test_lambda_inverse_square_in_m(self):
        par2 = Params(epsilon=1e-3, p=2, b=1, m=2, n=2)
        assert lambda_leading(par2, 1.0) == pytest.approx(
            lambda_leading(DISK, 1.0) / 4.0, rel=1e-12
        )

    def test_thickness_disk(self):
        assert thickness_leading(0.5, DISK, 1.0) == pytest.approx(
            4 * np.pi, rel=1e-12
        )

    def test_thickness_vanishes_at_boundary_level(self):
        assert thickness_leading(1.0 - 1e-9, DISK, 1.0) == pytest.approx(
            0.0, abs=1e-7
        )

    def test_thickness_level_validation(self):
        with pytest.raises(ValueError):
            thickness_leading(1.5, DISK, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        p=st.floats(0.2, 20.0),
        b=st.floats(0.1, 5.0),
        m=st.floats(0.1, 5.0),
        R=st.floats(0.2, 5.0),
        cfrac=st.floats(0.05, 0.95),
    )
    def test_thickness_algebraic_identity(self, n, p, b, m, R, cfrac):
        # volume-times-curvature form == layer-constant form
        par = Params(epsilon=1e-3, p=p, b=b, m=m, n=n)
        c = cfrac * b
        om = unit_sphere_area(n)
        alt = ((b / c) ** (p / 2) - 1.0) * om * layer_profile_constant(p) ** 2 * R ** (n - 1) / m
        assert thickness_leading(c, par, R) == pytest.approx(alt, rel=1e-12)


class TestMeasureThickness:
    def test_barrier_inversion(self):
        par = Params(epsilon=1.0, p=2, b=1, m=1, n=1)
        grid = make_graded_grid(10.0, 1, 0.05, 4000)
        W = Field(grid, np.asarray(barrier_lower(grid.nodes, 1.0, par, 10.0)))
        # (1 + z/sqrt(2))^(-1) = 1/2  at  z = sqrt(2)
        assert measure_thickness(W, 0.5) == pytest.approx(np.sqrt(2.0), rel=1e-6)

    def test_boundary_level_gives_zero(self):
        par = Params(epsilon=1.0, p=2, b=1, m=1, n=1)
        grid = make_graded_grid(10.0, 1, 0.05, 200)
        W = Field(grid, np.asarray(barrier_lower(grid.nodes, 1.0, par, 10.0)))
        assert measure_thickness(W, 1.0) == 0.0

    def test_level_below_range(self):
        par = Params(epsilon=1.0, p=2, b=1, m=1, n=1)
        grid = make_graded_grid(10.0, 1, 0.05, 200)
        W = Field(grid, np.asarray(barrier_lower(grid.nodes, 1.0, par, 10.0)))
        with pytest.raises(NoCrossingError):
            measure_thickness(W, 1e-6)


class TestExpansionReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpansionReport(
                quantity="nope",
                epsilons=np.ones(3),
                computed=np.ones(3),
                leading_coefficient=1.0,
                extrapolated_coefficient=1.0,
            )
        with pytest.raises(ValueError):
            ExpansionReport(
                quantity="slope_W",
                epsilons=np.ones(2),
                computed=np.ones(2),
                leading_coefficient=1.0,
                extrapolated_coefficient=1.0,
            )

    def test_requires_decreasing_eps(self):
        with pytest.raises(ValueError):
            verify_expansion(DISK, 1.0, [1e-3, 2e-3, 4e-3])

    def test_relative_gap_is_derived(self):
        report = ExpansionReport("slope_U", np.ones(3), np.ones(3), -2.0, -1.5)
        assert report.relative_gap == 0.25
        with pytest.raises(TypeError):
            ExpansionReport("slope_U", np.ones(3), np.ones(3), -2.0, -1.5, 0.25)


@pytest.fixture(scope="module")
def sweep():
    out = []
    for eps in (4e-3, 2e-3):
        par = Params(epsilon=eps, p=2, b=1, m=1, n=2)
        out.append((par, solve_nonlocal(par, 1.0, 2000)))
    return out


@pytest.fixture(scope="module")
def coarse():
    return verify_expansion(DISK, 1.0, [2e-2, 1.4e-2, 1e-2], count=1500)


class TestVerifyExpansionCoarse:
    # a loose, fast sweep; the tight tolerances run in the acceptance suite
    def test_slope_W_gap_small(self, coarse):
        report = coarse["slope_W"]
        assert report.relative_gap < 0.2
        assert report.computed.shape == (3,)

    def test_lambda_gap_small(self, coarse):
        report = coarse["lambda_eps"]
        assert report.relative_gap < 0.2

    def test_one_solve_per_eps(self, monkeypatch):
        calls = []

        def counting(params, *args, **kwargs):
            calls.append(params.epsilon)
            return solve_nonlocal(params, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "solve_nonlocal", counting)
        reports = verify_expansion(DISK, 1.0, [2e-2, 1.4e-2, 1e-2], count=1500)
        assert calls == [2e-2, 1.4e-2, 1e-2]
        assert tuple(reports) == QUANTITIES
        assert all(reports[q].quantity == q for q in QUANTITIES)


    def test_radius_from_one_input(self):
        # the ball is built from R and count alone: at R = 2 the lambda_eps
        # row is the solve on the ball of R = 2
        eps = [2e-2, 1.4e-2, 1e-2]
        reports = verify_expansion(DISK, 2.0, eps, count=1500)
        for e, lam in zip(eps, reports["lambda_eps"].computed):
            par = Params(epsilon=e, p=2, b=1, m=1, n=2)
            assert lam == solve_nonlocal(par, 2.0, 1500).lambda_eps


def _steady_with_U(U):
    """A steady record whose U is the Field U bit for bit: at p = 1 with
    integral(W^p) = m, U = (m / m) * W^1 = W."""
    return SteadyState(params=replace(DISK, p=1), W=U, integral=DISK.m, bisection_iters=0)


class TestPLimit:
    def test_single_entry(self):
        rows = verify_p_limit(DISK, 1.0, [5.0], 0.1, count=1200)
        assert len(rows) == 1
        p, sup, frac = rows[0]
        assert 0 < sup < 1 and 0 < frac < 1

    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            verify_p_limit(DISK, 1.0, [10.0, 5.0], 0.1)

    def test_mass_fraction_constant_density(self):
        # U == const on the disk: fraction within depth d is 1 - (1-d)^2
        grid = make_graded_grid(1.0, 2, 10.0 / 1999, 2000)
        U = Field(grid, np.ones(grid.count))
        st = _steady_with_U(U)
        got = boundary_mass_fraction(st, 0.1)
        assert got == pytest.approx(1.0 - 0.81, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mass_fraction_ends(self, n):
        # no depth holds no mass, a depth of R or more holds all of it
        grid = make_graded_grid(1.0, n, 0.05, 200)
        U = Field(grid, np.exp(-grid.nodes))
        st = _steady_with_U(U)
        assert boundary_mass_fraction(st, 0.0) == 0.0
        for depth in (1.0, 1.5, 1e9):
            assert boundary_mass_fraction(st, depth) == 1.0

    @pytest.mark.parametrize("depth", [-0.1, np.nan, np.inf])
    def test_mass_fraction_rejects_bad_depth(self, depth):
        # a negative depth used to give 0.0 and a nan depth nan
        grid = make_graded_grid(1.0, 2, 0.05, 200)
        U = Field(grid, np.ones(grid.count))
        st = _steady_with_U(U)
        with pytest.raises(ValueError, match="depth must be finite and >= 0"):
            boundary_mass_fraction(st, depth)

    @pytest.mark.parametrize("depth_fraction", [-0.1, np.nan, np.inf])
    def test_rejects_bad_depth_fraction_before_solving(self, monkeypatch, depth_fraction):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking depth_fraction")

        monkeypatch.setattr(asymptotics, "solve_nonlocal", no_solve)
        with pytest.raises(ValueError, match="depth_fraction must be finite and >= 0"):
            verify_p_limit(DISK, 1.0, [5.0], 0.1, depth_fraction=depth_fraction)


@pytest.mark.parametrize("count", [1, 15, 2.5])
def test_ball_count_checked(count):
    # count 1 used to raise ZeroDivisionError through both sweeps
    with pytest.raises(ValueError, match="count must be an integer >= 16"):
        verify_expansion(DISK, 1.0, [2e-2, 1.4e-2, 1e-2], count=count)
    with pytest.raises(ValueError, match="count must be an integer >= 16"):
        verify_p_limit(DISK, 1.0, [2.0, 4.0], 0.1, count=count)


class TestLayerEnvelope:
    def test_two_sided_constants_bounded(self, sweep):
        ratios = []
        for par, st_ in sweep:
            r1, r2 = envelope_constants(st_.W, par.epsilon, par)
            assert 0 < r1 <= r2
            ratios.append(r2 / r1)
        assert max(ratios) < 5.0
        assert max(ratios) / min(ratios) < 1.2

    def test_interior_smallness_scaling(self, sweep):
        c1 = [
            interior_sup(st_.W, 0.2) / par.epsilon ** (2.0 / par.p)
            for par, st_ in sweep
        ]
        assert all(val < 100.0 for val in c1)
        assert max(c1) / min(c1) < 1.5
