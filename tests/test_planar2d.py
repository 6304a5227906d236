import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu

from klayer import planar2d
from klayer.core import Params
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import RadialBallDomain, solve_nonlocal
from klayer.planar2d import (
    Disk,
    Ellipse,
    Planar2DDomain,
    Star,
    _projected_distance,
    build_domain,
    curvature_thickness_report,
    solve_local_2d,
    solve_nonlocal_2d,
)

PAR = Params(epsilon=0.05, p=2, b=1, m=1, n=2)


@pytest.fixture(scope="module")
def disk_grid():
    grid, samples = build_domain(Disk(1.0), 0.02, n_samples=32)
    return grid, samples


@pytest.fixture(scope="module")
def radial_reference():
    dom = RadialBallDomain(R=1.0, n=2, count=3000)
    return solve_nonlocal(PAR, dom, tol_rel=1e-8)


@pytest.fixture(scope="module")
def disk_nonlocal(disk_grid):
    grid, _ = disk_grid
    return solve_nonlocal_2d(PAR, grid, tol_rel=1e-6)


class TestGeometry:
    def test_disk_area(self):
        grid, _ = build_domain(Disk(1.0), 0.01, n_samples=8)
        assert abs(grid.area() - np.pi) <= 0.01

    def test_disk_signed_distance_exact(self, disk_grid):
        grid, _ = disk_grid
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        np.testing.assert_allclose(grid.phi, np.hypot(X, Y) - 1.0, atol=1e-14)

    def test_inside_phi_consistency(self, disk_grid):
        grid, _ = disk_grid
        assert np.all(grid.phi[grid.inside] < 0)
        assert np.all(grid.phi[~grid.inside] >= 0)

    def test_normals_and_curvature_disk(self, disk_grid):
        _, samples = disk_grid
        for s in samples:
            assert np.hypot(*s.inward_normal) == pytest.approx(1.0, abs=1e-10)
            assert s.curvature == pytest.approx(1.0, abs=1e-6)
            # inward means toward the origin for the disk
            assert np.dot(s.point, s.inward_normal) < 0

    def test_ellipse_curvature_extrema(self):
        a, b = np.sqrt(2.0), 1.0 / np.sqrt(2.0)
        _, samples = build_domain(Ellipse(a, b), 0.02, n_samples=64)
        ks = np.array([s.curvature for s in samples])
        assert ks.min() == pytest.approx(b / a**2, rel=1e-3)
        assert ks.max() == pytest.approx(a / b**2, rel=1e-3)

    def test_ellipse_projection_on_axis(self):
        shape = Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        got = shape.signed_distance(np.array([np.sqrt(2.0) - 0.1]), np.array([0.0]))
        assert got[0] == pytest.approx(-0.1, abs=1e-8)

    def test_degenerate_star_equals_disk(self):
        sg, _ = build_domain(Star(1.0, 0.0, 5), 0.02, n_samples=8)
        dg, _ = build_domain(Disk(1.0), 0.02, n_samples=8)
        assert np.array_equal(sg.cells, dg.cells)

    def test_star_curvature_finite_difference(self):
        # polar curve r = r0 (1 + A cos kt): r' = -r0 A k sin kt,
        # r'' = -r0 A k^2 cos kt, curvature (r^2 + 2 r'^2 - r r'')/(r^2 + r'^2)^(3/2)
        r0, A, k = 1.0, 0.15, 5
        star = Star(r0, A, k)
        t = np.linspace(0.0, 2.0 * np.pi, 2001)
        r = r0 * (1 + A * np.cos(k * t))
        rp = -r0 * A * k * np.sin(k * t)
        rpp = -r0 * A * k**2 * np.cos(k * t)
        kappa = (r**2 + 2 * rp**2 - r * rpp) / (r**2 + rp**2) ** 1.5
        np.testing.assert_allclose(star.curvature(t), kappa, rtol=1e-12, atol=0)
        x2, y2 = star.curve_d2(t)
        x2_exact = rpp * np.cos(t) - 2 * rp * np.sin(t) - r * np.cos(t)
        y2_exact = rpp * np.sin(t) + 2 * rp * np.cos(t) - r * np.sin(t)
        np.testing.assert_allclose(x2, x2_exact, rtol=0, atol=1e-12 * np.max(np.abs(x2_exact)))
        np.testing.assert_allclose(y2, y2_exact, rtol=0, atol=1e-12 * np.max(np.abs(y2_exact)))

    def test_projection_checks_convergence(self, monkeypatch):
        shape = Ellipse(1.4142, 0.7071)
        X, Y = np.meshgrid(np.linspace(-1.5, 1.5, 31), np.linspace(-0.8, 0.8, 17))
        assert np.all(np.isfinite(_projected_distance(shape, X, Y)))
        monkeypatch.setattr(planar2d, "PROJECTION_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            _projected_distance(shape, X, Y)

    def test_too_coarse_h_rejected(self):
        with pytest.raises(ValueError):
            build_domain(Disk(0.05), 0.02)

    def test_arclengths_increasing(self, disk_grid):
        _, samples = disk_grid
        arcs = [s.arclength for s in samples]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))


class TestLocal2D:
    def test_matches_radial_at_fixed_sigma(self, disk_grid, radial_reference):
        grid, _ = disk_grid
        sigma = radial_reference.steady.sigma
        W = solve_local_2d(sigma, PAR, grid)
        iy0 = int(np.argmin(np.abs(grid.y)))
        xs = grid.x[(grid.x >= 0) & (grid.x <= 1.0)]
        ix = np.searchsorted(grid.x, xs)
        prof2 = W.filled(PAR.b)[ix, iy0]
        prof1 = radial_reference.steady.W(xs)
        assert np.max(np.abs(prof2 - prof1)) <= 1e-3

    def test_bounded_by_boundary_value(self, disk_grid):
        grid, _ = disk_grid
        W = solve_local_2d(1e-3, PAR, grid)
        vals = W.values[grid.inside]
        assert np.all(vals > 0)
        assert np.all(vals <= PAR.b)

    def test_large_sigma_torsion_bound(self, disk_grid):
        # deficit b - W is bounded by b^(1+p)/sigma times the torsion
        # function (-Lap T = 1, T = 0 on the boundary), computed here from
        # the same cut-cell operator as an independent linear oracle
        grid, _ = disk_grid
        sigma = 50.0
        W = solve_local_2d(sigma, PAR, grid)
        L, bvec, _ = grid.operator()
        T = splu((-L).tocsc()).solve(np.ones(L.shape[0]))
        deficit = PAR.b - W.values[grid.inside]
        bound = PAR.b ** (1 + PAR.p) / sigma * T
        assert np.all(deficit <= bound + 1e-8)
        assert np.max(deficit) <= PAR.b ** (1 + PAR.p) * 2.0**2 / (8 * sigma)

    def test_uniqueness_probe(self, disk_grid, radial_reference):
        grid, _ = disk_grid
        sigma = radial_reference.steady.sigma
        W_super = solve_local_2d(sigma, PAR, grid, initial="super")
        W_lower = solve_local_2d(sigma, PAR, grid, initial="lower")
        diff = np.nanmax(np.abs(W_super.values - W_lower.values))
        assert diff <= 10 * 1e-10

    def test_ordering_matches_default_factorisation(self, disk_grid, monkeypatch):
        # oracle: scipy's default column ordering with partial pivoting
        grid, _ = disk_grid
        fast = solve_local_2d(0.05, PAR, grid)
        monkeypatch.setattr(planar2d, "splu", lambda J, **kwargs: splu(J))
        ref = solve_local_2d(0.05, PAR, grid)
        assert np.nanmax(np.abs(fast.values - ref.values)) <= 1e-12

    def test_invalid_sigma(self, disk_grid):
        grid, _ = disk_grid
        with pytest.raises(ValueError):
            solve_local_2d(-1.0, PAR, grid)


class TestNonlocal2D:
    def test_mass_closure(self, disk_nonlocal):
        st = disk_nonlocal.steady
        total = st.W.grid.integrate(st.U.values, st.amplitude * PAR.b**PAR.p)
        assert total == pytest.approx(PAR.m, rel=1e-6)

    def test_lambda_matches_radial(self, disk_nonlocal, radial_reference):
        lam2 = disk_nonlocal.steady.lambda_eps
        lam1 = radial_reference.steady.lambda_eps
        assert abs(lam2 - lam1) / lam1 < 0.01

    def test_constraint_monotone_on_2d_path(self, disk_grid):
        from klayer.mass_constraint import constraint_value

        grid, _ = disk_grid
        dom = Planar2DDomain(grid)
        gs = [constraint_value(lam, PAR, dom) for lam in (0.5, 1.0, 2.0)]
        assert gs[0] < gs[1] < gs[2]

    def test_mass_halving_raises_lambda_eps(self, disk_grid):
        # lambda_eps carries a 1/m^2 amplitude times the m-normalisation
        grid, _ = disk_grid
        par_half = Params(epsilon=0.05, p=2, b=1, m=0.5, n=2)
        lam_half = solve_nonlocal_2d(par_half, grid, tol_rel=1e-6).steady.lambda_eps
        lam_full = solve_nonlocal_2d(PAR, grid, tol_rel=1e-6).steady.lambda_eps
        assert lam_half > 1.4 * lam_full

    def test_mask_refinement_moves_lambda_first_order(self):
        lams = {}
        for h in (0.04, 0.02):
            grid, _ = build_domain(Disk(1.0), h, n_samples=8)
            lams[h] = solve_nonlocal_2d(PAR, grid, tol_rel=1e-6).steady.lambda_eps
        rel_change = abs(lams[0.04] - lams[0.02]) / lams[0.02]
        assert rel_change < 10 * 0.04  # O(h) cut-cell boundary


def scalar_ray_march(W, samples, c, params):
    """One ray at a time, one step at a time: the reference for the
    vectorised probe.  Also returns each ray's outcome."""
    grid = W.grid
    interp_w = W.interpolator(params.b)
    interp_phi = RegularGridInterpolator(
        (grid.x, grid.y), grid.phi, method="linear", bounds_error=False, fill_value=1.0
    )
    ds = planar2d.MARCH_STEP * grid.h
    xmin, xmax, ymin, ymax = grid.bbox
    max_march = float(np.max(-grid.phi)) * 2.0 + 4 * grid.h
    rows, outcomes = [], []
    for sample in samples:
        prev_val, prev_s, s = params.b, 0.0, 0.0
        outcome = "end"
        while s < max_march:
            s += ds
            pos = sample.point + s * sample.inward_normal
            if not (xmin <= pos[0] <= xmax and ymin <= pos[1] <= ymax):
                outcome = "box"
                break
            if s > grid.h and interp_phi(pos)[0] > 0.0:
                outcome = "exit"
                break
            val = float(interp_w(pos)[0])
            if val < c:
                frac = (prev_val - c) / (prev_val - val)
                rows.append((sample.arclength, sample.curvature,
                             prev_s + frac * (s - prev_s)))
                outcome = "hit"
                break
            prev_val, prev_s = val, s
        outcomes.append(outcome)
    return np.array(rows, dtype=float).reshape(-1, 3), outcomes


class TestThicknessReport:
    def test_matches_scalar_march(self):
        grid, samples = build_domain(
            Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0)), 0.02, n_samples=128
        )
        W = solve_nonlocal_2d(PAR, grid, tol_rel=1e-6).steady.W
        table = curvature_thickness_report(W, samples, 0.5, PAR)
        ref, outcomes = scalar_ray_march(W, samples, 0.5, PAR)
        assert "hit" in outcomes and "exit" in outcomes
        assert np.array_equal(table, ref)

    def test_disk_thickness_uniform(self, disk_grid, disk_nonlocal, radial_reference):
        grid, samples = disk_grid
        table = curvature_thickness_report(disk_nonlocal.steady.W, samples, 0.5, PAR)
        assert len(table) == len(samples)
        cv = np.std(table[:, 2]) / np.mean(table[:, 2])
        assert cv <= 0.05
        # cross-check against the radial level-set depth
        from klayer.asymptotics import measure_thickness

        t_rad = measure_thickness(radial_reference.steady.W, 0.5)
        assert np.mean(table[:, 2]) == pytest.approx(t_rad, rel=0.1)

    def test_unreachable_level_skips_all(self, disk_grid, disk_nonlocal):
        grid, samples = disk_grid
        w_min = float(np.nanmin(disk_nonlocal.steady.W.values))
        table = curvature_thickness_report(
            disk_nonlocal.steady.W, samples, 0.5 * w_min, PAR
        )
        assert len(table) == 0

    def test_level_validation(self, disk_grid, disk_nonlocal):
        _, samples = disk_grid
        with pytest.raises(ValueError):
            curvature_thickness_report(disk_nonlocal.steady.W, samples, 2.0, PAR)
