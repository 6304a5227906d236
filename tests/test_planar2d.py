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
    MaskedGrid,
    PlanarField,
    Star,
    _bilinear,
    _projected_distance,
    build_domain,
    curvature_thickness_report,
    solve_local_2d,
    solve_nonlocal_2d,
)

from constraint_oracle import GridLocalSolves, constraint_value, illinois

PAR = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
# the README disk, ellipse and star, and the elongated Ellipse(2, 0.5)
SHAPES = [
    Disk(1.0), Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0)), Star(1.0, 0.15, 5), Ellipse(2.0, 0.5)
]
SHAPE_IDS = ["disk", "ellipse", "star", "ellipse-2-0.5"]


def nearest_vertex_parameter(shape, x, y, count=1024):
    """The curve parameter of the vertex nearest to each point (x, y), by
    brute force over a polyline of count vertices evenly spaced in t."""
    t = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    bx, by = shape.curve(t)
    px, py = np.ravel(x), np.ravel(y)
    nearest = [
        np.argmin((px[k : k + 512, None] - bx) ** 2 + (py[k : k + 512, None] - by) ** 2, axis=1)
        for k in range(0, px.size, 512)
    ]
    return t[np.concatenate(nearest)].reshape(np.shape(x))


def exact_distance(shape, x, y):
    """The oracle for phi: the Newton projection from the nearest vertex."""
    return _projected_distance(shape, x, y, nearest_vertex_parameter(shape, x, y))


@pytest.fixture(scope="module")
def disk_grid():
    grid, samples = build_domain(Disk(1.0), 0.02, n_samples=32)
    return grid, samples


@pytest.fixture(scope="module")
def radial_reference():
    dom = RadialBallDomain(R=1.0, n=2, count=3000)
    return solve_nonlocal(PAR, dom)


@pytest.fixture(scope="module")
def disk_nonlocal(disk_grid):
    grid, _ = disk_grid
    return solve_nonlocal_2d(PAR, grid)


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

    def test_curvature_and_normal_from_the_curve(self):
        t = np.linspace(0.0, 2.0 * np.pi, 1001)
        a, b = np.sqrt(2.0), 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(Disk(1.7).curvature(t), 1.0 / 1.7, rtol=1e-14, atol=0)
        exact = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        np.testing.assert_allclose(Ellipse(a, b).curvature(t), exact, rtol=1e-14, atol=0)
        for shape in SHAPES:
            nx, ny = shape.inward_normal(t)
            tx, ty = shape.curve_d1(t)
            np.testing.assert_allclose(np.hypot(nx, ny), 1.0, rtol=0, atol=1e-15)
            assert np.max(np.abs(nx * tx + ny * ty) / np.hypot(tx, ty)) <= 1e-15
            # inward: a short step along the normal enters the domain
            x, y = shape.curve(t)
            assert np.all(_projected_distance(shape, x + 1e-3 * nx, y + 1e-3 * ny, t) < 0)

    def test_ellipse_projection_on_axis(self):
        shape = Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        got = exact_distance(shape, np.array([np.sqrt(2.0) - 0.1]), np.array([0.0]))
        assert got[0] == pytest.approx(-0.1, abs=1e-8)

    def test_degenerate_star_equals_disk(self):
        sg, _ = build_domain(Star(1.0, 0.0, 5), 0.02, n_samples=8)
        dg, _ = build_domain(Disk(1.0), 0.02, n_samples=8)
        assert np.array_equal(sg.inside, dg.inside)
        # the star's projected distance meets the disk's exact one to 4e-16,
        # which moves the weights clip(1/2 - phi/h, 0, 1) by up to 2e-14
        np.testing.assert_allclose(sg.weights, dg.weights, rtol=0, atol=1e-13)

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
        t0 = nearest_vertex_parameter(shape, X, Y)
        assert np.all(np.isfinite(_projected_distance(shape, X, Y, t0)))
        monkeypatch.setattr(planar2d, "PROJECTION_ITERS", 1)
        with pytest.raises(NoConvergenceError):
            _projected_distance(shape, X, Y, t0)

    def test_too_coarse_h_rejected(self):
        with pytest.raises(ValueError):
            build_domain(Disk(0.05), 0.02)

    @pytest.mark.parametrize("h", [0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_h_rejected(self, h):
        # NaN compares False with everything, so h <= 0 alone lets it through
        with pytest.raises(ValueError, match="h must be positive"):
            build_domain(Disk(1.0), h)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            build_domain(Disk(1.0), 0.05, n_samples=n_samples)

    def test_arclengths_increasing(self, disk_grid):
        _, samples = disk_grid
        arcs = [s.arclength for s in samples]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))


class TestBandDistance:
    """phi off the disk: the exact projection within BAND_CELLS h of the
    boundary, the distance to a boundary seed elsewhere."""

    @pytest.mark.parametrize("h", [0.02, 0.01])
    @pytest.mark.parametrize("shape", SHAPES[1:], ids=SHAPE_IDS[1:])
    def test_matches_the_exact_projection(self, shape, h):
        grid, _ = build_domain(shape, h, n_samples=8)
        exact = exact_distance(shape, *np.meshgrid(grid.x, grid.y, indexing="ij"))
        band = np.abs(exact) < planar2d.BAND_CELLS * h
        assert np.max(np.abs(grid.phi - exact)[band]) <= 1e-15
        # shape.inside sets both signs; a node on the curve holds -0.0 or a
        # negative rounding residue, so compare sign bits
        assert np.array_equal(np.signbit(grid.phi), np.signbit(exact))
        # off the band, the distance to a point of the curve: never below the
        # exact one, and above it by less than (1/4 + sqrt 2) h; measured
        # 0.88-1.07 h at most and 0.026-0.034 h at the median
        excess = np.abs(grid.phi[~band]) - np.abs(exact[~band])
        assert np.min(excess) >= -1e-15
        assert np.max(excess) <= (0.25 + np.sqrt(2.0)) * h
        assert np.median(excess) <= 0.05 * h

    def test_fine_grid_raster_has_no_gap(self):
        # MIN_SEEDS alone would space this ellipse's seeds 4.2e-3 apart, more than h
        shape, h = Ellipse(2.0, 0.5), 0.004
        grid, _ = build_domain(shape, h, n_samples=8)
        bx, by = shape.curve(planar2d._boundary_seeds(shape, h))
        for coord, axis in ((bx, grid.x), (by, grid.y)):
            node = np.rint((coord - axis[0]) / h)
            # consecutive seeds, the last with the first, mark the same or adjacent nodes
            assert np.max(np.abs(np.diff(node, append=node[0]))) <= 1
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        near = np.abs(grid.phi) < (planar2d.BAND_CELLS + 2) * h  # holds every |exact| < 3h
        exact = exact_distance(shape, X[near], Y[near])
        band = np.abs(exact) < planar2d.BAND_CELLS * h
        assert np.max(np.abs(grid.phi[near] - exact)[band]) <= 1e-15


def shortley_weller_rows(grid):
    """The cut-cell Laplacian and load vector one inside node at a time.

    An arm to an outside neighbour is cut where the signed distance changes
    sign, at the fraction theta = phi_i / (phi_i - phi_nb) of h, clipped to
    [1e-6, 1]; the arms of full length have theta = 1.  Along each axis the
    neighbours get 2 / (theta (theta+ + theta-) h^2) and the node itself
    -2 / (theta+ theta- h^2); a cut arm's coefficient goes to the load vector
    that multiplies b.
    """
    inside, phi, h = grid.inside, grid.phi, grid.h
    nodes = list(zip(*np.nonzero(inside)))
    number = {node: k for k, node in enumerate(nodes)}
    L = np.zeros((len(nodes), len(nodes)))
    bvec = np.zeros(len(nodes))
    for k, (i, j) in enumerate(nodes):
        for di, dj in ((1, 0), (0, 1)):
            arms = []
            for nb in ((i + di, j + dj), (i - di, j - dj)):
                theta = 1.0
                if not inside[nb]:
                    theta = min(max(phi[i, j] / (phi[i, j] - phi[nb]), 1e-6), 1.0)
                arms.append((theta, nb))
            (tp, _), (tm, _) = arms
            L[k, k] -= 2.0 / (tp * tm) / h**2
            for theta, nb in arms:
                coeff = 2.0 / (theta * (tp + tm)) / h**2
                if inside[nb]:
                    L[k, number[nb]] = coeff
                else:
                    bvec[k] += coeff
    return L, bvec


class TestCutLaplacian:
    @pytest.mark.parametrize("shape", [Disk(1.0), Star(1.0, 0.15, 5)], ids=["disk", "star"])
    def test_matches_row_by_row_oracle(self, shape):
        grid, _ = build_domain(shape, 0.05, n_samples=8)
        L, bvec = grid.operator()
        L_ref, bvec_ref = shortley_weller_rows(grid)
        assert np.count_nonzero(bvec) > 0
        assert np.array_equal(L.toarray(), L_ref)
        assert np.array_equal(bvec, bvec_ref)

    @pytest.mark.parametrize("node", [(0, 5), (10, 5), (5, 0), (5, 10)])
    def test_inside_node_on_the_edge_rejected(self, node):
        coords = np.linspace(-1.0, 1.0, 11)
        phi = np.ones((11, 11))
        phi[5, 5] = -0.1
        MaskedGrid(h=0.2, x=coords, y=coords, phi=phi)
        phi[node] = -0.1
        with pytest.raises(ValueError, match="outer edge"):
            MaskedGrid(h=0.2, x=coords, y=coords, phi=phi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_field_values_must_be_finite(self, disk_grid, bad):
        grid, _ = disk_grid
        values = np.ones(grid.phi.shape)
        values[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            PlanarField(grid=grid, values=values)


class TestLocal2D:
    def test_matches_radial_at_fixed_sigma(self, disk_grid, radial_reference):
        grid, _ = disk_grid
        sigma = radial_reference.steady.sigma
        W = solve_local_2d(sigma, PAR, grid)
        iy0 = int(np.argmin(np.abs(grid.y)))
        xs = grid.x[(grid.x >= 0) & (grid.x <= 1.0)]
        ix = np.searchsorted(grid.x, xs)
        prof2 = W.values[ix, iy0]
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
        L, bvec = grid.operator()
        T = splu((-L).tocsc()).solve(np.ones(L.shape[0]))
        deficit = PAR.b - W.values[grid.inside]
        bound = PAR.b ** (1 + PAR.p) / sigma * T
        assert np.all(deficit <= bound + 1e-8)
        assert np.max(deficit) <= PAR.b ** (1 + PAR.p) * 2.0**2 / (8 * sigma)

    def test_uniqueness_probe(self, disk_grid, radial_reference):
        grid, _ = disk_grid
        sigma = radial_reference.steady.sigma
        b_start = np.full(int(grid.inside.sum()), PAR.b)  # the constant supersolution
        W_super = solve_local_2d(sigma, PAR, grid, initial=b_start)
        W_lower = solve_local_2d(sigma, PAR, grid)
        diff = np.max(np.abs(W_super.values - W_lower.values))
        assert diff <= 10 * 1e-10

    def test_ordering_matches_default_factorisation(self, disk_grid, monkeypatch):
        # oracle: scipy's default column ordering with partial pivoting
        grid, _ = disk_grid
        fast = solve_local_2d(0.05, PAR, grid)
        monkeypatch.setattr(planar2d, "splu", lambda J, **kwargs: splu(J))
        ref = solve_local_2d(0.05, PAR, grid)
        assert np.max(np.abs(fast.values - ref.values)) <= 1e-12

    def test_invalid_sigma(self, disk_grid):
        grid, _ = disk_grid
        with pytest.raises(ValueError):
            solve_local_2d(-1.0, PAR, grid)


class TestNonlocal2D:
    def test_mass_closure(self, disk_nonlocal):
        st = disk_nonlocal.steady
        total = st.W.grid.integrate(st.U.values)
        assert total == pytest.approx(PAR.m, rel=1e-6)

    def test_lambda_matches_radial(self, disk_nonlocal, radial_reference):
        lam2 = disk_nonlocal.steady.lambda_eps
        lam1 = radial_reference.steady.lambda_eps
        assert abs(lam2 - lam1) / lam1 < 0.01

    def test_constraint_monotone_on_2d_path(self, disk_grid):
        grid, _ = disk_grid
        dom = GridLocalSolves(grid)
        gs = [constraint_value(lam, PAR, dom) for lam in (0.5, 1.0, 2.0)]
        assert gs[0] < gs[1] < gs[2]

    def test_cold_constraint_value_matches_accepted(self):
        # a cold local solve at the returned sigma reproduces W and closes
        # g = m (measured at most 3.3e-11 and 3.1e-11 over these shapes at
        # p 1, 2, 8)
        for shape in SHAPES:
            grid, _ = build_domain(shape, 0.02, n_samples=8)
            dom = GridLocalSolves(grid)
            for p in (1, 2, 8):
                par = Params(epsilon=0.05, p=p, b=1, m=1, n=2)
                st = solve_nonlocal_2d(par, grid).steady
                W, integral = dom.solve_local(st.sigma, par)
                assert np.max(np.abs(W.values - st.W.values)) <= 5e-10 * par.b
                g = par.epsilon / st.sigma * integral
                assert abs(g - par.m) / par.m <= 5e-10

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_matches_illinois_over_local_solves(self, shape):
        # oracle: Illinois on g(lam) = m over cold 2D local solves; measured
        # worst 4.3e-11 in lambda_eps and 4.0e-11 b in W, dominated by the
        # oracle's own tolerance
        grid, _ = build_domain(shape, 0.02, n_samples=8)
        for p in (1, 2, 8):
            par = Params(epsilon=0.05, p=p, b=1, m=1, n=2)
            res = solve_nonlocal_2d(par, grid)
            ref = illinois(par, GridLocalSolves(grid), tol_rel=1e-11)
            st, st_ref = res.steady, ref.steady
            assert st.lambda_eps == pytest.approx(st_ref.lambda_eps, rel=2e-10)
            assert np.max(np.abs(st.W.values - st_ref.W.values)) <= 2e-10 * par.b
            assert np.all(st.W.values[~grid.inside] == par.b)
            assert np.all(st.U.values[~grid.inside] == st.amplitude * par.b**par.p)
            assert res.constraint_residual <= 1e-15

    @pytest.mark.parametrize("shape", SHAPES[:3], ids=SHAPE_IDS[:3])
    def test_factorisations_per_solve(self, shape, monkeypatch):
        grid, _ = build_domain(shape, 0.02, n_samples=8)
        count = []

        def counting(*args, **kwargs):
            count.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(planar2d, "splu", counting)
        res = solve_nonlocal_2d(PAR, grid)
        assert res.constraint_residual < 1e-8
        assert len(count) == 1

    def test_ignores_dimension_parameter(self, disk_grid, disk_nonlocal):
        # the 2D solver and its disk seed are planar whatever params.n says
        grid, _ = disk_grid
        par3 = Params(epsilon=0.05, p=2, b=1, m=1, n=3)
        res = solve_nonlocal_2d(par3, grid)
        assert res.steady.lambda_eps == disk_nonlocal.steady.lambda_eps

    def test_mass_halving_raises_lambda_eps(self, disk_grid):
        # lambda_eps carries a 1/m^2 amplitude times the m-normalisation
        grid, _ = disk_grid
        par_half = Params(epsilon=0.05, p=2, b=1, m=0.5, n=2)
        lam_half = solve_nonlocal_2d(par_half, grid).steady.lambda_eps
        lam_full = solve_nonlocal_2d(PAR, grid).steady.lambda_eps
        assert lam_half > 1.4 * lam_full

    def test_mask_refinement_moves_lambda_first_order(self):
        lams = {}
        for h in (0.04, 0.02):
            grid, _ = build_domain(Disk(1.0), h, n_samples=8)
            lams[h] = solve_nonlocal_2d(PAR, grid).steady.lambda_eps
        rel_change = abs(lams[0.04] - lams[0.02]) / lams[0.02]
        assert rel_change < 10 * 0.04  # O(h) cut-cell boundary


def scalar_ray_march(W, samples, c, params):
    """One ray at a time, one step at a time: the reference for the
    vectorised probe.  Also returns each ray's outcome."""
    grid = W.grid
    interp_w = RegularGridInterpolator(
        (grid.x, grid.y), W.values.copy(), method="linear", bounds_error=False,
        fill_value=params.b,
    )
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


class TestBilinear:
    """_bilinear against scipy's linear RegularGridInterpolator."""

    @pytest.fixture(scope="class")
    def points(self, disk_grid):
        grid, _ = disk_grid
        xmin, xmax, ymin, ymax = grid.bbox
        rng = np.random.default_rng(7)
        inside = rng.uniform([xmin, ymin], [xmax, ymax], size=(4000, 2))
        around = rng.uniform([xmin - 0.2, ymin - 0.2], [xmax + 0.2, ymax + 0.2], size=(4000, 2))
        edges = [
            (grid.x[-1], grid.y[-1]), (grid.x[0], grid.y[0]), (grid.x[-1], 0.3),
            (-0.4, grid.y[-1]), (grid.x[5], grid.y[9]), (np.nextafter(grid.x[-1], 2.0), 0.0),
        ]
        return np.vstack([inside, around, edges])

    @staticmethod
    def scipy_interp(grid, values, fill_value):
        return RegularGridInterpolator(
            (grid.x, grid.y), values, method="linear", bounds_error=False,
            fill_value=fill_value,
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "nan_outside"])
    def test_matches_scipy_bit_for_bit(self, disk_grid, disk_nonlocal, points, filled):
        # measured: 0 ulps, as the cell search and the weights are scipy's
        grid, _ = disk_grid
        W = disk_nonlocal.steady.W
        values, fill = (
            (W.values.copy(), PAR.b) if filled
            else (np.where(grid.inside, W.values, np.nan), np.nan)
        )
        ours = _bilinear(grid.x, grid.y, values, fill)(points)
        ref = self.scipy_interp(grid, values, fill)(points)
        assert np.array_equal(ours, ref, equal_nan=True)
        if not filled:
            assert np.isnan(ours).any() and np.isfinite(ours).any()

    def test_fills_outside_closed_box_only(self, disk_grid, disk_nonlocal, points):
        grid, _ = disk_grid
        xmin, xmax, ymin, ymax = grid.bbox
        filled = disk_nonlocal.steady.W.values
        vals = _bilinear(grid.x, grid.y, filled, -1.0)(points)
        in_box = (
            (xmin <= points[:, 0]) & (points[:, 0] <= xmax)
            & (ymin <= points[:, 1]) & (points[:, 1] <= ymax)
        )
        assert np.all(vals[~in_box] == -1.0)
        assert np.all(vals[in_box] > 0.0)
        assert vals[-6] == filled[-1, -1]

    def test_read_only_phi(self, disk_grid, points):
        # scipy takes its generic path for read-only values, which groups the
        # weight products differently: measured at most 3 ulps of the largest
        # corner value
        grid, _ = disk_grid
        assert not grid.phi.flags.writeable
        ours = _bilinear(grid.x, grid.y, grid.phi, 1.0)(points)
        ref = self.scipy_interp(grid, grid.phi, 1.0)(points)
        i = np.clip(np.searchsorted(grid.x, points[:, 0], side="right") - 1, 0, grid.x.size - 2)
        j = np.clip(np.searchsorted(grid.y, points[:, 1], side="right") - 1, 0, grid.y.size - 2)
        corners = np.stack(
            [grid.phi[i, j], grid.phi[i + 1, j], grid.phi[i, j + 1], grid.phi[i + 1, j + 1]]
        )
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.max(np.abs(corners), axis=0)))

    def test_single_point(self, disk_grid, disk_nonlocal):
        grid, _ = disk_grid
        W = disk_nonlocal.steady.W
        interp = _bilinear(grid.x, grid.y, W.values, PAR.b)
        ref = self.scipy_interp(grid, W.values.copy(), PAR.b)
        for point in (np.array([0.31, -0.47]), np.array([grid.x[-1], grid.y[-1]])):
            value = interp(point)
            assert value.shape == (1,)
            assert np.array_equal(value, ref(point))


class TestThicknessReport:
    def test_matches_scalar_march(self):
        grid, samples = build_domain(
            Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0)), 0.02, n_samples=128
        )
        W = solve_nonlocal_2d(PAR, grid).steady.W
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
        w_min = float(np.min(disk_nonlocal.steady.W.values))
        table = curvature_thickness_report(
            disk_nonlocal.steady.W, samples, 0.5 * w_min, PAR
        )
        assert len(table) == 0

    def test_level_validation(self, disk_grid, disk_nonlocal):
        _, samples = disk_grid
        with pytest.raises(ValueError):
            curvature_thickness_report(disk_nonlocal.steady.W, samples, 2.0, PAR)
