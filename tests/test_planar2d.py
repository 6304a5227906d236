import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu

from klayer import planar2d
from klayer.core import Params, make_graded_grid, unit_sphere_area
from klayer.errors import NoConvergenceError
from klayer.evolve_radial import relax_to_discrete_steady
from klayer.mass_constraint import solve_nonlocal
from klayer.planar2d import (
    Disk,
    Ellipse,
    MaskedGrid,
    PlanarField,
    Star,
    _bilinear,
    _projected_distance,
    boundary_samples,
    build_domain,
    curvature_thickness_report,
    solve_local_2d,
    solve_nonlocal_2d,
)
from klayer.radial_steady import (
    barrier_lower,
    lambda_leading,
    layer_profile,
    layer_width,
    solve_local_radial,
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
    return build_domain(Disk(1.0), 0.02)


@pytest.fixture(scope="module")
def disk_samples():
    return boundary_samples(Disk(1.0), 32)


@pytest.fixture(scope="module")
def radial_reference():
    return solve_nonlocal(PAR, 1.0, 3000)


@pytest.fixture(scope="module")
def disk_nonlocal(disk_grid):
    grid = disk_grid
    return solve_nonlocal_2d(PAR, grid)


class TestGeometry:
    def test_disk_area(self):
        grid = build_domain(Disk(1.0), 0.01)
        assert abs(grid.area() - np.pi) <= 0.01

    def test_disk_signed_distance_exact(self, disk_grid):
        grid = disk_grid
        X, Y = np.meshgrid(grid.coords, grid.coords, indexing="ij")
        np.testing.assert_allclose(grid.phi, np.hypot(X, Y) - 1.0, atol=1e-14)

    def test_inside_phi_consistency(self, disk_grid):
        grid = disk_grid
        assert np.all(grid.phi[grid.inside] < 0)
        assert np.all(grid.phi[~grid.inside] >= 0)

    def test_node_on_the_curve_is_held_either_way(self):
        # a node whose phi vanishes but for rounding is held at b whatever
        # the sign of its phi, so the mask does not hang on that sign
        phi = build_domain(Disk(1.0), 0.05).phi.copy()
        i, j = np.unravel_index(np.argmax(np.where(phi < 0, phi, -np.inf)), phi.shape)
        masks = []
        for value in (1e-17, -1e-17):
            phi[i, j] = value
            masks.append(MaskedGrid(0.05, phi).inside)
        assert not masks[0][i, j] and not masks[1][i, j]
        assert np.array_equal(*masks)

    def test_normals_and_curvature_disk(self, disk_samples):
        normal = disk_samples.inward_normal
        np.testing.assert_allclose(np.hypot(*normal.T), 1.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(disk_samples.curvature, 1.0, rtol=0, atol=1e-6)
        # inward means toward the origin for the disk
        assert np.all(np.sum(disk_samples.point * normal, axis=1) < 0)

    def test_ellipse_curvature_extrema(self):
        a, b = np.sqrt(2.0), 1.0 / np.sqrt(2.0)
        ks = boundary_samples(Ellipse(a, b), 64).curvature
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
        sg = build_domain(Star(1.0, 0.0, 5), 0.02)
        dg = build_domain(Disk(1.0), 0.02)
        assert np.array_equal(sg.inside, dg.inside)
        # the star's projected distance meets the disk's exact one to 4e-16,
        # which moves the cut-cell fractions clip(1/2 - phi/h, 0, 1) by up to
        # 2e-14, and quad and held_area, h^2 times them, by up to 1e-17
        h2 = 0.02**2
        np.testing.assert_allclose(sg.quad, dg.quad, rtol=0, atol=1e-13 * h2)
        assert sg.held_area == pytest.approx(dg.held_area, rel=0, abs=1e-13 * h2 * sg.phi.size)

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

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("make", [
        Disk, lambda v: Ellipse(v, 1.0), lambda v: Ellipse(1.0, v),
        lambda v: Star(v, 0.15, 5), lambda v: Star(1.0, 0.15, v),
    ], ids=["disk-r", "ellipse-a", "ellipse-b", "star-r0", "star-k"])
    def test_non_finite_size_rejected(self, make, value):
        with pytest.raises(ValueError, match="must be"):
            make(value)

    def test_too_coarse_h_rejected(self):
        with pytest.raises(ValueError):
            build_domain(Disk(0.05), 0.02)

    @pytest.mark.parametrize("h", [0.0, np.nan, np.inf])
    def test_non_positive_or_non_finite_h_rejected(self, h):
        # NaN compares False with everything, so h <= 0 alone lets it through
        with pytest.raises(ValueError, match="h must be positive"):
            build_domain(Disk(1.0), h)

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_samples_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            boundary_samples(Disk(1.0), count)

    def test_arclengths_increasing(self, disk_samples):
        assert np.all(np.diff(disk_samples.arclength) > 0)


class TestBoundarySamples:
    """boundary_samples against the shape's methods called one point at a
    time at the same curve parameters."""

    @pytest.mark.parametrize("count", [1, 48, 128])
    @pytest.mark.parametrize("shape", SHAPES[:3], ids=SHAPE_IDS[:3])
    def test_matches_per_point_evaluation(self, shape, count):
        samples = boundary_samples(shape, count)
        assert len(samples) == count
        t_fine, s = planar2d._arclength(shape)
        arclength = np.arange(count) * s[-1] / count
        t = [np.interp(a, s, t_fine) for a in arclength]
        point = np.array([shape.curve(t_k) for t_k in t])
        normal = np.array([shape.inward_normal(t_k) for t_k in t])
        curvature = np.array([shape.curvature(t_k) for t_k in t])
        assert np.array_equal(samples.point, point)
        assert np.array_equal(samples.inward_normal, normal)
        # numpy's array power may differ from the scalar pow by an ulp or two
        np.testing.assert_allclose(samples.curvature, curvature, rtol=1e-15, atol=0)
        assert samples.arclength[0] == 0.0
        assert np.all(np.diff(samples.arclength) > 0)
        assert samples.arclength[-1] < s[-1]
        assert samples.point.shape == samples.inward_normal.shape == (count, 2)
        for arr in (samples.arclength, samples.curvature, samples.point, samples.inward_normal):
            assert not arr.flags.writeable


class TestBandDistance:
    """phi off the disk: the exact projection within BAND_CELLS h of the
    boundary, the distance to a boundary seed elsewhere."""

    @pytest.mark.parametrize("h", [0.02, 0.01])
    @pytest.mark.parametrize("shape", SHAPES[1:], ids=SHAPE_IDS[1:])
    def test_matches_the_exact_projection(self, shape, h):
        grid = build_domain(shape, h)
        exact = exact_distance(shape, *np.meshgrid(grid.coords, grid.coords, indexing="ij"))
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
        grid = build_domain(shape, h)
        bx, by = shape.curve(planar2d._boundary_seeds(shape, h))
        for coord in (bx, by):
            node = np.rint((coord - grid.coords[0]) / h)
            # consecutive seeds, the last with the first, mark the same or adjacent nodes
            assert np.max(np.abs(np.diff(node, append=node[0]))) <= 1
        X, Y = np.meshgrid(grid.coords, grid.coords, indexing="ij")
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
        grid = build_domain(shape, 0.05)
        L, bvec = grid.operator()
        L_ref, bvec_ref = shortley_weller_rows(grid)
        assert np.count_nonzero(bvec) > 0
        assert np.array_equal(L.toarray(), L_ref)
        assert np.array_equal(bvec, bvec_ref)

    @pytest.mark.parametrize("node", [(0, 5), (10, 5), (5, 0), (5, 10)])
    def test_inside_node_on_the_edge_rejected(self, node):
        phi = np.ones((11, 11))
        phi[5, 5] = -0.1
        MaskedGrid(h=0.2, phi=phi)
        phi[node] = -0.1
        with pytest.raises(ValueError, match="outer edge"):
            MaskedGrid(h=0.2, phi=phi)

    @pytest.mark.parametrize("shape", [(11, 12), (12, 11), (11,), (11, 11, 11)])
    def test_phi_shape_must_match_coords(self, shape):
        # the grid derives one coordinate vector, for both axes, from phi
        with pytest.raises(ValueError, match="phi shape .* is not square"):
            MaskedGrid(h=0.2, phi=np.ones(shape))

    @pytest.mark.parametrize("h", [0.0, -0.2, np.nan, np.inf])
    def test_spacing_must_be_finite_and_positive(self, h):
        phi = np.ones((11, 11))
        phi[5, 5] = -0.1
        with pytest.raises(ValueError, match="h must be finite and positive"):
            MaskedGrid(h=h, phi=phi)

    def test_coords_from_spacing_and_size(self):
        phi = np.ones((11, 11))
        phi[5, 5] = -0.1
        grid = MaskedGrid(h=0.2, phi=phi)
        np.testing.assert_allclose(grid.coords, np.linspace(-1.0, 1.0, 11), rtol=0, atol=1e-15)
        assert grid.coords[5] == 0.0
        assert np.array_equal(grid.coords, -grid.coords[::-1])
        assert not grid.coords.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_field_values_must_be_finite(self, disk_grid, bad):
        grid = disk_grid
        values = np.ones(grid.phi.shape)
        values[0, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            PlanarField(grid=grid, values=values)


class TestQuadrature:
    """MaskedGrid states its cut-cell quadrature once, as quad over the
    unknowns and held_area over the nodes held at b; area() sums them, and
    the Newton and the reported constants integrate W^p with them."""

    # the exact areas of SHAPES[:3]: pi r^2, pi a b and pi r0^2 (1 + A^2 / 2)
    AREAS = [np.pi, np.pi, np.pi * (1.0 + 0.15**2 / 2.0)]

    @pytest.fixture(scope="class", params=[
        (shape, h, area) for shape, area in zip(SHAPES[:3], AREAS) for h in (0.02, 0.01)
    ], ids=[f"{name}-{h}" for name in SHAPE_IDS[:3] for h in (0.02, 0.01)])
    def grid_and_area(self, request):
        shape, h, area = request.param
        return build_domain(shape, h), area

    def test_split_sums_to_area(self, grid_and_area):
        # the cut-cell fractions miss the exact area by at most 7e-5
        # relative at these h (measured)
        grid, area = grid_and_area
        assert not grid.quad.flags.writeable
        assert grid.quad.shape == (int(grid.inside.sum()),)
        assert grid.area() == grid.quad.sum() + grid.held_area
        assert grid.area() == pytest.approx(area, rel=1e-4)

    @pytest.mark.parametrize("h", [0.05, 0.03])
    @pytest.mark.parametrize("shape", SHAPES[:3], ids=SHAPE_IDS[:3])
    def test_reported_constants_use_the_quadrature(self, shape, h):
        # bit for bit: the constants are built from the quadrature the
        # Newton iterates with, applied to the W it returns (at h = 0.03 a
        # sum over the padded square's node weights misses by 1 ulp on all
        # three shapes)
        grid = build_domain(shape, h)
        st = solve_nonlocal_2d(PAR, grid).steady
        w = st.W.values[grid.inside]
        integral = float(np.sum(grid.quad * w**PAR.p)) + grid.held_area * PAR.b**PAR.p
        assert st.amplitude == PAR.m / integral
        assert st.lambda_eps == integral / PAR.m


class TestLocal2D:
    def test_matches_radial_at_fixed_sigma(self, disk_grid, radial_reference):
        grid = disk_grid
        sigma = radial_reference.steady.sigma
        W = solve_local_2d(sigma, PAR, grid)
        iy0 = int(np.argmin(np.abs(grid.coords)))
        xs = grid.coords[(grid.coords >= 0) & (grid.coords <= 1.0)]
        ix = np.searchsorted(grid.coords, xs)
        prof2 = W.values[ix, iy0]
        prof1 = radial_reference.steady.W(xs)
        assert np.max(np.abs(prof2 - prof1)) <= 1e-3

    def test_bounded_by_boundary_value(self, disk_grid):
        grid = disk_grid
        W = solve_local_2d(1e-3, PAR, grid)
        vals = W.values[grid.inside]
        assert np.all(vals > 0)
        assert np.all(vals <= PAR.b)

    def test_large_sigma_torsion_bound(self, disk_grid):
        # deficit b - W is bounded by b^(1+p)/sigma times the torsion
        # function (-Lap T = 1, T = 0 on the boundary), computed here from
        # the same cut-cell operator as an independent linear oracle
        grid = disk_grid
        sigma = 50.0
        W = solve_local_2d(sigma, PAR, grid)
        L, bvec = grid.operator()
        T = splu((-L).tocsc()).solve(np.ones(L.shape[0]))
        deficit = PAR.b - W.values[grid.inside]
        bound = PAR.b ** (1 + PAR.p) / sigma * T
        assert np.all(deficit <= bound + 1e-8)
        assert np.max(deficit) <= PAR.b ** (1 + PAR.p) * 2.0**2 / (8 * sigma)

    def test_uniqueness_probe(self, disk_grid, radial_reference):
        grid = disk_grid
        sigma = radial_reference.steady.sigma
        b_start = np.full(int(grid.inside.sum()), PAR.b)  # the constant supersolution
        W_super = solve_local_2d(sigma, PAR, grid, initial=b_start)
        W_lower = solve_local_2d(sigma, PAR, grid)
        diff = np.max(np.abs(W_super.values - W_lower.values))
        assert diff <= 10 * 1e-10

    def test_ordering_matches_default_factorisation(self, disk_grid, monkeypatch):
        # oracle: scipy's default column ordering with partial pivoting
        grid = disk_grid
        fast = solve_local_2d(0.05, PAR, grid)
        monkeypatch.setattr(planar2d, "splu", lambda J, **kwargs: splu(J))
        ref = solve_local_2d(0.05, PAR, grid)
        assert np.max(np.abs(fast.values - ref.values)) <= 1e-12

    def test_invalid_sigma(self, disk_grid):
        grid = disk_grid
        with pytest.raises(ValueError):
            solve_local_2d(-1.0, PAR, grid)


class TestNonlocal2D:
    def test_mass_closure(self, disk_nonlocal):
        st = disk_nonlocal.steady
        grid = st.W.grid
        u = st.U.values
        total = np.sum(grid.quad * u[grid.inside]) + grid.held_area * st.amplitude * PAR.b**PAR.p
        assert total == pytest.approx(PAR.m, rel=1e-6)

    def test_lambda_matches_radial(self, disk_nonlocal, radial_reference):
        lam2 = disk_nonlocal.steady.lambda_eps
        lam1 = radial_reference.steady.lambda_eps
        assert abs(lam2 - lam1) / lam1 < 0.01

    def test_constraint_monotone_on_2d_path(self, disk_grid):
        grid = disk_grid
        dom = GridLocalSolves(grid)
        gs = [constraint_value(lam, PAR, dom) for lam in (0.5, 1.0, 2.0)]
        assert gs[0] < gs[1] < gs[2]

    def test_cold_constraint_value_matches_accepted(self):
        # a cold local solve at the returned sigma reproduces W and closes
        # g = m (measured at most 3.3e-11 and 3.1e-11 over these shapes at
        # p 1, 2, 8)
        for shape in SHAPES:
            grid = build_domain(shape, 0.02)
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
        grid = build_domain(shape, 0.02)
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
        grid = build_domain(shape, 0.02)
        count = []

        def counting(*args, **kwargs):
            count.append(1)
            return splu(*args, **kwargs)

        monkeypatch.setattr(planar2d, "splu", counting)
        res = solve_nonlocal_2d(PAR, grid)
        assert res.constraint_residual < 1e-8
        assert len(count) == 1

    @pytest.mark.parametrize("shape", SHAPES[:3], ids=SHAPE_IDS[:3])
    def test_one_ball_solve_seeds_one_newton(self, shape, monkeypatch):
        # the disk of equal area is solved once, in the plane, and the 2D
        # Newton it seeds is the whole nonlocal solve
        grid = build_domain(shape, 0.05)
        balls, newtons = [], []
        ball, newton = planar2d.solve_nonlocal, planar2d._newton_2d

        def ball_solve(params, R, *args):
            balls.append((params.n, R))
            return ball(params, R, *args)

        def newton_2d(*args):
            w, steps = newton(*args)
            newtons.append(steps)
            return w, steps

        monkeypatch.setattr(planar2d, "solve_nonlocal", ball_solve)
        monkeypatch.setattr(planar2d, "_newton_2d", newton_2d)
        res = solve_nonlocal_2d(Params(epsilon=0.05, p=2, b=1, m=1, n=3), grid)
        assert balls == [(2, np.sqrt(grid.area() / np.pi))]
        assert len(newtons) == 1 and res.bisection_iters == newtons[0]

    def test_ignores_dimension_parameter(self, disk_grid, disk_nonlocal):
        # the 2D solver and its disk seed are planar whatever params.n says
        grid = disk_grid
        par3 = Params(epsilon=0.05, p=2, b=1, m=1, n=3)
        res = solve_nonlocal_2d(par3, grid)
        assert res.steady.lambda_eps == disk_nonlocal.steady.lambda_eps

    def test_mass_halving_raises_lambda_eps(self, disk_grid):
        # lambda_eps carries a 1/m^2 amplitude times the m-normalisation
        grid = disk_grid
        par_half = Params(epsilon=0.05, p=2, b=1, m=0.5, n=2)
        lam_half = solve_nonlocal_2d(par_half, grid).steady.lambda_eps
        lam_full = solve_nonlocal_2d(PAR, grid).steady.lambda_eps
        assert lam_half > 1.4 * lam_full

    def test_mask_refinement_moves_lambda_first_order(self):
        lams = {}
        for h in (0.04, 0.02):
            grid = build_domain(Disk(1.0), h)
            lams[h] = solve_nonlocal_2d(PAR, grid).steady.lambda_eps
        rel_change = abs(lams[0.04] - lams[0.02]) / lams[0.02]
        assert rel_change < 10 * 0.04  # O(h) cut-cell boundary


def ball_operator(grid):
    """The ball's finite-volume operator as _newton_2d takes it: unknowns at
    the nodes 0..N-2, L = diag(1/V) K over them (K the flux difference of
    radial_steady._newton), the Dirichlet node's conductance in bvec, and
    the cell volumes omega_n V as the quadrature."""
    g, V = grid.conductances, grid.volumes
    left = np.concatenate(([0.0], g[:-1]))  # face conductance towards node i - 1
    K = sparse.diags([g[:-1], -(left + g), g[:-1]], [-1, 0, 1])
    L = sparse.csc_matrix(sparse.diags(1.0 / V[:-1]) @ K)
    bvec = np.zeros(grid.count - 1)
    bvec[-1] = g[-1] / V[-2]
    omega = unit_sphere_area(grid.n)
    return L, bvec, omega * V[:-1], omega * V[-1]


class TestNewtonOnBallOperator:
    """_newton_2d on an operator that is not cut-cell: the ball's, against
    the independent tridiagonal Newton of radial_steady.  Measured worst
    gaps 2.5e-10 b (nonlocal) and 2.0e-10 b (local) in 7-16 Newton steps."""

    @pytest.mark.parametrize("b, m", [(1.0, 1.0), (1.5, 2.0)])
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01])
    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_radial_newton(self, n, p, eps, b, m):
        par = Params(epsilon=eps, p=p, b=b, m=m, n=n)
        sigma0 = eps**2 * lambda_leading(par, 1.0)
        ell = layer_width(sigma0, par)
        grid = make_graded_grid(1, n, min(max(ell, 1e-3), 10 / 127), 128)
        operator = ball_operator(grid)
        start = barrier_lower(grid.nodes, sigma0, par, grid.R)[:-1]
        w, _ = planar2d._newton_2d(start, None, par, *operator)
        ref = relax_to_discrete_steady(grid, par).W[:-1]
        assert np.max(np.abs(w - ref)) <= 1e-9 * b
        w, _ = planar2d._newton_2d(start, sigma0, par, *operator)
        ref = solve_local_radial(sigma0, par, grid).values[:-1]
        assert np.max(np.abs(w - ref)) <= 1e-9 * b


class ColumnByColumn:
    """A SuperLU factorisation whose solve takes the columns of a
    multi-column right-hand side one at a time."""

    def __init__(self, lu, widths):
        self.lu = lu
        self.widths = widths

    def solve(self, rhs):
        self.widths.append(rhs.shape[1])
        return np.column_stack([self.lu.solve(col) for col in rhs.T])


class TestTwoColumnSolve:
    def test_matches_one_column_solves(self, monkeypatch):
        # the CLI's byte-identical outputs rest on SuperLU's two-column
        # back-solve giving the bits of two one-column solves
        grid = build_domain(Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0)), 0.05)
        sigma0 = PAR.epsilon**2 * lambda_leading(PAR, np.sqrt(grid.area() / np.pi))
        start = layer_profile(-grid.phi[grid.inside], sigma0, PAR)
        args = (PAR, *grid.operator(), grid.quad, grid.held_area)
        w, steps = planar2d._newton_2d(start, None, *args)
        widths = []
        monkeypatch.setattr(
            planar2d, "splu", lambda *a, **kw: ColumnByColumn(splu(*a, **kw), widths)
        )
        w_ref, steps_ref = planar2d._newton_2d(start, None, *args)
        assert steps == steps_ref
        assert steps > 1
        assert widths == [2] * steps
        assert np.array_equal(w, w_ref)


def scalar_ray_march(W, samples, c, params):
    """One ray at a time, one step at a time: the reference for the
    vectorised probe.  Also returns each ray's outcome."""
    grid = W.grid
    axes = (grid.coords, grid.coords)
    interp_w = RegularGridInterpolator(
        axes, W.values.copy(), method="linear", bounds_error=False, fill_value=params.b
    )
    interp_phi = RegularGridInterpolator(
        axes, grid.phi, method="linear", bounds_error=False, fill_value=1.0
    )
    ds = planar2d.MARCH_STEP * grid.h
    lo, hi = grid.coords[0], grid.coords[-1]
    max_march = float(np.max(-grid.phi)) * 2.0 + 4 * grid.h
    rows, outcomes = [], []
    for k in range(len(samples)):
        prev_val, prev_s, s = params.b, 0.0, 0.0
        outcome = "end"
        while s < max_march:
            s += ds
            pos = samples.point[k] + s * samples.inward_normal[k]
            if not (lo <= pos[0] <= hi and lo <= pos[1] <= hi):
                outcome = "box"
                break
            if s > grid.h and interp_phi(pos)[0] > 0.0:
                outcome = "exit"
                break
            val = float(interp_w(pos)[0])
            if val < c:
                frac = (prev_val - c) / (prev_val - val)
                rows.append((samples.arclength[k], samples.curvature[k],
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
        grid = disk_grid
        c = grid.coords
        lo, hi = c[0], c[-1]
        rng = np.random.default_rng(7)
        inside = rng.uniform([lo, lo], [hi, hi], size=(4000, 2))
        around = rng.uniform([lo - 0.2, lo - 0.2], [hi + 0.2, hi + 0.2], size=(4000, 2))
        edges = [
            (c[-1], c[-1]), (c[0], c[0]), (c[-1], 0.3),
            (-0.4, c[-1]), (c[5], c[9]), (np.nextafter(c[-1], 2.0), 0.0),
        ]
        return np.vstack([inside, around, edges])

    @staticmethod
    def scipy_interp(grid, values, fill_value):
        return RegularGridInterpolator(
            (grid.coords, grid.coords), values, method="linear", bounds_error=False,
            fill_value=fill_value,
        )

    @pytest.mark.parametrize("filled", [True, False], ids=["filled", "nan_outside"])
    def test_matches_scipy_bit_for_bit(self, disk_grid, disk_nonlocal, points, filled):
        # measured: 0 ulps, as the cell search and the weights are scipy's
        grid = disk_grid
        W = disk_nonlocal.steady.W
        values, fill = (
            (W.values.copy(), PAR.b) if filled
            else (np.where(grid.inside, W.values, np.nan), np.nan)
        )
        ours = _bilinear(grid.coords, values, fill)(points)
        ref = self.scipy_interp(grid, values, fill)(points)
        assert np.array_equal(ours, ref, equal_nan=True)
        if not filled:
            assert np.isnan(ours).any() and np.isfinite(ours).any()

    def test_fills_outside_closed_box_only(self, disk_grid, disk_nonlocal, points):
        grid = disk_grid
        lo, hi = grid.coords[0], grid.coords[-1]
        filled = disk_nonlocal.steady.W.values
        vals = _bilinear(grid.coords, filled, -1.0)(points)
        in_box = np.all((lo <= points) & (points <= hi), axis=1)
        assert np.all(vals[~in_box] == -1.0)
        assert np.all(vals[in_box] > 0.0)
        assert vals[-6] == filled[-1, -1]

    def test_read_only_phi(self, disk_grid, points):
        # scipy takes its generic path for read-only values, which groups the
        # weight products differently: measured at most 3 ulps of the largest
        # corner value
        grid = disk_grid
        assert not grid.phi.flags.writeable
        ours = _bilinear(grid.coords, grid.phi, 1.0)(points)
        ref = self.scipy_interp(grid, grid.phi, 1.0)(points)
        cell = np.searchsorted(grid.coords, points, side="right") - 1
        i, j = np.clip(cell, 0, grid.coords.size - 2).T
        corners = np.stack(
            [grid.phi[i, j], grid.phi[i + 1, j], grid.phi[i, j + 1], grid.phi[i + 1, j + 1]]
        )
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.max(np.abs(corners), axis=0)))

    def test_single_point(self, disk_grid, disk_nonlocal):
        grid = disk_grid
        W = disk_nonlocal.steady.W
        interp = _bilinear(grid.coords, W.values, PAR.b)
        ref = self.scipy_interp(grid, W.values.copy(), PAR.b)
        for point in (np.array([0.31, -0.47]), np.array([grid.coords[-1], grid.coords[-1]])):
            value = interp(point)
            assert value.shape == (1,)
            assert np.array_equal(value, ref(point))


class TestThicknessReport:
    def test_matches_scalar_march(self):
        shape = Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        samples = boundary_samples(shape, 128)
        W = solve_nonlocal_2d(PAR, build_domain(shape, 0.02)).steady.W
        table = curvature_thickness_report(W, samples, 0.5, PAR)
        ref, outcomes = scalar_ray_march(W, samples, 0.5, PAR)
        assert "hit" in outcomes and "exit" in outcomes
        assert np.array_equal(table, ref)

    def test_disk_thickness_uniform(self, disk_samples, disk_nonlocal, radial_reference):
        table = curvature_thickness_report(disk_nonlocal.steady.W, disk_samples, 0.5, PAR)
        assert len(table) == len(disk_samples)
        cv = np.std(table[:, 2]) / np.mean(table[:, 2])
        assert cv <= 0.05
        # cross-check against the radial level-set depth
        from klayer.asymptotics import measure_thickness

        t_rad = measure_thickness(radial_reference.steady.W, 0.5)
        assert np.mean(table[:, 2]) == pytest.approx(t_rad, rel=0.1)

    def test_unreachable_level_skips_all(self, disk_samples, disk_nonlocal):
        w_min = float(np.min(disk_nonlocal.steady.W.values))
        table = curvature_thickness_report(
            disk_nonlocal.steady.W, disk_samples, 0.5 * w_min, PAR
        )
        assert table.shape == (0, 3)

    def test_level_validation(self, disk_samples, disk_nonlocal):
        with pytest.raises(ValueError):
            curvature_thickness_report(disk_nonlocal.steady.W, disk_samples, 2.0, PAR)

    def test_first_step_crossing_matches_scalar_march(self, disk_samples, disk_nonlocal):
        # a level just below b is crossed between the boundary, holding b,
        # and the first step of the march
        W = disk_nonlocal.steady.W
        table = curvature_thickness_report(W, disk_samples, 0.999 * PAR.b, PAR)
        ref, outcomes = scalar_ray_march(W, disk_samples, 0.999 * PAR.b, PAR)
        assert outcomes == ["hit"] * len(disk_samples)
        assert np.all(table[:, 2] < planar2d.MARCH_STEP * W.grid.h)
        assert np.array_equal(table, ref)
