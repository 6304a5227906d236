from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu

from klayer import planar2d
from klayer.core import NEWTON_TOL, STEP_TOL, Field, Params, make_graded_grid, newton
from klayer.core import unit_sphere_area
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import solve_nonlocal
from klayer.planar2d import (
    Disk,
    Ellipse,
    MaskedGrid,
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
    ball_system,
    barrier_lower,
    lambda_leading,
    layer_profile,
    layer_width,
)

from constraint_oracle import GridLocalSolves, constraint_value, illinois
from traced_peak import traced_peak
from uniqueness_probe import local_newton_from

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

    def test_each_solve_assembles_once(self, monkeypatch):
        # the grid keeps no operator: each call assembles it anew, and each
        # solve makes one call, from its _mirror_fold, for the rows of the
        # fold's representatives only, never the full operator
        grid = build_domain(Disk(1.0), 0.05)
        assert grid.operator()[0] is not grid.operator()[0]
        reps = planar2d._mirror_fold(grid)[0]
        assert reps.size < grid.quad.size
        assembled = []
        assemble = MaskedGrid.operator

        def recording(g, rows=None):
            assembled.append((g, rows))
            return assemble(g, rows)

        monkeypatch.setattr(MaskedGrid, "operator", recording)
        solve_local_2d(0.01, PAR, grid)
        solve_nonlocal_2d(PAR, grid)
        assert len(assembled) == 2
        for g, rows in assembled:
            assert g is grid
            assert rows is not None and np.array_equal(rows, reps)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", [(5, 5), (0, 0)])
    def test_phi_must_be_finite(self, node, bad):
        # a NaN node was silently outside (NaN < 0 is False) and area() nan
        phi = np.ones((11, 11))
        phi[4, 4] = -0.1
        phi[node] = bad
        with pytest.raises(ValueError, match="phi must be finite"):
            MaskedGrid(h=0.2, phi=phi)

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
            Field(grid=grid, values=values)


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
        # Newton iterates with, quad folded over the mirror orbits, applied
        # to the W it returns (at h = 0.03 a sum over the padded square's
        # node weights misses by 1 ulp on all three shapes)
        grid = build_domain(shape, h)
        st = solve_nonlocal_2d(PAR, grid)
        reps, _, (_, _, quad, held_area) = planar2d._mirror_fold(grid)
        w = st.W.values[grid.inside][reps]
        integral = float(quad @ w**PAR.p) + held_area * PAR.b**PAR.p
        assert st.integral == integral
        assert st.amplitude == PAR.m / integral
        assert st.lambda_eps == integral / PAR.m


class TestLocal2D:
    def test_matches_radial_at_fixed_sigma(self, disk_grid, radial_reference):
        grid = disk_grid
        sigma = radial_reference.sigma
        W = solve_local_2d(sigma, PAR, grid)
        iy0 = int(np.argmin(np.abs(grid.coords)))
        xs = grid.coords[(grid.coords >= 0) & (grid.coords <= 1.0)]
        ix = np.searchsorted(grid.coords, xs)
        prof2 = W.values[ix, iy0]
        W1 = radial_reference.W
        prof1 = np.interp(xs, W1.grid.nodes, W1.values)
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
        # core.newton on the product's folded system from the constant
        # supersolution b and from near zero meets the solve's own W
        grid = disk_grid
        sigma = radial_reference.sigma
        W_lower = solve_local_2d(sigma, PAR, grid)
        b_start = np.full(grid.quad.size, PAR.b)
        for start in (b_start, 1e-3 * b_start):
            W = local_newton_from(start, sigma, PAR, grid)
            diff = np.max(np.abs(W.values - W_lower.values))
            assert diff <= 10 * 1e-10

    @pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
    def test_probe_from_the_layer_profile_is_the_solve(self, shape):
        # the probe's helper runs the system the solve runs: started where
        # the solve starts, it gives the solve's bits
        grid = build_domain(shape, 0.05)
        sigma = 0.01
        start = layer_profile(-grid.phi[grid.inside], sigma, PAR)
        W = local_newton_from(start, sigma, PAR, grid)
        assert np.array_equal(W.values, solve_local_2d(sigma, PAR, grid).values)

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
        st = disk_nonlocal
        grid = st.W.grid
        u = st.U.values
        total = np.sum(grid.quad * u[grid.inside]) + grid.held_area * st.amplitude * PAR.b**PAR.p
        assert total == pytest.approx(PAR.m, rel=1e-6)

    def test_lambda_matches_radial(self, disk_nonlocal, radial_reference):
        lam2 = disk_nonlocal.lambda_eps
        lam1 = radial_reference.lambda_eps
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
                st = solve_nonlocal_2d(par, grid)
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
            st = solve_nonlocal_2d(par, grid)
            st_ref, _ = illinois(par, GridLocalSolves(grid), tol_rel=1e-11)
            assert st.lambda_eps == pytest.approx(st_ref.lambda_eps, rel=2e-10)
            assert np.max(np.abs(st.W.values - st_ref.W.values)) <= 2e-10 * par.b
            assert np.all(st.W.values[~grid.inside] == par.b)
            assert np.all(st.U.values[~grid.inside] == st.amplitude * par.b**par.p)
            assert st.constraint_residual <= 1e-15

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
        ball = planar2d.solve_nonlocal

        def ball_solve(params, R, *args):
            balls.append((params.n, R))
            return ball(params, R, *args)

        def counting(*args):
            w, integral, steps = newton(*args)
            newtons.append(steps)
            return w, integral, steps

        monkeypatch.setattr(planar2d, "solve_nonlocal", ball_solve)
        monkeypatch.setattr(planar2d, "newton", counting)
        res = solve_nonlocal_2d(Params(epsilon=0.05, p=2, b=1, m=1, n=3), grid)
        assert balls == [(2, np.sqrt(grid.area() / np.pi))]
        assert len(newtons) == 1 and res.bisection_iters == newtons[0]

    def test_ignores_dimension_parameter(self, disk_grid, disk_nonlocal):
        # the 2D solver and its disk seed are planar whatever params.n says
        grid = disk_grid
        par3 = Params(epsilon=0.05, p=2, b=1, m=1, n=3)
        res = solve_nonlocal_2d(par3, grid)
        assert res.lambda_eps == disk_nonlocal.lambda_eps

    def test_mass_halving_raises_lambda_eps(self, disk_grid):
        # lambda_eps carries a 1/m^2 amplitude times the m-normalisation
        grid = disk_grid
        par_half = Params(epsilon=0.05, p=2, b=1, m=0.5, n=2)
        lam_half = solve_nonlocal_2d(par_half, grid).lambda_eps
        lam_full = solve_nonlocal_2d(PAR, grid).lambda_eps
        assert lam_half > 1.4 * lam_full

    def test_mask_refinement_moves_lambda_first_order(self):
        lams = {}
        for h in (0.04, 0.02):
            grid = build_domain(Disk(1.0), h)
            lams[h] = solve_nonlocal_2d(PAR, grid).lambda_eps
        rel_change = abs(lams[0.04] - lams[0.02]) / lams[0.02]
        assert rel_change < 10 * 0.04  # O(h) cut-cell boundary


class TestStopRule:
    """A converged 2D solve meets both parts of core.newton's one stop rule
    on the system it solved, the mirror-folded one: the Jacobi-scaled
    residual is below STEP_TOL b, and every |F_i| is below NEWTON_TOL
    min(1, b^(1+p)) or its rounding floor 8 eps_mach |L_ii| b sigma.  The
    scaled part alone stopped the disk at h 0.01 one step short, with a
    residual 7 times the absolute bound and W 3.8e-13 b away."""

    @pytest.mark.parametrize("shape, h", [(SHAPES[0], 0.01), (SHAPES[1], 0.02)],
                             ids=SHAPE_IDS[:2])
    def test_converged_solve_meets_both_parts(self, shape, h):
        grid = build_domain(shape, h)
        st = solve_nonlocal_2d(PAR, grid)
        reps, _, (L, bvec, quad, held_area) = planar2d._mirror_fold(grid)
        p, b = PAR.p, PAR.b
        w = st.W.values[grid.inside][reps]
        wp = w**p
        sigma = PAR.epsilon * (float(quad @ wp) + held_area * b**p) / PAR.m
        F = sigma * (L @ w + bvec * b) - wp * w
        diag = L.diagonal()
        assert np.max(np.abs(F) / np.abs(sigma * diag - (1.0 + p) * wp)) < STEP_TOL * b
        floor = 8.0 * np.finfo(float).eps * np.abs(diag) * b * sigma
        assert np.all(np.abs(F) < np.maximum(NEWTON_TOL * min(1.0, b ** (1.0 + p)), floor))


SYMMETRIC_SHAPES = SHAPES + [Star(1.0, 0.15, 4)]
SYMMETRIC_IDS = SHAPE_IDS + ["star-k4"]


class TestMirrors:
    """Each shape declares the flips of phi (axis 0: x -> -x, axis 1:
    y -> -y) that map it onto itself, and build_domain makes phi exactly
    symmetric under them."""

    @pytest.mark.parametrize("shape", SYMMETRIC_SHAPES, ids=SYMMETRIC_IDS)
    def test_declared_mirrors_are_the_shape_symmetries(self, shape):
        rng = np.random.default_rng(3)
        extent = shape.extent()
        x, y = rng.uniform(-1.2 * extent, 1.2 * extent, size=(2, 20000))
        t = rng.uniform(0.0, 2.0 * np.pi, 2000)
        cx, cy = shape.curve(t)
        inside = shape.inside(x, y)
        for axis, image, t_image in ((0, (-x, y), np.pi - t), (1, (x, -y), -t)):
            same = inside == shape.inside(*image)
            if axis in shape.mirrors():
                assert np.all(same)
                # the image of curve(t) is curve(pi - t) or curve(-t)
                mx, my = (-cx, cy) if axis == 0 else (cx, -cy)
                ix, iy = shape.curve(t_image)
                np.testing.assert_allclose(ix, mx, rtol=0, atol=1e-15 * extent)
                np.testing.assert_allclose(iy, my, rtol=0, atol=1e-15 * extent)
            else:
                # only the odd star lacks a declared mirror, and it is not one
                assert isinstance(shape, Star) and shape.k % 2 == 1 and axis == 0
                assert not np.all(same)

    @pytest.mark.parametrize("shape", SYMMETRIC_SHAPES, ids=SYMMETRIC_IDS)
    def test_built_phi_equals_its_flip(self, shape):
        phi = build_domain(shape, 0.03).phi
        for axis in shape.mirrors():
            assert np.array_equal(np.flip(phi, axis), phi)


def full_system_newton(params, grid, sigma=None):
    """The oracle for the mirror fold: core.newton on the full, unfolded
    operator of the grid, from the start the solve functions take (the
    equal-area disk seed for the nonlocal problem, the layer profile at a
    given sigma)."""
    if sigma is None:
        R_eq = np.sqrt(grid.area() / np.pi)
        W = solve_nonlocal(replace(params, n=2), R_eq).W
        start = np.interp(R_eq + grid.phi[grid.inside], W.grid.nodes, W.values)
    else:
        start = layer_profile(-grid.phi[grid.inside], sigma, params)
    system = planar2d._cut_cell_system(*grid.operator(), grid.quad, grid.held_area)
    return newton(start, sigma, params, system)


def off_centre_disk_grid():
    """A disk off the grid's centre: no flip leaves its phi as it is."""
    h = 0.05
    coords = planar2d._grid_coords(49, h)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    return MaskedGrid(h, np.hypot(X - 0.13, Y + 0.07) - 0.9)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMirrorFold:
    """The 2D Newton runs on one node per mirror orbit (_mirror_fold)."""

    FOLD_SHAPES = [Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0)), Disk(1.0),
                   Star(1.0, 0.15, 5), Star(1.0, 0.15, 4)]
    FOLD_IDS = ["ellipse", "disk", "star-k5", "star-k4"]

    @pytest.mark.parametrize("h", [0.05, 0.02])
    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=FOLD_IDS)
    def test_folded_operator_meets_the_newton_precondition(self, shape, h):
        grid = build_domain(shape, h)
        reps, orbit, (L, bvec, quad, held_area) = planar2d._mirror_fold(grid)
        mirrors = len(shape.mirrors())
        # each orbit holds at most 2^mirrors nodes, and its representative
        assert reps.size >= grid.quad.size / 2**mirrors
        assert np.array_equal(orbit[reps], np.arange(reps.size))
        assert np.all(reps[orbit] <= np.arange(orbit.size))
        diag = L.diagonal()
        off = L - sparse.diags(diag)
        assert np.all(diag < 0)
        assert off.min() >= 0
        # non-positive row sums, to rounding: where the arm of a neighbouring
        # mirror image moves onto the diagonal, -3/h^2 and three arms of
        # 1/h^2 cancel to 1.4e-16 |L_ii| (measured, the ellipse at h = 0.05)
        assert np.max(np.asarray(L.sum(axis=1)).ravel() / np.abs(diag)) <= 1e-15
        pattern = (L != 0).astype(np.int8)
        assert (pattern != pattern.T).nnz == 0
        assert np.array_equal(bvec, grid.operator()[1][reps])
        assert quad.sum() == pytest.approx(grid.quad.sum(), rel=1e-14)
        assert held_area == grid.held_area

    @staticmethod
    def assert_fold_of_the_full_operator(grid):
        # the oracle: the full operator's rows at reps, selected as csr,
        # and their columns summed over the orbits, L[reps] E
        reps, orbit, (L, bvec, _, _) = planar2d._mirror_fold(grid)
        full_L, full_bvec = grid.operator()
        rows_L, rows_bvec = grid.operator(reps)
        selected = full_L.tocsr()[reps]
        assert rows_L.format == "csr" and rows_L.shape == (reps.size, grid.quad.size)
        for a, b in ((rows_L.indptr, selected.indptr), (rows_L.indices, selected.indices),
                     (rows_L.data, selected.data), (rows_bvec, full_bvec[reps]),
                     (bvec, full_bvec[reps])):
            assert_same_bits(a, b)
        E = sparse.csc_matrix((np.ones(orbit.size), (np.arange(orbit.size), orbit)),
                              shape=(orbit.size, reps.size))
        folded = sparse.csc_matrix(selected @ E)
        for a, b in ((L.indptr, folded.indptr), (L.indices, folded.indices),
                     (L.data, folded.data)):
            assert_same_bits(a, b)

    @pytest.mark.parametrize("h", [0.05, 0.02])
    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=FOLD_IDS)
    def test_rows_at_the_representatives_fold_as_the_full_operator(self, shape, h):
        self.assert_fold_of_the_full_operator(build_domain(shape, h))

    def test_rows_of_an_unfolded_grid_are_the_full_operator(self):
        self.assert_fold_of_the_full_operator(off_centre_disk_grid())

    def test_fold_holds_less_than_half_the_full_operator(self):
        # the README ellipse at h = 0.01: measured 4.8 MB for the fold
        # against 13.0 MB for the full operator
        grid = build_domain(Ellipse(1.4142, 0.7071), 0.01)
        assert traced_peak(planar2d._mirror_fold, grid) <= traced_peak(grid.operator) / 2

    @pytest.mark.parametrize("shape", FOLD_SHAPES, ids=FOLD_IDS)
    def test_matches_the_full_system(self, shape, monkeypatch):
        # measured at most 1.8e-15 b in W and 2.5e-15 in lambda_eps, far
        # below the Newton's own stop error; the step counts match
        grid = build_domain(shape, 0.02)
        st = solve_nonlocal_2d(PAR, grid)
        w_ref, _, steps_ref = full_system_newton(PAR, grid)
        assert st.bisection_iters == steps_ref
        assert np.max(np.abs(st.W.values[grid.inside] - w_ref)) <= 1e-14 * PAR.b
        integral = float(np.sum(grid.quad * w_ref**PAR.p)) + grid.held_area * PAR.b**PAR.p
        assert st.lambda_eps == pytest.approx(integral / PAR.m, rel=1e-14)

        # the local problem at the solution's sigma, cold from the layer
        # profile.  On a grid of even size a node whose mirror is its
        # neighbour folds that arm onto the diagonal, so its scaled residual
        # is read against a smaller |L_ii| and the folded stop is never the
        # looser one: it may take one step more, and then the oracle is the
        # less converged of the two (measured 2.9e-11 b apart on the star
        # k = 4, in 15 against 14 steps)
        steps = []

        def counting(*args):
            w, integral, k = newton(*args)
            steps.append(k)
            return w, integral, k

        monkeypatch.setattr(planar2d, "newton", counting)
        W = solve_local_2d(st.sigma, PAR, grid)
        monkeypatch.undo()
        w_ref, _, steps_ref = full_system_newton(PAR, grid, st.sigma)
        reps, _, (L, *_) = planar2d._mirror_fold(grid)
        extra = steps[0] - steps_ref
        if np.array_equal(L.diagonal(), grid.operator()[0].diagonal()[reps]):
            assert extra == 0
        assert extra in (0, 1)
        bound = 1e-14 if extra == 0 else 1e-10
        assert np.max(np.abs(W.values[grid.inside] - w_ref)) <= bound * PAR.b

    def test_asymmetric_grid_is_not_folded(self):
        # each node of the off-centre disk is its own orbit, and the solves
        # give the full system's bits
        grid = off_centre_disk_grid()
        count = grid.quad.size
        reps, orbit, (L, bvec, quad, held_area) = planar2d._mirror_fold(grid)
        assert np.array_equal(reps, np.arange(count))
        assert np.array_equal(orbit, np.arange(count))
        full_L, full_bvec = grid.operator()
        for a, b in ((L.indptr, full_L.indptr), (L.indices, full_L.indices),
                     (L.data, full_L.data), (bvec, full_bvec), (quad, grid.quad)):
            assert np.array_equal(a, b)
        res = solve_nonlocal_2d(PAR, grid)
        w_ref, _, steps_ref = full_system_newton(PAR, grid)
        assert res.bisection_iters == steps_ref
        assert np.array_equal(res.W.values[grid.inside], w_ref)
        W = solve_local_2d(res.sigma, PAR, grid)
        w_ref, _, _ = full_system_newton(PAR, grid, res.sigma)
        assert np.array_equal(W.values[grid.inside], w_ref)


def ball_lu_system(grid, quad):
    """ball_system with its Jacobian factorised by the 2D solve's sparse LU
    (the factor of planar2d._cut_cell_system, reused as a chord) in place
    of gtsv on every step."""
    system = ball_system(grid, quad)
    g = grid.conductances
    L = sparse.diags([np.r_[g[:-1], 0.0], system.diagonal, g], [-1, 0, 1], format="csc")
    return system._replace(factor=planar2d._cut_cell_system(L, None, None, None).factor)


class TestNewtonOnBallOperator:
    """core.newton on the ball's operator with the sparse LU of the 2D
    solves against the tridiagonal solve of the ball's: the chord and full
    Newton stop on the same rule.  Measured worst gaps 4.7e-11 b (nonlocal)
    and 1.1e-10 b (local), in 3-18 chord and 2-5 full steps."""

    @pytest.mark.parametrize("b, m", [(1.0, 1.0), (1.5, 2.0)])
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01])
    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_radial_newton(self, n, p, eps, b, m):
        par = Params(epsilon=eps, p=p, b=b, m=m, n=n)
        sigma0 = eps**2 * lambda_leading(par, 1.0)
        ell = layer_width(sigma0, par)
        grid = make_graded_grid(1, n, min(max(ell, 1e-3), 10 / 127), 128)
        quad = unit_sphere_area(n) * grid.volumes
        start = barrier_lower(grid.nodes, sigma0, par, grid.R)
        for sigma in (None, sigma0):
            w, _, _ = newton(start, sigma, par, ball_lu_system(grid, quad))
            ref, _, _ = newton(start, sigma, par, ball_system(grid, quad))
            assert np.max(np.abs(w - ref)) <= 3e-10 * b


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
        system = planar2d._cut_cell_system(*grid.operator(), grid.quad, grid.held_area)
        w, _, steps = newton(start, None, PAR, system)
        widths = []
        monkeypatch.setattr(
            planar2d, "splu", lambda *a, **kw: ColumnByColumn(splu(*a, **kw), widths)
        )
        w_ref, _, steps_ref = newton(start, None, PAR, system)
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
        W = disk_nonlocal.W
        values, fill = (
            (W.values.copy(), PAR.b) if filled
            else (np.where(grid.inside, W.values, np.nan), np.nan)
        )
        ours = _bilinear(grid.coords, points)(values, fill)
        ref = self.scipy_interp(grid, values, fill)(points)
        assert np.array_equal(ours, ref, equal_nan=True)
        if not filled:
            assert np.isnan(ours).any() and np.isfinite(ours).any()

    def test_one_search_serves_several_values(self, disk_grid, disk_nonlocal, points):
        # the probe interpolates W and phi through one cell search: each
        # values array still matches scipy bit for bit, whatever came before
        grid = disk_grid
        interpolate = _bilinear(grid.coords, points)
        W = disk_nonlocal.W.values.copy()
        phi = grid.phi.copy()
        for values, fill in ((W, PAR.b), (phi, 1.0), (W, PAR.b)):
            ref = self.scipy_interp(grid, values, fill)(points)
            assert np.array_equal(interpolate(values, fill), ref)

    def test_fills_outside_closed_box_only(self, disk_grid, disk_nonlocal, points):
        grid = disk_grid
        lo, hi = grid.coords[0], grid.coords[-1]
        filled = disk_nonlocal.W.values
        vals = _bilinear(grid.coords, points)(filled, -1.0)
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
        ours = _bilinear(grid.coords, points)(grid.phi, 1.0)
        ref = self.scipy_interp(grid, grid.phi, 1.0)(points)
        cell = np.searchsorted(grid.coords, points, side="right") - 1
        i, j = np.clip(cell, 0, grid.coords.size - 2).T
        corners = np.stack(
            [grid.phi[i, j], grid.phi[i + 1, j], grid.phi[i, j + 1], grid.phi[i + 1, j + 1]]
        )
        assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.max(np.abs(corners), axis=0)))

    def test_single_point(self, disk_grid, disk_nonlocal):
        grid = disk_grid
        W = disk_nonlocal.W
        ref = self.scipy_interp(grid, W.values.copy(), PAR.b)
        for point in (np.array([0.31, -0.47]), np.array([grid.coords[-1], grid.coords[-1]])):
            value = _bilinear(grid.coords, point)(W.values, PAR.b)
            assert value.shape == (1,)
            assert np.array_equal(value, ref(point))


class TestThicknessReport:
    @pytest.fixture(scope="class")
    def ellipse_W(self):
        shape = Ellipse(np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        return shape, solve_nonlocal_2d(PAR, build_domain(shape, 0.02)).W

    def test_matches_scalar_march(self, ellipse_W):
        shape, W = ellipse_W
        samples = boundary_samples(shape, 128)
        table = curvature_thickness_report(W, samples, 0.5, PAR)
        ref, outcomes = scalar_ray_march(W, samples, 0.5, PAR)
        assert "hit" in outcomes and "exit" in outcomes
        assert np.array_equal(table, ref)

    def test_disk_thickness_uniform(self, disk_samples, disk_nonlocal, radial_reference):
        table = curvature_thickness_report(disk_nonlocal.W, disk_samples, 0.5, PAR)
        assert len(table) == len(disk_samples)
        cv = np.std(table[:, 2]) / np.mean(table[:, 2])
        assert cv <= 0.05
        # cross-check against the radial level-set depth
        from klayer.asymptotics import measure_thickness

        t_rad = measure_thickness(radial_reference.W, 0.5)
        assert np.mean(table[:, 2]) == pytest.approx(t_rad, rel=0.1)

    def test_unreachable_level_skips_all(self, disk_samples, disk_nonlocal):
        w_min = float(np.min(disk_nonlocal.W.values))
        table = curvature_thickness_report(
            disk_nonlocal.W, disk_samples, 0.5 * w_min, PAR
        )
        assert table.shape == (0, 3)

    def test_level_validation(self, disk_samples, disk_nonlocal):
        with pytest.raises(ValueError):
            curvature_thickness_report(disk_nonlocal.W, disk_samples, 2.0, PAR)

    def test_first_step_crossing_matches_scalar_march(self, disk_samples, disk_nonlocal):
        # a level just below b is crossed between the boundary, holding b,
        # and the first step of the march
        W = disk_nonlocal.W
        table = curvature_thickness_report(W, disk_samples, 0.999 * PAR.b, PAR)
        ref, outcomes = scalar_ray_march(W, disk_samples, 0.999 * PAR.b, PAR)
        assert outcomes == ["hit"] * len(disk_samples)
        assert np.all(table[:, 2] < planar2d.MARCH_STEP * W.grid.h)
        assert np.array_equal(table, ref)

    def test_blocked_march_level_never_reached(self, ellipse_W):
        # no ray stops below the level: each runs to the march limit, through
        # every block and the last, partial one, or leaves the domain
        shape, W = ellipse_W
        samples = boundary_samples(shape, 32)
        c = 0.5 * float(np.min(W.values))
        table = curvature_thickness_report(W, samples, c, PAR)
        ref, outcomes = scalar_ray_march(W, samples, c, PAR)
        assert set(outcomes) == {"end", "exit"}
        assert table.shape == (0, 3)
        assert np.array_equal(table, ref)

    @pytest.mark.parametrize("offset", [-1, 0], ids=["last_of_block", "first_of_next"])
    def test_blocked_march_stop_at_block_edge(self, ellipse_W, offset):
        # a level whose first stop, on some ray, falls on the last step of a
        # block, or on the first step of the next, whose step before lies in
        # the previous block; found by search over the rays and block edges
        shape, W = ellipse_W
        samples = boundary_samples(shape, 32)
        grid = W.grid
        ds = planar2d.MARCH_STEP * grid.h
        steps = np.arange(1, 200) * ds
        interp_w = RegularGridInterpolator(
            (grid.coords, grid.coords), W.values.copy(), bounds_error=False, fill_value=PAR.b
        )
        found = None
        for k in range(len(samples)):
            ray = samples.point[k] + steps[:, None] * samples.inward_normal[k]
            val = interp_w(ray)
            for j in range(planar2d.MARCH_BLOCK + offset, steps.size, planar2d.MARCH_BLOCK):
                c = 0.5 * (val[j - 1] + val[j])
                if np.all(val[:j] > c) and val[j] < c:
                    found = k, j, c
                    break
            if found:
                break
        assert found is not None
        k, j, c = found
        table = curvature_thickness_report(W, samples, c, PAR)
        ref, outcomes = scalar_ray_march(W, samples, c, PAR)
        assert outcomes[k] == "hit"
        (row,) = np.flatnonzero(ref[:, 0] == samples.arclength[k])
        # the crossing lies between steps[j - 1] = j ds and steps[j] = (j + 1) ds
        assert j * ds - 1e-12 < ref[row, 2] <= (j + 1) * ds + 1e-12
        assert np.array_equal(table, ref)
