import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from klayer import core
from klayer.asymptotics import ExpansionReport
from klayer.cli import RunConfig, _evolve_grid, main
from klayer.core import (
    Field,
    Params,
    RadialGrid,
    SteadyState,
    ball_volume,
    interpolate_monotone,
    make_graded_grid,
    radial_cumulative,
    radial_weights,
    refine_grid,
    _geometric_ratio,
    unit_sphere_area,
)
from klayer.errors import NoCrossingError
from klayer.evolve_radial import DiscreteSteady, EvolutionSeries
from klayer.planar2d import Disk, MaskedGrid, boundary_samples, build_domain

from grid_contract import BallField, contract_errors, radial_system


def uniform_grid(R, n, count):
    return make_graded_grid(R, n, 10.0 * R / (count - 1), count)


class TestParams:
    def test_valid(self):
        p = Params(epsilon=0.01, p=2, b=1, m=1, n=2)
        assert p.n == 2

    @pytest.mark.parametrize(
        "kw",
        [
            dict(epsilon=0.0),
            dict(epsilon=-1.0),
            dict(p=0.0),
            dict(b=-2.0),
            dict(m=0.0),
            dict(n=0),
            dict(n=1.5),
        ],
    )
    def test_invalid(self, kw):
        base = dict(epsilon=0.01, p=2, b=1, m=1, n=2)
        base.update(kw)
        with pytest.raises(ValueError):
            Params(**base)


def test_unit_sphere_area():
    assert unit_sphere_area(1) == pytest.approx(2.0, abs=1e-14)
    assert unit_sphere_area(2) == pytest.approx(2 * np.pi, abs=1e-14)
    assert unit_sphere_area(3) == pytest.approx(4 * np.pi, abs=1e-13)
    assert ball_volume(1.0, 3) == pytest.approx(4 * np.pi / 3, rel=1e-14)


class TestGradedGrid:
    def test_boundary_spacing_rule(self):
        g = make_graded_grid(1.0, 2, 0.1, 64)
        assert g.nodes[-1] - g.nodes[-2] == pytest.approx(0.01, abs=1e-15)

    def test_last_interval_example(self):
        g = make_graded_grid(2.0, 3, 0.02, 400)
        assert abs((g.nodes[-1] - g.nodes[-2]) - 0.002) <= 1e-12

    def test_layer_width_too_large(self):
        with pytest.raises(ValueError):
            make_graded_grid(1.0, 1, 1.1, 64)

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            make_graded_grid(1.0, 1, 0.1, 15)

    def test_collapsing_interior_rejected(self):
        # boundary spacing times the interval count far exceeds R
        with pytest.raises(ValueError):
            make_graded_grid(1.0, 2, 0.5, 400)

    def test_endpoints_and_monotonicity(self):
        g = make_graded_grid(3.0, 1, 0.05, 200)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == 3.0
        assert np.all(np.diff(g.nodes) > 0)

    def test_spacing_grows_inward(self):
        g = make_graded_grid(1.0, 2, 0.01, 100)
        h = np.diff(g.nodes)
        assert np.all(np.diff(h) < 0)  # spacings decrease toward R

    @settings(max_examples=40, deadline=None)
    @given(
        R=st.floats(0.5, 50.0),
        frac=st.floats(0.01, 0.4),
        count=st.integers(16, 800),
    )
    def test_spacing_rule_property(self, R, frac, count):
        layer = frac * R
        if (layer / 10.0) * (count - 1) > 0.9 * R:
            return  # grid would need shrinking spacings; rejected by design
        g = make_graded_grid(R, 2, layer, count)
        assert g.nodes[-1] - g.nodes[-2] == pytest.approx(layer / 10.0, rel=1e-12)
        assert np.all(np.diff(g.nodes) > 0)

    def test_refine_is_nested(self):
        g = make_graded_grid(1.0, 2, 0.1, 32)
        g2 = refine_grid(g)
        assert g2.count == 2 * g.count - 1
        assert np.array_equal(g2.nodes[::2], g.nodes)


def brentq_ratio(total, h0, k):
    """The graded-grid ratio by scipy's brentq on the same bracket: the oracle
    for the bisection in _geometric_ratio."""
    target = total / h0

    def gap(q):
        with np.errstate(over="ignore"):
            return np.expm1(k * np.log1p(q - 1.0)) / (q - 1.0) - target

    if target > k:
        lo, hi = 1.0 + 1e-14, 2.0
        while gap(hi) < 0:
            hi *= 2.0
    else:
        lo, hi = 1e-8, 1.0 - 1e-14
    return brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def geometric_gap(q, total, h0, k):
    """(q^k - 1) / (q - 1) - total / h0, evaluated near the root."""
    return math.expm1(k * math.log1p(q - 1.0)) / (q - 1.0) - total / h0


def assert_root_between_neighbours(q, total, h0, k):
    # the bisection leaves q next to the sign change of the gap
    g = geometric_gap(q, total, h0, k)
    g_down = geometric_gap(np.nextafter(q, -np.inf), total, h0, k)
    g_up = geometric_gap(np.nextafter(q, np.inf), total, h0, k)
    assert g == 0 or g_down * g < 0 or g * g_up < 0


# ratios below 1: boundary spacings wider than the uniform one
BELOW_K = [(1.0, 1.0 / k * f, k) for k in (15, 99, 399, 2499) for f in (1.001, 1.05, 1.5, 1.9)]


@pytest.fixture(scope="module")
def cli_ratio_inputs(tmp_path_factory):
    """Every (total, h0, k) the ratio receives in the benchmark's README-sized
    sweep (eps 0.004, 0.002, 0.001 by p 1-8) and in evolve's grids."""
    calls = []
    real = core._geometric_ratio

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_geometric_ratio", spy)
        out = tmp_path_factory.mktemp("sweep")
        rc = main(
            ["sweep", "--eps", "0.004", "--p", "2", "--b", "1", "--m", "1", "--n", "2",
             "--R", "1", "--eps-list", "0.004 0.002 0.001", "--p-list", "1 1.5 2 3 4 5 6 8",
             "--out", str(out)]
        )
        assert rc == 0
        for eps in (0.2, 0.05, 0.01, 0.001):
            for count in (64, 128, 512):
                params = Params(epsilon=eps, p=2, b=1, m=1, n=2)
                _evolve_grid(RunConfig(command="evolve", params=params, grid_count=count))
    return calls


class TestGeometricRatio:
    def test_matches_brentq_on_cli_grids(self, cli_ratio_inputs):
        graded = [c for c in cli_ratio_inputs if _geometric_ratio(*c) != 1.0]
        assert len(graded) >= 40
        for total, h0, k in graded:
            q = _geometric_ratio(total, h0, k)
            assert abs(q - brentq_ratio(total, h0, k)) <= 4 * np.spacing(q)
            assert_root_between_neighbours(q, total, h0, k)

    @pytest.mark.parametrize("total,h0,k", BELOW_K)
    def test_matches_brentq_below_uniform(self, total, h0, k):
        q = _geometric_ratio(total, h0, k)
        assert q < 1.0
        assert abs(q - brentq_ratio(total, h0, k)) <= 4 * np.spacing(q)
        assert_root_between_neighbours(q, total, h0, k)

    def test_uniform_shortcut(self):
        for k in (15, 99, 2499):
            assert _geometric_ratio(1.0, 1.0 / k, k) == 1.0

    def test_root_below_bracket_end(self):
        # a boundary spacing 2e-12 below uniform puts the root under the
        # bracket's end 1 + 1e-14, where brentq raised ValueError: the ratio
        # stays at that end and the grid still closes
        k = 2499
        h0 = 1.0 / (k * (1.0 + 2e-12))
        assert geometric_gap(1.0 + 1e-14, 1.0, h0, k) > 0
        assert _geometric_ratio(1.0, h0, k) == 1.0 + 1e-14
        grid = make_graded_grid(1.0, 2, 10.0 * h0, k + 1)
        assert np.all(np.diff(grid.nodes) > 0)

    def test_overflowing_sum_gives_finite_ratio(self):
        # q = 2 overflows the geometric sum at this k; the bracket treats it as +inf
        k = 100_000
        with pytest.raises(OverflowError):
            geometric_gap(2.0, 1.0, 0.5 / k, k)
        q = _geometric_ratio(1.0, 0.5 / k, k)
        assert math.isfinite(q) and q > 1.0
        assert_root_between_neighbours(q, 1.0, 0.5 / k, k)


class TestRadialGridValidation:
    def test_bad_first_node(self):
        with pytest.raises(ValueError):
            RadialGrid(nodes=np.array([0.1, 0.5, 1.0]), n=2)

    def test_not_increasing(self):
        with pytest.raises(ValueError):
            RadialGrid(nodes=np.array([0.0, 0.5, 0.5, 1.0]), n=2)

    def test_profile_shape_and_finiteness(self):
        g = uniform_grid(1.0, 2, 16)
        with pytest.raises(ValueError):
            Field(grid=g, values=np.ones(5))
        bad = np.ones(16)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            Field(grid=g, values=bad)


def _planar_field():
    grid = build_domain(Disk(1.0), 0.2)
    return Field(grid=grid, values=np.ones(grid.shape))


# the frozen dataclasses with array fields, which compare and hash by identity
ARRAY_RECORDS = {
    "RadialGrid": lambda: uniform_grid(1.0, 2, 16),
    "Field(RadialGrid)": lambda: Field(uniform_grid(1.0, 2, 16), np.ones(16)),
    "DiscreteSteady": lambda: DiscreteSteady(
        uniform_grid(1.0, 2, 16), Params(epsilon=0.05, p=2, b=1, m=1, n=2),
        np.ones(16), np.zeros(16),
    ),
    "Field(MaskedGrid)": _planar_field,
    "BoundarySamples": lambda: boundary_samples(Disk(1.0), 4),
    "EvolutionSeries": lambda: EvolutionSeries(*[np.zeros(3)] * 7),
    "ExpansionReport": lambda: ExpansionReport(
        "lambda_eps", np.array([0.004, 0.002, 0.001]), np.ones(3), 1.0, 1.0, 0.0
    ),
}


@pytest.mark.parametrize("make", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_array_records_compare_by_identity(make):
    x = make()
    twin = copy.copy(x)  # the same field values
    assert x == x
    assert x != twin
    assert hash(x) == hash(x)
    # the records that hold them compare without raising
    constants = dict(amplitude=1.0, lambda_eps=1.0, sigma=1.0, bisection_iters=0,
                     constraint_residual=0.0)
    st = SteadyState(W=x, U=x, **constants)
    assert st == SteadyState(W=x, U=x, **constants)
    assert st != SteadyState(W=twin, U=twin, **constants)
    assert hash(st) == hash(st)


def _stored_arrays():
    """(the array a caller passed, the array the record stored) for every
    constructor that keeps an array."""
    nodes, values = np.linspace(0.0, 1.0, 16), np.ones(16)
    grid = RadialGrid(nodes=nodes, n=2)
    radial = Field(grid, values)
    coords = np.linspace(-1.0, 1.0, 11)
    phi = np.hypot(*np.meshgrid(coords, coords, indexing="ij")) - 0.5
    masked = MaskedGrid(h=0.2, phi=phi)
    field_values = np.ones(phi.shape)
    planar = Field(grid=masked, values=field_values)
    U, V = np.ones(16), np.zeros(16)
    steady = DiscreteSteady(grid, Params(epsilon=0.05, p=2, b=1, m=1, n=2), U, V)
    return {
        "RadialGrid.nodes": (nodes, grid.nodes),
        "Field(RadialGrid).values": (values, radial.values),
        "DiscreteSteady.U": (U, steady.U),
        "DiscreteSteady.V": (V, steady.V),
        "MaskedGrid.phi": (phi, masked.phi),
        "Field(MaskedGrid).values": (field_values, planar.values),
    }


@pytest.mark.parametrize("name", list(_stored_arrays()))
def test_constructors_store_read_only_copies(name):
    given, stored = _stored_arrays()[name]
    assert given.flags.writeable
    assert not stored.flags.writeable
    given.flat[0] += 1.0
    assert stored.flat[0] == given.flat[0] - 1.0


def cell_oracle(grid):
    """The node-centred cells written out: faces at the midpoints between
    nodes, 0 and R at the ends; volumes (f_(i+1)^n - f_i^n) / n and the
    conductances f^(n-1) / dr of the interior faces."""
    r, n = grid.nodes, grid.n
    faces = np.concatenate(([0.0], 0.5 * (r[:-1] + r[1:]), [grid.R]))
    volumes = (faces[1:] ** n - faces[:-1] ** n) / n
    conductances = faces[1:-1] ** (n - 1) / (r[1:] - r[:-1])
    return volumes, conductances


class TestFiniteVolumeCells:
    """RadialGrid carries the cells that radial_steady and evolve_radial
    discretise on."""

    @staticmethod
    def grids(n):
        graded = (make_graded_grid(1.0, n, 0.02, 300), make_graded_grid(2.5, n, 1e-3, 512))
        for grid in (*graded, uniform_grid(1.0, n, 64)):
            yield grid
            yield refine_grid(grid)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_match_the_oracle_bitwise(self, n):
        for grid in self.grids(n):
            volumes, conductances = cell_oracle(grid)
            assert grid.volumes.shape == (grid.count,)
            assert grid.conductances.shape == (grid.count - 1,)
            assert grid.volumes.tobytes() == volumes.tobytes()
            assert grid.conductances.tobytes() == conductances.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_volumes_sum_to_the_ball(self, n):
        # the face terms telescope to R^n / n; measured within 1 ulp
        for grid in self.grids(n):
            exact = grid.R**n / n
            assert abs(grid.volumes.sum() - exact) <= 4 * np.spacing(exact)

    def test_read_only(self):
        grid = make_graded_grid(1.0, 2, 0.02, 64)
        for arr in (grid.nodes, grid.volumes, grid.conductances):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_R_is_the_last_node(self):
        grid = make_graded_grid(1, 2, 0.02, 64)
        assert type(grid.R) is float
        assert grid.R == grid.nodes[-1] == 1.0

    def test_constructor_equality_and_repr_unchanged(self):
        grid = make_graded_grid(1.0, 2, 0.02, 64)
        same = RadialGrid(nodes=grid.nodes, n=grid.n)
        assert same.volumes is not grid.volumes
        assert "volumes" not in repr(grid) and "conductances" not in repr(grid)
        with pytest.raises(TypeError):
            RadialGrid(nodes=grid.nodes, n=grid.n, volumes=grid.volumes)


def nested_radial(n, levels=4):
    """A graded base grid of 32 nodes and its nested refinements."""
    grids = [make_graded_grid(1.0, n, 0.1, 32)]
    while len(grids) < levels:
        grids.append(refine_grid(grids[-1]))
    return grids


# one row per grid family: (its nested grids, its contract system, a
# manufactured field equal to b on its boundary)
CONTRACT_GRIDS = {
    f"RadialGrid-n{n}": (lambda n=n: nested_radial(n), radial_system, BallField(2.0, 1.0, n))
    for n in (1, 2, 3)
}


@pytest.mark.parametrize("family", CONTRACT_GRIDS)
def test_grid_contract_order_2(family):
    """The operator and the quadrature of each grid converge at order 2 under
    nested refinement, measured by grid_contract on a manufactured field.

    Measured on RadialGrid (base make_graded_grid(1, n, 0.1, 32), b = 2,
    u = b + (1 - r^2) e^(r^2), power 2), errors and their log2 ratios:

    | n | nodes | nodal error | order | quadrature error | order |
    | --- | --- | --- | --- | --- | --- |
    | 1 | 32 / 63 / 125 / 249 | 8.91e-4 / 2.23e-4 / 5.58e-5 / 1.39e-5 | 1.998, 2.000, 2.000 | 1.70e-4 / 4.25e-5 / 1.06e-5 / 2.66e-6 | 1.999, 2.000, 2.000 |
    | 2 | 32 / 63 / 125 / 249 | 5.46e-4 / 1.39e-4 / 3.48e-5 / 8.70e-6 | 1.980, 1.994, 1.998 | 3.51e-4 / 8.79e-5 / 2.20e-5 / 5.49e-6 | 1.999, 2.000, 2.000 |
    | 3 | 32 / 63 / 125 / 249 | 1.21e-3 / 3.06e-4 / 7.66e-5 / 1.92e-5 | 1.987, 1.996, 1.999 | 8.76e-4 / 2.19e-4 / 5.47e-5 / 1.37e-5 | 2.001, 2.000, 2.000 |

    The band [1.95, 2.05] holds every measured order.
    """
    grids, system_of, field = CONTRACT_GRIDS[family]
    errors = np.array([contract_errors(*system_of(grid), field) for grid in grids()])
    orders = np.log2(errors[:-1] / errors[1:])
    assert np.all((orders > 1.95) & (orders < 2.05)), orders


class TestIntegrateRadial:
    """Integrals over the ball as radial_weights(grid) @ values."""

    def test_disk_area(self):
        g = uniform_grid(1.0, 2, 400)
        assert radial_weights(g) @ np.ones(g.count) == pytest.approx(np.pi, abs=1e-6)

    def test_ball_volume(self):
        g = uniform_grid(1.0, 3, 2000)
        assert radial_weights(g) @ np.ones(g.count) == pytest.approx(4 * np.pi / 3, abs=1e-6)

    def test_symmetric_interval(self):
        # omega_1 = 2 counts both ends of [-R, R]
        g = uniform_grid(1.0, 1, 400)
        assert radial_weights(g) @ g.nodes == pytest.approx(1.0, abs=1e-10)

    def test_second_order_convergence(self):
        errs = []
        for count in (101, 201, 401):
            g = uniform_grid(1.0, 3, count)
            errs.append(abs(radial_weights(g) @ np.ones(g.count) - 4 * np.pi / 3))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 1.9 and order2 > 1.9


@pytest.mark.parametrize("family", CONTRACT_GRIDS)
def test_radial_cumulative_order_2(family):
    """radial_cumulative's max nodal error against the exact partial integral
    omega_n int_0^r_i s^(n-1) u^2 ds converges at order 2 under nested
    refinement, u being the family's manufactured field.

    Measured on the grids of test_grid_contract_order_2:

    | n | nodes | max nodal error | order |
    | --- | --- | --- | --- |
    | 1 | 32 / 63 / 125 / 249 | 2.75e-3 / 6.88e-4 / 1.72e-4 / 4.30e-5 | 1.9990, 1.9998, 1.9999 |
    | 2 | 32 / 63 / 125 / 249 | 8.24e-3 / 2.06e-3 / 5.16e-4 / 1.29e-4 | 1.9990, 1.9998, 1.9999 |
    | 3 | 32 / 63 / 125 / 249 | 3.37e-2 / 8.42e-3 / 2.11e-3 / 5.26e-4 | 2.0003, 1.9998, 2.0000 |

    The band [1.98, 2.02] holds every measured order.
    """
    grids, _, field = CONTRACT_GRIDS[family]
    errors = []
    for grid in grids():
        exact = np.array([field.integral(2, upper=r) for r in grid.nodes])
        errors.append(np.max(np.abs(radial_cumulative(grid, field.u(grid.nodes) ** 2) - exact)))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders > 1.98) & (orders < 2.02)), orders


@pytest.mark.parametrize("family", CONTRACT_GRIDS)
def test_radial_cumulative_ends_at_radial_weights(family):
    # the same trapezoids: 0 at the axis, the full quadrature at R
    grids, _, field = CONTRACT_GRIDS[family]
    for grid in grids():
        values = field.u(grid.nodes) ** 2
        cumulative = radial_cumulative(grid, values)
        assert cumulative[0] == 0.0
        assert cumulative[-1] == pytest.approx(radial_weights(grid) @ values, rel=1e-14)


class TestInterpolateMonotone:
    def test_identity(self):
        g = uniform_grid(1.0, 1, 33)
        f = Field(g, g.nodes.copy())
        assert interpolate_monotone(f, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_node_hit_exact(self):
        g = RadialGrid(nodes=np.array([0.0, 0.5, 1.0]), n=1)
        f = Field(g, np.array([0.0, 0.25, 1.0]))  # r^2 sampled
        assert interpolate_monotone(f, 0.25) == 0.5

    def test_no_crossing(self):
        g = uniform_grid(1.0, 1, 17)
        f = Field(g, g.nodes.copy())  # range [0, 1]
        with pytest.raises(NoCrossingError):
            interpolate_monotone(f, 2.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_node_roundtrip(self, data):
        count = data.draw(st.integers(8, 60))
        incs = data.draw(
            st.lists(st.floats(1e-3, 1.0), min_size=count - 1, max_size=count - 1)
        )
        vals = np.concatenate([[0.0], np.cumsum(incs)])
        nodes = np.linspace(0.0, 1.0, count)
        g = RadialGrid(nodes=nodes, n=1)
        f = Field(g, vals)
        i = data.draw(st.integers(0, count - 1))
        assert interpolate_monotone(f, vals[i]) == pytest.approx(nodes[i], abs=1e-12)


class TestSteadyStateInvariants:
    def test_positive_constants_required(self):
        g = uniform_grid(1.0, 2, 16)
        W = Field(g, np.ones(16))
        with pytest.raises(ValueError):
            SteadyState(W=W, U=W, amplitude=-1.0, lambda_eps=1.0, sigma=1.0,
                        bisection_iters=0, constraint_residual=0.0)
