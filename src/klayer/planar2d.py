"""Masked Cartesian-grid solver for the nonlocal problem on 2D domains.

A uniform square grid, one coordinate vector for both axes, covers a disk
(the ellipse of equal axes) / ellipse / star-shaped domain; nodes carry the
signed distance phi to the boundary (negative inside).  The disk's phi is
exact.  For the other curves it is the exact projected distance within
BAND_CELLS = 3 cells of the boundary, and elsewhere the distance to a nearby
boundary point that a Euclidean distance transform of the rasterised
boundary picks: never below the exact value, less than (1/4 + sqrt 2) h
above it, and of the same sign.  Near the boundary phi sets the mask, the
cut-cell weights and the Shortley-Weller arms; deeper inside only its sign
and rough size are read, by the Newton starts (layer_profile(-phi), the disk
seed at R_eq + phi) and by the probe (its march limit max(-phi)).  The
Dirichlet condition W = b is imposed on the zero level set through
Shortley-Weller shortened stencil arms (the boundary crossing located by
linear interpolation of the signed distance along the arm), a first-order
cut treatment that keeps the operator an M-matrix.  A ring of outside nodes
keeps every arm on the grid, and a field (a core.Field, which
MaskedGrid.field builds) lives on every node, holding the boundary value
outside.  A node is an unknown only when phi < -_THETA_MIN h, so a node on
the curve is held at b whatever the rounding sign of its phi.
Quadrature weighs each node's cell by its inside-area fraction; MaskedGrid
states it once, as quad over the unknowns and held_area over the nodes held
at b; the Newton sums it, folded on the mirror orbits, into integral(W^p).

core.newton, the one Newton of every domain, solves both the local problem
at a given sigma (solve_local_2d) and the nonlocal one, where
sigma = eps * integral(W^p) / m follows the iterate (solve_nonlocal_2d,
which starts it from mass_constraint's ball solve on the disk of equal area
and returns the core.SteadyState of its W and integral(W^p), as the ball's
solve does).  _cut_cell_system hands it the operator, the quadrature
and a sparse LU, reused as a chord while the steps contract.

The steady state is unique, so on a grid whose phi equals its flip along an
axis it has that mirror symmetry too.  Every shape states its mirrors
(mirrors()), build_domain makes phi exactly symmetric under them, and both
solves run the Newton on one representative node per mirror orbit
(_mirror_fold): the operator's columns are summed over each orbit, its rows
and bvec taken at the representatives, quad summed over each orbit, and the
solution unfolded onto every node.  The disk and the ellipse fold to about
a quarter of the unknowns, the star to a half (a quarter for even k); a grid
without an exact mirror is its own fold, one orbit per node.

Layer thickness versus boundary curvature is probed at boundary samples
evenly spaced in arclength, which the shape alone determines
(boundary_samples), by marching inward along their normals until the
bilinear interpolant of W crosses a level c.  The march runs MARCH_BLOCK
steps at a time over the rays that have not yet stopped, and W and phi
share one cell search per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.ndimage import distance_transform_edt
from scipy.sparse.linalg import splu

from .core import Field, NewtonSystem, Params, SteadyState, newton
from .errors import NoConvergenceError
from .mass_constraint import solve_nonlocal
from .radial_steady import layer_profile

__all__ = [
    "Disk",
    "Ellipse",
    "Star",
    "BoundarySamples",
    "boundary_samples",
    "MaskedGrid",
    "build_domain",
    "solve_local_2d",
    "solve_nonlocal_2d",
    "curvature_thickness_report",
]

_THETA_MIN = 1e-6  # shortest admitted stencil arm fraction
PROJECTION_ITERS = 32  # Newton steps allowed for the boundary projection
BAND_CELLS = 3  # phi is the exact projected distance where |phi| < BAND_CELLS h
MIN_SEEDS = 2048  # fewest boundary seeds of the band; fine grids get two per cell of perimeter
PAD_CELLS = 4  # cells between the extent and the box edge; perfbench/workloads.py mirrors it
MARCH_STEP = 0.5  # thickness-probe march step, in grid spacings
MARCH_BLOCK = 32  # thickness-probe steps evaluated per pass over the rays still marching


# ---------------------------------------------------------------------------
# shapes


class _Curve:
    """A closed curve t -> curve(t), t in [0, 2 pi), run counter-clockwise,
    with the geometry that its derivatives curve_d1 and curve_d2 determine."""

    def curvature(self, t):
        x1, y1 = self.curve_d1(t)
        x2, y2 = self.curve_d2(t)
        return (x1 * y2 - y1 * x2) / np.hypot(x1, y1) ** 3

    def inward_normal(self, t):
        x1, y1 = self.curve_d1(t)
        speed = np.hypot(x1, y1)
        return -y1 / speed, x1 / speed

    def signed_distance(self, coords, h):
        """Signed distance at the nodes of the square grid coords x coords of
        spacing h, to the accuracy the module docstring states.

        Seeds two per cell of perimeter mark the grid nodes nearest to them,
        and the exact Euclidean distance transform finds every node's nearest
        marked node.  Its distance to that node is within h of the distance
        to the curve (a curve point lies within h/4 of a seed along the
        curve, a seed within h/sqrt(2) of its node), so the nodes it puts
        within (BAND_CELLS + 1) h hold the band, where the Newton projection
        starts from the marked node's seed.  Elsewhere phi is the distance to
        that seed, a point of the curve: the transform's own distance runs
        about 0.4 h low at the median, the seed's about 0.03 h high.
        """
        t = _boundary_seeds(self, h)
        bx, by = self.curve(t)
        i = np.rint((bx - coords[0]) / h).astype(np.intp)
        j = np.rint((by - coords[0]) / h).astype(np.intp)
        unmarked = np.ones((coords.size, coords.size), dtype=bool)
        unmarked[i, j] = False
        seed = np.zeros(unmarked.shape)
        seed[i, j] = t
        dist, (ni, nj) = distance_transform_edt(unmarked, sampling=h, return_indices=True)
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        cx, cy = self.curve(seed[ni, nj])
        to_seed = np.hypot(X - cx, Y - cy)
        phi = np.where(self.inside(X, Y), -to_seed, to_seed)
        band = dist < (BAND_CELLS + 1) * h
        phi[band] = _projected_distance(self, X[band], Y[band], seed[ni[band], nj[band]])
        return phi


class Ellipse(_Curve):
    def __init__(self, a: float, b: float):
        if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
            raise ValueError("ellipse semi-axes must be finite and positive")
        self.a = float(a)
        self.b = float(b)

    def extent(self) -> float:
        return max(self.a, self.b)

    def min_feature(self) -> float:
        return 2.0 * min(self.a, self.b)

    def curve(self, t):
        return self.a * np.cos(t), self.b * np.sin(t)

    def curve_d1(self, t):
        return -self.a * np.sin(t), self.b * np.cos(t)

    def curve_d2(self, t):
        return -self.a * np.cos(t), -self.b * np.sin(t)

    def inside(self, x, y):
        return (x / self.a) ** 2 + (y / self.b) ** 2 < 1.0

    def mirrors(self) -> tuple:
        """The axes of phi under whose flip the shape is symmetric: axis 0
        is x -> -x and axis 1 is y -> -y."""
        return (0, 1)


class Disk(Ellipse):
    """The ellipse of equal semi-axes R, with the exact signed distance."""

    def __init__(self, R: float):
        if not (R > 0 and math.isfinite(R)):
            raise ValueError("disk radius must be finite and positive")
        super().__init__(R, R)
        self.R = float(R)

    def signed_distance(self, coords, h):
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        return np.hypot(X, Y) - self.R


class Star(_Curve):
    """Polar curve r(theta) = r0 (1 + amplitude cos(k theta))."""

    def __init__(self, r0: float, amplitude: float, k: int):
        if not (r0 > 0 and math.isfinite(r0)):
            raise ValueError("star base radius must be finite and positive")
        if not 0 <= abs(amplitude) < 1:
            raise ValueError("star amplitude must satisfy |amplitude| < 1")
        if not (k >= 1 and math.isfinite(k) and int(k) == k):
            raise ValueError("star wavenumber must be a positive integer")
        self.r0 = float(r0)
        self.amplitude = float(amplitude)
        self.k = int(k)

    def radius(self, t):
        return self.r0 * (1.0 + self.amplitude * np.cos(self.k * t))

    def radius_d1(self, t):
        return -self.r0 * self.amplitude * self.k * np.sin(self.k * t)

    def radius_d2(self, t):
        return -self.r0 * self.amplitude * self.k**2 * np.cos(self.k * t)

    def extent(self) -> float:
        return self.r0 * (1.0 + abs(self.amplitude))

    def min_feature(self) -> float:
        return 2.0 * self.r0 * (1.0 - abs(self.amplitude))

    def curve(self, t):
        r = self.radius(t)
        return r * np.cos(t), r * np.sin(t)

    def curve_d1(self, t):
        r = self.radius(t)
        rd = self.radius_d1(t)
        return rd * np.cos(t) - r * np.sin(t), rd * np.sin(t) + r * np.cos(t)

    def curve_d2(self, t):
        r = self.radius(t)
        rd = self.radius_d1(t)
        rdd = self.radius_d2(t)
        c, s = np.cos(t), np.sin(t)
        return rdd * c - 2 * rd * s - r * c, rdd * s + 2 * rd * c - r * s

    def inside(self, x, y):
        return np.hypot(x, y) < self.radius(np.arctan2(y, x))

    def mirrors(self) -> tuple:
        """y -> -y (axis 1) always; x -> -x (axis 0) for even k, since
        cos k(pi - theta) = (-1)^k cos k theta."""
        return (0, 1) if self.k % 2 == 0 else (1,)


def _arclength(shape):
    """The curve parameter on a fine grid over [0, 2 pi] and the arclength
    (trapezoid rule) from t = 0 to each of its points."""
    t = np.linspace(0.0, 2.0 * math.pi, 8192)
    dx, dy = shape.curve_d1(t)
    speed = np.hypot(dx, dy)
    return t, np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (speed[:-1] + speed[1:]))))


def _boundary_seeds(shape, h):
    """Curve parameters evenly spaced in arclength, two per cell of perimeter
    and at least MIN_SEEDS: consecutive seeds lie less than h apart."""
    t, s = _arclength(shape)
    count = max(MIN_SEEDS, math.ceil(2.0 * s[-1] / h))
    return np.interp(np.arange(count) * (s[-1] / count), s, t)


def _projected_distance(shape, x, y, t0):
    """Signed distance of the points (x, y) via damped Newton projection onto
    the boundary curve, from the curve parameters t0.

    Newton on the stationarity of the squared distance; t0 must lie in the
    basin of the nearest boundary point.  Raises NoConvergenceError if the
    last parameter step still exceeds 1e-10 at the iteration cap, far below
    any admissible grid spacing.
    """
    px = np.asarray(x, dtype=float)
    py = np.asarray(y, dtype=float)
    t = np.asarray(t0, dtype=float)
    step_max = math.inf
    for _ in range(PROJECTION_ITERS):
        cx, cy = shape.curve(t)
        dx = cx - px
        dy = cy - py
        d1x, d1y = shape.curve_d1(t)
        d2x, d2y = shape.curve_d2(t)
        g = dx * d1x + dy * d1y
        hess = d1x**2 + d1y**2 + dx * d2x + dy * d2y
        hess = np.where(hess > 1e-12, hess, d1x**2 + d1y**2)
        step = np.clip(-g / hess, -0.2, 0.2)  # damped
        t = t + step
        step_max = float(np.max(np.abs(step)))
        if step_max < 1e-14:
            break
    if step_max > 1e-10:
        raise NoConvergenceError(
            f"boundary projection not converged after {PROJECTION_ITERS} iterations "
            f"(last parameter step {step_max})"
        )

    cx, cy = shape.curve(t)
    dist = np.hypot(cx - px, cy - py)
    return np.where(shape.inside(px, py), -dist, dist)


# ---------------------------------------------------------------------------
# boundary samples


@dataclass(frozen=True, eq=False)
class BoundarySamples:
    """Boundary points with their arclength from t = 0, curvature and inward
    unit normal; row k of each read-only array belongs to sample k."""

    arclength: np.ndarray  # (N,)
    curvature: np.ndarray  # (N,)
    point: np.ndarray  # (N, 2)
    inward_normal: np.ndarray  # (N, 2)

    def __len__(self) -> int:
        return self.arclength.size


def boundary_samples(shape, count: int) -> BoundarySamples:
    """count boundary samples evenly spaced in arclength, the first at t = 0."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    t_fine, s = _arclength(shape)
    arclength = np.arange(count) * s[-1] / count
    t = np.interp(arclength, s, t_fine)
    samples = BoundarySamples(
        arclength=arclength,
        curvature=shape.curvature(t),
        point=np.column_stack(shape.curve(t)),
        inward_normal=np.column_stack(shape.inward_normal(t)),
    )
    for arr in (samples.arclength, samples.curvature, samples.point, samples.inward_normal):
        arr.flags.writeable = False
    return samples


# ---------------------------------------------------------------------------
# masked grid


def _grid_coords(size: int, h: float) -> np.ndarray:
    """The size coordinates of spacing h, centred on 0, of a square grid."""
    return (np.arange(size) - (size - 1) / 2) * h


class MaskedGrid:
    """Uniform square grid coords x coords of spacing h with an inside mask.

    phi (finite) and inside are square arrays of the grid's shape, and coords,
    centred on 0, has one entry per row of phi.  The grid keeps a read-only
    copy of phi, so the caller's array stays as it was.  A node is inside,
    an unknown, when phi < -_THETA_MIN h.  The nodes on the grid's outer
    edge must lie outside, so that every inside node has its four
    neighbours on the grid.
    The cut-cell quadrature gives each node h^2 times the inside-area
    fraction of its cell: quad holds it over the inside nodes, and
    held_area sums it over the outside ones, where a field holds b; the
    Newton sums quad folded over the mirror orbits (_mirror_fold).
    """

    def __init__(self, h: float, phi: np.ndarray):
        self.h = float(h)
        if not (self.h > 0 and math.isfinite(self.h)):
            raise ValueError(f"h must be finite and positive, got {h}")
        self.phi = np.array(phi, dtype=float, order="C")
        if self.phi.ndim != 2 or self.phi.shape[0] != self.phi.shape[1]:
            raise ValueError(f"phi shape {self.phi.shape} is not square")
        if not np.all(np.isfinite(self.phi)):
            raise ValueError("phi must be finite")
        self.coords = _grid_coords(self.phi.shape[0], self.h)
        inside = self.phi < -_THETA_MIN * self.h
        if not inside.any():
            raise ValueError("grid contains no inside node")
        if inside[[0, -1], :].any() or inside[:, [0, -1]].any():
            raise ValueError("an inside node lies on the grid's outer edge")
        # inside-area fraction of the h x h cell centred at each node,
        # planar-interface approximation from the signed distance
        weights = np.clip(0.5 - self.phi / self.h, 0.0, 1.0)
        self.inside = inside
        self.quad = self.h**2 * weights[inside]
        self.held_area = self.h**2 * float(np.sum(weights[~inside]))
        self.shape = self.phi.shape
        for arr in (self.coords, self.phi, self.inside, self.quad):
            arr.flags.writeable = False

    def area(self) -> float:
        return float(self.quad.sum()) + self.held_area

    def field(self, w: np.ndarray, b: float) -> Field:
        """The field holding w on the inside nodes and b everywhere else."""
        full = np.full(self.shape, float(b))
        full[self.inside] = w
        return Field(grid=self, values=full)

    def operator(self):
        """Shortley-Weller Laplacian (csc matrix over inside nodes) and the
        Dirichlet load vector: Lap(W) ~ L @ w + bvec * b, assembled anew on
        each call."""
        inside, phi, h = self.inside, self.phi, self.h
        N = int(inside.sum())
        index = -np.ones(inside.shape, dtype=np.int64)
        index[inside] = np.arange(N)
        ii, jj = np.nonzero(inside)  # inside node k sits at (ii[k], jj[k])
        phi_c = phi[inside]

        rows, cols, data = [], [], []
        bvec = np.zeros(N)
        diag = np.zeros(N)
        for di, dj in ((1, 0), (0, 1)):
            # the arms towards +axis and -axis; the ring of outside nodes keeps both on the grid
            arms = [(ii + di, jj + dj), (ii - di, jj - dj)]
            nidx = [index[ni, nj] for ni, nj in arms]
            cuts = [idx < 0 for idx in nidx]
            tp, tm = np.ones(N), np.ones(N)
            for theta, (ni, nj), cut in zip((tp, tm), arms, cuts):
                # divide only on cut arms, where phi changes sign
                frac = phi_c[cut] / (phi_c[cut] - phi[ni[cut], nj[cut]])
                theta[cut] = np.clip(frac, _THETA_MIN, 1.0)
            cp = 2.0 / (tp * (tp + tm)) / h**2
            cm = 2.0 / (tm * (tp + tm)) / h**2
            diag -= 2.0 / (tp * tm) / h**2
            for coeff, idx, cut in zip((cp, cm), nidx, cuts):
                rows.append(np.flatnonzero(~cut))
                cols.append(idx[~cut])
                data.append(coeff[~cut])
                bvec[cut] += coeff[cut]
        rows.append(np.arange(N))
        cols.append(np.arange(N))
        data.append(diag)
        L = sparse.csc_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N, N),
        )
        return L, bvec


def build_domain(shape, h: float) -> MaskedGrid:
    """The masked grid of spacing h over shape, its square reaching PAD_CELLS
    cells beyond the shape's extent.

    On each axis of shape.mirrors() the lower half of phi is copied onto the
    upper half, so phi equals its flip exactly and the fold of _mirror_fold
    applies; the mirror image of a curve point is a curve point, so phi keeps
    the accuracy the module docstring states.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be positive")
    if shape.min_feature() < 8 * h:
        raise ValueError(
            f"h={h} too coarse: narrowest feature {shape.min_feature()} spans "
            "fewer than 8 cells"
        )
    n_side = int(math.ceil(2 * (shape.extent() + PAD_CELLS * h) / h))
    phi = shape.signed_distance(_grid_coords(n_side + 1, h), h)
    for axis in shape.mirrors():
        upper = (slice(None),) * axis + (slice((phi.shape[axis] + 1) // 2, None),)
        phi[upper] = np.flip(phi, axis)[upper]
    return MaskedGrid(h, phi)


def _mirror_fold(grid: MaskedGrid):
    """The cut-cell system on one representative node per mirror orbit.

    An axis of phi along which np.flip leaves phi exactly as it is maps the
    mask, the quadrature and every Shortley-Weller coefficient onto
    themselves, so the solution, which is unique, is symmetric under it.  A
    node's representative is the least unknown index over its images under
    these flips (itself alone when there are none).  Returns (reps, orbit,
    system): reps, the representatives' indices, ascending; orbit, the
    position in reps of each unknown's representative, so w[orbit] unfolds
    a folded w; and system = (L[reps] E, bvec[reps], quad summed over each
    orbit, held_area), the arguments of _cut_cell_system,
    E[k, orbit[k]] = 1.  Folding keeps the row sums and off-diagonal signs,
    and a node whose image is its own neighbour moves that arm onto the
    diagonal, which stays negative, so _cut_cell_system's precondition
    holds.
    """
    inside = grid.inside
    count = int(inside.sum())
    rep = np.full(inside.shape, -1)
    rep[inside] = np.arange(count)
    for axis in (0, 1):
        if np.array_equal(np.flip(grid.phi, axis), grid.phi):
            rep = np.minimum(rep, np.flip(rep, axis))
    reps, orbit = np.unique(rep[inside], return_inverse=True)
    L, bvec = grid.operator()
    E = sparse.csc_matrix((np.ones(count), (np.arange(count), orbit)), shape=(count, reps.size))
    # row-selected as csr, whose conversion to csc sorts each column as L's
    L_f = sparse.csc_matrix(L.tocsr()[reps] @ E)
    quad = np.bincount(orbit, weights=grid.quad)
    return reps, orbit, (L_f, bvec[reps], quad, grid.held_area)


# ---------------------------------------------------------------------------
# interpolation and the local solver


def _bilinear(coords: np.ndarray, points):
    """Bilinear interpolation at points, an (N, 2) array or a single point,
    on the square grid coords x coords.

    Returns interpolate(values, fill_value): the N values (one for a point)
    of the interpolant of values[i, j] at (coords[i], coords[j]), fill_value
    outside the closed square.  The cell search and the weights are made
    once, here, and serve every values array.  They are those of scipy's
    linear RegularGridInterpolator, which interpolate matches bit for bit on
    writeable float values (scipy's compiled 2-D path).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cell = np.clip(np.searchsorted(coords, pts, side="right") - 1, 0, coords.size - 2)
    tx, ty = ((pts - coords[cell]) / (coords[cell + 1] - coords[cell])).T
    sx, sy = 1 - tx, 1 - ty
    n = coords.size
    corner = cell[:, 0] * n + cell[:, 1]  # flat index of values[i, j]
    outside = np.any((pts < coords[0]) | (pts > coords[-1]), axis=1)

    def interpolate(values, fill_value: float) -> np.ndarray:
        flat = np.asarray(values, dtype=float).ravel()
        out = (
            flat[corner] * sx * sy
            + flat[corner + 1] * sx * ty
            + flat[corner + n] * tx * sy
            + flat[corner + n + 1] * tx * ty
        )
        out[outside] = fill_value
        return out

    return interpolate


def solve_local_2d(sigma: float, params: Params, grid: MaskedGrid) -> Field:
    """Solve sigma * Lap W = W^(1+p) with W = b on the boundary contour.

    core.newton runs on the mirror orbits of _mirror_fold, from the
    distance-based layer profile radial_steady.layer_profile at the depth
    -phi below the boundary.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    reps, orbit, system = _mirror_fold(grid)
    start = layer_profile(-grid.phi[grid.inside][reps], sigma, params)
    w, _, _ = newton(start, sigma, params, _cut_cell_system(*system))
    return grid.field(w[orbit], params.b)


def _cut_cell_system(L, bvec, quad, held_area) -> NewtonSystem:
    """sigma (L w + b bvec) = w^(1+p), L a csc matrix over the unknowns, as
    core.newton takes it, with row weight 1 and a factor(s, jd) that the
    Newton reuses while its full steps contract: the sparse LU, without
    pivoting, of s L with its diagonal replaced by jd.

    L must have a negative diagonal, non-negative off-diagonals, non-positive
    row sums and a structurally symmetric pattern, as MaskedGrid's
    Shortley-Weller operator has (Gibou, Fedkiw, Cheng & Kang, JCP 176,
    2002).  Then -J is a strictly row-dominant M-matrix, factorised without
    pivoting under a minimum-degree ordering of A + A^T; an operator that
    breaks these signs needs a pivoting factorisation.  A two-column
    back-solve gives the bits of two one-column ones; on the README ellipse
    at h = 0.01 (31 416 unknowns, unfolded; a 2-vCPU host) its median took
    3.3-6.0 ms against 4.3-7.3 ms for the two.
    """

    def factor(s, jd):
        J = sparse.csc_matrix(s * L)
        J.setdiag(jd)
        return splu(
            J,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

    return NewtonSystem(lambda w, b: L @ w + bvec * b, L.diagonal(), 1.0, quad, held_area, factor)


def solve_nonlocal_2d(params: Params, grid: MaskedGrid) -> SteadyState:
    """Nonlocal solve on a masked 2D grid by core.newton, the direct Newton.

    Newton starts from the radial solve on the disk of equal area (n = 2
    whatever params.n says; the 2D solver ignores it), sampled at the radius
    R_eq + phi, phi the signed distance to the boundary.  Curvature moves
    the amplitude only at the next order, so this start lies close to the 2D
    solution, and one factorisation serves the whole solve on the disk, the
    README ellipse and the star.  integral(W^p) is the Newton's, by the
    quadrature folded over the mirror orbits.
    """
    R_eq = math.sqrt(grid.area() / math.pi)
    disk = solve_nonlocal(replace(params, n=2), R_eq).W
    reps, orbit, system = _mirror_fold(grid)
    initial = np.interp(R_eq + grid.phi[grid.inside][reps], disk.grid.nodes, disk.values)
    w, integral, steps = newton(initial, None, params, _cut_cell_system(*system))
    return SteadyState(params, grid.field(w[orbit], params.b), integral, steps)


# ---------------------------------------------------------------------------
# curvature / thickness probing


def curvature_thickness_report(
    W: Field,
    samples: BoundarySamples,
    c: float,
    params: Params,
) -> np.ndarray:
    """March inward along each boundary normal until W crosses the level c.

    Returns an array with columns (arclength, curvature, thickness) for the
    samples whose ray crossed the level inside the domain; rays that exit the
    domain (or never reach the level) are skipped.
    """
    if not 0 < c < params.b:
        raise ValueError(f"level c must lie in (0, b={params.b})")
    grid = W.grid
    ds = MARCH_STEP * grid.h
    lo, hi = grid.coords[0], grid.coords[-1]
    max_march = float(np.max(-grid.phi)) * 2.0 + 4 * grid.h

    # arc positions of the march: sequential sums of ds (as a scalar loop
    # doing s += ds would produce), continued while the previous one is below
    # max_march
    s = np.cumsum(np.full(int(math.ceil(max_march / ds)) + 2, ds))
    s = s[np.concatenate(([0.0], s[:-1])) < max_march]
    points, normals = samples.point, samples.inward_normal

    # MARCH_BLOCK steps at a time, over the rays that have not yet stopped
    thickness = np.full(len(samples), np.nan)  # nan: the ray exits or never reaches c
    val_prev = np.full(len(samples), float(params.b))  # W at each marching ray's last step
    active = np.arange(len(samples))
    for start in range(0, s.size, MARCH_BLOCK):
        sb = s[start : start + MARCH_BLOCK]
        px = points[active, 0:1] + sb * normals[active, 0:1]  # (active rays, steps)
        py = points[active, 1:2] + sb * normals[active, 1:2]
        interpolate = _bilinear(grid.coords, np.stack([px.ravel(), py.ravel()], axis=-1))
        phi = interpolate(grid.phi, 1.0).reshape(px.shape)
        val = interpolate(W.values, params.b).reshape(px.shape)

        outside_box = ~((lo <= px) & (px <= hi) & (lo <= py) & (py <= hi))
        exits = outside_box | ((sb > grid.h) & (phi > 0.0))
        stops = exits | (val < c)
        j = np.argmax(stops, axis=1)
        row = np.arange(active.size)
        stopped = stops[row, j]
        hit = stopped & ~exits[row, j]

        # interpolate between the last step above c (the boundary, holding
        # b, before the first step) and the first one below
        j = j[hit]
        step = start + j
        prev_val = np.where(j > 0, val[hit, j - 1], val_prev[active[hit]])
        prev_s = np.where(step > 0, s[step - 1], 0.0)
        frac = (prev_val - c) / (prev_val - val[hit, j])
        thickness[active[hit]] = prev_s + frac * (s[step] - prev_s)

        active = active[~stopped]
        val_prev[active] = val[~stopped, -1]
        if not active.size:
            break

    k = np.flatnonzero(~np.isnan(thickness))
    return np.column_stack((samples.arclength[k], samples.curvature[k], thickness[k]))
