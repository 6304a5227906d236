"""Masked Cartesian-grid solver for the nonlocal problem on 2D domains.

A uniform grid covers the bounding box of a disk / ellipse / star-shaped
domain; nodes carry the signed distance phi to the boundary (negative
inside).  The disk's phi is exact.  For the other curves it is the exact
projected distance within BAND_CELLS = 3 cells of the boundary, and elsewhere
the distance to a nearby boundary point that a Euclidean distance transform
of the rasterised boundary picks: never below the exact value, less than
1.7 h above it, and of the same sign.  Near the boundary phi sets the
mask, the cut-cell weights and the Shortley-Weller arms; deeper inside only
its sign and rough size are read, by the Newton starts (layer_profile(-phi),
the disk seed at R_eq + phi) and by the probe (its march limit max(-phi)).
The Dirichlet condition W = b is imposed on the zero level set through
Shortley-Weller shortened stencil arms (the boundary crossing located by
linear interpolation of the signed distance along the arm), a first-order
cut treatment that keeps the operator an M-matrix.  A ring of outside nodes
keeps every arm on the grid, and a field lives on every node, holding the
boundary value outside.  Quadrature uses inside nodes at full weight h^2 and
boundary cells at their inside-area fraction.

One chord Newton (_newton_2d) solves both the local problem at a given sigma
(solve_local_2d) and the nonlocal one, where sigma = eps * integral(W^p) / m
follows the iterate (solve_nonlocal_2d, through mass_constraint's
solve_nonlocal).

Layer thickness versus boundary curvature is probed by marching inward along
boundary normals until the bilinear interpolant of W crosses a level c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.ndimage import distance_transform_edt
from scipy.sparse.linalg import splu

from .core import Params
from .errors import NoConvergenceError
from .mass_constraint import NonlocalResult, RadialBallDomain, solve_nonlocal
from .radial_steady import MAX_ITERS, STEP_TOL, layer_profile

__all__ = [
    "Disk",
    "Ellipse",
    "Star",
    "BoundarySample",
    "MaskedGrid",
    "PlanarField",
    "build_domain",
    "solve_local_2d",
    "Planar2DDomain",
    "solve_nonlocal_2d",
    "curvature_thickness_report",
]

_THETA_MIN = 1e-6  # shortest admitted stencil arm fraction
PROJECTION_ITERS = 32  # Newton steps allowed for the boundary projection
BAND_CELLS = 3  # phi is the exact projected distance where |phi| < BAND_CELLS h
MIN_SEEDS = 2048  # fewest boundary seeds of the band; fine grids get two per cell of perimeter
PAD_CELLS = 4  # cells between the extent and the box edge; perfbench/workloads.py mirrors it
MARCH_STEP = 0.5  # thickness-probe march step, in grid spacings


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
        spacing h: exact where it is below BAND_CELLS h, and elsewhere an
        upper bound that exceeds it by less than (1/4 + sqrt 2) h.

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


class Disk(_Curve):
    def __init__(self, R: float):
        if R <= 0:
            raise ValueError("disk radius must be positive")
        self.R = float(R)

    def extent(self) -> float:
        return self.R

    def min_feature(self) -> float:
        return 2.0 * self.R

    def curve(self, t):
        return self.R * np.cos(t), self.R * np.sin(t)

    def curve_d1(self, t):
        return -self.R * np.sin(t), self.R * np.cos(t)

    def curve_d2(self, t):
        return -self.R * np.cos(t), -self.R * np.sin(t)

    def inside(self, x, y):
        return np.hypot(x, y) < self.R

    def signed_distance(self, coords, h):
        X, Y = np.meshgrid(coords, coords, indexing="ij")
        return np.hypot(X, Y) - self.R


class Ellipse(_Curve):
    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise ValueError("ellipse semi-axes must be positive")
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


class Star(_Curve):
    """Polar curve r(theta) = r0 (1 + amplitude cos(k theta))."""

    def __init__(self, r0: float, amplitude: float, k: int):
        if r0 <= 0:
            raise ValueError("star base radius must be positive")
        if not 0 <= abs(amplitude) < 1:
            raise ValueError("star amplitude must satisfy |amplitude| < 1")
        if k < 1 or int(k) != k:
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
# masked grid


@dataclass(frozen=True, eq=False)
class BoundarySample:
    """A boundary point with inward unit normal, curvature and arclength."""

    point: np.ndarray
    inward_normal: np.ndarray
    curvature: float
    arclength: float


class MaskedGrid:
    """Uniform Cartesian grid with an inside mask.

    x, y are node coordinate vectors; phi, inside and the quadrature weights
    are (nx, ny) arrays.  The grid keeps read-only copies of x, y and phi, so
    the caller's arrays stay as they were.  The nodes on the grid's outer edge
    must lie outside, so that every inside node has its four neighbours on the
    grid.
    """

    def __init__(self, h: float, x: np.ndarray, y: np.ndarray, phi: np.ndarray):
        self.h = float(h)
        self.x = np.array(x, dtype=float, order="C")
        self.y = np.array(y, dtype=float, order="C")
        self.phi = np.array(phi, dtype=float, order="C")
        inside = self.phi < 0.0
        if not inside.any():
            raise ValueError("grid contains no inside node")
        if inside[[0, -1], :].any() or inside[:, [0, -1]].any():
            raise ValueError("an inside node lies on the grid's outer edge")
        # inside-area fraction of the h x h cell centred at each node,
        # planar-interface approximation from the signed distance
        weights = np.clip(0.5 - self.phi / self.h, 0.0, 1.0)
        for arr in (self.x, self.y, self.phi):
            arr.flags.writeable = False
        self.inside = inside
        self.inside.flags.writeable = False
        self.weights = weights
        self.weights.flags.writeable = False
        self._operator = None

    @property
    def bbox(self):
        return (self.x[0], self.x[-1], self.y[0], self.y[-1])

    def area(self) -> float:
        return float(self.weights.sum()) * self.h**2

    def integrate(self, values: np.ndarray) -> float:
        """h^2-weighted sum with cut-cell fractions."""
        return float(np.sum(self.weights * values)) * self.h**2

    def operator(self):
        """Shortley-Weller Laplacian (csc matrix over inside nodes) and the
        Dirichlet load vector: Lap(W) ~ L @ w + bvec * b."""
        if self._operator is None:
            self._operator = _assemble_cut_laplacian(self)
        return self._operator


def _assemble_cut_laplacian(grid: MaskedGrid):
    inside = grid.inside
    phi = grid.phi
    h = grid.h
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
    L = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsc()
    return L, bvec


def build_domain(shape, h: float, n_samples: int = 64):
    """Masked grid plus boundary samples (uniformly spaced in arclength).

    The grid's phi comes from shape.signed_distance: exact on the disk, and
    for the other curves exact within BAND_CELLS h of the boundary, where the
    mask, the cut-cell weights and the Shortley-Weller arms read it.  Deeper
    inside it is the distance to a boundary point near the nearest one, less
    than 1.7 h above the exact distance and of the same sign; there only the
    Newton starts of solve_local_2d and solve_nonlocal_2d and the probe's
    march limit read it.
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError("h must be positive")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if shape.min_feature() < 8 * h:
        raise ValueError(
            f"h={h} too coarse: narrowest feature {shape.min_feature()} spans "
            "fewer than 8 cells"
        )
    ext = shape.extent() + PAD_CELLS * h
    n_side = int(math.ceil(2 * ext / h))
    coords = (np.arange(n_side + 1) - n_side / 2.0) * h
    grid = MaskedGrid(h=h, x=coords, y=coords, phi=shape.signed_distance(coords, h))

    t_fine, s = _arclength(shape)
    total = s[-1]
    s_targets = np.arange(n_samples) * total / n_samples
    t_samples = np.interp(s_targets, s, t_fine)

    samples = []
    for t_k, s_k in zip(t_samples, s_targets):
        px, py = shape.curve(t_k)
        nx, ny = shape.inward_normal(t_k)
        kappa = float(shape.curvature(t_k))
        samples.append(
            BoundarySample(
                point=np.array([float(px), float(py)]),
                inward_normal=np.array([float(nx), float(ny)]),
                curvature=kappa,
                arclength=float(s_k),
            )
        )
    return grid, samples


# ---------------------------------------------------------------------------
# fields and the local solver


@dataclass(frozen=True, eq=False)
class PlanarField:
    """Finite scalar field on every node of a masked grid; outside the domain
    it holds its boundary value."""

    grid: MaskedGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, order="C")
        if vals.shape != self.grid.phi.shape:
            raise ValueError("field shape does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def scaled_power(self, amplitude: float, p: float) -> "PlanarField":
        return PlanarField(grid=self.grid, values=amplitude * self.values**p)


def _bilinear(x: np.ndarray, y: np.ndarray, values: np.ndarray, fill_value: float):
    """Bilinear interpolant of values[i, j] at (x[i], y[j]), fill_value
    outside the closed box.

    The returned function takes an (N, 2) array or a single point and returns
    N values (one for a point).  Cell search and weights are those of scipy's
    linear RegularGridInterpolator, which it matches bit for bit on writeable
    float values (scipy's compiled 2-D path).
    """
    values = np.asarray(values, dtype=float)

    def evaluate(points) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        px, py = pts[:, 0], pts[:, 1]
        i = np.clip(np.searchsorted(x, px, side="right") - 1, 0, x.size - 2)
        j = np.clip(np.searchsorted(y, py, side="right") - 1, 0, y.size - 2)
        tx = (px - x[i]) / (x[i + 1] - x[i])
        ty = (py - y[j]) / (y[j + 1] - y[j])
        out = (
            values[i, j] * (1 - tx) * (1 - ty)
            + values[i, j + 1] * (1 - tx) * ty
            + values[i + 1, j] * tx * (1 - ty)
            + values[i + 1, j + 1] * tx * ty
        )
        out[(px < x[0]) | (px > x[-1]) | (py < y[0]) | (py > y[-1])] = fill_value
        return out

    return evaluate


def solve_local_2d(
    sigma: float,
    params: Params,
    grid: MaskedGrid,
    initial: np.ndarray | None = None,
) -> PlanarField:
    """Solve sigma * Lap W = W^(1+p) with W = b on the boundary contour.

    Newton (see _newton_2d) starts from the distance-based layer profile
    radial_steady.layer_profile at the depth -phi below the boundary, unless
    an initial iterate over the inside nodes, of shape (N_inside,), is given.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    inside = grid.inside
    if initial is None:
        w = layer_profile(-grid.phi[inside], sigma, params)
    else:
        w = np.asarray(initial, dtype=float)
        if w.shape != (int(inside.sum()),):
            raise ValueError("initial iterate has wrong shape")
    return _newton_2d(w, sigma, params, grid)[0]


def _newton_2d(w, sigma, params: Params, grid: MaskedGrid):
    """Chord Newton from w (inside nodes) on sigma (L w + b bvec) = w^(1+p).

    The 2D counterpart of radial_steady._newton.  With sigma None,
    sigma = eps * integral(W^p) / m follows the iterate, and the Jacobian
    sigma L - (1+p) diag(w^p) gains the rank one col (x) row, col the
    derivative (eps/m) (L w + b bvec) of F in sigma and row the gradient
    p h^2 weights w^(p-1) of integral(W^p); each step is solved by
    Sherman-Morrison.  The sparse LU of the local part is reused while full
    steps keep the scaled residual contracting by at least 0.3 (the reaction
    diagonal and sigma move slowly), and refactorised otherwise.  -J is a
    strictly row-dominant M-matrix with a structurally symmetric pattern, so
    it is factorised without pivoting under a minimum-degree ordering of
    A + A^T.  Inner products are elementwise sums, and each solve has one
    right-hand side: BLAS dot products and multi-column solves start threads
    that cost more than they save at this size.

    Newton stops when max |F_i| / (sigma |L_ii| + (1+p) w_i^p), the residual
    scaled by the Jacobian diagonal, is below STEP_TOL * b.  Unlike an
    absolute residual bound, this does not grow with the 1/theta arms of cut
    nodes close to the boundary.  Returns (W, Newton steps), W = b at the
    outside nodes; NoConvergenceError after MAX_ITERS steps or when the
    converged W exceeds b.
    """
    p, b = params.p, params.b
    L, bvec = grid.operator()
    floor = 1e-30 * b
    w = np.maximum(w, floor)
    abs_diag = np.abs(L.diagonal())
    if sigma is None:
        coef = params.epsilon / params.m
        h2 = grid.h**2
        quad = h2 * grid.weights[grid.inside]
        # cells of outside nodes cut by the boundary hold W = b
        outside = h2 * float(np.sum(grid.weights[~grid.inside])) * b**p

    lu = None
    res_prev = math.inf
    limited = False
    for steps in range(MAX_ITERS + 1):
        wp = w**p
        lap = L @ w + bvec * b
        s = sigma if sigma is not None else coef * (float(np.sum(quad * wp)) + outside)
        F = s * lap - w * wp
        res = float(np.max(np.abs(F) / (s * abs_diag + (1.0 + p) * wp)))
        if res < STEP_TOL * b:
            break
        if steps == MAX_ITERS:
            raise NoConvergenceError(
                f"2D Newton failed at sigma={s}: scaled residual {res}"
            )
        # reuse the factorisation only while full steps keep contracting;
        # a stale reaction diagonal far from the solution causes overshoot
        if lu is None or limited or res > 0.3 * res_prev:
            lu = None  # release the stale factors before computing new ones
            J = sparse.csc_matrix(s * L)
            J.setdiag(J.diagonal() - (1.0 + p) * wp)
            lu = splu(
                J,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        res_prev = res
        delta = lu.solve(-F)
        if sigma is None:
            z = lu.solve(coef * lap)
            row = p * quad * wp / w
            delta -= z * (float(np.sum(row * delta)) / (1.0 + float(np.sum(row * z))))
        alpha = 1.0
        neg = delta < 0
        limited = False
        if np.any(neg):
            ratio = float(np.max(-delta[neg] / w[neg]))
            if ratio > 0.9:  # keep the iterate strictly positive
                alpha = 0.9 / ratio
                limited = True
        w = np.maximum(w + alpha * delta, floor)

    overshoot = float(np.max(w)) - b
    if overshoot > 1e-9 * b:
        raise NoConvergenceError(f"converged 2D iterate exceeds b by {overshoot}")
    full = np.full(grid.phi.shape, float(b))
    full[grid.inside] = np.minimum(w, b)
    return PlanarField(grid=grid, values=full), steps


class Planar2DDomain:
    """A masked grid and the iterate (over its inside nodes) that its
    nonlocal Newton starts from, for solve_nonlocal."""

    def __init__(self, grid: MaskedGrid, initial: np.ndarray):
        self.grid = grid
        self.initial = initial

    def solve_constrained(self, params: Params):
        """Solve the nonlocal problem directly; returns (W, integral of W^p,
        Newton steps)."""
        W, steps = _newton_2d(self.initial, None, params, self.grid)
        return W, self.grid.integrate(W.values**params.p), steps


def solve_nonlocal_2d(params: Params, grid: MaskedGrid) -> NonlocalResult:
    """Nonlocal solve on a masked 2D grid by the direct Newton of _newton_2d.

    Newton starts from the radial solve on the disk of equal area (n = 2
    whatever params.n says; the 2D solver ignores it), sampled at the radius
    R_eq + phi, phi the signed distance to the boundary.  Curvature moves
    the amplitude only at the next order, so this start lies close to the 2D
    solution, and one factorisation serves the whole solve on the disk, the
    README ellipse and the star.
    """
    R_eq = math.sqrt(grid.area() / math.pi)
    disk = solve_nonlocal(replace(params, n=2), RadialBallDomain(R=R_eq, n=2)).steady.W
    initial = np.interp(R_eq + grid.phi[grid.inside], disk.grid.nodes, disk.values)
    return solve_nonlocal(params, Planar2DDomain(grid, initial))


# ---------------------------------------------------------------------------
# curvature / thickness probing


def curvature_thickness_report(
    W: PlanarField,
    samples,
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
    interp_w = _bilinear(grid.x, grid.y, W.values, params.b)
    interp_phi = _bilinear(grid.x, grid.y, grid.phi, 1.0)
    ds = MARCH_STEP * grid.h
    xmin, xmax, ymin, ymax = grid.bbox
    max_march = float(np.max(-grid.phi)) * 2.0 + 4 * grid.h

    # arc positions of the march: sequential sums of ds (as a scalar loop
    # doing s += ds would produce), continued while the previous one is below
    # max_march
    s = np.cumsum(np.full(int(math.ceil(max_march / ds)) + 2, ds))
    s = s[np.concatenate(([0.0], s[:-1])) < max_march]
    points = np.array([sample.point for sample in samples], dtype=float).reshape(-1, 2)
    normals = np.array([sample.inward_normal for sample in samples], dtype=float)
    normals = normals.reshape(-1, 2)
    px = points[:, 0:1] + s * normals[:, 0:1]  # (rays, steps)
    py = points[:, 1:2] + s * normals[:, 1:2]
    pos = np.stack([px.ravel(), py.ravel()], axis=-1)
    phi = interp_phi(pos).reshape(px.shape)
    val = interp_w(pos).reshape(px.shape)

    outside_box = ~((xmin <= px) & (px <= xmax) & (ymin <= py) & (py <= ymax))
    exits = outside_box | ((s > grid.h) & (phi > 0.0))
    stops = exits | (val < c)
    first = np.argmax(stops, axis=1)
    rays = np.arange(len(points))
    hit = stops[rays, first] & ~exits[rays, first]

    rows = []
    for k in np.flatnonzero(hit):
        j = first[k]
        prev_val = val[k, j - 1] if j > 0 else params.b
        prev_s = s[j - 1] if j > 0 else 0.0
        frac = (prev_val - c) / (prev_val - val[k, j])
        found = prev_s + frac * (s[j] - prev_s)
        rows.append((samples[k].arclength, samples[k].curvature, found))
    return np.array(rows, dtype=float).reshape(-1, 3)
