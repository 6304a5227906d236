"""Masked Cartesian-grid solver for the nonlocal problem on 2D domains.

A uniform grid covers the bounding box of a disk / ellipse / star-shaped
domain; nodes carry the signed distance to the boundary (negative inside).
The Dirichlet condition W = b is imposed on the zero level set through
Shortley-Weller shortened stencil arms (the boundary crossing located by
linear interpolation of the signed distance along the arm), a first-order
cut treatment that keeps the operator an M-matrix.  Quadrature uses inside
nodes at full weight h^2 and boundary cells at their inside-area fraction.

Layer thickness versus boundary curvature is probed by marching inward along
boundary normals until the bilinear interpolant of W crosses a level c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .core import Params
from .errors import NoConvergenceError
from .mass_constraint import NonlocalResult, solve_nonlocal
from .radial_steady import DAMPING, MAX_ITERS, NEWTON_TOL, layer_profile_constant

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

OUTSIDE, INSIDE, CUT = 0, 1, 2

_THETA_MIN = 1e-6  # shortest admitted stencil arm fraction
PROJECTION_ITERS = 32  # Newton steps allowed for the boundary projection
PAD_CELLS = 4  # cells between the extent and the box edge; perfbench/workloads.py mirrors it
MARCH_STEP = 0.5  # thickness-probe march step, in grid spacings


# ---------------------------------------------------------------------------
# shapes


class Disk:
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

    def signed_distance(self, x, y):
        return np.hypot(x, y) - self.R

    def curvature(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / self.R)

    def inward_normal(self, t):
        return -np.cos(t), -np.sin(t)


class Ellipse:
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

    def signed_distance(self, x, y):
        return _projected_distance(self, x, y)

    def curvature(self, t):
        a, b = self.a, self.b
        return a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5

    def inward_normal(self, t):
        nx = np.cos(t) / self.a
        ny = np.sin(t) / self.b
        norm = np.hypot(nx, ny)
        return -nx / norm, -ny / norm


class Star:
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

    def signed_distance(self, x, y):
        return _projected_distance(self, x, y)

    def curvature(self, t):
        r = self.radius(t)
        rp = self.radius_d1(t)
        rpp = self.radius_d2(t)
        return (r**2 + 2 * rp**2 - r * rpp) / (r**2 + rp**2) ** 1.5

    def inward_normal(self, t):
        tx, ty = self.curve_d1(t)
        norm = np.hypot(tx, ty)
        # counter-clockwise parameterisation: outward normal is (ty, -tx)
        return -ty / norm, tx / norm


def _projected_distance(shape, x, y):
    """Signed distance via damped Newton projection onto the boundary curve.

    Seeded by the nearest of a dense polyline of boundary points, then refined
    by Newton on the stationarity of the squared distance.  Raises
    NoConvergenceError if the last parameter step still exceeds 1e-10 at the
    iteration cap, far below any admissible grid spacing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shp = x.shape
    px = x.ravel()
    py = y.ravel()

    t_seed = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
    bx, by = shape.curve(t_seed)
    tree = cKDTree(np.column_stack([bx, by]))
    _, nearest = tree.query(np.column_stack([px, py]))
    t = t_seed[nearest]

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
    sign = np.where(shape.inside(px, py), -1.0, 1.0)
    return (sign * dist).reshape(shp)


# ---------------------------------------------------------------------------
# masked grid


@dataclass(frozen=True)
class BoundarySample:
    """A boundary point with inward unit normal, curvature and arclength."""

    point: np.ndarray
    inward_normal: np.ndarray
    curvature: float
    arclength: float


class MaskedGrid:
    """Uniform Cartesian grid with inside/cut/outside classification.

    x, y are node coordinate vectors; phi, cells and quadrature weights are
    (nx, ny) arrays.  Arrays are frozen after construction.
    """

    def __init__(self, h: float, x: np.ndarray, y: np.ndarray, phi: np.ndarray, shape):
        self.h = float(h)
        self.x = np.ascontiguousarray(x, dtype=float)
        self.y = np.ascontiguousarray(y, dtype=float)
        self.phi = np.ascontiguousarray(phi, dtype=float)
        self.shape_obj = shape
        inside = self.phi < 0.0
        if not inside.any():
            raise ValueError("grid contains no inside node")
        # a cut node is an inside node with an outside 4-neighbour
        nbr_out = np.zeros_like(inside)
        nbr_out[1:, :] |= ~inside[:-1, :]
        nbr_out[:-1, :] |= ~inside[1:, :]
        nbr_out[:, 1:] |= ~inside[:, :-1]
        nbr_out[:, :-1] |= ~inside[:, 1:]
        cells = np.where(inside, np.where(nbr_out, CUT, INSIDE), OUTSIDE).astype(np.int8)
        # inside-area fraction of the h x h cell centred at each node,
        # planar-interface approximation from the signed distance
        weights = np.clip(0.5 - self.phi / self.h, 0.0, 1.0)
        for arr in (self.x, self.y, self.phi):
            arr.flags.writeable = False
        self.inside = inside
        self.inside.flags.writeable = False
        self.cells = cells
        self.cells.flags.writeable = False
        self.weights = weights
        self.weights.flags.writeable = False
        self._operator = None

    @property
    def bbox(self):
        return (self.x[0], self.x[-1], self.y[0], self.y[-1])

    def area(self) -> float:
        return float(self.weights.sum()) * self.h**2

    def integrate(self, values: np.ndarray, fill_value: float) -> float:
        """h^2-weighted sum with cut-cell fractions; non-finite entries
        (outside nodes) contribute fill_value."""
        vals = np.where(np.isfinite(values), values, fill_value)
        return float(np.sum(self.weights * vals)) * self.h**2

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
    ii, jj = np.nonzero(inside)
    center = index[ii, jj]

    thetas = []
    neighbor_idx = []
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni = ii + di
        nj = jj + dj
        valid = (0 <= ni) & (ni < inside.shape[0]) & (0 <= nj) & (nj < inside.shape[1])
        nin = np.zeros(ii.shape, dtype=bool)
        nin[valid] = inside[ni[valid], nj[valid]]
        theta = np.ones(ii.shape)
        crosses = ~nin
        phi_p = phi[ii, jj]
        phi_n = np.full(ii.shape, np.inf)
        phi_n[valid] = phi[ni[valid], nj[valid]]
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = phi_p / (phi_p - phi_n)
        frac[~np.isfinite(frac)] = 1.0
        theta[crosses] = np.clip(frac[crosses], _THETA_MIN, 1.0)
        ni_c = np.clip(ni, 0, inside.shape[0] - 1)
        nj_c = np.clip(nj, 0, inside.shape[1] - 1)
        nidx = np.where(nin, index[ni_c, nj_c], -1)
        thetas.append(theta)
        neighbor_idx.append(nidx)

    rows, cols, data = [], [], []
    bvec = np.zeros(N)
    diag = np.zeros(N)
    for axis in range(2):
        tp = thetas[2 * axis]
        tm = thetas[2 * axis + 1]
        np_idx = neighbor_idx[2 * axis]
        nm_idx = neighbor_idx[2 * axis + 1]
        cp = 2.0 / (tp * (tp + tm)) / h**2
        cm = 2.0 / (tm * (tp + tm)) / h**2
        diag -= 2.0 / (tp * tm) / h**2
        for coeff, nidx in ((cp, np_idx), (cm, nm_idx)):
            interior = nidx >= 0
            rows.append(center[interior])
            cols.append(nidx[interior])
            data.append(coeff[interior])
            bvec[center[~interior]] += coeff[~interior]
    rows.append(center)
    cols.append(center)
    data.append(diag)
    L = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsc()
    return L, bvec, index


def build_domain(shape, h: float, n_samples: int = 64):
    """Masked grid plus boundary samples (uniformly spaced in arclength)."""
    if h <= 0:
        raise ValueError("h must be positive")
    if shape.min_feature() < 8 * h:
        raise ValueError(
            f"h={h} too coarse: narrowest feature {shape.min_feature()} spans "
            "fewer than 8 cells"
        )
    ext = shape.extent() + PAD_CELLS * h
    n_side = int(math.ceil(2 * ext / h))
    coords = (np.arange(n_side + 1) - n_side / 2.0) * h
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    phi = shape.signed_distance(X, Y)
    grid = MaskedGrid(h=h, x=coords, y=coords, phi=phi, shape=shape)

    t_fine = np.linspace(0.0, 2.0 * math.pi, 8192)
    dx, dy = shape.curve_d1(t_fine)
    speed = np.hypot(dx, dy)
    s = np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t_fine) * (speed[:-1] + speed[1:]))))
    total = s[-1]
    s_targets = np.arange(n_samples) * total / n_samples
    t_samples = np.interp(s_targets, s, t_fine)

    samples = []
    for t_k, s_k in zip(t_samples, s_targets):
        px, py = shape.curve(t_k)
        nx, ny = shape.inward_normal(t_k)
        kappa = float(np.asarray(shape.curvature(t_k)))
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


@dataclass(frozen=True)
class PlanarField:
    """Scalar field on a masked grid; NaN marks outside nodes."""

    grid: MaskedGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.shape != self.grid.phi.shape:
            raise ValueError("field shape does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def filled(self, fill_value: float) -> np.ndarray:
        return np.where(np.isfinite(self.values), self.values, fill_value)

    def scaled_power(self, amplitude: float, p: float) -> "PlanarField":
        with np.errstate(invalid="ignore"):
            vals = amplitude * self.values**p
        return PlanarField(grid=self.grid, values=vals)

    def interpolator(self, fill_value: float):
        return RegularGridInterpolator(
            (self.grid.x, self.grid.y),
            self.filled(fill_value),
            method="linear",
            bounds_error=False,
            fill_value=fill_value,
        )


def solve_local_2d(
    sigma: float,
    params: Params,
    grid: MaskedGrid,
    initial="lower",
) -> PlanarField:
    """Solve sigma * Lap W = W^(1+p) with W = b on the boundary contour.

    Damped Newton; the sparse LU factorisation of the Jacobian is reused
    across iterations while the residual keeps contracting (the reaction
    diagonal moves slowly), and refreshed otherwise.  The Jacobian is
    structurally symmetric and -J is a strictly row-dominant M-matrix, so it
    is factorised without pivoting under a minimum-degree ordering of
    A + A^T.  initial is "lower" (distance-based layer profile, the default),
    "super" (constant b), or an array of shape (N_inside,) / full grid shape.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    p, b = params.p, params.b
    L, bvec, index = grid.operator()
    N = L.shape[0]
    inside = grid.inside
    floor = 1e-30 * b

    if isinstance(initial, str):
        if initial == "super":
            w = np.full(N, b)
        elif initial == "lower":
            cp = layer_profile_constant(p)
            d = -grid.phi[inside]
            z = d * b ** (p / 2.0) / (cp * math.sqrt(sigma))
            w = b * (1.0 + z) ** (-2.0 / p)
        else:
            raise ValueError(f"unknown initial iterate {initial!r}")
    else:
        arr = np.asarray(initial, dtype=float)
        w = arr[inside] if arr.shape == inside.shape else arr.copy()
        if w.shape != (N,):
            raise ValueError("initial iterate has wrong shape")
        w = np.maximum(w, floor)

    diag_scale = float(np.max(np.abs(L.diagonal())))
    res_floor = 8.0 * np.finfo(float).eps * sigma * diag_scale * b
    tol_eff = max(NEWTON_TOL, res_floor)

    def residual(wv):
        return sigma * (L @ wv + bvec * b) - wv ** (1.0 + p)

    lu = None
    res_prev = math.inf
    limited = False
    F = residual(w)
    for _ in range(MAX_ITERS):
        res = float(np.max(np.abs(F)))
        if res < tol_eff:
            break
        # reuse the factorisation only while full steps keep contracting;
        # a stale reaction diagonal far from the solution causes overshoot
        if lu is None or limited or res > 0.3 * res_prev:
            J = sparse.csc_matrix(sigma * L)
            J.setdiag(J.diagonal() - (1.0 + p) * w**p)
            lu = splu(
                J,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        res_prev = res
        delta = lu.solve(-F)
        alpha = DAMPING
        neg = delta < 0
        limited = False
        if np.any(neg):
            ratio = float(np.max(-delta[neg] / w[neg]))
            if alpha * ratio > 0.9:  # keep the iterate strictly positive
                alpha = 0.9 / ratio
                limited = True
        w = np.maximum(w + alpha * delta, floor)
        F = residual(w)
    else:
        raise NoConvergenceError(
            f"2D Newton failed at sigma={sigma}: residual {np.max(np.abs(F))}"
        )

    overshoot = float(np.max(w)) - b
    if overshoot > 1e-9 * b:
        raise NoConvergenceError(f"converged 2D iterate exceeds b by {overshoot}")
    w = np.minimum(w, b)
    full = np.full(grid.phi.shape, np.nan)
    full[inside] = w
    return PlanarField(grid=grid, values=full)


class Planar2DDomain:
    """Adapter exposing the masked grid to the nonlocal root-finder.

    Keeps the last converged field as the next warm start (the root-finder
    visits nearby sigmas, so Newton then needs only a couple of iterations).
    """

    def __init__(self, grid: MaskedGrid):
        self.grid = grid
        self._last = None

    def volume(self) -> float:
        return self.grid.area()

    def solve_local(self, sigma: float, params: Params):
        initial = "lower" if self._last is None else self._last.values
        try:
            W = solve_local_2d(sigma, params, self.grid, initial=initial)
        except NoConvergenceError:
            W = solve_local_2d(sigma, params, self.grid, initial="lower")
        self._last = W
        integral = self.grid.integrate(W.values**params.p, params.b**params.p)
        return W, integral


def solve_nonlocal_2d(
    params: Params,
    grid: MaskedGrid,
    tol_rel: float = 1e-6,
) -> NonlocalResult:
    """Nonlocal solve on a masked 2D grid (same root-finder as the radial path)."""
    return solve_nonlocal(params, Planar2DDomain(grid), tol_rel=tol_rel)


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
    interp_w = W.interpolator(params.b)
    interp_phi = RegularGridInterpolator(
        (grid.x, grid.y), grid.phi, method="linear", bounds_error=False, fill_value=1.0
    )
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
