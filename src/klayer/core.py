"""Shared domain types: parameters, graded radial meshes, quadrature, interpolation.

Radial fields live on node-centred grids over [0, R].  All integrals use the
n-dimensional radial measure omega_n * r^(n-1) dr, where omega_n is the surface
area of the unit sphere (the n = 1 value omega_1 = 2 corresponds to the
symmetric interval [-R, R]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoCrossingError

__all__ = [
    "Params",
    "RadialGrid",
    "RadialProfile",
    "SteadyState",
    "unit_sphere_area",
    "ball_volume",
    "make_graded_grid",
    "refine_grid",
    "integrate_radial",
    "interpolate_monotone",
]


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2, 2*pi, 4*pi for n = 1, 2, 3."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def ball_volume(R: float, n: int) -> float:
    """Volume of the ball of radius R in R^n (interval length 2R for n = 1)."""
    return unit_sphere_area(n) * R**n / n


@dataclass(frozen=True)
class Params:
    """Model constants shared by every solver.

    epsilon : chemical diffusion coefficient (> 0, the singular parameter)
    p       : chemotactic exponent (> 0)
    b       : boundary value of the chemical (> 0)
    m       : conserved total cell mass (> 0)
    n       : space dimension (>= 1)
    """

    epsilon: float
    p: float
    b: float
    m: float
    n: int

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError(f"p must be positive, got {self.p}")
        if not (self.b > 0 and math.isfinite(self.b)):
            raise ValueError(f"b must be positive, got {self.b}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive, got {self.m}")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing nodes from 0 to R with the dimension of the measure.

    Node i is the centre of the finite-volume cell between the midpoints
    around it, from 0 at the axis to R at the boundary.  volumes holds the
    cell volumes and conductances the area / dr of the N - 1 interior faces,
    both without the factor omega_n; they follow from nodes and n, so they
    take no part in construction or repr.
    """

    R: float
    nodes: np.ndarray
    n: int
    volumes: np.ndarray = field(init=False, repr=False)
    conductances: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float, order="C")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError(f"first node must be 0, got {nodes[0]}")
        if nodes[-1] != self.R:
            raise ValueError(f"last node must equal R={self.R}, got {nodes[-1]}")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        n = int(self.n)
        faces = np.empty(nodes.size + 1)
        faces[0] = 0.0
        faces[-1] = self.R
        faces[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        volumes = (faces[1:] ** n - faces[:-1] ** n) / n
        conductances = faces[1:-1] ** (n - 1) / np.diff(nodes)
        for name, value in (("nodes", nodes), ("volumes", volumes), ("conductances", conductances)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", n)

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)


def _node_values(grid: RadialGrid, values, name: str) -> np.ndarray:
    """A read-only float copy of values, checked to hold one finite value per
    node of grid."""
    values = np.array(values, dtype=float, order="C")
    if values.shape != grid.nodes.shape:
        raise ValueError(f"{name} shape {values.shape} does not match grid ({grid.nodes.shape})")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A scalar field sampled at the nodes of a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values(self.grid, self.values, "profile values"))

    def __call__(self, r) -> np.ndarray:
        """Piecewise-linear evaluation at radii r."""
        return np.interp(r, self.grid.nodes, self.values)

    def scaled_power(self, amplitude: float, p: float) -> "RadialProfile":
        return RadialProfile(grid=self.grid, values=amplitude * self.values**p)


@dataclass(frozen=True)
class SteadyState:
    """Converged steady pair (W, U) plus the nonlocal constants.

    amplitude  = m / integral(W^p)   (so U = amplitude * W^p pointwise)
    lambda_eps = integral(W^p) / m   (reciprocal of amplitude)
    sigma      = epsilon * lambda_eps, the effective diffusion of the local
                 problem the pair solves.

    W and U are RadialProfile for ball domains or a planar field object for
    masked 2D grids; both always have the same shape.
    """

    W: object
    U: object
    amplitude: float
    lambda_eps: float
    sigma: float

    def __post_init__(self):
        if not (self.amplitude > 0 and self.lambda_eps > 0 and self.sigma > 0):
            raise ValueError("steady-state constants must be positive")


def _geometric_ratio(total: float, h0: float, k: int) -> float:
    """Solve h0 * (q^k - 1) / (q - 1) = total for the spacing ratio q > 0."""
    target = total / h0
    if abs(target - k) < 1e-12 * k:
        return 1.0

    def gap(q):
        # stable evaluation of the geometric sum for q near 1; a sum too large
        # for a float counts as +inf
        try:
            return math.expm1(k * math.log1p(q - 1.0)) / (q - 1.0) - target
        except OverflowError:
            return math.inf

    if target > k:  # spacing grows away from the boundary
        lo = 1.0 + 1e-14
        hi = 2.0
        while gap(hi) < 0:
            hi *= 2.0
            if hi > 1e6:
                raise ValueError("graded grid ratio out of range")
    else:
        hi = 1.0 - 1e-14
        lo = 1e-8
    # gap increases with q: bisect down to adjacent floats, then keep the
    # end nearer the root
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return min((lo, hi), key=lambda q: abs(gap(q)))
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid


def make_graded_grid(R: float, n: int, layer_width: float, count: int) -> RadialGrid:
    """Geometrically graded grid on [0, R] resolving a boundary layer at r = R.

    The spacing of the last interval (adjacent to r = R) is layer_width / 10;
    spacings change by a constant ratio toward r = 0.
    """
    if count < 16:
        raise ValueError(f"count must be >= 16, got {count}")
    if not (0 < layer_width < R):
        raise ValueError(f"layer_width must lie in (0, R={R}), got {layer_width}")
    h0 = layer_width / 10.0
    k = count - 1
    q = _geometric_ratio(R, h0, k)
    if q < 0.98:
        raise ValueError(
            f"boundary spacing {h0} * {k} intervals far exceeds R={R}; the grid "
            "would collapse near r = 0 (reduce count or layer_width)"
        )
    spac = h0 * np.power(q, np.arange(k))  # spac[0] adjacent to R
    nodes = np.empty(count)
    nodes[-1] = R
    nodes[:-1] = R - np.cumsum(spac)[::-1]
    nodes[0] = 0.0  # absorb the O(eps_mach) closure defect into the innermost cell
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("graded grid degenerated; increase count or layer_width")
    return RadialGrid(R=R, nodes=nodes, n=n)


def refine_grid(grid: RadialGrid) -> RadialGrid:
    """Halve every interval by inserting midpoints (nested refinement)."""
    r = grid.nodes
    mids = 0.5 * (r[:-1] + r[1:])
    nodes = np.empty(r.size + mids.size)
    nodes[0::2] = r
    nodes[1::2] = mids
    return RadialGrid(R=grid.R, nodes=nodes, n=grid.n)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    h = np.diff(nodes)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return w


def integrate_radial(f: RadialProfile) -> float:
    """omega_n * trapezoidal integral of r^(n-1) f(r) over [0, R]."""
    g = f.grid
    integrand = g.nodes ** (g.n - 1) * f.values
    return unit_sphere_area(g.n) * float(np.trapezoid(integrand, g.nodes))


def interpolate_monotone(f: RadialProfile, target: float) -> float:
    """Radius where the piecewise-linear profile crosses target.

    The profile must be monotone across the bracketing interval, so the
    crossing is unique.  Raises NoCrossingError if target is outside the
    attained range.
    """
    v = f.values
    r = f.grid.nodes
    hit = np.nonzero(v == target)[0]
    if hit.size:
        return float(r[hit[0]])
    d = v - target
    sign_change = np.nonzero(d[:-1] * d[1:] < 0)[0]
    if sign_change.size == 0:
        raise NoCrossingError(
            f"target {target} outside profile range [{v.min()}, {v.max()}]"
        )
    i = int(sign_change[0])
    frac = d[i] / (v[i] - v[i + 1])
    return float(r[i] + frac * (r[i + 1] - r[i]))
