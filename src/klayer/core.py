"""Shared domain types: parameters, graded radial meshes, fields, the steady
pair and its one constructor (nonlocal_result), the one Newton of every
steady solve (newton, over a NewtonSystem), quadrature, interpolation.

Radial fields live on node-centred grids over [0, R].  All integrals use the
n-dimensional radial measure omega_n * r^(n-1) dr, where omega_n is the surface
area of the unit sphere (the n = 1 value omega_1 = 2 corresponds to the
symmetric interval [-R, R]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NoConvergenceError, NoCrossingError

__all__ = [
    "Params",
    "RadialGrid",
    "Field",
    "SteadyState",
    "nonlocal_result",
    "NewtonSystem",
    "newton",
    "unit_sphere_area",
    "ball_volume",
    "make_graded_grid",
    "refine_grid",
    "radial_weights",
    "radial_cumulative",
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
    around it, from 0 at the axis to R, the last node, at the boundary.
    volumes holds the cell volumes and conductances the area / dr of the
    N - 1 interior faces, both without the factor omega_n; they follow from
    nodes and n, so they take no part in construction or repr.
    """

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
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n}")
        n = int(self.n)
        faces = np.empty(nodes.size + 1)
        faces[0] = 0.0
        faces[-1] = nodes[-1]
        faces[1:-1] = 0.5 * (nodes[:-1] + nodes[1:])
        volumes = (faces[1:] ** n - faces[:-1] ** n) / n
        conductances = faces[1:-1] ** (n - 1) / np.diff(nodes)
        for name, value in (("nodes", nodes), ("volumes", volumes), ("conductances", conductances)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", n)

    @property
    def R(self) -> float:
        return float(self.nodes[-1])

    @property
    def count(self) -> int:
        return self.nodes.size

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes.shape


def _node_values(grid, values, name: str) -> np.ndarray:
    """A read-only float copy of values, checked to hold one finite value per
    node of grid (of grid.shape)."""
    values = np.array(values, dtype=float, order="C")
    if values.shape != grid.shape:
        raise ValueError(f"{name} shape {values.shape} does not match grid ({grid.shape})")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class Field:
    """A finite scalar field with one value per node of grid: a RadialGrid,
    or a planar2d.MaskedGrid, on whose nodes outside the domain the field
    holds its boundary value."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _node_values(self.grid, self.values, "field values"))


@dataclass(frozen=True)
class SteadyState:
    """Converged steady pair (W, U) plus the nonlocal constants and the
    solve's diagnostics.

    amplitude  = m / integral(W^p)   (so U = amplitude * W^p pointwise)
    lambda_eps = integral(W^p) / m   (reciprocal of amplitude)
    sigma      = epsilon * lambda_eps, the effective diffusion of the local
                 problem the pair solves.

    W and U are Fields on one grid, a RadialGrid for ball domains or a
    planar2d.MaskedGrid for planar ones.

    bisection_iters counts the Newton steps of the solve, over all grid
    passes on a ball, a coarse first one included; the name predates the
    direct Newton, which replaced a root-finder over local solves.
    constraint_residual is the relative defect |amplitude * integral(W^p)
    - m| / m; the amplitude is m / integral(W^p) of the converged W, so it
    is 0 up to rounding by construction and says nothing of the solve's
    accuracy.
    """

    W: object
    U: object
    amplitude: float
    lambda_eps: float
    sigma: float
    bisection_iters: int
    constraint_residual: float

    def __post_init__(self):
        if not (self.amplitude > 0 and self.lambda_eps > 0 and self.sigma > 0):
            raise ValueError("steady-state constants must be positive")


def nonlocal_result(params: Params, W: Field, integral: float, steps: int) -> SteadyState:
    """The steady pair of the converged Field W, integral(W^p) and the
    solve's steps: the one constructor of a SteadyState, on the ball, on a
    planar domain and for the evolution scheme's pair.

    The amplitude m / integral(W^p) makes U = amplitude * W^p, a Field on
    W's grid, integrate to m exactly and keeps amplitude * lambda_eps = 1 to
    rounding.
    """
    m = params.m
    amplitude = m / integral
    return SteadyState(
        W=W,
        U=Field(W.grid, amplitude * W.values**params.p),
        amplitude=amplitude,
        lambda_eps=integral / m,
        sigma=params.epsilon * integral / m,
        bisection_iters=steps,
        constraint_residual=abs(amplitude * integral - m) / m,
    )


# Newton controls of newton: the iteration cap and the stop.  Newton stops
# once the Jacobi-scaled residual max |F_i| / |J_ii|, an estimate of the
# Newton step, is below STEP_TOL * b and every |F_i| / M_i is below
# NEWTON_TOL times min(1, b^(1+p)), the size of W^(1+p) at the boundary, or
# |F_i| is below its own rounding floor.  The scaled test alone stops short
# where diffusion dominates (the smallest eigenvalue of sigma L lies far below
# its diagonal), the absolute one alone where W^(1+p) is far below NEWTON_TOL.
MAX_ITERS = 60
STEP_TOL = 1e-13
NEWTON_TOL = 1e-10


class NewtonSystem(NamedTuple):
    """sigma (L w + b bvec) = M w^(1+p) over the unknowns w of one grid, as
    newton takes it: apply(w, b) = L w + b bvec, the diagonal of L
    (negative), the row weights M (an array, or 1.0), the unknowns'
    quadrature quad and held_area, the measure held at W = b, so that
    integral(W^p) = quad @ w^p + held_area b^p; and factor(s, jd), the
    Jacobian s L with its diagonal replaced by jd, factorised: its
    .solve(rhs) takes one column or two, and newton reuses it over later
    steps unless its reusable attribute is False."""

    apply: Callable
    diagonal: np.ndarray
    weight: np.ndarray | float
    quad: np.ndarray
    held_area: float
    factor: Callable


def newton(w, sigma, params: Params, system: NewtonSystem, polish: bool = False):
    """Newton from w on the system's equation at a given sigma or, with
    sigma None, with sigma = eps * integral(W^p) / m following the iterate.

    The Jacobian is s L - (1+p) M diag(w^p); with sigma None it gains the
    rank one (eps/m) (L w + b bvec) (x) grad integral(W^p), eliminated by
    Sherman-Morrison from one two-column solve.  A reusable factorisation
    (a chord) is kept while full steps contract the scaled residual by at
    least 0.3.  A step that would take an entry below a tenth of its value
    is damped, and every iterate is floored at 1e-30 b.  Stops on the scaled
    and the absolute residual (STEP_TOL, NEWTON_TOL); with polish, one more
    step follows, taken in q = W^(-p/2).  Returns (min(w, b), Newton steps);
    raises NoConvergenceError after MAX_ITERS steps, when an iterate turns
    non-finite, or when the converged w exceeds b.
    """
    p, b = params.p, params.b
    M = system.weight
    at = "the nonlocal problem" if sigma is None else f"sigma={sigma}"
    floor = 1e-30 * b
    coef = params.epsilon / params.m
    # float64 cancellation floor of each residual, over sigma: the sigma L w
    # terms are O(sigma |L_ii|) individually, so F_i cannot drop below their
    # rounding error however exact the iterate
    rounding = 8.0 * np.finfo(float).eps * np.abs(system.diagonal) * b
    res_tol = NEWTON_TOL * min(1.0, b ** (1.0 + p)) * M
    w = np.maximum(w, floor)
    lu = None
    res_prev = math.inf
    limited = False
    for steps in range(MAX_ITERS + 1):
        wp = w**p
        lap = system.apply(w, b)
        s = sigma
        if sigma is None:
            s = coef * (float(system.quad @ wp) + system.held_area * b**p)
        F = s * lap - M * wp * w
        jd = s * system.diagonal - (1.0 + p) * M * wp
        res = float(np.max(np.abs(F) / np.abs(jd)))
        done = res < STEP_TOL * b and np.all(np.abs(F) < np.maximum(res_tol, rounding * s))
        if done and not polish:
            break
        if steps == MAX_ITERS:
            raise NoConvergenceError(f"Newton failed on {at} after {MAX_ITERS} iterations")
        # reuse a factorisation only while full steps keep contracting; a
        # stale reaction diagonal far from the solution causes overshoot
        if lu is None or limited or res > 0.3 * res_prev or not getattr(lu, "reusable", True):
            lu = None  # release the stale factors before computing new ones
            lu = system.factor(s, jd)
        res_prev = res
        if sigma is None:
            # as rows of one C-ordered array, so that row @ y sums in the same
            # order whatever the layout of the solve's result
            y, z = np.ascontiguousarray(lu.solve(np.column_stack((-F, coef * lap))).T)
            row = p * system.quad * wp / w
            delta = y - z * (row @ y) / (1.0 + row @ z)
        else:
            delta = lu.solve(-F)
        if done:
            # the step in q = W^(-p/2), the variable in which the layer
            # b (1 + z/l)^(-2/p) is linear: q moves by -(p/2) q delta / W
            w = w * (1.0 - 0.5 * p * delta / w) ** (-2.0 / p)
            steps += 1
            break
        # damp a step that would take an entry below a tenth of its value
        ratio = -float(np.min(delta / w))
        limited = ratio > 0.9
        if limited:
            delta *= 0.9 / ratio
        w = np.maximum(w + delta, floor)
        if not np.all(np.isfinite(w)):
            raise NoConvergenceError(f"Newton iterate on {at} turned non-finite")
    overshoot = float(np.max(w)) - b
    if overshoot > 1e-9 * b:
        raise NoConvergenceError(f"converged iterate exceeds b by {overshoot}")
    return np.minimum(w, b), steps


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
    return RadialGrid(nodes=nodes, n=n)


def refine_grid(grid: RadialGrid) -> RadialGrid:
    """Halve every interval by inserting midpoints (nested refinement)."""
    r = grid.nodes
    mids = 0.5 * (r[:-1] + r[1:])
    nodes = np.empty(r.size + mids.size)
    nodes[0::2] = r
    nodes[1::2] = mids
    return RadialGrid(nodes=nodes, n=grid.n)


def radial_weights(grid: RadialGrid) -> np.ndarray:
    """Node weights of the ball's quadrature: omega_n r^(n-1) times the
    trapezoid weights of the nodes, so that weights @ f integrates f over
    the ball.  radial_cumulative sums the same trapezoids from the axis;
    the two state the rule for every caller, so a change of rule (to the
    cell volumes) edits both and nothing else."""
    r = grid.nodes
    h = np.diff(r)
    w = np.zeros_like(r)
    w[:-1] += 0.5 * h
    w[1:] += 0.5 * h
    return unit_sphere_area(grid.n) * w * r ** (grid.n - 1)


def radial_cumulative(grid: RadialGrid, values) -> np.ndarray:
    """omega_n times the integral of values r^(n-1) from the axis to each
    node, summed over the trapezoids of radial_weights: 0 at the axis, and
    radial_weights(grid) @ values, up to rounding, at R."""
    r = grid.nodes
    f = np.asarray(values, dtype=float) * r ** (grid.n - 1)
    out = np.zeros_like(r)
    np.cumsum(0.5 * np.diff(r) * (f[:-1] + f[1:]), out=out[1:])
    return unit_sphere_area(grid.n) * out


def interpolate_monotone(f: Field, target: float) -> float:
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
