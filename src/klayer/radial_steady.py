"""Local radial boundary-value solver and closed-form layer barriers.

Solves sigma * (W'' + (n-1)/r W') = W^(1+p) on (0, R) with W'(0) = 0 and
W(R) = b by damped Newton on a second-order finite-difference discretisation.
The closed-form sub/super-solutions bracketing the solution are exposed as
barrier_lower / barrier_upper; they double as Newton initial iterates and as
independent checks on converged solutions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import solve_banded

from .core import Params, RadialGrid, RadialProfile
from .errors import AxisSingularityError, NoConvergenceError

__all__ = [
    "layer_profile_constant",
    "layer_width",
    "barrier_lower",
    "barrier_upper",
    "upper_barrier_sigma_max",
    "solve_local_radial",
    "boundary_slope",
]


# Newton controls of the local solves (radial here, 2D in planar2d): residual
# max-norm target, iteration cap, step damping
NEWTON_TOL = 1e-10
MAX_ITERS = 60
DAMPING = 1.0


def layer_profile_constant(p: float) -> float:
    """The constant c_p = sqrt((2/p)(2/p + 1)) of the algebraic layer profile."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return math.sqrt((2.0 / p) * (2.0 / p + 1.0))


def layer_width(sigma: float, params: Params) -> float:
    """Characteristic boundary-layer width c_p * sqrt(sigma) / b^(p/2)."""
    cp = layer_profile_constant(params.p)
    return cp * math.sqrt(sigma) / params.b ** (params.p / 2.0)


def barrier_lower(r, sigma: float, params: Params, R: float):
    """Sub-solution b * (1 + b^(p/2) (R - r) / (c_p sqrt(sigma)))^(-2/p).

    Valid for every sigma > 0 and dimension; equals b at r = R and decreases
    toward the interior.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > R):
        raise ValueError("radius outside [0, R]")
    p, b = params.p, params.b
    cp = layer_profile_constant(p)
    z = (R - r) * b ** (p / 2.0) / (cp * math.sqrt(sigma))
    out = b * (1.0 + z) ** (-2.0 / p)
    return out if out.ndim else float(out)


def upper_barrier_sigma_max(params: Params, R: float) -> float:
    """Largest sigma for which the printed n = 2 super-solution is certified.

    Conservative explicit value (the sharp threshold is not available in
    closed form); for n != 2 the super-solution needs no smallness, so the
    bound is +inf.
    """
    if params.n != 2:
        return math.inf
    p, b = params.p, params.b
    cp = layer_profile_constant(p)
    ap = max(0.5, 2.0 / p)
    bp2 = b ** (p / 2.0)
    t1 = p * ap * b**p / (8.0 * ap / R**2 + 8.0 * ap**2 * bp2 / (cp * R))
    t2 = (p / (2.0 + p)) * b**p * R**2 * cp / (4.0 * ap**2 * cp + 8.0 * ap**2 * bp2 * R)
    return min(t1, t2, 1.0) ** 2


def barrier_upper(r, sigma: float, params: Params, R: float):
    """Super-solution bracketing the radial solution from above.

    n >= 3: b (R/r)^((n-1)/2) (1 + b^(p/2)(R-r)/(c_p sqrt(sigma)))^(-2/p)
    n = 2 : same with exponent a_p = max(1/2, 2/p) and the widened constant
            c_{p,1} = c_p (1 - a_p^2 sigma / (b^p R^2))^(-1/2); requires
            sigma < b^p R^2 / a_p^2.
    n = 1 : lower barrier plus the additive tail c_p^(2/p) sigma^(1/p) / R^(2/p).

    Diverges at r = 0 for n >= 2 (AxisSingularityError).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > R):
        raise ValueError("radius outside [0, R]")
    p, b, n = params.p, params.b, params.n
    cp = layer_profile_constant(p)
    bp2 = b ** (p / 2.0)

    if n == 1:
        tail = cp ** (2.0 / p) * sigma ** (1.0 / p) / R ** (2.0 / p)
        out = np.asarray(barrier_lower(r, sigma, params, R)) + tail
        return out if out.ndim else float(out)

    if np.any(r == 0):
        raise AxisSingularityError("upper barrier diverges at r = 0 for n >= 2")
    if n == 2:
        ap = max(0.5, 2.0 / p)
        arg = 1.0 - ap**2 * sigma / (b**p * R**2)
        if arg <= 0:
            raise ValueError(
                f"sigma={sigma} too large for the n=2 bound (needs sigma < {b**p * R**2 / ap**2})"
            )
        c_eff = cp / math.sqrt(arg)
        expo = ap
    else:
        c_eff = cp
        expo = (n - 1) / 2.0
    z = (R - r) * bp2 / (c_eff * math.sqrt(sigma))
    out = b * (R / r) ** expo * (1.0 + z) ** (-2.0 / p)
    return out if out.ndim else float(out)


def _operator_bands(grid: RadialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal bands of W'' + (n-1)/r W' on the non-uniform grid.

    Row 0 carries the regularised axis operator n * W''(0) (the r -> 0 limit
    under the even symmetry W'(0) = 0); the last row is left empty for the
    Dirichlet condition.
    """
    r = grid.nodes
    n = grid.n
    N = r.size
    h = np.diff(r)
    lo = np.zeros(N)  # coupling to node i-1
    di = np.zeros(N)
    up = np.zeros(N)  # coupling to node i+1

    hm = h[:-1]
    hp = h[1:]
    # second derivative, three-point on non-uniform spacing
    d2l = 2.0 / (hm * (hm + hp))
    d2c = -2.0 / (hm * hp)
    d2r = 2.0 / (hp * (hm + hp))
    # first derivative, three-point central
    d1l = -hp / (hm * (hm + hp))
    d1c = (hp - hm) / (hm * hp)
    d1r = hm / (hp * (hm + hp))
    fac = (n - 1) / r[1:-1]
    lo[1:-1] = d2l + fac * d1l
    di[1:-1] = d2c + fac * d1c
    up[1:-1] = d2r + fac * d1r

    di[0] = -2.0 * n / h[0] ** 2
    up[0] = 2.0 * n / h[0] ** 2
    return lo, di, up


def _solve_tridiag(lo, di, up, rhs):
    ab = np.zeros((3, di.size))
    ab[0, 1:] = up[:-1]
    ab[1, :] = di
    ab[2, :-1] = lo[1:]
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=False)


def solve_local_radial(
    sigma: float,
    params: Params,
    grid: RadialGrid,
    initial: np.ndarray | None = None,
) -> RadialProfile:
    """Solve sigma (W'' + (n-1)/r W') = W^(1+p), W'(0) = 0, W(R) = b.

    Newton starts from the lower barrier (a sub-solution, which keeps the
    iterates in the monotone basin) unless an explicit initial iterate is
    given.  One automatic retry with halved damping precedes
    NoConvergenceError.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if grid.n != params.n:
        raise ValueError(f"grid dimension {grid.n} != params dimension {params.n}")
    p, b = params.p, params.b
    R = grid.R
    r = grid.nodes
    N = r.size
    lo, di, up = _operator_bands(grid)
    floor = 1e-30 * b

    def residual(W):
        res = sigma * (
            lo * np.concatenate(([0.0], W[:-1]))
            + di * W
            + up * np.concatenate((W[1:], [0.0]))
        ) - W ** (1.0 + p)
        res[-1] = W[-1] - b
        return res

    # float64 cancellation floor of the residual evaluation: the sigma * L * W
    # terms are O(sigma/h^2) individually, so the residual cannot drop below
    # their rounding error no matter how exact the iterate is
    res_floor = 8.0 * np.finfo(float).eps * sigma * np.max(np.abs(di)) * b
    tol_eff = max(NEWTON_TOL, res_floor)

    def attempt(damping: float) -> np.ndarray | None:
        if initial is not None:
            W = np.array(initial, dtype=float)
            if W.shape != r.shape:
                raise ValueError("initial iterate shape does not match grid")
        else:
            W = np.asarray(barrier_lower(r, sigma, params, R), dtype=float)
        W = np.maximum(W, floor)
        for _ in range(MAX_ITERS):
            F = residual(W)
            if np.max(np.abs(F)) < tol_eff:
                return W
            jd = sigma * di - (1.0 + p) * W**p
            jl = sigma * lo
            ju = sigma * up
            jl[-1] = 0.0
            jd[-1] = 1.0
            delta = _solve_tridiag(jl, jd, ju, -F)
            W = np.maximum(W + damping * delta, floor)
            if not np.all(np.isfinite(W)):
                return None
        return None

    W = attempt(DAMPING)
    if W is None:
        W = attempt(DAMPING / 2.0)
    if W is None:
        raise NoConvergenceError(
            f"Newton failed at sigma={sigma} after {MAX_ITERS} iterations "
            "(twice, second time with halved damping)"
        )
    W[-1] = b
    overshoot = np.max(W) - b
    if overshoot > 1e-9 * b:
        raise NoConvergenceError(f"converged iterate exceeds b by {overshoot}")
    np.minimum(W, b, out=W)
    return RadialProfile(grid=grid, values=W)


def boundary_slope(W: RadialProfile) -> float:
    """One-sided second-order finite difference for W'(R)."""
    r = W.grid.nodes
    v = W.values
    if r.size < 4:
        raise ValueError("boundary slope needs at least 4 nodes")
    x0, x1, x2 = r[-3], r[-2], r[-1]
    f0, f1, f2 = v[-3], v[-2], v[-1]
    return float(
        f0 * (x2 - x1) / ((x0 - x1) * (x0 - x2))
        + f1 * (x2 - x0) / ((x1 - x0) * (x1 - x2))
        + f2 * (2.0 * x2 - x0 - x1) / ((x2 - x0) * (x2 - x1))
    )
