"""Radial boundary-value solvers and closed-form layer barriers.

Solves sigma * (W'' + (n-1)/r W') = W^(1+p) on (0, R) with W'(0) = 0 and
W(R) = b by Newton (_newton) on the node-centred finite volumes of the
radial grid, sigma K W = V W^(1+p) with K the flux-difference operator over
the grid's face conductances and V its cell volumes: at a given sigma (the
local problem, solve_local_radial), or with sigma = eps * int W^p / m taken
from the iterate itself (the nonlocal problem, which mass_constraint's ball
solve and evolve_radial's steady pair each pose by calling _newton with
their quadrature of int W^p).  evolve_radial time-steps on the same
cells; the two nonlocal solves differ only in that quadrature
(core.radial_weights on the ball, the cell volumes for the pair).
Every tridiagonal solve of both modules is one call of solve_banded, the one
tridiagonal kernel (LAPACK gtsv).  The closed-form sub/super-solutions
bracketing the solution are exposed as barrier_lower / barrier_upper; they
double as Newton initial iterates and as independent checks on converged
solutions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import Field, Params, RadialGrid, unit_sphere_area
from .errors import AxisSingularityError, NoConvergenceError

__all__ = [
    "layer_profile_constant",
    "layer_profile",
    "layer_width",
    "lambda_leading",
    "barrier_lower",
    "barrier_upper",
    "upper_barrier_sigma_max",
    "solve_local_radial",
    "boundary_slope",
]


# Newton controls of the radial solves: the iteration cap and STEP_TOL,
# shared with the 2D solve in planar2d.  The radial Newton stops
# once the Jacobi-scaled residual max |F_i| / |J_ii|, an estimate of the
# Newton step, is below STEP_TOL * b and every |F_i| / V_i is below
# NEWTON_TOL times min(1, b^(1+p)), the size of W^(1+p) at the boundary, or
# |F_i| is below its own rounding floor.  The scaled test alone stops short
# where diffusion dominates (the smallest eigenvalue of sigma K lies far below
# its diagonal), the absolute one alone where W^(1+p) is far below NEWTON_TOL.
MAX_ITERS = 60
STEP_TOL = 1e-13
NEWTON_TOL = 1e-10


def layer_profile_constant(p: float) -> float:
    """The constant c_p = sqrt((2/p)(2/p + 1)) of the algebraic layer profile."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    return math.sqrt((2.0 / p) * (2.0 / p + 1.0))


def layer_width(sigma: float, params: Params) -> float:
    """Characteristic boundary-layer width c_p * sqrt(sigma) / b^(p/2)."""
    cp = layer_profile_constant(params.p)
    return cp * math.sqrt(sigma) / params.b ** (params.p / 2.0)


def lambda_leading(params: Params, R: float) -> float:
    """Coefficient of eps in lambda_eps on the ball B_R(0):
    omega_n^2 b^p c_p^2 R^(2n-2) / m^2.

    Both radial nonlocal Newtons start from sigma0 = eps^2 lambda_leading."""
    om = unit_sphere_area(params.n)
    return (
        om**2
        * params.b**params.p
        * layer_profile_constant(params.p) ** 2
        * R ** (2 * params.n - 2)
        / params.m**2
    )


def layer_profile(depth, sigma: float, params: Params):
    """The algebraic layer b (1 + d b^(p/2) / (c_p sqrt(sigma)))^(-2/p) at
    depth d below the boundary."""
    p, b = params.p, params.b
    z = depth * b ** (p / 2.0) / (layer_profile_constant(p) * math.sqrt(sigma))
    return b * (1.0 + z) ** (-2.0 / p)


def barrier_lower(r, sigma: float, params: Params, R: float):
    """Sub-solution b * (1 + b^(p/2) (R - r) / (c_p sqrt(sigma)))^(-2/p), the
    layer_profile at depth R - r.

    Valid for every sigma > 0 and dimension; equals b at r = R and decreases
    toward the interior.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > R):
        raise ValueError("radius outside [0, R]")
    out = layer_profile(R - r, sigma, params)
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


def solve_banded(lo, di, up, rhs):
    """Solve the tridiagonal system with sub-, main and super-diagonal lo, di, up.

    lo and up have one entry fewer than di; rhs may hold several columns.
    One call of LAPACK gtsv, the routine scipy.linalg.solve_banded((1, 1), ...)
    runs, with its guards but not its per-call overhead: ValueError on a
    non-finite entry, LinAlgError on a singular matrix, no input overwritten.
    The finiteness guard is one pass over a flattened copy of all four
    arguments, every column of rhs included.  Every caller looks it up as a
    module attribute, so a wrapper set here sees every tridiagonal solve.
    """
    if not np.isfinite(np.concatenate((lo, di, up, rhs), axis=None)).all():
        raise ValueError("tridiagonal system has a non-finite entry")
    *_, x, info = dgtsv(lo, di, up, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _solve_tridiag_rank_one(lo, di, up, rhs, col, row):
    """Solve (T + col row^T) x = rhs, T tridiagonal as in solve_banded.

    One banded solve with the two right-hand sides rhs and col, combined by
    Sherman-Morrison.
    """
    y, z = solve_banded(lo, di, up, np.column_stack((rhs, col))).T
    return y - z * (row @ y) / (1.0 + row @ z)


def _newton(W, sigma, params, grid, weights=None, polish=False):
    """Newton from W on sigma K W = V W^(1+p) off the last row, W(R) = b.

    K is the flux-difference operator over the cells of grid, row i of K W
    being g_i (W_(i+1) - W_i) - g_(i-1) (W_i - W_(i-1)), the net flux into
    cell i (g the conductances, zero row sums, no flux across r = 0; the
    last row is the Dirichlet one), so that K W / V, V the cell volumes,
    approximates W'' + (n-1)/r W'.  With sigma None,
    sigma = eps * int W^p / m follows the iterate, int W^p being
    weights @ W^p, and the Jacobian gains the rank one
    (eps/m) K W (x) grad int W^p, so each step is one tridiagonal solve with
    two right-hand sides combined by Sherman-Morrison.
    Stops on the Jacobi-scaled and the absolute residual per unit of V
    (STEP_TOL, NEWTON_TOL); with polish, one more step follows, taken in
    q = W^(-p/2).  Returns (the Field on grid, tridiagonal solves);
    raises NoConvergenceError after MAX_ITERS steps, when an iterate turns
    non-finite, or when the converged W exceeds b.
    """
    if grid.n != params.n:
        raise ValueError(f"grid dimension {grid.n} != params dimension {params.n}")
    W = np.asarray(W, dtype=float)
    if W.shape != grid.nodes.shape:
        raise ValueError("initial iterate shape does not match grid")
    p, b = params.p, params.b
    g, V = grid.conductances, grid.volumes
    di = -(np.concatenate(([0.0], g)) + np.concatenate((g, [0.0])))
    at = "the nonlocal problem" if sigma is None else f"sigma={sigma}"
    floor = 1e-30 * b
    coef = params.epsilon / params.m
    # float64 cancellation floor of each residual, over sigma: the sigma K W
    # terms are O(sigma |K_ii|) individually, so F_i cannot drop below their
    # rounding error however exact the iterate
    rounding = 8.0 * np.finfo(float).eps * np.abs(di) * b
    res_tol = NEWTON_TOL * min(1.0, b ** (1.0 + p)) * V
    W = np.maximum(W, floor)
    for steps in range(MAX_ITERS + 1):
        Wp = W**p
        flux = g * (W[1:] - W[:-1])  # into cell i across its right face
        KW = np.zeros_like(W)
        KW[:-1] = flux
        KW[1:] -= flux
        s = coef * float(weights @ Wp) if sigma is None else sigma
        F = s * KW - V * Wp * W
        F[-1] = W[-1] - b
        jd = s * di - (1.0 + p) * V * Wp
        jd[-1] = 1.0
        done = np.max(np.abs(F) / np.abs(jd)) < STEP_TOL * b and np.all(
            np.abs(F) < np.maximum(res_tol, rounding * s)
        )
        if done and not polish:
            break
        if steps == MAX_ITERS:
            raise NoConvergenceError(f"Newton failed on {at} after {MAX_ITERS} iterations")
        ju = s * g
        jl = ju.copy()
        jl[-1] = 0.0
        if sigma is None:
            col = coef * KW  # d F / d sigma, zero on the Dirichlet row
            col[-1] = 0.0
            row = p * weights * Wp / W  # grad int W^p
            delta = _solve_tridiag_rank_one(jl, jd, ju, -F, col, row)
        else:
            delta = solve_banded(jl, jd, ju, -F)
        if done:
            # the step in q = W^(-p/2), the variable in which the layer
            # b (1 + z/l)^(-2/p) is linear: q moves by -(p/2) q delta / W
            W = W * (1.0 - 0.5 * p * delta / W) ** (-2.0 / p)
            steps += 1
            break
        W = np.maximum(W + delta, floor)
        if not np.all(np.isfinite(W)):
            raise NoConvergenceError(f"Newton iterate on {at} turned non-finite")
    W[-1] = b
    overshoot = np.max(W) - b
    if overshoot > 1e-9 * b:
        raise NoConvergenceError(f"converged iterate exceeds b by {overshoot}")
    np.minimum(W, b, out=W)
    return Field(grid=grid, values=W), steps


def solve_local_radial(
    sigma: float,
    params: Params,
    grid: RadialGrid,
    initial: np.ndarray | None = None,
) -> Field:
    """Solve sigma (W'' + (n-1)/r W') = W^(1+p), W'(0) = 0, W(R) = b.

    Newton starts from the lower barrier (a sub-solution, which keeps the
    iterates in the monotone basin) unless an explicit initial iterate is
    given, and stops on the scaled and the absolute residual (see STEP_TOL
    and NEWTON_TOL); NoConvergenceError when it does not get there in
    MAX_ITERS steps.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if initial is None:
        initial = barrier_lower(grid.nodes, sigma, params, grid.R)
    return _newton(initial, sigma, params, grid)[0]


def boundary_slope(W: Field) -> float:
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
