"""Radial boundary-value solvers and closed-form layer barriers.

Solves sigma * (W'' + (n-1)/r W') = W^(1+p) on (0, R) with W'(0) = 0 and
W(R) = b on the node-centred finite volumes of the radial grid,
sigma K W = V W^(1+p) with K the flux-difference operator over the grid's
face conductances and V its cell volumes, the one radial operator, which
ball_system hands to core.newton: at a given sigma (the local problem,
solve_local_radial), or with sigma = eps * int W^p / m taken from the
iterate itself (the nonlocal problem, which mass_constraint's ball solve
and evolve_radial's steady pair each pose with their quadrature of
int W^p).  evolve_radial time-steps on the same cells; the two nonlocal
solves differ only in that quadrature (core.radial_weights on the ball, the
cell volumes for the pair).  Every tridiagonal solve of both modules is one
call of solve_banded, the one tridiagonal kernel (LAPACK gtsv).  The
closed-form sub/super-solutions bracketing the solution are exposed as
barrier_lower / barrier_upper; they double as Newton initial iterates and
as independent checks on converged solutions.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import Field, NewtonSystem, Params, RadialGrid, newton, radial_weights, unit_sphere_area
from .errors import AxisSingularityError

__all__ = [
    "layer_profile_constant",
    "layer_profile",
    "layer_width",
    "lambda_leading",
    "barrier_lower",
    "barrier_upper",
    "upper_barrier_sigma_max",
    "ball_system",
    "solve_local_radial",
    "boundary_slope",
]


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

    The ball's nonlocal solve and evolve_radial's steady pair both start
    core.newton from sigma0 = eps^2 lambda_leading."""
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


def ball_system(grid: RadialGrid, quad: np.ndarray) -> NewtonSystem:
    """sigma K W = V W^(1+p), W(R) = b, on the cells of grid as core.newton
    takes it, every node an unknown.

    Row i of K W is g_i (W_(i+1) - W_i) - g_(i-1) (W_i - W_(i-1)), the net
    flux into cell i over the face conductances g (no flux across r = 0),
    so K W / V approximates W'' + (n-1)/r W'.  The last row, b - W(R) with
    weight 0, holds W(R) = b from a start that has it.  quad weighs every
    node in the integral(W^p) that core.newton returns (held_area 0):
    core.radial_weights on the ball, omega_n V for evolve_radial's pair.
    Each step is one solve_banded call; gtsv factorises as it solves, so
    there is no factorisation to reuse.
    """
    g = grid.conductances
    diagonal = -(np.concatenate(([0.0], g)) + np.concatenate((g, [0.0])))
    diagonal[-1] = -1.0
    weight = grid.volumes.copy()
    weight[-1] = 0.0

    def apply(w, b):
        flux = g * (w[1:] - w[:-1])  # into cell i across its right face
        out = np.empty_like(w)
        out[:-1] = flux
        out[1:-1] -= flux[:-1]
        out[-1] = b - w[-1]  # the Dirichlet row
        return out

    def factor(s, jd):
        up = s * g
        lo = up.copy()
        lo[-1] = 0.0
        return SimpleNamespace(solve=lambda rhs: solve_banded(lo, jd, up, rhs), reusable=False)

    return NewtonSystem(apply, diagonal, weight, quad, 0.0, factor)


def solve_local_radial(sigma: float, params: Params, grid: RadialGrid) -> Field:
    """Solve sigma (W'' + (n-1)/r W') = W^(1+p), W'(0) = 0, W(R) = b.

    core.newton on ball_system(grid, radial_weights(grid)) starts from the
    lower barrier (a sub-solution, which keeps the iterates in the monotone
    basin) and stops on the scaled and the absolute residual (see
    core.STEP_TOL and core.NEWTON_TOL); NoConvergenceError when it does not
    get there in core.MAX_ITERS steps.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if grid.n != params.n:
        raise ValueError(f"grid dimension {grid.n} != params dimension {params.n}")
    start = barrier_lower(grid.nodes, sigma, params, grid.R)
    w, _, _ = newton(start, sigma, params, ball_system(grid, radial_weights(grid)))
    return Field(grid, w)


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
