"""Illinois regula falsi on the mass constraint over local solves: the
independent oracle for the direct nonlocal Newton on the ball and the 2D
grid.  full_grid_passes is the reference for the ball solve's coarse first
pass: the same grid passes with every one on the full grid.

On a domain exposing volume() and solve_local(sigma, params) -> (W, integral
of W^p), as BallLocalSolves and GridLocalSolves do, the map
g(lam) = lam * integral(W_lam^p) is continuous and strictly increasing, so
the constrained amplitude is the unique root of g(lam) = m.
Its certified floor is m / (b^p |Omega|), where W <= b forces g <= m.  The
bracket is found by doubling from the floor until g crosses m; inside it the
root is refined by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
f(x) = log(g(e^x) / m), x = log lam.  A proposal that does not lie strictly
inside the bracket is replaced by the bisection midpoint, so every iterate
stays in the certified bracket.
"""

import math

import numpy as np

from klayer import mass_constraint
from klayer.core import Field, Params, SteadyState, ball_volume, newton
from klayer.core import radial_weights
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import ball_grid
from klayer.planar2d import solve_local_2d
from klayer.radial_steady import ball_system, barrier_lower, lambda_leading, solve_local_radial

MAX_DOUBLINGS = 128
MAX_EVALS = 400


def constraint_value(lam: float, params: Params, domain) -> float:
    """g(lam) = lam * integral(W_lam^p), strictly increasing in lam."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _, integral = domain.solve_local(params.epsilon / lam, params)
    return lam * integral


def illinois(params: Params, domain, tol_rel: float = 1e-8) -> tuple[SteadyState, float]:
    """Root of g(lam) = m to |g - m| / m < tol_rel: the steady pair of the
    accepted local solve, whose bisection_iters counts the evaluations of g,
    beside |g - m| / m at the accepted amplitude."""
    if tol_rel <= 0:
        raise ValueError(f"tol_rel must be positive, got {tol_rel}")
    m = params.m

    def evaluate(lam):
        W, integral = domain.solve_local(params.epsilon / lam, params)
        return lam * integral, W, integral

    lam = m / (params.b**params.p * domain.volume())
    g, W, integral = evaluate(lam)
    iters = 1
    if abs(g - m) / m >= tol_rel:
        for _ in range(MAX_DOUBLINGS):
            lam_lo, g_lo = lam, g
            lam *= 2.0
            g, W, integral = evaluate(lam)
            iters += 1
            if abs(g - m) / m < tol_rel or g > m:
                break
        else:
            raise NoConvergenceError(
                f"constraint value did not cross m within {MAX_DOUBLINGS} doublings"
            )
        lam_hi, g_hi = lam, g
        # the end kept twice in a row has its f halved
        f_lo, f_hi = math.log(g_lo / m), math.log(g_hi / m)
        side = 0
        while abs(g - m) / m >= tol_rel:
            if iters >= MAX_EVALS or (lam_hi - lam_lo) <= 4 * math.ulp(lam_hi):
                raise NoConvergenceError(
                    f"root-finder stagnated at relative defect {abs(g - m) / m}"
                )
            x_lo, x_hi = math.log(lam_lo), math.log(lam_hi)
            lam = math.exp(x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo))
            if not lam_lo < lam < lam_hi:
                lam = 0.5 * (lam_lo + lam_hi)
            g, W, integral = evaluate(lam)
            iters += 1
            if g > m:
                lam_hi, f_hi = lam, math.log(g / m)
                if side == -1:
                    f_lo *= 0.5
                side = -1
            else:
                lam_lo, f_lo = lam, math.log(g / m)
                if side == 1:
                    f_hi *= 0.5
                side = 1

    return SteadyState(params, W, integral, iters), abs(g - m) / m


class BallLocalSolves:
    """The local problems of the ball B_R, each solved on the grid of count
    nodes that the nonlocal ball solve adapts to its sigma (ball_grid)."""

    def __init__(self, R, n, count=2500):
        self.R, self.n, self.count = R, n, count

    def volume(self):
        return ball_volume(self.R, self.n)

    def solve_local(self, sigma, params):
        grid = ball_grid(sigma, params, self.R, self.count)
        W = solve_local_radial(sigma, params, grid)
        return W, float(radial_weights(grid) @ W.values**params.p)


class GridLocalSolves:
    """The local problems of a masked 2D grid, each solved cold (from the
    layer profile, with its own factorisation)."""

    def __init__(self, grid):
        self.grid = grid

    def volume(self):
        return self.grid.area()

    def solve_local(self, sigma, params):
        grid = self.grid
        W = solve_local_2d(sigma, params, grid)
        wp = W.values[grid.inside] ** params.p
        return W, float(np.sum(grid.quad * wp)) + grid.held_area * params.b**params.p


def full_grid_passes(params: Params, R: float, count: int = 2500) -> SteadyState:
    """The ball's nonlocal solve with every grid pass on count nodes: the
    first from the lower barrier on ball_grid(sigma0), sigma0 = eps^2 *
    lambda_leading, each later one on ball_grid of the sigma the previous
    pass converged to, from its profile interpolated, until sigma moves by
    less than the solver's pass tolerance."""
    sigma = params.epsilon**2 * lambda_leading(params, R)
    grid = ball_grid(sigma, params, R, count)
    W = barrier_lower(grid.nodes, sigma, params, R)
    steps = 0
    for _ in range(mass_constraint._MAX_PASSES):
        w, integral, k = newton(W, None, params, ball_system(grid, radial_weights(grid)))
        steps += k
        previous, sigma = sigma, params.epsilon * integral / params.m
        if abs(sigma - previous) < mass_constraint._PASS_TOL * sigma:
            return SteadyState(params, Field(grid, w), integral, steps)
        new = ball_grid(sigma, params, R, count)
        W = np.interp(new.nodes, grid.nodes, w)
        grid = new
    raise NoConvergenceError("radial grid passes did not settle sigma")
