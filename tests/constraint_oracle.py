"""Illinois regula falsi on the mass constraint over local solves: the
independent oracle for the direct nonlocal Newtons of the ball and the 2D
grid.

On a domain exposing volume() and solve_local(sigma, params) -> (W, integral
of W^p), the map g(lam) = lam * integral(W_lam^p) is continuous and strictly
increasing, so the constrained amplitude is the unique root of g(lam) = m.
Its certified floor is m / (b^p |Omega|), where W <= b forces g <= m.  The
bracket is found by doubling from the floor until g crosses m; inside it the
root is refined by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
f(x) = log(g(e^x) / m), x = log lam.  A proposal that does not lie strictly
inside the bracket is replaced by the bisection midpoint, so every iterate
stays in the certified bracket.
"""

import math
from dataclasses import replace

import numpy as np

from klayer.core import Params
from klayer.errors import NoConvergenceError
from klayer.mass_constraint import NonlocalResult, solve_nonlocal
from klayer.planar2d import solve_local_2d

MAX_DOUBLINGS = 128
MAX_EVALS = 400


def constraint_value(lam: float, params: Params, domain) -> float:
    """g(lam) = lam * integral(W_lam^p), strictly increasing in lam."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _, integral = domain.solve_local(params.epsilon / lam, params)
    return lam * integral


def illinois(params: Params, domain, tol_rel: float = 1e-8) -> NonlocalResult:
    """Root of g(lam) = m to |g - m| / m < tol_rel, built into the steady
    pair by solve_nonlocal; bisection_iters counts the evaluations of g and
    constraint_residual is |g - m| / m at the accepted amplitude."""
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

    class Root:
        def solve_constrained(self, _params):
            return W, integral, iters

    return replace(solve_nonlocal(params, Root()), constraint_residual=abs(g - m) / m)


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
