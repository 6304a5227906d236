"""Resolution of the nonlocal mass constraint by a bracketed root-finder.

The steady problem couples eps * Lap W = lam * W^(1+p) (Dirichlet data b) to
the constraint lam * integral(W^p) = m.  The map

    g(lam) = lam * integral(W_lam^p)

is continuous and strictly increasing, so the constrained amplitude is the
unique root of g(lam) = m, bracketed below by m / (b^p |Omega|) (where
W <= b forces g <= m) and above by doubling.  Inside the bracket the root is
refined by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on
f(x) = log(g(e^x) / m), x = log lam, which is close to linear in the layer
regime where g grows like a power of lam.  A proposal that does not lie
strictly inside the bracket is replaced by the bisection midpoint, so every
iterate stays in the certified bracket: monotonicity of the discrete g is all
that is relied on, and the bracket still shrinks onto the unique root.

The module is generic over the local solver: any domain object exposing
volume() and solve_local(sigma, params) works (radial balls here, masked 2D
grids in planar2d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Params,
    RadialGrid,
    RadialProfile,
    SteadyState,
    ball_volume,
    integrate_radial,
    make_graded_grid,
)
from .errors import BracketFailureError, NoConvergenceError
from .radial_steady import layer_width, solve_local_radial

__all__ = [
    "NonlocalResult",
    "RadialBallDomain",
    "constraint_value",
    "solve_nonlocal",
]

_MAX_DOUBLINGS = 128
_MAX_EVALS = 400
# an adapted grid's boundary spacing is the layer width over this
_BOUNDARY_REFINE = 160.0


@dataclass(frozen=True)
class NonlocalResult:
    """Converged steady state plus root-finder diagnostics.

    bisection_iters counts the constraint evaluations (local solves) of the
    whole solve, doubling phase included; the name predates the Illinois
    update.  constraint_residual is the relative defect
    |lam * integral(W^p) - m| / m at the accepted amplitude.
    """

    steady: SteadyState
    bisection_iters: int
    constraint_residual: float

    def __post_init__(self):
        if self.constraint_residual < 0:
            raise ValueError("constraint residual cannot be negative")


class RadialBallDomain:
    """Ball B_R(0) solved with the graded-mesh radial Newton solver.

    A fresh grid adapted to each requested sigma is built: the boundary
    spacing tracks 1/160 of the layer width so the profile (and its p-th
    power) stay resolved across the whole root bracket.
    """

    def __init__(self, R: float, n: int, count: int = 2500):
        if R <= 0:
            raise ValueError(f"R must be positive, got {R}")
        self.R = float(R)
        self.n = int(n)
        self.count = int(count)

    def volume(self) -> float:
        return ball_volume(self.R, self.n)

    def grid_for(self, sigma: float, params: Params) -> RadialGrid:
        ell = layer_width(sigma, params)
        h_b = min(ell / _BOUNDARY_REFINE, self.R / (self.count - 1))
        return make_graded_grid(self.R, self.n, 10.0 * h_b, self.count)

    def solve_local(self, sigma: float, params: Params):
        """Solve at the given sigma; returns (W profile, integral of W^p)."""
        grid = self.grid_for(sigma, params)
        W = solve_local_radial(sigma, params, grid)
        wp = RadialProfile(grid=grid, values=W.values**params.p)
        return W, integrate_radial(wp)


def constraint_value(lam: float, params: Params, domain) -> float:
    """g(lam) = lam * integral(W_lam^p), strictly increasing in lam."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _, integral = domain.solve_local(params.epsilon / lam, params)
    return lam * integral


def solve_nonlocal(params: Params, domain, tol_rel: float = 1e-8) -> NonlocalResult:
    """Find the amplitude closing the mass constraint and build the steady pair.

    Terminates when |g(lam) - m| / m < tol_rel.  The returned amplitude is
    recomputed from the converged profile as m / integral(W^p), which makes
    U = amplitude * W^p integrate to m exactly and keeps
    amplitude * lambda_eps = 1 to rounding.
    """
    if tol_rel <= 0:
        raise ValueError(f"tol_rel must be positive, got {tol_rel}")
    m = params.m

    def evaluate(lam: float):
        W, integral = domain.solve_local(params.epsilon / lam, params)
        return lam * integral, W, integral

    lam_lo = m / (params.b**params.p * domain.volume())
    iters = 0

    g_lo, W, integral = evaluate(lam_lo)
    iters += 1
    lam, g = lam_lo, g_lo

    if abs(g - m) / m >= tol_rel:
        lam_hi = lam_lo
        g_hi = g_lo
        for _ in range(_MAX_DOUBLINGS):
            lam_hi *= 2.0
            g_hi, W_hi, integral_hi = evaluate(lam_hi)
            iters += 1
            if g_hi > m:
                break
            lam_lo, g_lo = lam_hi, g_hi
        else:
            raise BracketFailureError(
                f"constraint value still below m after {_MAX_DOUBLINGS} doublings"
            )
        lam, g, W, integral = lam_hi, g_hi, W_hi, integral_hi
        # Illinois regula falsi on f = log(g / m) over x = log lam; `side`
        # records which end the last iterate replaced, and the end kept twice
        # in a row has its f halved
        f_lo, f_hi = math.log(g_lo / m), math.log(g_hi / m)
        side = 0
        while abs(g - m) / m >= tol_rel:
            if iters >= _MAX_EVALS or (lam_hi - lam_lo) <= 4 * math.ulp(lam_hi):
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

    amplitude = m / integral
    U = _scaled_power(W, amplitude, params.p)
    steady = SteadyState(
        W=W,
        U=U,
        amplitude=amplitude,
        lambda_eps=integral / m,
        sigma=params.epsilon * integral / m,
    )
    return NonlocalResult(
        steady=steady,
        bisection_iters=iters,
        constraint_residual=abs(lam * integral - m) / m,
    )


def _scaled_power(W, amplitude: float, p: float):
    if isinstance(W, RadialProfile):
        return RadialProfile(grid=W.grid, values=amplitude * W.values**p)
    return W.scaled_power(amplitude, p)
