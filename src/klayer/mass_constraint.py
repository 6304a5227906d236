"""Resolution of the nonlocal mass constraint.

The steady problem couples eps * Lap W = lam * W^(1+p) (Dirichlet data b) to
the constraint lam * integral(W^p) = m.

On a ball (RadialBallDomain) the two are solved as one equation,
eps Lap W = (m / integral(W^p)) W^(1+p), by the radial Newton of
radial_steady.solve_nonlocal_radial, whose Jacobian is tridiagonal plus rank
one.  The ball drives it over grids adapted to the layer: each pass rebuilds
the grid at the sigma = eps * integral(W^p) / m the last one converged to,
until sigma settles.

Every other domain goes through the local problem at fixed amplitude.  The
map

    g(lam) = lam * integral(W_lam^p)

is continuous and strictly increasing, so the constrained amplitude is the
unique root of g(lam) = m.  Its certified floor is m / (b^p |Omega|), where
W <= b forces g <= m.  The bracket is found by one walk from a start
amplitude away from the root until g crosses m, never below the floor: from
the floor by doubling when no start is given, or from a given one (planar2d
passes the radial amplitude of the disk of equal area) by steps of x1.15.
Inside the bracket the root is refined by Illinois regula falsi (Dowell &
Jarratt, BIT 11, 1971) on
f(x) = log(g(e^x) / m), x = log lam, which is close to linear in the layer
regime where g grows like a power of lam.  A proposal that does not lie
strictly inside the bracket is replaced by the bisection midpoint, so every
iterate stays in the certified bracket: monotonicity of the discrete g is all
that is relied on, and the bracket still shrinks onto the unique root.

The root-finder is generic over the local solver: any domain object exposing
volume() and solve_local(sigma, params) works (masked 2D grids in planar2d,
or a wrapper around a ball's local solves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Params,
    RadialGrid,
    RadialProfile,
    SteadyState,
    ball_volume,
    integrate_radial,
    make_graded_grid,
    unit_sphere_area,
)
from .errors import BracketFailureError, NoConvergenceError
from .radial_steady import (
    barrier_lower,
    layer_profile_constant,
    layer_width,
    solve_local_radial,
    solve_nonlocal_radial,
)

__all__ = [
    "NonlocalResult",
    "RadialBallDomain",
    "constraint_value",
    "lambda_leading",
    "solve_nonlocal",
]

_MAX_BRACKET_STEPS = 128  # doublings, or steps of _SEED_STEP from a guess
_SEED_STEP = 1.15
_MAX_EVALS = 400
# an adapted grid's boundary spacing is the layer width over this
_BOUNDARY_REFINE = 160.0
# the ball's grid passes stop when sigma moves by less than this, relative
_PASS_TOL = 1e-9
_MAX_PASSES = 8


def lambda_leading(params: Params, R: float) -> float:
    """Coefficient of eps in lambda_eps: omega_n^2 b^p c_p^2 R^(2n-2) / m^2."""
    om = unit_sphere_area(params.n)
    return (
        om**2
        * params.b**params.p
        * layer_profile_constant(params.p) ** 2
        * R ** (2 * params.n - 2)
        / params.m**2
    )


@dataclass(frozen=True)
class NonlocalResult:
    """Converged steady state plus solver diagnostics.

    bisection_iters counts the work of the whole solve.  On a ball it is the
    number of Newton steps over all grid passes.  On any other domain it is
    the number of constraint evaluations (local solves), bracketing phase
    included; the name predates both the Illinois update and the direct
    radial Newton.  constraint_residual is the relative defect
    |lam * integral(W^p) - m| / m at the accepted amplitude; on a ball the
    amplitude is m / integral(W^p) of the converged W, so it is 0 by
    construction and says nothing of the solve's accuracy.
    """

    steady: SteadyState
    bisection_iters: int
    constraint_residual: float

    def __post_init__(self):
        if self.constraint_residual < 0:
            raise ValueError("constraint residual cannot be negative")


class RadialBallDomain:
    """Ball B_R(0) solved with the graded-mesh radial Newton solvers.

    A fresh grid adapted to each sigma is built: the boundary spacing tracks
    1/160 of the layer width so the profile (and its p-th power) stay
    resolved at every sigma a solve visits.  solve_nonlocal calls
    solve_constrained; solve_local serves constraint_value and root-finders
    over wrapped balls.
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

    def solve_constrained(self, params: Params):
        """Solve the nonlocal problem directly; returns (W, integral of W^p,
        Newton steps).

        The first pass runs solve_nonlocal_radial on grid_for(sigma0) from
        the lower barrier at sigma0 = eps^2 * lambda_leading, the layer
        asymptotics of sigma = eps * lambda_eps.  Each later pass rebuilds
        the grid at the sigma the previous pass converged to and starts from
        its profile, interpolated.  The passes stop when sigma moves by less
        than _PASS_TOL relative, so W lives on the grid adapted to its own
        sigma, as a local solve at the root would; NoConvergenceError after
        _MAX_PASSES passes.
        """
        sigma = params.epsilon**2 * lambda_leading(params, self.R)
        grid = self.grid_for(sigma, params)
        W = barrier_lower(grid.nodes, sigma, params, self.R)
        steps = 0
        for _ in range(_MAX_PASSES):
            prof, k = solve_nonlocal_radial(params, grid, W)
            steps += k
            integral = integrate_radial(
                RadialProfile(grid=grid, values=prof.values**params.p)
            )
            previous, sigma = sigma, params.epsilon * integral / params.m
            if abs(sigma - previous) < _PASS_TOL * sigma:
                return prof, integral, steps
            new = self.grid_for(sigma, params)
            W = np.interp(new.nodes, grid.nodes, prof.values)
            grid = new
        raise NoConvergenceError(
            f"radial grid passes did not settle sigma within {_MAX_PASSES} passes"
        )


def constraint_value(lam: float, params: Params, domain) -> float:
    """g(lam) = lam * integral(W_lam^p), strictly increasing in lam."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    _, integral = domain.solve_local(params.epsilon / lam, params)
    return lam * integral


def solve_nonlocal(
    params: Params,
    domain,
    tol_rel: float = 1e-8,
    lam_guess: float | None = None,
) -> NonlocalResult:
    """Find the amplitude closing the mass constraint and build the steady pair.

    A RadialBallDomain solves the nonlocal problem directly
    (RadialBallDomain.solve_constrained), which closes the constraint to
    rounding: tol_rel and lam_guess are not used there.  Any other domain
    goes through the bracketed root-finder.  Its bracket walk starts at a
    positive, finite lam_guess clamped up to the certified floor
    m / (b^p |Omega|) and steps by x1.15 (_SEED_STEP), or without one at the
    floor and doubles.  It goes down while g > m, stopping at the floor, or
    up while g < m.  Both ends of the bracket are evaluated, so
    g(lam_lo) < m < g(lam_hi) is certified before Illinois refines it.
    Every evaluation with |g(lam) - m| / m < tol_rel is accepted at once.
    The returned amplitude is recomputed from the converged profile as
    m / integral(W^p), which makes U = amplitude * W^p integrate to m
    exactly and keeps amplitude * lambda_eps = 1 to rounding.
    """
    if tol_rel <= 0:
        raise ValueError(f"tol_rel must be positive, got {tol_rel}")
    if lam_guess is not None and not (math.isfinite(lam_guess) and lam_guess > 0):
        raise ValueError(f"lam_guess must be positive and finite, got {lam_guess}")
    m = params.m
    if isinstance(domain, RadialBallDomain):
        W, integral, iters = domain.solve_constrained(params)
        lam = m / integral
    else:
        lam, W, integral, iters = _solve_bracketed(params, domain, tol_rel, lam_guess)

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


def _solve_bracketed(params: Params, domain, tol_rel: float, lam_guess):
    """Bracket walk and Illinois on g(lam) = m (see solve_nonlocal); returns
    (lam, W, integral of W^p, constraint evaluations)."""
    m = params.m

    def evaluate(lam: float):
        W, integral = domain.solve_local(params.epsilon / lam, params)
        return lam * integral, W, integral

    lam_floor = m / (params.b**params.p * domain.volume())
    if lam_guess is None:
        lam, step = lam_floor, 2.0
    else:
        lam, step = max(lam_guess, lam_floor), _SEED_STEP
    g, W, integral = evaluate(lam)
    iters = 1

    if abs(g - m) / m >= tol_rel:
        # step away from the start until g crosses m; from the floor only
        # upward steps are possible: g <= m holds there
        down = g > m and lam > lam_floor
        for _ in range(_MAX_BRACKET_STEPS):
            if down:
                lam_hi, g_hi = lam, g
                lam = max(lam / step, lam_floor)
            else:
                lam_lo, g_lo = lam, g
                lam *= step
            g, W, integral = evaluate(lam)
            iters += 1
            if abs(g - m) / m < tol_rel or (g > m) != down or lam == lam_floor:
                break
        else:
            raise BracketFailureError(
                f"constraint value did not cross m within {_MAX_BRACKET_STEPS} "
                f"steps of x{step}"
            )
        if down:
            lam_lo, g_lo = lam, g
        else:
            lam_hi, g_hi = lam, g
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

    return lam, W, integral, iters


def _scaled_power(W, amplitude: float, p: float):
    if isinstance(W, RadialProfile):
        return RadialProfile(grid=W.grid, values=amplitude * W.values**p)
    return W.scaled_power(amplitude, p)
