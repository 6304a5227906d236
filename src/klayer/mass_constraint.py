"""Resolution of the nonlocal mass constraint.

The steady problem couples eps * Lap W = lam * W^(1+p) (Dirichlet data b) to
the constraint lam * integral(W^p) = m.  Every domain solves the two as one
equation, eps Lap W = (m / integral(W^p)) W^(1+p), by a Newton whose
Jacobian is the local one plus rank one, solved by Sherman-Morrison.

A domain exposes solve_constrained(params) -> (W, integral of W^p, Newton
steps).  On a ball (RadialBallDomain) that is the radial Newton of
radial_steady.solve_nonlocal_radial, whose local Jacobian is tridiagonal.
The ball drives it over grids adapted to the layer: each pass rebuilds the
grid at the sigma = eps * integral(W^p) / m the last one converged to, until
sigma settles.  planar2d.Planar2DDomain runs the same Newton on one masked
2D grid, with a sparse LU in place of the tridiagonal solve.
"""

from __future__ import annotations

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
from .errors import NoConvergenceError
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
    "lambda_leading",
    "solve_nonlocal",
]

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

    bisection_iters counts the Newton steps of the solve, over all grid
    passes on a ball; the name predates the direct Newton, which replaced a
    root-finder over local solves.  constraint_residual is the relative
    defect |amplitude * integral(W^p) - m| / m; the amplitude is
    m / integral(W^p) of the converged W, so it is 0 up to rounding by
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
    solve_constrained; solve_local solves the local problem at a given
    sigma on the grid adapted to it.
    """

    def __init__(self, R: float, n: int, count: int = 2500):
        if not (R > 0 and np.isfinite(R)):
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


def solve_nonlocal(params: Params, domain) -> NonlocalResult:
    """Solve the nonlocal problem on the domain and build the steady pair.

    domain.solve_constrained(params) returns the converged W, integral(W^p)
    and the Newton steps.  The amplitude m / integral(W^p) makes
    U = amplitude * W^p integrate to m exactly and keeps
    amplitude * lambda_eps = 1 to rounding.
    """
    m = params.m
    W, integral, steps = domain.solve_constrained(params)
    amplitude = m / integral
    steady = SteadyState(
        W=W,
        U=W.scaled_power(amplitude, params.p),
        amplitude=amplitude,
        lambda_eps=integral / m,
        sigma=params.epsilon * integral / m,
    )
    return NonlocalResult(
        steady=steady,
        bisection_iters=steps,
        constraint_residual=abs(amplitude * integral - m) / m,
    )
