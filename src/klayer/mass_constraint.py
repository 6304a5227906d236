"""Resolution of the nonlocal mass constraint.

The steady problem couples eps * Lap W = lam * W^(1+p) (Dirichlet data b) to
the constraint lam * integral(W^p) = m.  Every domain solves the two as one
equation, eps Lap W = (m / integral(W^p)) W^(1+p), by a Newton whose
Jacobian is the local one plus rank one, solved by Sherman-Morrison.

Each domain has one solve function, and both build their result with
nonlocal_result from the converged W and integral(W^p), the integral taken
by the one quadrature the Newton iterates with, so the reported constants
are those the Newton closed the constraint with.  On the ball B_R
(solve_nonlocal) that is radial_steady._newton with the weights
core.radial_weights; its local Jacobian is tridiagonal.  The ball drives it
over grids adapted to the layer (ball_grid): each pass rebuilds the grid at
the sigma = eps * integral(W^p) / m the last one converged to, until sigma
settles.  planar2d.solve_nonlocal_2d runs the same Newton on one masked 2D
grid, with a sparse LU in place of the tridiagonal solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Params, RadialGrid, SteadyState, make_graded_grid, radial_weights
from .errors import NoConvergenceError
from .radial_steady import _newton, barrier_lower, lambda_leading, layer_width
# kept only because the benchmark tracer wraps this name; ROADMAP item 3 drops it
from .radial_steady import solve_local_radial

__all__ = [
    "NonlocalResult",
    "ball_grid",
    "nonlocal_result",
    "solve_nonlocal",
]

# an adapted grid's boundary spacing is the layer width over this
_BOUNDARY_REFINE = 160.0
# the ball's grid passes stop when sigma moves by less than this, relative
_PASS_TOL = 1e-9
_MAX_PASSES = 8


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


def nonlocal_result(params: Params, W, integral: float, steps: int) -> NonlocalResult:
    """Build the steady pair from the converged W and integral(W^p).

    The amplitude m / integral(W^p) makes U = amplitude * W^p integrate to m
    exactly and keeps amplitude * lambda_eps = 1 to rounding.
    """
    m = params.m
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


def ball_grid(sigma: float, params: Params, R: float, count: int) -> RadialGrid:
    """Graded grid of count nodes on the ball B_R adapted to sigma: its
    boundary spacing is 1/160 of the layer width, so the profile (and its
    p-th power) stay resolved at every sigma a solve visits."""
    ell = layer_width(sigma, params)
    h_b = min(ell / _BOUNDARY_REFINE, R / (count - 1))
    return make_graded_grid(R, params.n, 10.0 * h_b, count)


def solve_nonlocal(params: Params, R: float, count: int = 2500) -> NonlocalResult:
    """Solve the nonlocal problem on the ball B_R(0) in dimension params.n.

    Each pass runs the nonlocal radial Newton with the grid's radial_weights,
    and the same weights applied to the returned profile give
    integral(W^p).  The first pass runs on ball_grid(sigma0) from the lower
    barrier at sigma0 = eps^2 * lambda_leading, the layer asymptotics of
    sigma = eps * lambda_eps.  Each later pass rebuilds the grid at the sigma
    the previous pass converged to and starts from its profile, interpolated.
    The passes stop when sigma moves by less than _PASS_TOL relative, so W
    lives on the grid adapted to its own sigma, as a local solve at the root
    would; NoConvergenceError after _MAX_PASSES passes.  bisection_iters
    counts the Newton steps over all passes.
    """
    if not (R > 0 and np.isfinite(R)):
        raise ValueError(f"R must be positive, got {R}")
    if not isinstance(count, (int, np.integer)) or count < 16:
        raise ValueError(f"count must be an integer >= 16, got {count!r}")
    R = float(R)
    sigma = params.epsilon**2 * lambda_leading(params, R)
    grid = ball_grid(sigma, params, R, count)
    W = barrier_lower(grid.nodes, sigma, params, R)
    steps = 0
    for _ in range(_MAX_PASSES):
        weights = radial_weights(grid)
        prof, k = _newton(W, None, params, grid, weights)
        steps += k
        integral = float(weights @ prof.values**params.p)
        previous, sigma = sigma, params.epsilon * integral / params.m
        if abs(sigma - previous) < _PASS_TOL * sigma:
            return nonlocal_result(params, prof, integral, steps)
        new = ball_grid(sigma, params, R, count)
        W = np.interp(new.nodes, grid.nodes, prof.values)
        grid = new
    raise NoConvergenceError(
        f"radial grid passes did not settle sigma within {_MAX_PASSES} passes"
    )
