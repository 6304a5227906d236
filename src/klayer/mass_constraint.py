"""Resolution of the nonlocal mass constraint.

The steady problem couples eps * Lap W = lam * W^(1+p) (Dirichlet data b) to
the constraint lam * integral(W^p) = m.  Every domain solves the two as one
equation, eps Lap W = (m / integral(W^p)) W^(1+p), by a Newton whose
Jacobian is the local one plus rank one, solved by Sherman-Morrison.

Each domain has one solve function, and both return the core.SteadyState
of the converged W, a core.Field, and the integral(W^p) that core.newton,
the Newton of every domain, returns with it, taken by the one quadrature it
iterates with, so the reported constants are those the Newton closed the
constraint with, bit for bit.  On the ball B_R (solve_nonlocal) it runs on
radial_steady.ball_system with the weights core.radial_weights; its local
Jacobian is tridiagonal.  The ball drives it over grids adapted to the
layer (ball_grid): each pass rebuilds the grid at the
sigma = eps * integral(W^p) / m the last one converged to, until sigma
settles on the full grid.  From count 64 on, the first pass runs on a
quarter of its nodes (nested iteration), and the full grid mostly needs two
passes, not three.  planar2d.solve_nonlocal_2d runs it on one masked 2D
grid, with a sparse LU in place of the tridiagonal solve.
"""

from __future__ import annotations

import numpy as np

from .core import Field, Params, RadialGrid, SteadyState, make_graded_grid, newton
from .core import radial_weights
from .errors import NoConvergenceError
from .radial_steady import ball_system, barrier_lower, lambda_leading, layer_width
# kept only because the benchmark tracer wraps this name; ROADMAP item 3 drops it
from .radial_steady import solve_local_radial

__all__ = [
    "ball_grid",
    "solve_nonlocal",
]

# an adapted grid's boundary spacing is the layer width over this
_BOUNDARY_REFINE = 160.0
# the ball's grid passes stop when sigma moves by less than this, relative
_PASS_TOL = 1e-9
_MAX_PASSES = 8
# the first pass runs on count // 4 nodes from this count on; below it, a
# pass on so few nodes costs more Newton steps than it saves
_COARSE_MIN = 64


def ball_grid(sigma: float, params: Params, R: float, count: int) -> RadialGrid:
    """Graded grid of count nodes on the ball B_R adapted to sigma: its
    boundary spacing is 1/160 of the layer width, so the profile (and its
    p-th power) stay resolved at every sigma a solve visits."""
    ell = layer_width(sigma, params)
    h_b = min(ell / _BOUNDARY_REFINE, R / (count - 1))
    return make_graded_grid(R, params.n, 10.0 * h_b, count)


def solve_nonlocal(params: Params, R: float, count: int = 2500) -> SteadyState:
    """Solve the nonlocal problem on the ball B_R(0) in dimension params.n.

    Each pass runs core.newton on the ball_system with the grid's
    radial_weights, which returns the profile and its integral(W^p) by
    those weights.  The first pass starts from the lower barrier at
    sigma0 = eps^2 * lambda_leading, the layer asymptotics of
    sigma = eps * lambda_eps, on ball_grid(sigma0) of count // 4 nodes, or
    of count nodes below count _COARSE_MIN, where the coarse pass costs
    more Newton steps than it saves.  Each later pass rebuilds the grid of
    count nodes at the sigma the previous pass converged to and starts from
    its profile, interpolated.  The passes stop when a pass on count nodes
    moves sigma by less than _PASS_TOL relative, so W lives on the grid
    adapted to its own sigma, as a local solve at the root would;
    NoConvergenceError after _MAX_PASSES passes.  bisection_iters counts the
    Newton steps over all passes.
    """
    if not (R > 0 and np.isfinite(R)):
        raise ValueError(f"R must be positive, got {R}")
    if not isinstance(count, (int, np.integer)) or count < 16:
        raise ValueError(f"count must be an integer >= 16, got {count!r}")
    R = float(R)
    sigma = params.epsilon**2 * lambda_leading(params, R)
    grid = ball_grid(sigma, params, R, count // 4 if count >= _COARSE_MIN else count)
    W = barrier_lower(grid.nodes, sigma, params, R)
    steps = 0
    for _ in range(_MAX_PASSES):
        w, integral, k = newton(W, None, params, ball_system(grid, radial_weights(grid)))
        steps += k
        previous, sigma = sigma, params.epsilon * integral / params.m
        if grid.count == count and abs(sigma - previous) < _PASS_TOL * sigma:
            return SteadyState(params, Field(grid, w), integral, steps)
        new = ball_grid(sigma, params, R, count)
        W = np.interp(new.nodes, grid.nodes, w)
        grid = new
    raise NoConvergenceError(
        f"radial grid passes did not settle sigma within {_MAX_PASSES} passes"
    )
