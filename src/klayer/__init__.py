"""Boundary-layer steady states and nonlinear stability of a singular
chemotaxis system: radial and 2D nonlocal elliptic solvers, closed-form layer
barriers, small-diffusion expansion checks, and a conservative, positive
implicit time integrator for the transformed radial system."""

from .core import (
    Params,
    RadialGrid,
    RadialProfile,
    SteadyState,
    ball_volume,
    integrate_radial,
    interpolate_monotone,
    make_graded_grid,
    refine_grid,
    unit_sphere_area,
)
from .errors import (
    AxisSingularityError,
    NoConvergenceError,
    NoCrossingError,
    PositivityError,
    SolverError,
)
from .mass_constraint import (
    NonlocalResult,
    RadialBallDomain,
    solve_nonlocal,
)
from .radial_steady import (
    barrier_lower,
    barrier_upper,
    boundary_slope,
    layer_profile_constant,
    layer_width,
    solve_local_radial,
    solve_nonlocal_radial,
    upper_barrier_sigma_max,
)

__version__ = "0.1.0"
