"""The uniqueness probe of the local 2D problem: the steady state is unique,
so core.newton on the product's own system, the mirror-folded cut-cell
system that solve_local_2d solves, reaches the same W from any start.
"""

import numpy as np

from klayer import planar2d
from klayer.core import Field, Params, newton


def local_newton_from(start, sigma: float, params: Params, grid) -> Field:
    """sigma Lap W = W^(1+p), W = b on the boundary, by core.newton on
    _cut_cell_system(*_mirror_fold(grid)[2]) from start, an iterate over the
    inside nodes of which only the orbit representatives' entries are read.
    """
    reps, orbit, system = planar2d._mirror_fold(grid)
    start = np.asarray(start, dtype=float)[reps]
    w, _, _ = newton(start, sigma, params, planar2d._cut_cell_system(*system))
    return grid.field(w[orbit], params.b)
