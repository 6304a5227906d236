"""The manufactured-solution contract of a grid (Roache, "Code verification by
the method of manufactured solutions", J. Fluids Eng. 124, 2002).

Every grid hands the steady Newton the same four things: the operator L over
its unknowns and the Dirichlet load bvec, with Lap W ~ L w + b bvec, the
quadrature weights quad of the unknowns, and held_area, the measure where
W = b.  Given those four, the coordinates of the unknowns and a manufactured
field u that equals b on the boundary, contract_errors returns

* the nodal error max |w - u| of the linear solve L w = Lap u - b bvec, the
  error of the operator alone, and
* the relative error of sum(quad u^q) + held_area b^q against the exact
  integral of u^q, the error of the quadrature alone,

with no nonlinear solve in between.  radial_system states the four for a
RadialGrid, and BallField is the manufactured family of the ball.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import diags_array
from scipy.sparse.linalg import spsolve

from klayer.core import radial_weights, unit_sphere_area

# the 200-point Gauss-Legendre rule on [-1, 1] of BallField.integral, formed once
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(200)

def contract_errors(system, coords, field, power: int = 2) -> tuple[float, float]:
    """(nodal error of the operator, relative quadrature error of field^power)
    of system = (L, bvec, quad, held_area) with unknowns at coords."""
    L, bvec, quad, held_area = system
    u = field.u(coords)
    w = spsolve(L, field.lap(coords) - field.b * bvec)
    integral = float(np.sum(quad * u**power)) + held_area * field.b**power
    exact = field.integral(power)
    return float(np.max(np.abs(w - u))), abs(integral - exact) / exact


def radial_system(grid):
    """((L, bvec, quad, held_area), the radii of the unknowns) of a RadialGrid.

    The unknowns are the nodes below R.  L is K / V, the flux-difference
    operator over the face conductances divided by the cell volumes, as
    radial_steady.ball_system states it, with no flux across r = 0; the node at
    R is held at b.  quad and held_area are the weights of
    core.radial_weights at the unknowns and at R."""
    g, V = grid.conductances, grid.volumes[:-1]
    left = np.concatenate(([0.0], g[:-1]))  # the conductance of each unknown's left face
    L = diags_array(
        [left[1:] / V[1:], -(left + g) / V, g[:-1] / V[:-1]], offsets=[-1, 0, 1], format="csc"
    )
    bvec = np.zeros(V.size)
    bvec[-1] = g[-1] / V[-1]
    weights = radial_weights(grid)
    return (L, bvec, weights[:-1], weights[-1]), grid.nodes[:-1]


@dataclass(frozen=True)
class BallField:
    """u = b + (R^2 - r^2) e^(r^2) on the n-ball of radius R: u(R) = b and
    u'(0) = 0, with Lap u = e^(r^2) (2 (R^2 - r^2 - 1) (n + 2 r^2) - 4 r^2)."""

    b: float
    R: float
    n: int

    def u(self, r):
        return self.b + (self.R**2 - r**2) * np.exp(r**2)

    def lap(self, r):
        return np.exp(r**2) * (2.0 * (self.R**2 - r**2 - 1.0) * (self.n + 2.0 * r**2) - 4.0 * r**2)

    def integral(self, power: int, upper: float | None = None) -> float:
        """omega_n int_0^upper r^(n-1) u^power dr (upper R by default) by
        200-point Gauss-Legendre."""
        upper = self.R if upper is None else upper
        r = 0.5 * upper * (_GAUSS_X + 1.0)
        return unit_sphere_area(self.n) * 0.5 * upper * float(
            np.sum(_GAUSS_W * r ** (self.n - 1) * self.u(r) ** power)
        )
