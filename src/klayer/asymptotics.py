"""Closed-form leading coefficients of the small-eps expansions and the
numerical procedures verifying them against computed steady states.

All leading terms are for the ball B_R(0).  Conventions:

    slope of W at R   ~ slope_W_leading / eps
    slope of U at R   ~ slope_U_leading / eps^2
    lambda_eps        ~ lambda_leading * eps   (radial_steady.lambda_leading)
    layer thickness   ~ thickness_leading(c) * eps   (depth of the level set
                        W = c below the boundary value b)

The eps -> 0 extrapolation fits  measured * eps^k = C0 + C1 * eps * log(1/eps)
because the remainders carry a log eps factor; a pure-constant fit would bias
the leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Field,
    Params,
    SteadyState,
    interpolate_monotone,
    radial_cumulative,
    unit_sphere_area,
)
from .mass_constraint import solve_nonlocal
from .radial_steady import boundary_slope, lambda_leading

__all__ = [
    "ExpansionReport",
    "slope_W_leading",
    "slope_U_leading",
    "thickness_leading",
    "measure_thickness",
    "verify_expansion",
    "verify_p_limit",
    "boundary_mass_fraction",
]

QUANTITIES = ("slope_W", "slope_U", "lambda_eps", "thickness")

# power of eps multiplying the raw measurement so it tends to the coefficient
_EPS_POWER = {"slope_W": 1, "slope_U": 2, "lambda_eps": -1, "thickness": -1}


@dataclass(frozen=True, eq=False)
class ExpansionReport:
    """Measured-versus-predicted record of one expansion quantity."""

    quantity: str
    epsilons: np.ndarray
    computed: np.ndarray
    leading_coefficient: float
    extrapolated_coefficient: float
    relative_gap: float

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if len(self.epsilons) != len(self.computed):
            raise ValueError("sequences must share a length")
        if len(self.epsilons) < 3:
            raise ValueError("need at least 3 epsilons")


def slope_W_leading(params: Params, R: float) -> float:
    """Coefficient of 1/eps in the boundary slope of W:
    p m b / ((2+p) omega_n R^(n-1))."""
    om = unit_sphere_area(params.n)
    return params.p * params.m * params.b / ((2.0 + params.p) * om * R ** (params.n - 1))


def slope_U_leading(params: Params, R: float) -> float:
    """Coefficient of 1/eps^2 in the boundary slope of U:
    p^4 m^3 / (2 (2+p)^2 omega_n^3 R^(3(n-1))).  Independent of b."""
    om = unit_sphere_area(params.n)
    return params.p**4 * params.m**3 / (
        2.0 * (2.0 + params.p) ** 2 * om**3 * R ** (3 * (params.n - 1))
    )


def thickness_leading(c: float, params: Params, R: float) -> float:
    """Coefficient of eps in the depth of the level set W = c:

        ((b/c)^(p/2) - 1) * 2 n (p+2) / (m p^2) * vol(B_R) / R

    which simplifies to ((b/c)^(p/2) - 1) * omega_n c_p^2 R^(n-1) / m via
    c_p^2 = 2 (p+2) / p^2.  The product of domain volume and boundary
    curvature 1/R is the geometric content of the formula.
    """
    p, b, m, n = params.p, params.b, params.m, params.n
    if not 0 < c < b:
        raise ValueError(f"level c must lie in (0, b={b}), got {c}")
    om = unit_sphere_area(n)
    volume = om * R**n / n
    return ((b / c) ** (p / 2.0) - 1.0) * 2.0 * n * (p + 2.0) / (m * p**2) * volume / R


def measure_thickness(W: Field, c: float) -> float:
    """Depth R - W^(-1)(c) of the level set W = c below the boundary."""
    R = W.grid.R
    return R - interpolate_monotone(W, c)


def _fit_with_log_correction(eps: np.ndarray, scaled: np.ndarray) -> float:
    A = np.stack([np.ones_like(eps), eps * np.log(1.0 / eps)], axis=1)
    coef, *_ = np.linalg.lstsq(A, scaled, rcond=None)
    return float(coef[0])


def verify_expansion(
    params: Params,
    R: float,
    eps_list,
    level_c: float | None = None,
    count: int = 3000,
) -> dict[str, ExpansionReport]:
    """Sweep eps once, measure every quantity, extrapolate eps -> 0, compare.

    Each eps is solved on the ball B_R with count grid nodes.  Returns one
    report per quantity, keyed in QUANTITIES order.  eps_list must be
    decreasing with at least 3 entries.  level_c (default b/2) sets the level
    of the thickness quantity.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 3 or not np.all(np.diff(eps) < 0):
        raise ValueError("eps_list must be decreasing with >= 3 entries")
    c = params.b / 2.0 if level_c is None else level_c
    # solved first, so a bad R or count is reported by the ball solve
    steadies = [solve_nonlocal(replace(params, epsilon=float(e)), R, count) for e in eps]

    # quantity -> (measurement on a steady state, leading coefficient)
    table = {
        "slope_W": (lambda st: boundary_slope(st.W), slope_W_leading(params, R)),
        "slope_U": (lambda st: boundary_slope(st.U), slope_U_leading(params, R)),
        "lambda_eps": (lambda st: st.lambda_eps, lambda_leading(params, R)),
        "thickness": (lambda st: measure_thickness(st.W, c), thickness_leading(c, params, R)),
    }
    reports = {}
    for q in QUANTITIES:
        measure, coeff = table[q]
        computed = np.array([measure(st) for st in steadies])
        extrapolated = _fit_with_log_correction(eps, computed * eps ** _EPS_POWER[q])
        reports[q] = ExpansionReport(
            quantity=q,
            epsilons=eps,
            computed=computed,
            leading_coefficient=coeff,
            extrapolated_coefficient=extrapolated,
            relative_gap=abs(extrapolated - coeff) / abs(coeff),
        )
    return reports


def boundary_mass_fraction(steady: SteadyState, depth: float) -> float:
    """Fraction of the U-mass within the given depth of the boundary: one
    minus the mass inside R - depth, read from core.radial_cumulative
    linearly in r^n between nodes, over the total.  0 at depth 0, 1 at any
    depth >= R; ValueError unless depth is finite and >= 0."""
    if not (depth >= 0 and np.isfinite(depth)):
        raise ValueError(f"depth must be finite and >= 0, got {depth}")
    grid = steady.U.grid
    mass = radial_cumulative(grid, steady.U.values)
    inner = np.interp(max(grid.R - depth, 0.0) ** grid.n, grid.nodes**grid.n, mass)
    return float(1.0 - inner / mass[-1])


def verify_p_limit(
    params_base: Params,
    R: float,
    p_list,
    eps_fixed: float,
    count: int = 2500,
    depth_fraction: float = 0.1,
) -> list[tuple[float, float, float]]:
    """Strong-chemotaxis limit: rows of (p, sup|W - b|, boundary mass fraction).

    Each p is solved on the ball B_R with count grid nodes.  Along an
    increasing p_list the sup norm of b - W decreases toward 0 while the
    U-mass concentrates near the boundary (fraction within depth
    depth_fraction * R increasing toward 1).  depth_fraction must be finite
    and >= 0 (ValueError before any solve).
    """
    if not (depth_fraction >= 0 and np.isfinite(depth_fraction)):
        raise ValueError(f"depth_fraction must be finite and >= 0, got {depth_fraction}")
    ps = [float(p) for p in p_list]
    if any(q <= 0 for q in ps) or any(b <= a for a, b in zip(ps, ps[1:])):
        raise ValueError("p_list must be positive and increasing")
    rows = []
    for p in ps:
        par = replace(params_base, epsilon=eps_fixed, p=p)
        steady = solve_nonlocal(par, R, count)
        sup_gap = float(np.max(np.abs(steady.W.values - par.b)))
        frac = boundary_mass_fraction(steady, depth_fraction * R)
        rows.append((p, sup_gap, frac))
    return rows

