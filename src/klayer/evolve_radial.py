"""Time integration of the transformed radial system and stability diagnostics.

The state is the cell density u and the log-chemical v = ln w (the
substitution that removes the singular logarithmic drift) of

    u_t = (1/r^(n-1)) [ (r^(n-1) u_r)_r - p (r^(n-1) u v_r)_r ]
    w_t = (eps/r^(n-1)) (r^(n-1) w_r)_r - u w

with total flux u_r - p u v_r = 0 at both r = 0 and r = R, and w(R) = b.

Scheme: step(grid, u, v, params, dt) advances the two node arrays by finite
volumes on the grid's node-centred cells, one step being two implicit
tridiagonal M-matrix solves, so it stays positive for every dt.  u moves
first, by the exponentially fitted face flux of Scharfetter & Gummel (IEEE
Trans. Electron Devices 16, 1969)

    g (B(-d) u_i - B(d) u_(i+1)),  g = area / dr,  d = p (v_(i+1) - v_i),

with B(x) = x / (e^x - 1) = 1 / exprel(x) and v at the start of the step;
its matrix has column sums V_i / dt, so the discrete mass sum(V_i u_i) is
conserved to solver rounding.  Then w solves w_t = eps Lap w - u w at the new
u, and v = ln w.

A face carries zero flux exactly when u_(i+1) / u_i = e^d, so the scheme's
stationary density is U = C W^p and its steady pair solves
eps K W = V C W^(1+p) with C = m / (omega_n sum(V W^p)).
relax_to_discrete_steady() solves it with radial_steady's nonlocal Newton on
K in 4-6 tridiagonal solves (no dt, no elliptic solve); it keeps the name
from when it time-stepped to the pair, because the benchmark tracer times it
under that name.  The pair, a DiscreteSteady, owns the grid and parameters:
evolve(reference, u0, w0, dt, t_end) and lyapunov_energy(u, v, steady) read
them from it, take node arrays, and measure the diagnostics against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel

from .core import Params, RadialGrid, _node_values, unit_sphere_area
from .errors import PositivityError
from .mass_constraint import lambda_leading
from . import radial_steady
from .radial_steady import _newton, barrier_lower

__all__ = [
    "DiscreteSteady",
    "EvolutionSeries",
    "step",
    "evolve",
    "relax_to_discrete_steady",
    "lyapunov_energy",
    "fit_decay_rate",
]


def _mass(grid: RadialGrid, u: np.ndarray) -> float:
    """The finite-volume mass omega_n sum(V_i u_i) that step() conserves."""
    return unit_sphere_area(grid.n) * float(np.dot(grid.volumes, u))


@dataclass(frozen=True, eq=False)
class DiscreteSteady:
    """The evolution scheme's own stationary pair (U, V = ln W) on grid.

    U and V are stored as read-only float arrays with one finite value per
    node; params is the model the pair solves, so grid.n must be params.n.
    """

    grid: RadialGrid
    params: Params
    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.grid.n != self.params.n:
            raise ValueError(f"grid dimension {self.grid.n} != params dimension {self.params.n}")
        for name in ("U", "V"):
            object.__setattr__(self, name, _node_values(self.grid, getattr(self, name), name))

    @property
    def W(self) -> np.ndarray:
        return np.exp(self.V)


@dataclass(frozen=True, eq=False)
class EvolutionSeries:
    """Diagnostic time series of an evolution run."""

    t: np.ndarray
    mass: np.ndarray
    linf_u: np.ndarray
    l2_u: np.ndarray
    linf_w: np.ndarray
    l2_w: np.ndarray
    energy: np.ndarray
    renormalized_mass_factor: float

    def distance(self) -> np.ndarray:
        """Combined L-infinity distance of (u - U, w - W)."""
        return np.maximum(self.linf_u, self.linf_w)


def step(
    grid: RadialGrid, u: np.ndarray, v: np.ndarray, params: Params, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One update of (u, v = ln w) on grid's cells by dt; positive for every dt.

    Returns the new (u, v).  Raises ValueError when dt is not a finite
    positive number or a new field is not finite, and PositivityError when a
    new u is not positive.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a finite positive number, got {dt}")
    V = grid.volumes
    g = grid.conductances  # interior faces 1..N-1

    # --- u: implicit Scharfetter-Gummel flux at the old v --------------------
    d = params.p * np.diff(v)
    leave = g / exprel(-d)  # g B(-d): out of node i across its right face
    enter = g / exprel(d)  # g B(d): out of node i+1 across its left face
    di = V / dt
    di[:-1] += leave
    di[1:] += enter
    u_new = radial_steady.solve_banded(-leave, di, -enter, V / dt * u)

    # --- w = e^v: implicit diffusion and sink at the new u, w(R) = b --------
    a = params.epsilon * g
    di = V / dt + V * u_new
    di[:-1] += a
    di[1:] += a
    di[-1] = 1.0
    lo = -a
    lo[-1] = 0.0
    rhs = V / dt * np.exp(v)
    rhs[-1] = params.b
    v_new = np.log(radial_steady.solve_banded(lo, di, -a, rhs))
    v_new[-1] = math.log(params.b)

    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise ValueError("step gave a non-finite u or v")
    if np.any(u_new <= 0):
        raise PositivityError("u must be positive at every node")
    return u_new, v_new


# ---------------------------------------------------------------------------
# discrete steady reference


def relax_to_discrete_steady(grid: RadialGrid, params: Params) -> DiscreteSteady:
    """The fixed point of step() on grid, by radial_steady's nonlocal Newton.

    There every face flux vanishes, so U = C W^p, and W solves
    eps K W = V C W^(1+p) off the Dirichlet row, K being the flux-difference
    operator of step() and C = m / (omega_n sum(V W^p)); no dt enters.  That
    is sigma K W = V W^(1+p) with sigma = eps omega_n sum(V W^p) / m, the
    ball's nonlocal equation on the grid's cells, with the quadrature
    weights omega_n V in place of the ball's trapezoid ones.  Newton starts
    from the lower barrier at sigma0 = eps^2 lambda_leading, as the ball's
    solve does, and takes its last step in q = W^(-p/2), which leaves the
    pair fixed under step() to a few ulps.  Raises NoConvergenceError as
    radial_steady's solves do.
    """
    sigma = params.epsilon**2 * lambda_leading(params, grid.R)
    start = barrier_lower(grid.nodes, sigma, params, grid.R)
    weights = unit_sphere_area(grid.n) * grid.volumes
    W = _newton(start, None, params, grid, weights, polish=True)[0].values
    v = np.log(W)
    W = np.exp(v)  # as DiscreteSteady.W returns it: U / W^p is C to rounding
    U = W**params.p * (params.m / _mass(grid, W**params.p))
    return DiscreteSteady(grid, params, U, v)


# ---------------------------------------------------------------------------
# diagnostics


def lyapunov_energy(u: np.ndarray, v: np.ndarray, steady: DiscreteSteady) -> float:
    """Weighted energy omega_n * int(r^(n-1) phi^2 / U + p r^(n-1) psi^2) dr

    of the node arrays (u, v) on the grid of steady, with phi the
    radius-weighted anti-derivative of u - U (the relative radial mass
    distribution, vanishing at both ends when masses match) and psi = v - V.
    Non-negative; zero only when both fields match.
    """
    U_ref, V_ref, grid = steady.U, steady.V, steady.grid
    if np.any(U_ref <= 0):
        raise ValueError("steady U must be positive for the energy weight")
    r = grid.nodes
    n = grid.n
    diff = (u - U_ref) * r ** (n - 1)
    h = np.diff(r)
    anti = np.zeros_like(diff)
    anti[1:] = np.cumsum(0.5 * h * (diff[:-1] + diff[1:]))
    phi = np.zeros_like(anti)
    phi[1:] = anti[1:] / r[1:] ** (n - 1)
    psi = v - V_ref
    integrand = r ** (n - 1) * (phi**2 / U_ref + steady.params.p * psi**2)
    return unit_sphere_area(n) * float(np.trapezoid(integrand, r))


def evolve(
    reference: DiscreteSteady,
    u0: np.ndarray,
    w0: np.ndarray,
    dt: float,
    t_end: float,
    output_every: int = 10,
) -> EvolutionSeries:
    """Run step() at the fixed dt up to t_end and record stability diagnostics
    every output_every steps and at the end.

    reference is the scheme's steady pair (see relax_to_discrete_steady); its
    grid and params are those of the run.  Distances and energy are measured
    against it; masses and L2 norms are finite-volume sums over the grid's
    cells.  u0 and w0 are node arrays on that grid, finite and positive.  u0
    is renormalised to mass m when needed (the factor is reported), and w0
    must have w0(R) = b.  dt and t_end must be finite and positive,
    output_every at least 1.  Terminates at t_end or when the combined
    L-infinity distance drops below 1e-10.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    if output_every < 1:
        raise ValueError(f"output_every must be >= 1, got {output_every}")
    grid, params = reference.grid, reference.params
    u0, w0 = _node_values(grid, u0, "u0"), _node_values(grid, w0, "w0")
    for name, value in (("u0", u0), ("w0", w0)):
        if np.any(value <= 0):  # after the finiteness check: NaN <= 0 is False
            raise ValueError(f"{name} must be positive")
    if abs(w0[-1] - params.b) > 1e-10 * params.b:
        raise ValueError(f"w0(R) = {w0[-1]} must equal b = {params.b}")
    factor = params.m / _mass(grid, u0)
    u = u0 * factor
    v = np.log(w0)
    v[-1] = math.log(params.b)
    U_ref, W_ref = reference.U, reference.W

    rows = []

    def record(t: float, u: np.ndarray, v: np.ndarray):
        du = u - U_ref
        dw = np.exp(v) - W_ref
        rows.append(
            (
                t,
                _mass(grid, u),
                float(np.max(np.abs(du))),
                math.sqrt(_mass(grid, du**2)),
                float(np.max(np.abs(dw))),
                math.sqrt(_mass(grid, dw**2)),
                lyapunov_energy(u, v, reference),
            )
        )

    t = 0.0
    record(t, u, v)
    k = 0
    while t < t_end - 1e-12 * t_end:
        u, v = step(grid, u, v, params, dt)
        t = t + dt
        k += 1
        if k % output_every == 0 or t >= t_end:
            record(t, u, v)
            if max(rows[-1][2], rows[-1][4]) < 1e-10:
                break

    data = np.array(rows)
    return EvolutionSeries(
        t=data[:, 0],
        mass=data[:, 1],
        linf_u=data[:, 2],
        l2_u=data[:, 3],
        linf_w=data[:, 4],
        l2_w=data[:, 5],
        energy=data[:, 6],
        renormalized_mass_factor=factor,
    )


def fit_decay_rate(series) -> float:
    """Exponential rate mu_hat from a (t, distance) series.

    Least-squares slope of log(distance) over the window [t_end/2, t_end]
    (the early transient is excluded); samples at or below the rounding floor
    are cut, and the window is taken over the pre-floor portion.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a list of (t, distance) pairs")
    t, d = arr[:, 0], arr[:, 1]
    pos = d > 0
    if np.count_nonzero(pos) < 10:
        raise ValueError("need at least 10 samples with positive distances")
    floor = 1e-13 * float(np.max(d))
    above = d > floor
    if np.any(~above):
        cut = int(np.argmin(above))  # first floor hit
        if cut >= 10:
            t, d = t[:cut], d[:cut]
        else:
            t, d = t[pos], d[pos]
    t_end = t[-1]
    window = t >= 0.5 * t_end
    if np.count_nonzero(window) < 2:
        window = np.ones_like(t, dtype=bool)
    slope = np.polyfit(t[window], np.log(d[window]), 1)[0]
    return float(-slope)
