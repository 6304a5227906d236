"""Time integration of the transformed radial system and stability diagnostics.

The state is the cell density u and the log-chemical v = ln w (the
substitution that removes the singular logarithmic drift) of

    u_t = (1/r^(n-1)) [ (r^(n-1) u_r)_r - p (r^(n-1) u v_r)_r ]
    w_t = (eps/r^(n-1)) (r^(n-1) w_r)_r - u w

with total flux u_r - p u v_r = 0 at both r = 0 and r = R, and w(R) = b.

Scheme: finite volumes on the node-centred cells of the radial grid, one
step being two implicit tridiagonal M-matrix solves, so it stays positive for
every dt.  u moves first, by the exponentially fitted face flux of
Scharfetter & Gummel (IEEE Trans. Electron Devices 16, 1969)

    g (B(-d) u_i - B(d) u_(i+1)),  g = area / dr,  d = p (v_(i+1) - v_i),

with B(x) = x / (e^x - 1) = 1 / exprel(x) and v at the start of the step;
its matrix has column sums V_i / dt, so the discrete mass sum(V_i u_i) is
conserved to solver rounding.  Then w solves w_t = eps Lap w - u w at the new
u, and v = ln w.

A face carries zero flux exactly when u_(i+1) / u_i = e^d, so the scheme's
stationary density is U = C W^p and its steady pair solves
eps K W = V C W^(1+p) with C = m / (omega_n sum(V W^p)).  Stability
diagnostics are measured against that pair, which relax_to_discrete_steady()
solves with radial_steady's nonlocal Newton on K in 4-6 tridiagonal solves
(no dt, no elliptic solve).  It keeps the name from when it time-stepped to
the pair, because the benchmark tracer times it under that name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel

from .core import Params, RadialGrid, RadialProfile, unit_sphere_area
from .errors import PositivityError
from .mass_constraint import lambda_leading
from .radial_steady import _solve, _solve_tridiag, barrier_lower

__all__ = [
    "EvolutionState",
    "SchemeConfig",
    "DiscreteSteady",
    "EvolutionSeries",
    "step",
    "evolve",
    "relax_to_discrete_steady",
    "lyapunov_energy",
    "fit_decay_rate",
]

@dataclass(frozen=True)
class EvolutionState:
    """Time-stamped fields: positive density u and log-chemical v, v(R) = ln b."""

    t: float
    u: RadialProfile
    v: RadialProfile

    def __post_init__(self):
        if self.u.grid is not self.v.grid and not np.array_equal(
            self.u.grid.nodes, self.v.grid.nodes
        ):
            raise ValueError("u and v must share a grid")
        if np.any(self.u.values <= 0):
            raise PositivityError("u must be positive at every node")


@dataclass(frozen=True)
class SchemeConfig:
    """Time-stepping controls."""

    dt: float
    t_end: float
    output_every: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


@dataclass(frozen=True)
class DiscreteSteady:
    """The evolution scheme's own stationary pair on its grid."""

    U: RadialProfile
    V: RadialProfile

    @property
    def W(self) -> RadialProfile:
        return RadialProfile(grid=self.V.grid, values=np.exp(self.V.values))


@dataclass(frozen=True)
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


# ---------------------------------------------------------------------------
# geometry helpers


class _Cells:
    """Face/volume metadata of the finite-volume mesh over a radial grid."""

    def __init__(self, grid: RadialGrid):
        r = grid.nodes
        n = grid.n
        faces = np.empty(r.size + 1)
        faces[0] = 0.0
        faces[-1] = grid.R
        faces[1:-1] = 0.5 * (r[:-1] + r[1:])
        self.grid = grid
        self.faces = faces
        self.volumes = (faces[1:] ** n - faces[:-1] ** n) / n
        self.areas = faces[1:-1] ** (n - 1)  # interior faces only
        self.dr = np.diff(r)

    def mass(self, u: np.ndarray) -> float:
        return unit_sphere_area(self.grid.n) * float(np.dot(self.volumes, u))


def step(state: EvolutionState, params: Params, cfg: SchemeConfig) -> EvolutionState:
    """One update of (u, w = e^v) by cfg.dt; positive for every dt."""
    grid = state.u.grid
    cells = _Cells(grid)
    dt = cfg.dt
    V = cells.volumes
    g = cells.areas / cells.dr  # interior faces 1..N-1

    # --- u: implicit Scharfetter-Gummel flux at the old v --------------------
    d = params.p * np.diff(state.v.values)
    leave = g / exprel(-d)  # g B(-d): out of node i across its right face
    enter = g / exprel(d)  # g B(d): out of node i+1 across its left face
    di = V / dt
    di[:-1] += leave
    di[1:] += enter
    u_new = _solve_tridiag(-leave, di, -enter, V / dt * state.u.values)

    # --- w = e^v: implicit diffusion and sink at the new u, w(R) = b --------
    a = params.epsilon * g
    di = V / dt + V * u_new
    di[:-1] += a
    di[1:] += a
    di[-1] = 1.0
    lo = -a
    lo[-1] = 0.0
    rhs = V / dt * np.exp(state.v.values)
    rhs[-1] = params.b
    v_new = np.log(_solve_tridiag(lo, di, -a, rhs))
    v_new[-1] = math.log(params.b)

    return EvolutionState(
        t=state.t + dt,
        u=RadialProfile(grid=grid, values=u_new),
        v=RadialProfile(grid=grid, values=v_new),
    )


# ---------------------------------------------------------------------------
# discrete steady reference


def relax_to_discrete_steady(grid: RadialGrid, params: Params) -> DiscreteSteady:
    """The fixed point of step() on grid, by radial_steady's nonlocal Newton.

    There every face flux vanishes, so U = C W^p, and W solves
    eps K W = V C W^(1+p) off the Dirichlet row, K being the flux-difference
    operator of step() and C = m / (omega_n sum(V W^p)); no dt enters.  That
    is sigma K W = V W^(1+p) with sigma = eps omega_n sum(V W^p) / m, the
    ball's nonlocal equation on the finite-volume operator: row weight V,
    quadrature weights omega_n V.  Newton starts from the lower barrier at
    sigma0 = eps^2 lambda_leading, as the ball's solve does, and takes its
    last step in q = W^(-p/2), which leaves the pair fixed under step() to a
    few ulps.  Raises NoConvergenceError as radial_steady's solves do.
    """
    cells = _Cells(grid)
    g = cells.areas / cells.dr
    lo = np.concatenate(([0.0], g))
    up = np.concatenate((g, [0.0]))
    om = unit_sphere_area(grid.n)
    op = (lo, -(lo + up), up, cells.volumes, om * cells.volumes)
    sigma = params.epsilon**2 * lambda_leading(params, grid.R)
    start = barrier_lower(grid.nodes, sigma, params, grid.R)
    W = _solve(start, None, params, grid, op, polish=True)[0].values
    v = np.log(W)
    W = np.exp(v)  # as DiscreteSteady.W returns it: U / W^p is C to rounding
    U = W**params.p * (params.m / cells.mass(W**params.p))
    return DiscreteSteady(U=RadialProfile(grid, U), V=RadialProfile(grid, v))


# ---------------------------------------------------------------------------
# diagnostics


def lyapunov_energy(
    state: EvolutionState, steady: DiscreteSteady, params: Params
) -> float:
    """Weighted energy omega_n * int(r^(n-1) phi^2 / U + p r^(n-1) psi^2) dr,

    with phi the radius-weighted anti-derivative of u - U (the relative radial
    mass distribution, vanishing at both ends when masses match) and
    psi = v - V.  Non-negative; zero only when both fields match.
    """
    U_ref, V_ref, grid = steady.U.values, steady.V.values, steady.U.grid
    if np.any(U_ref <= 0):
        raise ValueError("steady U must be positive for the energy weight")
    r = grid.nodes
    n = grid.n
    diff = (state.u.values - U_ref) * r ** (n - 1)
    h = np.diff(r)
    anti = np.zeros_like(diff)
    anti[1:] = np.cumsum(0.5 * h * (diff[:-1] + diff[1:]))
    phi = np.zeros_like(anti)
    phi[1:] = anti[1:] / r[1:] ** (n - 1)
    psi = state.v.values - V_ref
    integrand = r ** (n - 1) * (phi**2 / U_ref + params.p * psi**2)
    return unit_sphere_area(n) * float(np.trapezoid(integrand, r))


def mass_anti_derivative_endpoint(state: EvolutionState, steady: DiscreteSteady) -> float:
    """Value of int_0^R (u - U) s^(n-1) ds; zero (to quadrature) at equal mass."""
    grid = steady.U.grid
    r = grid.nodes
    diff = (state.u.values - steady.U.values) * r ** (grid.n - 1)
    return float(np.trapezoid(diff, r))


def evolve(
    u0: RadialProfile,
    w0: RadialProfile,
    params: Params,
    reference: DiscreteSteady,
    cfg: SchemeConfig,
) -> EvolutionSeries:
    """Run the scheme at the fixed step cfg.dt and record stability diagnostics.

    Distances and energy are measured against reference, the scheme's steady
    pair on u0's grid (see relax_to_discrete_steady).  u0 is renormalised to mass m when needed (the factor is reported).
    w0 must be positive with w0(R) = b.  Terminates at t_end or when the
    combined L-infinity distance drops below 1e-10.
    """
    grid = u0.grid
    if np.any(u0.values <= 0) or np.any(w0.values <= 0):
        raise ValueError("u0 and w0 must be positive")
    if abs(w0.values[-1] - params.b) > 1e-10 * params.b:
        raise ValueError(f"w0(R) = {w0.values[-1]} must equal b = {params.b}")
    cells = _Cells(grid)
    factor = params.m / cells.mass(u0.values)
    u_init = u0.values * factor
    v_init = np.log(w0.values)
    v_init[-1] = math.log(params.b)
    state = EvolutionState(
        t=0.0,
        u=RadialProfile(grid=grid, values=u_init),
        v=RadialProfile(grid=grid, values=v_init),
    )
    if not np.array_equal(reference.U.grid.nodes, grid.nodes):
        raise ValueError("steady reference lives on an incompatible grid")
    U_ref = reference.U.values
    W_ref = np.exp(reference.V.values)
    om = unit_sphere_area(grid.n)

    rows = []

    def record(st: EvolutionState):
        du = st.u.values - U_ref
        dw = np.exp(st.v.values) - W_ref
        rows.append(
            (
                st.t,
                cells.mass(st.u.values),
                float(np.max(np.abs(du))),
                math.sqrt(om * float(np.dot(cells.volumes, du**2))),
                float(np.max(np.abs(dw))),
                math.sqrt(om * float(np.dot(cells.volumes, dw**2))),
                lyapunov_energy(st, reference, params),
            )
        )

    record(state)
    k = 0
    while state.t < cfg.t_end - 1e-12 * cfg.t_end:
        state = step(state, params, cfg)
        k += 1
        if k % cfg.output_every == 0 or state.t >= cfg.t_end:
            record(state)
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
