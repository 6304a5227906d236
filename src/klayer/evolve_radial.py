"""Time integration of the transformed radial system and stability diagnostics.

Working variables are the cell density u and the log-chemical v = ln w (the
substitution that removes the singular logarithmic drift), evolved by

    u_t = (1/r^(n-1)) [ (r^(n-1) u_r)_r - p (r^(n-1) u v_r)_r ]
    v_t = (eps/r^(n-1)) (r^(n-1) v_r)_r + eps v_r^2 - u

with total flux u_r - p u v_r = 0 at both r = 0 and r = R, and v(R) = ln b.

Scheme: finite volumes on the node-centred cells of the radial grid, IMEX in
time - diffusion implicit (tridiagonal solves in the r^(n-1)-weighted
operator), chemotactic flux, eps v_r^2 and the -u sink explicit.  The
chemotactic face flux uses arithmetic-mean u and a centred v_r.  Because all
u-updates are telescoping face-flux differences with zero boundary flux, the
discrete mass sum(V_i u_i) is conserved to solver rounding each step.

The continuous steady pair is not an exact fixed point of the discrete flux
form, so stability diagnostics are measured against the scheme's own
attractor: relax_to_discrete_steady() integrates from the elliptic steady
state until stationarity and returns the discrete reference (same mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .core import Params, RadialGrid, RadialProfile, SteadyState, unit_sphere_area
from .errors import NoConvergenceError, PositivityError, TimeStepError

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
    "cfl_time_step",
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
    cfl_safety: float = 0.8
    output_every: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.cfl_safety < 1:
            raise ValueError("cfl_safety must lie in (0, 1)")
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
    reference: DiscreteSteady
    dt_used: float
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


_CELLS_CACHE: dict[int, _Cells] = {}


def _cells(grid: RadialGrid) -> _Cells:
    key = id(grid)
    cells = _CELLS_CACHE.get(key)
    if cells is None or cells.grid is not grid:
        cells = _Cells(grid)
        _CELLS_CACHE[key] = cells
    return cells


def _node_gradient(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Three-point gradient at the nodes; zero at r = 0 by even symmetry."""
    g = np.empty_like(v)
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    g[1:-1] = (
        -hp / (hm * (hm + hp)) * v[:-2]
        + (hp - hm) / (hm * hp) * v[1:-1]
        + hm / (hp * (hm + hp)) * v[2:]
    )
    g[0] = 0.0
    h1 = r[-1] - r[-2]
    h2 = r[-2] - r[-3]
    g[-1] = (
        v[-3] * h1 / (h2 * (h1 + h2))
        - v[-2] * (h1 + h2) / (h1 * h2)
        + v[-1] * (2 * h1 + h2) / (h1 * (h1 + h2))
    )
    return g


def _solve_tridiag(lo, di, up, rhs):
    ab = np.zeros((3, di.size))
    ab[0, 1:] = up[:-1]
    ab[1, :] = di
    ab[2, :-1] = lo[1:]
    return solve_banded((1, 1), ab, rhs, overwrite_ab=True)


def cfl_time_step(state: EvolutionState, params: Params, safety: float = 0.8) -> float:
    """Largest admissible dt: safety * min spacing / max advective speed."""
    cells = _cells(state.u.grid)
    v_r_faces = np.diff(state.v.values) / cells.dr
    speed = params.p * float(np.max(np.abs(v_r_faces)))
    if speed == 0.0:
        return math.inf
    return safety * float(np.min(cells.dr)) / speed


def step(state: EvolutionState, params: Params, cfg: SchemeConfig) -> EvolutionState:
    """One IMEX update of (u, v) by cfg.dt."""
    grid = state.u.grid
    cells = _cells(grid)
    r = grid.nodes
    n = grid.n
    N = r.size
    dt = cfg.dt
    u = state.u.values
    v = state.v.values

    v_r_faces = np.diff(v) / cells.dr
    speed = params.p * float(np.max(np.abs(v_r_faces)))
    if speed > 0 and dt > cfg.cfl_safety * float(np.min(cells.dr)) / speed:
        raise TimeStepError(
            f"dt={dt} exceeds the advective CFL bound "
            f"{cfg.cfl_safety * float(np.min(cells.dr)) / speed}"
        )

    V = cells.volumes
    a_over_dr = cells.areas / cells.dr  # interior faces 1..N-1

    # --- u update: implicit diffusion, explicit chemotactic flux -----------
    u_face = 0.5 * (u[:-1] + u[1:])
    adv = -params.p * cells.areas * u_face * v_r_faces  # flux at interior faces
    rhs_u = (V / dt) * u
    rhs_u[:-1] += adv
    rhs_u[1:] -= adv
    lo = np.zeros(N)
    di = V / dt
    up = np.zeros(N)
    di[:-1] += a_over_dr
    di[1:] += a_over_dr
    lo[1:] = -a_over_dr
    up[:-1] = -a_over_dr
    u_new = _solve_tridiag(lo, di, up, rhs_u)
    if np.any(u_new <= 0):
        raise PositivityError("u lost positivity; reduce dt or the perturbation")

    # --- v update: implicit diffusion, explicit eps v_r^2 and -u -----------
    q = _node_gradient(v, r) ** 2
    rhs_v = (V / dt) * v + V * (params.epsilon * q - u)
    lo = np.zeros(N)
    di = V / dt
    up = np.zeros(N)
    di[:-1] += params.epsilon * a_over_dr
    di[1:] += params.epsilon * a_over_dr
    lo[1:] = -params.epsilon * a_over_dr
    up[:-1] = -params.epsilon * a_over_dr
    # Dirichlet v(R) = ln b
    lo[-1] = 0.0
    di[-1] = 1.0
    rhs_v[-1] = math.log(params.b)
    v_new = _solve_tridiag(lo, di, up, rhs_v)
    v_new[-1] = math.log(params.b)

    return EvolutionState(
        t=state.t + dt,
        u=RadialProfile(grid=grid, values=u_new),
        v=RadialProfile(grid=grid, values=v_new),
    )


# ---------------------------------------------------------------------------
# discrete steady reference


def _sample_on_grid(profile: RadialProfile, grid: RadialGrid) -> np.ndarray:
    if profile.grid.nodes.shape == grid.nodes.shape and np.array_equal(
        profile.grid.nodes, grid.nodes
    ):
        return profile.values.copy()
    return np.interp(grid.nodes, profile.grid.nodes, profile.values)


def relax_to_discrete_steady(
    steady: SteadyState,
    grid: RadialGrid,
    params: Params,
    dt: float | None = None,
    tol: float = 1e-12,
    max_steps: int = 400_000,
) -> DiscreteSteady:
    """Integrate from the elliptic steady pair until the scheme is stationary.

    The discrete attractor differs from the continuous pair by the spatial
    truncation error; measuring stability against it keeps fixed-point and
    Lyapunov diagnostics clean of that bias.  The returned pair carries the
    same discrete mass as params.m.  The iteration stops once the relative
    change per unit time falls below tol, or below the rounding floor
    16 eps_mach / dt when that is larger.
    """
    cells = _cells(grid)
    U0 = np.asarray(_sample_on_grid(steady.U, grid))
    W0 = np.asarray(_sample_on_grid(steady.W, grid))
    U0 *= params.m / cells.mass(U0)
    state = EvolutionState(
        t=0.0,
        u=RadialProfile(grid=grid, values=U0),
        v=RadialProfile(grid=grid, values=np.log(W0)),
    )
    step_dt = dt if dt is not None else 0.5 * cfl_time_step(state, params)

    scale_u = float(np.max(np.abs(U0)))
    scale_v = float(np.max(np.abs(state.v.values))) + 1.0
    # a step that moves every entry by a few ulps is stationary to rounding;
    # a smaller tol can only be met by landing on an exact fixed point
    stop = max(tol, 16 * np.finfo(float).eps / step_dt)
    for _ in range(max_steps):
        cfg = SchemeConfig(dt=step_dt, t_end=1.0, cfl_safety=0.8)
        try:
            new = step(state, params, cfg)
        except TimeStepError:
            step_dt *= 0.5
            if step_dt < 1e-12:
                raise
            stop = max(tol, 16 * np.finfo(float).eps / step_dt)
            continue
        res_u = float(np.max(np.abs(new.u.values - state.u.values))) / (step_dt * scale_u)
        res_v = float(np.max(np.abs(new.v.values - state.v.values))) / (step_dt * scale_v)
        state = new
        if max(res_u, res_v) < stop:
            # undo the mass roundoff accumulated over the relaxation steps
            u_scaled = state.u.values * (params.m / cells.mass(state.u.values))
            return DiscreteSteady(
                U=RadialProfile(grid=grid, values=u_scaled), V=state.v
            )
    raise NoConvergenceError(
        f"relaxation not stationary after {max_steps} steps "
        f"(residual {max(res_u, res_v)}, target {stop})"
    )


# ---------------------------------------------------------------------------
# diagnostics


def _reference_pair(steady: SteadyState | DiscreteSteady) -> tuple[np.ndarray, np.ndarray, RadialGrid]:
    if isinstance(steady, DiscreteSteady):
        return steady.U.values, steady.V.values, steady.U.grid
    U = steady.U
    return U.values, np.log(steady.W.values), U.grid


def lyapunov_energy(
    state: EvolutionState, steady: SteadyState | DiscreteSteady, params: Params
) -> float:
    """Weighted energy omega_n * int(r^(n-1) phi^2 / U + p r^(n-1) psi^2) dr,

    with phi the radius-weighted anti-derivative of u - U (the relative radial
    mass distribution, vanishing at both ends when masses match) and
    psi = v - V.  Non-negative; zero only when both fields match.
    """
    U_ref, V_ref, grid = _reference_pair(steady)
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


def mass_anti_derivative_endpoint(state: EvolutionState, steady) -> float:
    """Value of int_0^R (u - U) s^(n-1) ds; zero (to quadrature) at equal mass."""
    U_ref, _, grid = _reference_pair(steady)
    r = grid.nodes
    diff = (state.u.values - U_ref) * r ** (grid.n - 1)
    return float(np.trapezoid(diff, r))


def evolve(
    u0: RadialProfile,
    w0: RadialProfile,
    params: Params,
    steady: SteadyState,
    cfg: SchemeConfig,
    reference: DiscreteSteady | None = None,
) -> EvolutionSeries:
    """Run the IMEX scheme and record stability diagnostics.

    u0 is renormalised to mass m when needed (the factor is reported).
    w0 must be positive with w0(R) = b.  Terminates at t_end or when the
    combined L-infinity distance drops below 1e-10.  A CFL violation halves
    dt (deterministically) rather than failing the run.
    """
    grid = u0.grid
    if np.any(u0.values <= 0) or np.any(w0.values <= 0):
        raise ValueError("u0 and w0 must be positive")
    if abs(w0.values[-1] - params.b) > 1e-10 * params.b:
        raise ValueError(f"w0(R) = {w0.values[-1]} must equal b = {params.b}")
    cells = _cells(grid)
    factor = params.m / cells.mass(u0.values)
    u_init = u0.values * factor
    v_init = np.log(w0.values)
    v_init[-1] = math.log(params.b)
    state = EvolutionState(
        t=0.0,
        u=RadialProfile(grid=grid, values=u_init),
        v=RadialProfile(grid=grid, values=v_init),
    )
    if reference is None:
        reference = relax_to_discrete_steady(steady, grid, params)
    elif reference.U.values.shape != grid.nodes.shape:
        raise ValueError("steady reference lives on an incompatible grid")
    U_ref = reference.U.values
    W_ref = np.exp(reference.V.values)
    om = unit_sphere_area(grid.n)

    dt = cfg.dt
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
        for _ in range(40):
            try:
                new = step(state, params,
                           SchemeConfig(dt=dt, t_end=cfg.t_end,
                                        cfl_safety=cfg.cfl_safety,
                                        output_every=cfg.output_every))
                break
            except TimeStepError:
                dt *= 0.5
        else:
            raise TimeStepError("dt collapsed below any admissible value")
        state = new
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
        reference=reference,
        dt_used=dt,
        renormalized_mass_factor=factor,
    )


def fit_decay_rate(series) -> float:
    """Exponential rate mu_hat from a (t, distance) series.

    Least-squares slope of log(distance) over the window [t_end/2, t_end]
    (the early transient is excluded); samples at or below the rounding floor
    are cut, and the window is taken over the pre-floor portion.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 2:
        t, d = arr[:, 0], arr[:, 1]
    elif arr.ndim == 2 and arr.shape[0] == 2:
        t, d = arr[0], arr[1]
    else:
        raise ValueError("series must be a list of (t, distance) pairs")
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
