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
relax_to_discrete_steady() solves it with core.newton on
radial_steady.ball_system in 4-6 tridiagonal solves (no dt, no elliptic
solve) and returns the core.SteadyState of the Newton's own iterate as W
and the finite-volume mass integral(W^p) the Newton returns with it; it
keeps the name from when it time-stepped to the pair, because the benchmark
tracer times it under that name.  The pair carries its grid (on W) and
parameters: evolve(reference, u0, w0, dt, t_end) and
lyapunov_energy(u, v, steady) read them from it, take node arrays, and
measure the diagnostics against it, its V being ln W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import exprel

from .core import Field, Params, RadialGrid, SteadyState, newton
from .core import radial_cumulative, radial_weights, unit_sphere_area
from .core import _node_values
from .errors import PositivityError
from . import radial_steady
from .radial_steady import ball_system, barrier_lower, lambda_leading

__all__ = [
    "EvolutionSeries",
    "COLUMNS",
    "step",
    "step_count",
    "evolve",
    "relax_to_discrete_steady",
    "lyapunov_energy",
    "fit_decay_rate",
]


def _mass(grid: RadialGrid, u: np.ndarray) -> float:
    """The finite-volume mass omega_n sum(V_i u_i) that step() conserves."""
    return unit_sphere_area(grid.n) * float(np.dot(grid.volumes, u))


@dataclass(frozen=True, eq=False)
class EvolutionSeries:
    """Diagnostic time series of an evolution run, one array per name of COLUMNS."""

    t: np.ndarray
    mass: np.ndarray
    linf_u: np.ndarray
    l2_u: np.ndarray
    linf_w: np.ndarray
    l2_w: np.ndarray
    energy: np.ndarray

    def distance(self) -> np.ndarray:
        """Combined L-infinity distance of (u - U, w - W)."""
        return np.maximum(self.linf_u, self.linf_w)


COLUMNS = tuple(f.name for f in fields(EvolutionSeries))  # the rows' and the CSV's order


def step(
    grid: RadialGrid, u: np.ndarray, v: np.ndarray, params: Params, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One update of (u, v = ln w) on grid's cells by dt; positive for every dt.

    Returns the new (u, v).  Raises ValueError when dt is not a finite
    positive number or a new field is not finite (one pass over both), and
    PositivityError when a new u is not positive.  V / dt is formed once and
    read by both solves.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be a finite positive number, got {dt}")
    V = grid.volumes
    g = grid.conductances  # interior faces 1..N-1
    V_dt = V / dt

    # --- u: implicit Scharfetter-Gummel flux at the old v --------------------
    d = params.p * (v[1:] - v[:-1])
    leave = g / exprel(-d)  # g B(-d): out of node i across its right face
    enter = g / exprel(d)  # g B(d): out of node i+1 across its left face
    di = V_dt.copy()
    di[:-1] += leave
    di[1:] += enter
    u_new = radial_steady.solve_banded(-leave, di, -enter, V_dt * u)

    # --- w = e^v: implicit diffusion and sink at the new u, w(R) = b --------
    a = params.epsilon * g
    di = V_dt + V * u_new
    di[:-1] += a
    di[1:] += a
    di[-1] = 1.0
    lo = -a
    lo[-1] = 0.0
    rhs = V_dt * np.exp(v)
    rhs[-1] = params.b
    v_new = np.log(radial_steady.solve_banded(lo, di, -a, rhs))
    v_new[-1] = math.log(params.b)

    if not np.isfinite(np.concatenate((u_new, v_new))).all():
        raise ValueError("step gave a non-finite u or v")
    if u_new.min() <= 0:
        raise PositivityError("u must be positive at every node")
    return u_new, v_new


# ---------------------------------------------------------------------------
# discrete steady reference


def relax_to_discrete_steady(grid: RadialGrid, params: Params) -> SteadyState:
    """The fixed point of step() on grid, by core.newton on ball_system.

    There every face flux vanishes, so U = C W^p, and W solves
    eps K W = V C W^(1+p) off the Dirichlet row, K being the flux-difference
    operator of step() and C = m / (omega_n sum(V W^p)); no dt enters.  That
    is sigma K W = V W^(1+p) with sigma = eps omega_n sum(V W^p) / m, the
    ball's nonlocal equation on the grid's cells, with the quadrature
    weights omega_n V in place of the ball's trapezoid ones.  Newton starts
    from the lower barrier at sigma0 = eps^2 lambda_leading, as the ball's
    solve does, and takes its last step in q = W^(-p/2), which leaves the
    pair fixed under step() to a few ulps.  Returns the SteadyState of the
    Newton's iterate as W and the finite-volume mass it returns as
    integral(W^p), so U = C W^p; step() takes V = ln W.  Raises ValueError
    unless grid.n is params.n, and NoConvergenceError as core.newton does.
    """
    if grid.n != params.n:
        raise ValueError(f"grid dimension {grid.n} != params dimension {params.n}")
    sigma = params.epsilon**2 * lambda_leading(params, grid.R)
    start = barrier_lower(grid.nodes, sigma, params, grid.R)
    weights = unit_sphere_area(grid.n) * grid.volumes
    w, integral, steps = newton(start, None, params, ball_system(grid, weights), polish=True)
    return SteadyState(params, Field(grid, w), integral, steps)


# ---------------------------------------------------------------------------
# diagnostics


def lyapunov_energy(u: np.ndarray, v: np.ndarray, steady: SteadyState) -> float:
    """Weighted energy omega_n * int(r^(n-1) phi^2 / U + p r^(n-1) psi^2) dr

    of the node arrays (u, v), one value per node of the grid of steady
    (ValueError otherwise), integrated by radial_weights, with
    psi = v - ln W and phi = radial_cumulative(u - U) / (omega_n r^(n-1)),
    the relative radial mass distribution.
    Non-negative; zero only when both fields match.  phi(0) = 0, but
    phi(R) = 0 only where the trapezoid masses of u and U match, and
    evolve() matches masses in the cell volumes: there |phi(R)| is 1.4e-6
    against a max |phi| of 1.6e-2 for u = U (1 + 0.3 cos(pi r)) at eps 0.05
    on the 128-node grid of klayer evolve.
    """
    U_ref, grid = steady.U.values, steady.W.grid
    for name, x in (("u", u), ("v", v)):
        if np.shape(x) != grid.shape:
            raise ValueError(f"{name} shape {np.shape(x)} does not match grid ({grid.shape})")
    if U_ref.min() <= 0:  # U_ref is finite (Field checks it)
        raise ValueError("steady U must be positive for the energy weight")
    phi = radial_cumulative(grid, u - U_ref)
    phi[1:] /= unit_sphere_area(grid.n) * grid.nodes[1:] ** (grid.n - 1)
    integrand = phi**2 / U_ref + steady.params.p * (v - np.log(steady.W.values)) ** 2
    return float(radial_weights(grid) @ integrand)


def step_count(dt: float, t_end: float) -> int:
    """The steps of dt that evolve() takes to t_end: ceil(t_end / dt), at
    least 1, a ratio within 1e-9 relative of an integer counting as that
    integer.  So a run ends past t_end only where t_end / dt is no integer."""
    ratio = t_end / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_end / dt = {ratio} is not a finite number of steps")
    whole = round(ratio)
    return max(1, whole if abs(ratio - whole) <= 1e-9 * ratio else math.ceil(ratio))


def evolve(
    reference: SteadyState,
    u0: np.ndarray,
    w0: np.ndarray,
    dt: float,
    t_end: float,
    output_every: int = 10,
) -> EvolutionSeries:
    """Take step_count(dt, t_end) steps of step() at the fixed dt, t being
    their sum, and record the stability diagnostics at t = 0, every
    output_every steps and after the last step, always the last row.

    reference is the scheme's steady pair (see relax_to_discrete_steady); its
    grid, a RadialGrid of dimension params.n (ValueError otherwise), and its
    params are those of the run.  Distances and energy are measured
    against it; masses and L2 norms are finite-volume sums over the grid's
    cells.  u0 and w0 are node arrays on that grid, finite and positive.  u0
    is renormalised to mass m, and w0 must have w0(R) = b.  dt and t_end
    must be finite and positive, output_every at least 1.  The run stops
    early at a recorded row whose combined L-infinity distance is below
    1e-10.
    """
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    if output_every < 1:
        raise ValueError(f"output_every must be >= 1, got {output_every}")
    grid, params = reference.W.grid, reference.params
    if not isinstance(grid, RadialGrid):
        raise ValueError(f"reference grid must be a RadialGrid, got {type(grid).__name__}")
    if grid.n != params.n:
        raise ValueError(f"grid dimension {grid.n} != params dimension {params.n}")
    u0, w0 = _node_values(grid, u0, "u0"), _node_values(grid, w0, "w0")
    for name, value in (("u0", u0), ("w0", w0)):
        if np.any(value <= 0):  # after the finiteness check: NaN <= 0 is False
            raise ValueError(f"{name} must be positive")
    if abs(w0[-1] - params.b) > 1e-10 * params.b:
        raise ValueError(f"w0(R) = {w0[-1]} must equal b = {params.b}")
    u = u0 * (params.m / _mass(grid, u0))
    v = np.log(w0)
    v[-1] = math.log(params.b)
    U_ref, W_ref = reference.U.values, reference.W.values

    rows = []

    def record(t: float, u: np.ndarray, v: np.ndarray):
        du, dw = u - U_ref, np.exp(v) - W_ref
        rows.append((t, _mass(grid, u),  # one value per name of COLUMNS
                     float(np.max(np.abs(du))), math.sqrt(_mass(grid, du**2)),
                     float(np.max(np.abs(dw))), math.sqrt(_mass(grid, dw**2)),
                     lyapunov_energy(u, v, reference)))

    t, steps = 0.0, step_count(dt, t_end)
    record(t, u, v)
    for k in range(1, steps + 1):
        u, v = step(grid, u, v, params, dt)
        t = t + dt
        if k % output_every == 0 or k == steps:
            record(t, u, v)
            if max(rows[-1][2], rows[-1][4]) < 1e-10:
                break

    return EvolutionSeries(*np.array(rows).T)


FIT_MIN_SAMPLES = 10  # the fewest positive distances that fit_decay_rate fits


def fit_decay_rate(t, distance) -> float:
    """Exponential rate mu_hat from the distances at the increasing times t.

    Least-squares slope of log(distance) over the window [t_end/2, t_end]
    (the early transient is excluded); samples at or below the rounding floor
    are cut, and the window is taken over the pre-floor portion.  t and
    distance are 1-D and of one length, with at least FIT_MIN_SAMPLES
    positive distances (ValueError otherwise).
    """
    t, d = np.asarray(t, dtype=float), np.asarray(distance, dtype=float)
    if t.ndim != 1 or t.shape != d.shape:
        raise ValueError(f"t and distance must be 1-D of one length, got {t.shape} and {d.shape}")
    pos = d > 0
    if np.count_nonzero(pos) < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} samples with positive distances")
    floor = 1e-13 * float(np.max(d))
    above = d > floor
    if np.any(~above):
        cut = int(np.argmin(above))  # first floor hit
        if cut >= FIT_MIN_SAMPLES:
            t, d = t[:cut], d[:cut]
        else:
            t, d = t[pos], d[pos]
    t_end = t[-1]
    window = t >= 0.5 * t_end
    if np.count_nonzero(window) < 2:
        window = np.ones_like(t, dtype=bool)
    slope = np.polyfit(t[window], np.log(d[window]), 1)[0]
    return float(-slope)
