"""Acceptance gates for the whole artifact, one test per gate.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
gate.  Gates cover: the exact-layer 1D oracle, the four small-eps expansion
coefficients on the unit disk, the closed-form barrier sandwich, the strong
chemotaxis limit, 2D-versus-radial cross validation, curvature/thickness
monotonicity, mass conservation, nonlinear stability, and the uniqueness
probe.

Gates 1 and 7 compare the solver with references that are exact for the
problems they pose.  Both references are built here from numpy and scipy
alone, and each gate also checks its own reference:

* Gate 1 solves W'' = W^3, W'(0) = 0, W(40) = 1.  Its exact solution is
  W(r) = W0 / cn(W0 r | 1/2), with W0 = 0.0447690416498... the root of
  cn(40 W0 | 1/2) = W0 below K(1/2)/40 (see `ball_layer_exact`).  The solver
  meets it to 1.3e-6 on the gate's grid.  The half-line form
  (1 + z/sqrt(2))^(-1) is not the solution here: the symmetry condition at
  r = 0 moves the profile by 2.1e-4 at z = 10.  That form is checked only near
  the boundary, in `tests/test_radial_steady.py`.

* Gate 7 follows the nonlocal disk problem at eps = 0.1 as p grows.  By
  scaling invariance (Joseph & Lundgren, Arch. Rational Mech. Anal. 49, 1973)
  each p reduces to one initial-value problem (see `p_limit_exact`).  The
  solver's boundary mass fraction and sup|W - b| meet it to better than 7e-7
  for every p.  The fraction within depth 0.1 is 0.794 at p = 40 and crosses
  0.9 only near p ~= 95, so the concentration clause is asserted at p = 120.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import ellipj, ellipk
from scipy.stats import spearmanr

from klayer.asymptotics import (
    measure_thickness,
    slope_U_leading,
    slope_W_leading,
    thickness_leading,
    verify_p_limit,
)
from klayer.core import Params, make_graded_grid, refine_grid
from klayer.evolve_radial import (
    evolve,
    fit_decay_rate,
    relax_to_discrete_steady,
)
from klayer.mass_constraint import solve_nonlocal
from klayer.planar2d import (
    Disk,
    Ellipse,
    boundary_samples,
    build_domain,
    curvature_thickness_report,
    solve_nonlocal_2d,
)
from klayer.radial_steady import (
    barrier_lower,
    barrier_upper,
    boundary_slope,
    lambda_leading,
    solve_local_radial,
    upper_barrier_sigma_max,
)

from uniqueness_probe import local_newton_from

DISK = Params(epsilon=1e-3, p=2, b=1, m=1, n=2)
EPS_SWEEP = (4e-3, 2e-3, 1e-3)


def report(gate: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {gate}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def fit_log_corrected(eps, scaled):
    A = np.stack([np.ones_like(eps), eps * np.log(1.0 / eps)], axis=1)
    return float(np.linalg.lstsq(A, scaled, rcond=None)[0][0])


# ---------------------------------------------------------------------------
# exact references (numpy and scipy only, never klayer's solvers)


def ball_layer_exact(R: float):
    """Exact solution of W'' = W^3 on (0, R) with W'(0) = 0 and W(R) = 1.

    f(x) = 1/cn(x | 1/2) obeys f'^2 = (f^4 - 1)/2, hence f'' = f^3, so
    W(r) = W0 f(W0 r) solves the equation with W(0) = W0 and W'(0) = 0.
    cn(. | 1/2) first vanishes at K(1/2), so W(R) = 1 picks W0 as the root of
    cn(R W0 | 1/2) = W0 on (0, K(1/2)/R).  Returns (W0, K(1/2)/R, W).
    """
    w0_max = float(ellipk(0.5)) / R
    W0 = brentq(lambda a: ellipj(R * a, 0.5)[1] - a, 0.0, w0_max, xtol=1e-16)
    return W0, w0_max, lambda r: W0 / ellipj(W0 * np.asarray(r), 0.5)[1]


def p_limit_exact(p, eps, R, b, m, depth):
    """Nonlocal steady state on the disk of radius R from scaling invariance.

    If V'' + V'/rho = V^(1+p) with V(0) = 1, V'(0) = 0, then
    W(r) = s V(rho_a r / R) with s = b / V(rho_a) solves the local problem for
    the sigma that goes with rho_a.  With I' = rho V^p carried along the same
    trajectory, the mass constraint eps int W^p = m sigma becomes
    omega_n eps I(rho_a) = m (rho_a / R)^(n-2), that is I(rho_a) = m/(2 pi eps)
    in the plane; b drops out.  I blows up with V, so the root is reached
    before the blow-up radius.

    Returns (U-mass fraction within depth of the boundary, sup|W - b|,
    relative defect of the constraint at the located rho_a).
    """
    target = m / (2.0 * np.pi * eps)

    def rhs(rho, y):
        V, dV, _ = y
        src = V ** (1.0 + p)
        d2V = src / 2.0 if rho == 0.0 else src - dV / rho
        return [dV, d2V, rho * V**p]

    def constraint(rho, y):
        return y[2] - target

    constraint.terminal = True
    constraint.direction = 1
    sol = solve_ivp(rhs, (0.0, 10.0), [1.0, 0.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-14, events=constraint, dense_output=True)
    rho_a = float(sol.t_events[0][0])
    V_a, _, I_a = sol.y_events[0][0]
    fraction = 1.0 - sol.sol(rho_a * (R - depth) / R)[2] / I_a
    return float(fraction), float(b * (1.0 - 1.0 / V_a)), float(abs(I_a / target - 1.0))


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def disk_sweep():
    """Unit-disk nonlocal solves over the acceptance eps sweep."""
    t0 = time.perf_counter()
    solves = []
    for eps in EPS_SWEEP:
        par = Params(epsilon=eps, p=2, b=1, m=1, n=2)
        solves.append((par, solve_nonlocal(par, 1.0, 3000)))
    return solves, time.perf_counter() - t0


@pytest.fixture(scope="module")
def stability_run():
    """Nonlinear stability configuration: the scheme's discrete steady pair and
    a 1% multiplicative perturbation run."""
    t0 = time.perf_counter()
    par = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
    grid = make_graded_grid(1.0, 2, 10.0 / 319, 320)
    ref = relax_to_discrete_steady(grid, par)
    r = grid.nodes
    u0 = ref.U.values * (1.0 + 0.01 * np.cos(np.pi * r))
    w0 = np.exp(np.log(ref.W.values) * (1.0 + 0.01 * np.cos(np.pi * r / 2.0)))
    dt = 0.01
    # pilot to estimate the rate, then a horizon of 10 decay times
    pilot = evolve(ref, u0, w0, dt=dt, t_end=6.0, output_every=25)
    mu_pilot = fit_decay_rate(pilot.t, pilot.distance())
    t_end = max(10.0 / max(mu_pilot, 0.05), 6.0)
    series = evolve(ref, u0, w0, dt=dt, t_end=t_end, output_every=25)
    return {
        "par": par,
        "grid": grid,
        "ref": ref,
        "series": series,
        "runs": [pilot, series],
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# gates


def test_gate_01_exact_layer_oracle():
    t0 = time.perf_counter()
    par = Params(epsilon=1.0, p=2, b=1, m=1, n=1)
    grid = make_graded_grid(40.0, 1, 0.077, 2000)
    W = solve_local_radial(1.0, par, grid)
    z = 40.0 - grid.nodes
    W0, W0_max, exact = ball_layer_exact(40.0)
    bc_defect = abs(float(exact(40.0)) - par.b)
    oracle_ok = bc_defect <= 1e-14 and 0.0 < W0 < W0_max
    err10 = float(np.max(np.abs(W.values - exact(grid.nodes))[z <= 10.0]))

    # observed order under mesh halving (nested refinement)
    g1 = refine_grid(grid)
    g2 = refine_grid(g1)
    W1 = solve_local_radial(1.0, par, g1)
    W2 = solve_local_radial(1.0, par, g2)
    d01 = float(np.max(np.abs(W.values - W1.values[::2])))
    d12 = float(np.max(np.abs(W1.values - W2.values[::2])))
    order = float(np.log2(d01 / d12))
    elapsed = time.perf_counter() - t0

    ok = oracle_ok and err10 <= 1e-5 and order >= 1.9 and elapsed < 5.0
    report(
        "01 exact-layer oracle",
        ok,
        f"max|W-exact| on z<=10: {err10:.3e} (gate 1e-5), oracle |W(40)-1| "
        f"{bc_defect:.1e} (gate 1e-14), W0 {W0:.14f} < K(1/2)/40 {W0_max:.6f}, "
        f"order {order:.3f} (gate 1.9), {elapsed:.2f}s (gate 5s)",
    )
    assert oracle_ok, (
        f"closed form W0/cn(W0 r | 1/2) misses W(40) = 1 by {bc_defect:.3e} "
        f"or W0 = {W0!r} is outside (0, K(1/2)/40 = {W0_max!r})"
    )
    assert ok, (
        f"solver deviates from the exact ball solution W0/cn(W0 r | 1/2) by "
        f"{err10:.3e} on z<=10 (gate 1e-5; measured 1.3e-6 when correct), "
        f"order={order:.3f} (gate 1.9), elapsed={elapsed:.2f}s (gate 5s)"
    )


def test_gate_02_lambda_eps_coefficient(disk_sweep):
    solves, sweep_time = disk_sweep
    eps = np.array(EPS_SWEEP)
    lam = np.array([st.lambda_eps for _, st in solves])
    extrap = fit_log_corrected(eps, lam / eps)
    target = lambda_leading(DISK, 1.0)
    gap = abs(extrap - target) / target
    ok = gap <= 0.05 and sweep_time < 120.0
    report(
        "02 lambda_eps coefficient",
        ok,
        f"extrapolated {extrap:.4f} vs 8*pi^2 = {target:.4f}, gap {gap:.4f} "
        f"(gate 0.05), sweep {sweep_time:.1f}s (gate 120s)",
    )
    assert ok


def test_gate_03_boundary_slope_W(disk_sweep):
    solves, _ = disk_sweep
    eps = np.array(EPS_SWEEP)
    slopes = np.array([boundary_slope(st.W) for _, st in solves])
    extrap = fit_log_corrected(eps, slopes * eps)
    target = slope_W_leading(DISK, 1.0)
    gap = abs(extrap - target) / target
    ok = gap <= 0.05
    report(
        "03 boundary slope of W",
        ok,
        f"extrapolated {extrap:.6f} vs 1/(4 pi) = {target:.6f}, gap {gap:.4f} "
        "(gate 0.05)",
    )
    assert ok


def test_gate_04_boundary_slope_U(disk_sweep):
    solves, _ = disk_sweep
    eps = np.array(EPS_SWEEP)
    slopes = np.array([boundary_slope(st.U) for _, st in solves])
    extrap = fit_log_corrected(eps, slopes * eps**2)
    target = slope_U_leading(DISK, 1.0)
    gap = abs(extrap - target) / target
    ok = gap <= 0.08
    report(
        "04 boundary slope of U",
        ok,
        f"extrapolated {extrap:.6e} vs {target:.6e}, gap {gap:.4f} (gate 0.08)",
    )
    assert ok


def test_gate_05_layer_thickness(disk_sweep):
    solves, _ = disk_sweep
    eps = np.array(EPS_SWEEP)
    thick = np.array([measure_thickness(st.W, 0.5) for _, st in solves])
    extrap = fit_log_corrected(eps, thick / eps)
    target = thickness_leading(0.5, DISK, 1.0)
    gap = abs(extrap - target) / target
    ok = gap <= 0.08
    report(
        "05 layer thickness",
        ok,
        f"extrapolated {extrap:.4f} vs 4*pi = {target:.4f}, gap {gap:.4f} "
        "(gate 0.08)",
    )
    assert ok


def test_gate_06_barrier_sandwich(disk_sweep):
    solves, _ = disk_sweep
    tol_disc = 1e-4  # 1e-4 * b
    worst_low = worst_up = 0.0
    for par, st in solves:
        sigma = st.sigma
        assert sigma < upper_barrier_sigma_max(par, 1.0)
        r = st.W.grid.nodes
        low = np.asarray(barrier_lower(r, sigma, par, 1.0))
        up = np.full_like(low, np.inf)  # the n=2 bound diverges at the axis
        up[1:] = np.asarray(barrier_upper(r[1:], sigma, par, 1.0))
        worst_low = max(worst_low, float(np.max(low - st.W.values)))
        worst_up = max(worst_up, float(np.max(st.W.values - up)))
    ok = worst_low <= tol_disc and worst_up <= tol_disc
    report(
        "06 barrier sandwich",
        ok,
        f"worst lower violation {worst_low:.2e}, upper {worst_up:.2e} "
        f"(gate {tol_disc:.0e})",
    )
    assert ok


def test_gate_07_strong_chemotaxis_limit():
    t0 = time.perf_counter()
    base = Params(epsilon=0.1, p=2, b=1, m=1, n=2)
    rows = verify_p_limit(base, 1.0, [5.0, 10.0, 20.0, 40.0, 120.0], 0.1)
    exact = [p_limit_exact(p, 0.1, 1.0, base.b, base.m, 0.1) for p, _, _ in rows]
    elapsed = time.perf_counter() - t0
    sups = [row[1] for row in rows]
    fracs = [row[2] for row in rows]
    sup_dec = all(b < a for a, b in zip(sups, sups[1:]))
    frac_inc = all(b > a for a, b in zip(fracs, fracs[1:]))
    frac_gap = max(abs(f - e[0]) for f, e in zip(fracs, exact))
    sup_gap = max(abs(s - e[1]) for s, e in zip(sups, exact))
    defect = max(e[2] for e in exact)
    frac_final = fracs[-1]
    ok = (
        defect <= 1e-12
        and sup_dec
        and frac_inc
        and frac_gap <= 1e-5
        and sup_gap <= 1e-5
        and frac_final > 0.9
        and elapsed < 60.0
    )
    report(
        "07 strong-chemotaxis limit",
        ok,
        f"sup|W-b| decreasing: {sup_dec}, fraction increasing: {frac_inc}, "
        f"|fraction - oracle| {frac_gap:.1e}, |sup - oracle| {sup_gap:.1e} "
        f"(gate 1e-5), oracle constraint defect {defect:.1e} (gate 1e-12), "
        f"fraction(p=120) = {frac_final:.4f} (gate > 0.9), {elapsed:.1f}s "
        "(gate 60s)",
    )
    assert defect <= 1e-12, (
        f"scaling-invariance oracle misses I(rho_a) = m/(2 pi eps) by a "
        f"relative {defect:.3e}"
    )
    assert ok, (
        f"against the scaling-invariance oracle the boundary mass fraction is "
        f"off by {frac_gap:.3e} and sup|W-b| by {sup_gap:.3e} (gate 1e-5; "
        f"measured below 7e-7 when correct); fraction(p=120) = {frac_final:.4f} "
        f"(gate 0.9; the oracle gives 0.9188); monotonicity clauses: sup "
        f"decreasing {sup_dec}, fraction increasing {frac_inc}; "
        f"elapsed={elapsed:.1f}s (gate 60s)"
    )


def test_gate_08_planar_vs_radial_oracle():
    t0 = time.perf_counter()
    par = Params(epsilon=0.01, p=2, b=1, m=1, n=2)
    grid = build_domain(Disk(1.0), 0.005)
    res2 = solve_nonlocal_2d(par, grid)
    res1 = solve_nonlocal(par, 1.0, 3000)
    lam_gap = abs(res2.lambda_eps - res1.lambda_eps) / res1.lambda_eps

    iy0 = int(np.argmin(np.abs(grid.coords)))
    xs = grid.coords[(grid.coords >= 0) & (grid.coords <= 1.0)]
    ix = np.searchsorted(grid.coords, xs)
    W1 = res1.W
    w_gap = float(
        np.max(np.abs(res2.W.values[ix, iy0] - np.interp(xs, W1.grid.nodes, W1.values)))
    )
    elapsed = time.perf_counter() - t0
    ok = lam_gap < 0.01 and w_gap < 5e-3 and elapsed < 300.0
    report(
        "08 planar-vs-radial oracle",
        ok,
        f"lambda gap {lam_gap:.5f} (gate 0.01), W radius gap {w_gap:.2e} "
        f"(gate 5e-3), {elapsed:.0f}s (gate 300s)",
    )
    assert ok


def test_gate_09_curvature_thickness_monotonicity():
    par = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
    a, b_ax = np.sqrt(2.0), 1.0 / np.sqrt(2.0)  # area pi, aspect ratio 2
    ellipse = Ellipse(a, b_ax)
    eres = solve_nonlocal_2d(par, build_domain(ellipse, 0.01))
    etab = curvature_thickness_report(eres.W, boundary_samples(ellipse, 128), 0.5, par)
    rho = float(spearmanr(etab[:, 1], etab[:, 2]).statistic)

    dres = solve_nonlocal_2d(par, build_domain(Disk(1.0), 0.01))
    dtab = curvature_thickness_report(dres.W, boundary_samples(Disk(1.0), 48), 0.5, par)
    cv = float(np.std(dtab[:, 2]) / np.mean(dtab[:, 2]))

    ok = len(etab) >= 32 and rho > 0 and cv <= 0.05
    report(
        "09 curvature-thickness",
        ok,
        f"ellipse samples kept {len(etab)} (gate >= 32), spearman {rho:.4f} "
        f"(gate > 0), disk CV {cv:.2e} (gate 0.05)",
    )
    assert ok


def test_gate_10_mass_conservation(stability_run):
    worst = 0.0
    for series in stability_run["runs"]:
        drift = float(np.max(np.abs(series.mass - series.mass[0])) / series.mass[0])
        worst = max(worst, drift)
    ok = worst <= 1e-9
    report(
        "10 mass conservation",
        ok,
        f"worst relative drift over full horizons {worst:.2e} (gate 1e-9)",
    )
    assert ok


def test_gate_11_nonlinear_stability(stability_run):
    series = stability_run["series"]
    d = series.distance()
    mu_hat = fit_decay_rate(series.t, d)
    ratio = d[-1] / d[0]
    E = series.energy
    after = series.t >= 0.05 * series.t[-1]
    Ea = E[after]
    energy_monotone = bool(np.all(np.diff(Ea) <= Ea[:-1] * 1e-10))
    elapsed = stability_run["elapsed"]
    ok = mu_hat > 0 and ratio <= 1e-3 and energy_monotone and elapsed < 180.0
    report(
        "11 nonlinear stability",
        ok,
        f"mu_hat {mu_hat:.3f} (gate > 0), final/initial distance {ratio:.2e} "
        f"(gate 1e-3), energy monotone {energy_monotone}, {elapsed:.0f}s "
        "(gate 180s)",
    )
    assert ok


def test_gate_12_uniqueness_probe():
    par = Params(epsilon=0.05, p=2, b=1, m=1, n=2)
    grid = build_domain(Disk(1.0), 0.02)
    res = solve_nonlocal_2d(par, grid)
    sigma = res.sigma
    # core.newton on the product's folded cut-cell system, from the constant
    # supersolution b and from near zero
    b_start = np.full(grid.quad.size, par.b)
    W_super = local_newton_from(b_start, sigma, par, grid)
    W_zero = local_newton_from(1e-3 * b_start, sigma, par, grid)
    diff = float(np.max(np.abs(W_super.values - W_zero.values)))
    ok = diff <= 10 * 1e-10
    report(
        "12 uniqueness probe",
        ok,
        f"super-start vs near-zero-start difference {diff:.2e} (gate 1e-9)",
    )
    assert ok


def test_attractor_independence(stability_run):
    # supplementary stability property: distinct same-mass perturbations end
    # at the same discrete steady state
    par = stability_run["par"]
    grid = stability_run["grid"]
    ref = stability_run["ref"]
    r = grid.nodes
    mu = fit_decay_rate(stability_run["series"].t, stability_run["series"].distance())
    t_end = max(10.0 / mu, 6.0)
    finals = []
    for shape in (np.cos(2 * np.pi * r), np.cos(3 * np.pi * r)):
        u0 = ref.U.values * (1.0 + 0.01 * shape)
        w0 = np.exp(np.log(ref.W.values))
        series = evolve(ref, u0, w0, dt=0.01, t_end=t_end, output_every=50)
        finals.append(series.distance()[-1])
    # both ended on the shared attractor, so their mutual gap is bounded by
    # the sum of the remaining distances
    gap = finals[0] + finals[1]
    ok = gap <= 1e-6
    report("attractor independence", ok, f"mutual bound {gap:.2e} (gate 1e-6)")
    assert ok
