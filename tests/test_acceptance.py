"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The two Pareto-front reproduction runs share a module-scoped fixture; they
dominate the runtime (each poll batch is scored in one pass of the traffic
kernel, as ``tramopt optimize`` does).
"""

import dataclasses
import time

import numpy as np
import pytest

from tramopt.cli import main as cli_main
from tramopt.dispersion import cfl_check_adjoint, solve_adjoint, solve_dispersion_forward
from tramopt.emission import emission_field, rasterize_network
from tramopt.moo import (
    SearchOptions,
    hypervolume_2d,
    nondominated_filter,
    pareto_search,
)
from tramopt.network import DispersionParams
from tramopt.objectives import BatchScorer, PolicyEvaluator, j_diff_adjoint, j_diff_forward
from tramopt.traffic import (
    greenshields_flux,
    mass_balance_residuals,
    simulate_traffic,
    step_single_road,
)

FRONT_BUDGET = 4000
FRONT_SEED = 0


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. conservation


def test_criterion_1_conservation(diamond):
    rng = np.random.default_rng(123)
    policies = [0.25 + rng.random(6) * 1.75 for _ in range(3)] + [np.full(6, 2.0)]
    worst_mass = 0.0
    worst_junction = 0.0
    elapsed = []
    idx = {r.id: i for i, r in enumerate(diamond.roads)}
    for policy in policies:
        t0 = time.perf_counter()
        traj = simulate_traffic(diamond, policy)
        elapsed.append(time.perf_counter() - t0)
        worst_mass = max(worst_mass, float(np.abs(mass_balance_residuals(traj, diamond)).max()))
        for j in diamond.junctions:
            lhs = sum(traj.outflow[:, idx[r]] for r in j.incoming)
            rhs = sum(traj.inflow[:, idx[r]] for r in j.outgoing)
            worst_junction = max(worst_junction, float(np.abs(lhs - rhs).max()))
    ok = worst_mass <= 1e-10 and worst_junction <= 1e-14 and max(elapsed) < 1.0
    _criterion(
        1,
        ok,
        f"mass defect {worst_mass:.2e} (<=1e-10), junction defect "
        f"{worst_junction:.2e} (<=1e-14), slowest sim {max(elapsed):.3f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 2. CFL arithmetic


def test_criterion_2_cfl_arithmetic():
    params = DispersionParams(mu=1e-6, kappa=0.0, wind=(1.0, 1.0))
    report = cfl_check_adjoint(0.05, 0.0083, params)
    bound_ok = abs(report.dt_bound - 0.00833300) <= 0.00833300 * 1e-6
    adv_ok = abs(report.advective_value - 0.331987) <= 5e-7
    ok = bound_ok and adv_ok and report.passed
    _criterion(
        2,
        ok,
        f"first bound {report.dt_bound:.9f} (0.00833300 to 6 digits), "
        f"advective {report.advective_value:.6f} (0.331987), dt=0.0083 passes",
    )


# ---------------------------------------------------------------------------
# 3. adjoint identity


def test_criterion_3_adjoint_identity(diamond):
    t0 = time.perf_counter()
    policy = np.ones(6)
    traj = simulate_traffic(diamond, policy)
    raster = rasterize_network(diamond)
    field = emission_field(traj, raster, diamond, policy)
    adjoint = solve_adjoint(diamond)
    via_adjoint = j_diff_adjoint(field, adjoint, 0.0, diamond)
    via_forward = j_diff_forward(solve_dispersion_forward(diamond, field), diamond)
    elapsed = time.perf_counter() - t0
    rel = abs(via_adjoint - via_forward) / max(via_forward, 1e-12)
    ok = rel <= 0.05 and elapsed < 30.0
    _criterion(
        3,
        ok,
        f"adjoint {via_adjoint:.6f} vs forward {via_forward:.6f}: "
        f"gap {rel:.2%} (<=5%), runtime {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# 4. Godunov convergence


def _riemann_exact(x, t, left, right, x0):
    """Exact entropy solution for the concave unit flux (V = rho_max = 1)."""
    x = np.asarray(x)
    if left < right:  # shock; 0.2 -> 0.8 is stationary but keep it general
        speed = ((right * (1 - right)) - (left * (1 - left))) / (right - left)
        return np.where(x < x0 + speed * t, left, right)
    lo, hi = 1.0 - 2.0 * left, 1.0 - 2.0 * right  # characteristic speeds
    xi = (x - x0) / t
    fan = (1.0 - xi) / 2.0
    return np.where(xi <= lo, left, np.where(xi >= hi, right, fan))


def _l1_error(rho_cells, ds, t, left, right, x0, samples=64):
    """Fine midpoint quadrature of |numeric pc-function - exact solution|."""
    n = rho_cells.size
    err = 0.0
    for i in range(n):
        xs = (i + (np.arange(samples) + 0.5) / samples) * ds
        exact = _riemann_exact(xs, t, left, right, x0)
        err += np.sum(np.abs(rho_cells[i] - exact)) * ds / samples
    return err


def _cell_averaged_step(n_cells, ds, left, right, x0):
    rho = np.empty(n_cells)
    for i in range(n_cells):
        lo, hi = i * ds, (i + 1) * ds
        if hi <= x0:
            rho[i] = left
        elif lo >= x0:
            rho[i] = right
        else:
            frac = (x0 - lo) / ds
            rho[i] = frac * left + (1.0 - frac) * right
    return rho


def _exact_godunov_step(rho, ds, dt, flux_in, flux_out):
    """Reference Godunov update: each interface flux is Q at the exact Riemann state at x/t = 0."""
    states = [float(_riemann_exact(0.0, 1.0, u, v, 0.0)) for u, v in zip(rho[:-1], rho[1:])]
    interior = greenshields_flux(np.array(states), 1.0, 1.0)
    flux = np.concatenate(([flux_in], interior, [flux_out]))
    return np.clip(rho + dt / ds * (flux[:-1] - flux[1:]), 0.0, 1.0)


def _convergence_order(left, right, x0=0.51625, t_end=0.25):
    """L1 errors per grid, their fitted order, and the largest per-step gap
    between ``step_single_road`` and the exact-Riemann Godunov update."""
    errors = []
    residual = 0.0
    widths = [0.05, 0.025, 0.0125]
    boundary_flux = float(greenshields_flux(left, 1.0, 1.0))
    out_flux = float(greenshields_flux(right, 1.0, 1.0))
    for ds in widths:
        n_cells = round(1.0 / ds)
        rho = _cell_averaged_step(n_cells, ds, left, right, x0)
        dt = ds / 2.0
        for _ in range(round(t_end / dt)):
            stepped = step_single_road(rho, 1.0, 1.0, ds, dt, boundary_flux, out_flux)
            reference = _exact_godunov_step(rho, ds, dt, boundary_flux, out_flux)
            residual = max(residual, float(np.max(np.abs(stepped - reference))))
            rho = stepped
        errors.append(_l1_error(rho, ds, t_end, left, right, x0))
    logs = np.log(errors)
    slope, _ = np.polyfit(np.log(widths), logs, 1)
    return errors, slope, residual


# A monotone scheme is only guaranteed an L1 rate of 1/2 (Kuznetsov, 1976; the
# rate is sharp, Tang & Teng, 1995), and first-order Godunov measures about 0.65
# on a centred rarefaction at these widths.  The shock, held within a cell or
# two, converges at first order.  The identity check pins the scheme itself, so
# a more diffusive flux cannot pass on a fan order it happens to reach.
SHOCK_ORDER_MIN = 0.7
FAN_ORDER_MIN = 0.5
IDENTITY_TOL = 1e-14


def test_criterion_4_godunov_convergence():
    shock_err, shock_order, shock_res = _convergence_order(0.2, 0.8)
    fan_err, fan_order, fan_res = _convergence_order(0.8, 0.2)
    residual = max(shock_res, fan_res)
    shock_falls = all(b < a for a, b in zip(shock_err, shock_err[1:]))
    fan_falls = all(b < a for a, b in zip(fan_err, fan_err[1:]))
    ok = (
        shock_order >= SHOCK_ORDER_MIN
        and fan_order >= FAN_ORDER_MIN
        and shock_falls
        and fan_falls
        and residual <= IDENTITY_TOL
    )

    def errs(values):
        return ", ".join(f"{e:.3e}" for e in values)

    _criterion(
        4,
        ok,
        f"shock errors [{errs(shock_err)}] strictly falling={shock_falls}, "
        f"order {shock_order:.2f} (>={SHOCK_ORDER_MIN}); rarefaction errors "
        f"[{errs(fan_err)}] strictly falling={fan_falls}, order {fan_order:.2f} "
        f"(>={FAN_ORDER_MIN}); max |step_single_road - exact-Riemann Godunov| "
        f"{residual:.1e} (<={IDENTITY_TOL:.0e})",
    )


# ---------------------------------------------------------------------------
# 5. nondominated filter vs brute force


def _brute_force_front(values):
    uniq = np.unique(values, axis=0)
    le = np.all(uniq[None, :, :] <= uniq[:, None, :], axis=2)
    lt = np.any(uniq[None, :, :] < uniq[:, None, :], axis=2)
    dominated = np.any(le & lt, axis=1)
    return {tuple(v) for v in uniq[~dominated]}


def test_criterion_5_filter_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for case in range(100):
        n = int(rng.integers(1, 1001))
        dim = 2 if case % 2 == 0 else 3
        values = rng.random((n, dim))
        if case % 3 == 0:
            values = np.round(values, 1)  # force duplicates and ties
        kept = nondominated_filter(values)
        ours = {tuple(values[i]) for i in kept}
        if ours != _brute_force_front(values):
            mismatches += 1
    _criterion(5, mismatches == 0, f"100 random sets (2D and 3D): {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 6. optimizer sanity


def test_criterion_6_optimizer_sanity():
    def objectives(x):
        return np.array([x[0] ** 2, (x[0] - 1.0) ** 2])

    t0 = time.perf_counter()
    archive, _ = pareto_search(
        objectives, [0.0], [1.0], SearchOptions(max_evaluations=500, seed=FRONT_SEED)
    )
    elapsed = time.perf_counter() - t0
    values = archive.values()
    mutually_nondominated = len(nondominated_filter(values)) == len(values)
    xs = np.sort(archive.policies()[:, 0])
    gap = float(np.max(np.diff(xs)))
    spans = xs[0] <= 0.02 and xs[-1] >= 0.98
    hv = hypervolume_2d(values, (1.1, 1.1))
    dense = np.linspace(0.0, 1.0, 200001)
    hv_true = hypervolume_2d(np.stack([dense**2, (dense - 1) ** 2], axis=1), (1.1, 1.1))
    hv_ok = abs(hv - hv_true) <= 0.02 * hv_true
    ok = mutually_nondominated and spans and gap < 0.1 and hv_ok and elapsed < 1.0
    _criterion(
        6,
        ok,
        f"nondominated={mutually_nondominated}, span [{xs[0]:.3f},{xs[-1]:.3f}], "
        f"max gap {gap:.3f} (<0.1), hypervolume {hv:.5f} vs {hv_true:.5f} "
        f"({abs(hv - hv_true) / hv_true:.2%} <= 2%), runtime {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------------------
# 7 + 8. Pareto-front reproduction and delta-consistency (shared runs)


@pytest.fixture(scope="module")
def front_runs(diamond):
    runs = {}
    for delta in (0.0, 0.5):
        scenario = dataclasses.replace(diamond, delta=delta)
        evaluator = PolicyEvaluator(scenario)
        scorer = BatchScorer(evaluator)
        archive, _ = pareto_search(
            evaluator.vector,
            *scenario.policy_bounds(),
            SearchOptions(max_evaluations=FRONT_BUDGET, seed=FRONT_SEED),
            map_fn=scorer,
        )
        policies = archive.policies()
        parts = [scorer.scored[e.policy] for e in archive.entries]
        runs[delta] = {
            "policies": policies,
            "j_flow": np.array([c.j_flow for c in parts]),
            "j_diff": np.array([c.j_diff for c in parts]),
            "j_queue": np.array([c.j_queue for c in parts]),
            "j_poll": np.array([c.j_poll for c in parts]),
        }
    return runs


def test_criterion_7_front_reproduction(front_runs):
    run0 = front_runs[0.0]
    j_flow, j_poll = run0["j_flow"], run0["j_poll"]
    order = np.argsort(j_flow)
    monotone = bool(np.all(np.diff(j_poll[order]) >= -1e-12))
    flow_spread = 1.0 - j_flow.min() / j_flow.max()
    poll_spread = j_poll.max() / j_poll.min() - 1.0
    v6_share = float(np.mean(run0["policies"][:, 5] >= 2.0 - 1e-6))
    min_v1_zero = float(run0["policies"][:, 0].min())
    min_v1_half = float(front_runs[0.5]["policies"][:, 0].min())
    ok = (
        monotone
        and flow_spread >= 0.10
        and poll_spread >= 0.10
        and v6_share >= 0.95
        and min_v1_half > min_v1_zero
    )
    _criterion(
        7,
        ok,
        f"monotone={monotone}; spreads flow {flow_spread:.0%} / pollution "
        f"{poll_spread:.0%} (>=10%); exit road at upper bound for "
        f"{v6_share:.1%} of members (>=95%); access-road minimum rises "
        f"{min_v1_zero:.2f} -> {min_v1_half:.2f} with idle-engine weight",
    )


def test_criterion_8_delta_consistency(front_runs):
    zero = np.stack([front_runs[0.0]["j_diff"], front_runs[0.0]["j_queue"]], axis=1)
    half = np.stack([front_runs[0.5]["j_diff"], front_runs[0.5]["j_queue"]], axis=1)
    staircase = zero[nondominated_filter(zero)]
    all_pts = np.vstack([zero, half])
    tol = 0.02 * (all_pts.max(axis=0) - all_pts.min(axis=0))
    below = 0
    for p in half:
        if bool(np.any(np.all(p < staircase - tol, axis=1))):
            below += 1
    _criterion(
        8,
        below == 0,
        f"{below} of {len(half)} idle-weighted members fall below the "
        f"delta=0 front in both (J_diff, J_queue) coordinates (tolerance 2% of range)",
    )


# ---------------------------------------------------------------------------
# 9. determinism of the CLI optimizer


def test_criterion_9_cli_determinism(diamond_path, tmp_path):
    fronts = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli_main(
            [
                "optimize",
                "--scenario", str(diamond_path),
                "--out", str(out),
                "--budget", "150",
                "--seed", "42",
            ]
        )
        assert code == 0
        fronts.append((out / "front.csv").read_bytes())
    _criterion(
        9,
        fronts[0] == fronts[1],
        f"two seeded runs wrote byte-identical front.csv ({len(fronts[0])} bytes)",
    )
