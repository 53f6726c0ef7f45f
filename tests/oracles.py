"""References the tests compare production against; no command runs them.

Each oracle calls the production code it checks rather than re-implementing
it: the forward dispersion solve marches ``dispersion._march`` with its own
source term and visit, and the road step runs the traffic kernel's
``_Workspace``, ``_envelopes`` and ``_update_roads`` on a roads-only network
that ``load_scenario`` and ``_compile`` build.
"""

from __future__ import annotations

import json

import numpy as np
from scenarios import road, scenario_doc

from tramopt.dispersion import _march, solve_adjoint
from tramopt.network import Scenario, load_scenario
from tramopt.traffic import TrafficTrajectory, _compile, _envelopes, _Network, _update_roads, _Workspace

_DENSITY_SLACK = 1e-12


def closed_form_flux(rho, v_max, rho_max):
    """Q's closed form, in the operation order of the kernel's ``_flux``."""
    return v_max * rho * (1 - rho / rho_max)


def brute_force_front(values) -> set[tuple[float, ...]]:
    """All-pairs oracle of the nondominated filter: the distinct rows of
    ``values`` that no other row weakly improves on in every objective."""
    uniq = np.unique(values, axis=0)
    le = np.all(uniq[None, :, :] <= uniq[:, None, :], axis=2)
    lt = np.any(uniq[None, :, :] < uniq[:, None, :], axis=2)
    dominated = np.any(le & lt, axis=1)
    return {tuple(v) for v in uniq[~dominated]}


def j_diff_adjoint(
    emission: np.ndarray, adjoint: np.ndarray, phi0, scenario: Scenario
) -> float:
    """Average pollutant mass via the adjoint pairing with the emission field.

    ``phi0`` is the constant initial concentration; its term is
    policy-independent.
    """
    n1 = scenario.n_grid + 1
    if emission.shape != (scenario.n_time + 1, n1, n1) or adjoint.shape != emission.shape:
        raise ValueError("emission/adjoint fields do not match the scenario grids")
    h2 = scenario.h**2
    source_term = scenario.dt * h2 * float(
        np.sum(emission[1:, 1:, 1:] * adjoint[1:, 1:, 1:])
    )
    initial_term = h2 * float(phi0) * float(np.sum(adjoint[0, 1:, 1:]))
    return source_term + initial_term


def j_diff_forward(concentration: np.ndarray, scenario: Scenario) -> float:
    """Average pollutant mass from a forward concentration history (oracle)."""
    n1 = scenario.n_grid + 1
    if concentration.shape != (scenario.n_time + 1, n1, n1):
        raise ValueError("concentration field does not match the scenario grids")
    weight = scenario.dt * scenario.h**2 / (scenario.horizon * scenario.area)
    return weight * float(np.sum(concentration[1:, 1:, 1:]))


def adjoint_history(scenario: Scenario) -> np.ndarray:
    """The adjoint p, (n_time+1, n_grid+1, n_grid+1) on the original time
    grid (p[n_time] = 0), every level ``solve_adjoint`` visits kept."""
    n1 = scenario.n_grid + 1
    history = np.empty((scenario.n_time + 1, n1, n1))
    solve_adjoint(scenario, history.__setitem__)
    return history


def _field_terms(dt: float, fields: np.ndarray):
    """``term(k)`` for a march whose source of the step from k is the field
    ``fields[k]``, (n1, n1): dt * fields[k] written into the interior
    columns of one buffer of (n1, n1 + 2) padded rows, whose ghost columns
    stay 0.  Each call overwrites the buffer it returns."""
    rows = np.zeros(fields.shape[1:-1] + (fields.shape[-1] + 2,))
    inner, dt = rows[:, 1:-1], np.array(dt)

    def term(k: int) -> np.ndarray:
        np.multiply(dt, fields[k], out=inner)
        return rows

    return term


def solve_dispersion_forward(scenario: Scenario, emission: np.ndarray) -> np.ndarray:
    """Solve the concentration evolution driven by a rasterized emission field.

    Validation oracle for the adjoint route: the same march with the
    physical wind and the emission as source.  Returns phi with shape
    (n_time+1, n_grid+1, n_grid+1).
    """
    params = scenario.dispersion
    n1 = scenario.n_grid + 1
    if emission.shape != (scenario.n_time + 1, n1, n1):
        raise ValueError("emission field does not match the scenario grids")
    history = np.empty(emission.shape)
    _march(scenario, params.phi0, params.wind, _field_terms(scenario.dt, emission), history.__setitem__)
    return history


def mass_balance_residuals(traj: TrafficTrajectory, scenario: Scenario) -> np.ndarray:
    """Per-step defect of global mass balance (roads + queues vs boundary flows)."""
    ds = scenario.ds
    dt = scenario.dt
    road_change = ds * np.sum(traj.densities[1:] - traj.densities[:-1], axis=(1, 2))
    queue_change = np.sum(traj.queues[1:] - traj.queues[:-1], axis=1)
    fed = np.sum(traj.external_inflow, axis=1)
    exit_idx = [scenario.road_index(r) for r in scenario.exits]
    drained = np.sum(traj.outflow[:, exit_idx], axis=1)
    return road_change + queue_change - dt * (fed - drained)


def roads_only_network(rho_max, n_cells: int) -> _Network:
    """The compiled network of parallel roads of ``n_cells`` cells, one per
    entry of ``rho_max``, that no junction, exit or access queue couples."""
    roads = [road(i, [0.5, 0.3 * i], [1.5, 0.3 * i], rho0=0.0, rho_max=float(r)) for i, r in enumerate(rho_max, 1)]
    doc = scenario_doc(roads, n_grid=2, n_cells=n_cells, n_time=1)
    return _compile(load_scenario(json.dumps(doc)))


def step_single_road(rho, v_max, rho_max, ds, dt, flux_in, flux_out):
    """One Godunov step of an isolated road with prescribed boundary fluxes.

    This is the kernel's road update on a one-road workspace.  Each interior
    interface carries min{D(u), S(v)} of its left and right cell averages,
    which equals Q at the exact entropy solution of the (u, v) Riemann
    problem at x/t = 0: Q(u) or Q(v) for a shock or a one-sided fan,
    Q(rho_max/2) for a transonic fan.  The conservative update is clipped
    to [0, rho_max].
    """
    rho = np.array(rho, dtype=float).reshape(1, 1, -1)
    if np.any(rho < -_DENSITY_SLACK) or np.any(rho > rho_max + _DENSITY_SLACK):
        raise ValueError(f"density outside [0, rho_max]: {rho!r}")
    net = roads_only_network([rho_max], rho.size)
    ws = _Workspace(net, np.array([[v_max]], dtype=float), rho, dt / ds, np.zeros((1, 0)), dt)
    _envelopes(*ws.envelope)
    ws.inflow[:], ws.outflow[:] = flux_in, flux_out
    _update_roads(*ws.roads)
    return rho[0, 0]
