"""Macroscopic traffic dynamics on the network.

Cell-averaged densities evolve by a Godunov finite-volume scheme with a
concave Greenshields flux; junctions couple roads through closed-form
demand/supply solutions, access roads buffer prescribed inflow in point
queues, and exit roads discharge at free flow.

One kernel steps a batch of policies together as (batch, roads, cells)
arrays, coupling all junctions of a kind at once; ``simulate_traffic`` runs
it for one policy and keeps the history, ``simulate_batch`` runs many and
hands each output step to a callback instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tramopt.network import Scenario, SpeedLimitPolicy

_DENSITY_SLACK = 1e-12


class TrafficError(ValueError):
    """Raised on infeasible inputs to the traffic model."""


def _check_density(rho, rho_max) -> None:
    rho = np.asarray(rho)
    if np.any(rho < -_DENSITY_SLACK) or np.any(rho > np.asarray(rho_max) + _DENSITY_SLACK):
        raise TrafficError(f"density outside [0, rho_max]: {rho!r}")


def _flux(rho, v_max, rho_max):
    return v_max * rho * (1.0 - rho / rho_max)


def greenshields_flux(rho, v_max, rho_max):
    """Concave flux v*rho*(1 - rho/rho_max); peaks at rho_max/2 with value v*rho_max/4."""
    _check_density(rho, rho_max)
    return _flux(rho, v_max, rho_max)


def flux_capacity(v_max, rho_max):
    return v_max * rho_max / 4.0


def _envelopes(rho, flow, cap, critical):
    """(demand, supply) of densities rho with flux Q(rho) = ``flow``, capacity
    ``cap`` and critical density ``critical``."""
    below = rho <= critical
    return np.where(below, flow, cap), np.where(below, cap, flow)


def demand(rho, v_max, rho_max):
    """Increasing envelope of the flux: Q(rho) below critical density, capacity above."""
    flow = greenshields_flux(rho, v_max, rho_max)
    return _envelopes(rho, flow, flux_capacity(v_max, rho_max), rho_max / 2.0)[0]


def supply(rho, v_max, rho_max):
    """Decreasing envelope of the flux: capacity below critical density, Q(rho) above."""
    flow = greenshields_flux(rho, v_max, rho_max)
    return _envelopes(rho, flow, flux_capacity(v_max, rho_max), rho_max / 2.0)[1]


def godunov_flux(u, v, v_max, rho_max):
    """Interface flux min{demand(left), supply(right)}."""
    return np.minimum(demand(u, v_max, rho_max), supply(v, v_max, rho_max))


# ---------------------------------------------------------------------------
# junction coupling (closed forms for the three basis junctions)
#
# Each rule is written once, on arrays; the stepping kernel applies it to all
# junctions of a kind at once, and the public functions check their inputs
# and call the same rule.


def _diverge(d, s2, s3, alpha2, alpha3):
    q2 = np.minimum(alpha2 * d, s2)
    q3 = np.minimum(alpha3 * d, s3)
    return q2 + q3, q2, q3


def _merge(d1, d2, s, beta1, beta2):
    q1 = np.minimum(d1, np.maximum(beta1 * s, s - d2))
    q2 = np.minimum(d2, np.maximum(beta2 * s, s - d1))
    return q1, q2, q1 + q2


def _discharge(ell, q_in, road_supply, dt):
    q_out = np.minimum(q_in + ell / dt, road_supply)
    return np.maximum(ell + dt * (q_in - q_out), 0.0), q_out


def junction_one_to_one(d_in: float, s_out: float) -> tuple[float, float]:
    if d_in < 0.0 or s_out < 0.0:
        raise TrafficError("negative demand or supply at junction")
    q = min(d_in, s_out)
    return q, q


def junction_one_to_two(
    d1: float, s2: float, s3: float, alpha: tuple[float, float]
) -> tuple[float, float, float]:
    """Diverging junction: split demand by the distribution rates, cap by supplies."""
    if abs(alpha[0] + alpha[1] - 1.0) > 1e-12:
        raise TrafficError("distribution rates must sum to 1")
    if min(d1, s2, s3) < 0.0:
        raise TrafficError("negative demand or supply at junction")
    return _diverge(d1, s2, s3, *alpha)


def junction_two_to_one(
    d1: float, d2: float, s_out: float, beta: tuple[float, float]
) -> tuple[float, float, float]:
    """Merging junction: priority shares of the outgoing supply, slack reallocated."""
    if abs(beta[0] + beta[1] - 1.0) > 1e-12:
        raise TrafficError("priority rates must sum to 1")
    if min(d1, d2, s_out) < 0.0:
        raise TrafficError("negative demand or supply at junction")
    return _merge(d1, d2, s_out, *beta)


def queue_step(
    ell: float, q_in: float, road_supply: float, dt: float
) -> tuple[float, float]:
    """Explicit Euler update of a point queue feeding a road.

    The queue discharges at min(prescribed inflow + rate needed to clear the
    queue within dt, road supply).  Returns (next queue length, outflow rate).
    """
    if ell < 0.0 or q_in < 0.0 or road_supply < 0.0:
        raise TrafficError("queue state and rates must be nonnegative")
    if dt <= 0.0:
        raise TrafficError("dt must be positive")
    return _discharge(ell, q_in, road_supply, dt)


def max_stable_dt(v_maxes, ds: float) -> float:
    """Largest stable time step: ds over the speed-limit bound on |Q'|."""
    v = np.asarray(v_maxes, dtype=float)
    if v.size == 0:
        raise TrafficError("empty network")
    return ds / float(np.max(v))


# ---------------------------------------------------------------------------
# stepping


def step_single_road(rho, v_max, rho_max, ds, dt, flux_in, flux_out):
    """One Godunov step of an isolated road with prescribed boundary fluxes.

    Each interior interface carries min{D(u), S(v)} of its left and right
    cell averages, which equals Q at the exact entropy solution of the
    (u, v) Riemann problem at x/t = 0: Q(u) or Q(v) for a shock or a
    one-sided fan, Q(rho_max/2) for a transonic fan.  The conservative
    update is clipped to [0, rho_max].
    """
    rho = np.asarray(rho, dtype=float)
    interior = godunov_flux(rho[:-1], rho[1:], v_max, rho_max)
    flux = np.concatenate(([flux_in], interior, [flux_out]))
    out = rho + dt / ds * (flux[:-1] - flux[1:])
    return np.clip(out, 0.0, rho_max)


@dataclass
class TrafficState:
    """Instantaneous network state: per-road cell averages and queue lengths."""

    densities: np.ndarray  # (n_roads, n_cells)
    queues: np.ndarray  # (n_access,)
    time: float


@dataclass
class TrafficTrajectory:
    """Snapshots over the time grid plus recorded boundary flows.

    ``inflow``/``outflow`` hold per grid interval the mean flux entering a
    road at its tail and leaving at its head; ``external_inflow`` holds the
    prescribed access rates actually applied on each interval.
    """

    times: np.ndarray  # (n_time + 1,)
    densities: np.ndarray  # (n_time + 1, n_roads, n_cells)
    queues: np.ndarray  # (n_time + 1, n_access)
    access_roads: tuple[int, ...]  # road ids owning the queue columns
    inflow: np.ndarray  # (n_time, n_roads)
    outflow: np.ndarray  # (n_time, n_roads)
    external_inflow: np.ndarray  # (n_time, n_access)

    @property
    def n_time(self) -> int:
        return len(self.times) - 1


@dataclass(frozen=True)
class _Network:
    """A scenario's couplings as index arrays, compiled once per scenario.

    ``heads`` lists the roads whose head demand a step needs, in groups:
    1to1 incoming, 1to2 incoming, 2to1 first and second incoming, exits.
    ``tails`` lists the roads whose tail supply it needs: 1to1 outgoing,
    1to2 first and second outgoing, 2to1 outgoing, access roads.  A group
    holds one entry per junction, exit or queue, so a step couples all
    junctions of a kind at once.
    """

    rho_max: np.ndarray  # (n_roads, 1)
    critical: np.ndarray  # (n_roads, 1) rho_max / 2
    rho0: np.ndarray  # (n_roads, n_cells)
    queue0: np.ndarray  # (n_access,)
    heads: np.ndarray
    head_groups: tuple[slice, ...]
    tails: np.ndarray
    tail_groups: tuple[slice, ...]
    alpha: np.ndarray  # (2, 1to2 junctions) distribution rates
    beta: np.ndarray  # (2, 2to1 junctions) priority rates
    inflow: np.ndarray  # (n_access, n_time) prescribed access rates


def _compile(scenario: Scenario) -> _Network:
    idx = scenario.road_index
    kind = {k: [j for j in scenario.junctions if j.kind == k] for k in ("1to1", "1to2", "2to1")}

    def ends(k, side, n):
        return [idx(getattr(j, side)[n]) for j in kind[k]]

    def layout(*groups):
        bounds = np.cumsum([0] + [len(g) for g in groups])
        slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        return np.array([r for g in groups for r in g], dtype=int), slices

    heads, head_groups = layout(
        ends("1to1", "incoming", 0), ends("1to2", "incoming", 0),
        ends("2to1", "incoming", 0), ends("2to1", "incoming", 1),
        [idx(r) for r in scenario.exits],
    )
    tails, tail_groups = layout(
        ends("1to1", "outgoing", 0), ends("1to2", "outgoing", 0),
        ends("1to2", "outgoing", 1), ends("2to1", "outgoing", 0),
        [idx(a.road) for a in scenario.access],
    )
    inflow = np.zeros((len(scenario.access), scenario.n_time))
    for slot, a in enumerate(scenario.access):
        inflow[slot, :] = a.inflow if isinstance(a.inflow, tuple) else float(a.inflow)
    rho_max = np.array([[r.rho_max] for r in scenario.roads], dtype=float)
    return _Network(
        rho_max=rho_max,
        critical=rho_max / 2.0,
        rho0=np.array([r.rho0 for r in scenario.roads], dtype=float),
        queue0=np.array([a.queue0 for a in scenario.access], dtype=float),
        heads=heads,
        head_groups=head_groups,
        tails=tails,
        tail_groups=tail_groups,
        alpha=np.array([j.alpha for j in kind["1to2"]], dtype=float).reshape(-1, 2).T,
        beta=np.array([j.beta for j in kind["2to1"]], dtype=float).reshape(-1, 2).T,
        inflow=inflow,
    )


def _godunov_step(net: _Network, cap, rho, flow, queues, q_in, ds, dt, flux):
    """One step of size dt of a batch of densities ``rho`` (B, roads, cells).

    ``flow`` is Q(rho) and ``cap`` the capacity of each policy's roads,
    (B, roads, 1); ``flux`` is a (B, roads, cells + 1) buffer of interface
    fluxes whose end columns are written only where a junction, a queue or
    an exit couples the road.  Returns (densities, queue lengths).
    """
    dem, sup = _envelopes(rho, flow, cap, net.critical)
    np.minimum(dem[..., :-1], sup[..., 1:], out=flux[..., 1:-1])
    d = dem[:, net.heads, -1]
    s = sup[:, net.tails, 0]
    d_11, d_12, d_21a, d_21b, d_exit = (d[:, g] for g in net.head_groups)
    s_11, s_12a, s_12b, s_21, s_access = (s[:, g] for g in net.tail_groups)
    q_11 = np.minimum(d_11, s_11)
    q_12, q_12a, q_12b = _diverge(d_12, s_12a, s_12b, *net.alpha)
    q_21a, q_21b, q_21 = _merge(d_21a, d_21b, s_21, *net.beta)
    queues, q_access = _discharge(queues, q_in, s_access, dt)
    flux[:, net.heads, -1] = np.concatenate((q_11, q_12, q_21a, q_21b, d_exit), axis=1)
    flux[:, net.tails, 0] = np.concatenate((q_11, q_12a, q_12b, q_21, q_access), axis=1)
    rho = rho + dt / ds * (flux[..., :-1] - flux[..., 1:])
    np.maximum(rho, 0.0, out=rho)
    return np.minimum(rho, net.rho_max, out=rho), queues


def _march(net: _Network, scenario: Scenario, v: np.ndarray, n_sub: int):
    """Advance a batch of policies sharing a substep count over the horizon.

    After each output step k = 1..n_time, yields the batch's densities and
    their flux Q, both (B, roads, cells), its queue lengths (B, n_access),
    and its mean (inflow, outflow) per road over the step's substeps,
    (B, roads, 2).  Q is computed once per substep: it gives the next
    substep's demand and supply and is the flow the objectives sum.
    """
    dt = scenario.dt / n_sub
    v = v[:, :, None]
    cap = flux_capacity(v, net.rho_max)
    rho = np.repeat(net.rho0[None], len(v), axis=0)
    queues = np.repeat(net.queue0[None], len(v), axis=0)
    flux = np.zeros(rho.shape[:2] + (rho.shape[2] + 1,))
    road_ends = flux[..., :: rho.shape[2]]  # view of the (inflow, outflow) columns
    flow = _flux(rho, v, net.rho_max)
    for k in range(scenario.n_time):
        ends = 0.0
        for _ in range(n_sub):
            rho, queues = _godunov_step(
                net, cap, rho, flow, queues, net.inflow[:, k], scenario.ds, dt, flux
            )
            flow = _flux(rho, v, net.rho_max)
            ends = ends + road_ends
        yield rho, flow, queues, ends / n_sub


def lwr_step(
    state: TrafficState, policy, scenario: Scenario, dt: float
) -> TrafficState:
    """Advance the whole network by one step of size dt (must satisfy CFL)."""
    v = _policy_array(policy, scenario)
    if dt > max_stable_dt(v, scenario.ds) * (1.0 + 1e-12):
        raise TrafficError(f"dt={dt} violates the traffic CFL bound")
    net = _compile(scenario)
    k = min(int(state.time / scenario.dt), scenario.n_time - 1)
    rho, v = state.densities[None], v[None, :, None]
    flux = np.zeros(rho.shape[:2] + (rho.shape[2] + 1,))
    rho, queues = _godunov_step(
        net, flux_capacity(v, net.rho_max), rho, _flux(rho, v, net.rho_max),
        state.queues[None], net.inflow[:, k], scenario.ds, dt, flux,
    )
    return TrafficState(densities=rho[0], queues=queues[0], time=state.time + dt)


def _policy_array(policy, scenario: Scenario) -> np.ndarray:
    values = policy.values if isinstance(policy, SpeedLimitPolicy) else policy
    v = np.asarray(values, dtype=float)
    if v.shape != (scenario.n_roads,):
        raise TrafficError(
            f"policy must have one speed limit per road ({scenario.n_roads})"
        )
    lower, upper = scenario.policy_bounds()
    if not np.all((v >= np.asarray(lower)) & (v <= np.asarray(upper))):
        raise TrafficError("policy violates the speed-limit box constraints")
    return v


def _substeps(v: np.ndarray, scenario: Scenario) -> int:
    """Equal substeps per output step that the CFL bound requires at limits v."""
    return max(1, math.ceil(scenario.dt / max_stable_dt(v, scenario.ds) - 1e-12))


def simulate_traffic(scenario: Scenario, policy, observe=None) -> TrafficTrajectory:
    """Run the traffic model over the whole horizon for a fixed policy.

    This is the batch kernel at batch size one, keeping the history.  The
    grid step is split into however many equal substeps the CFL bound
    requires; snapshots land exactly on the output time grid and boundary
    fluxes are recorded as per-interval means, so discrete mass balance holds
    to rounding.  ``observe`` sees every output step as in ``simulate_batch``.
    """
    v = _policy_array(policy, scenario)[None]
    net = _compile(scenario)
    n_time, n_roads = scenario.n_time, scenario.n_roads
    densities = np.empty((n_time + 1,) + net.rho0.shape)
    queues = np.empty((n_time + 1, len(net.queue0)))
    inflow = np.empty((n_time, n_roads))
    outflow = np.empty((n_time, n_roads))
    densities[0], queues[0] = net.rho0, net.queue0
    rows = np.arange(1)
    steps = _march(net, scenario, v, _substeps(v[0], scenario))
    for k, (rho, flow, ell, ends) in enumerate(steps, 1):
        densities[k], queues[k] = rho[0], ell[0]
        inflow[k - 1], outflow[k - 1] = ends[0].T
        if observe is not None:
            observe(rows, k, rho, flow, ell)

    return TrafficTrajectory(
        times=np.arange(n_time + 1) * scenario.dt,
        densities=densities,
        queues=queues,
        access_roads=tuple(a.road for a in scenario.access),
        inflow=inflow,
        outflow=outflow,
        external_inflow=net.inflow.T.copy(),
    )


def simulate_batch(scenario: Scenario, policies, observe) -> None:
    """Run a batch of policies over the horizon together, keeping no history.

    The batch is grouped by substep count, so every policy steps with exactly
    the dt it would get alone.  After each output step k = 1..n_time,
    ``observe(rows, k, rho, flow, queues)`` receives the batch positions
    ``rows`` of one group with their densities and flux Q, both (len(rows),
    roads, cells), and their queue lengths (len(rows), n_access).
    """
    net = _compile(scenario)
    v = np.array([_policy_array(p, scenario) for p in policies]).reshape(-1, scenario.n_roads)
    n_sub = np.array([_substeps(row, scenario) for row in v], dtype=int)
    for n in np.unique(n_sub):
        rows = np.flatnonzero(n_sub == n)
        for k, (rho, flow, queues, _) in enumerate(_march(net, scenario, v[rows], int(n)), 1):
            observe(rows, k, rho, flow, queues)


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
