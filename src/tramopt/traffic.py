"""Macroscopic traffic dynamics on the network.

Cell-averaged densities evolve by a Godunov finite-volume scheme with a
concave Greenshields flux; junctions couple roads through closed-form
demand/supply solutions, access roads buffer prescribed inflow in point
queues, and exit roads discharge at free flow.

One kernel steps a batch of policies together as (batch, roads, cells)
arrays, coupling all junctions of a kind at once; ``simulate_traffic`` runs
it for one policy and keeps the history, ``simulate_batch`` runs many and
hands each output step to a callback instead.  A march allocates its
arrays once, in a ``_Workspace``, and every substep writes into them: the
densities are updated in place, and the per-road parameters are stored at
full (batch, roads, cells) shape so that no operation broadcasts a
per-road column.  A substep first couples the roads, giving each one the
fluxes through its two ends, then updates them all in ``_update_roads``:
the interface fluxes in one pass over the batch's cells laid end to end,
the boundary fluxes put in, the conservative add and the clip.
``step_single_road`` is that same update on one road with prescribed end
fluxes.
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


def _flux(rho, v_max, rho_max, out, scratch):
    """Q(rho) = v_max * rho * (1 - rho / rho_max) into ``out``, using ``scratch``."""
    np.multiply(v_max, rho, out=out)
    np.divide(rho, rho_max, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    return np.multiply(out, scratch, out=out)


def _buffers(n, *operands):
    """``n`` empty float arrays of the operands' broadcast shape."""
    shape = np.broadcast_shapes(*map(np.shape, operands))
    return [np.empty(shape) for _ in range(n)]


def greenshields_flux(rho, v_max, rho_max):
    """Concave flux v*rho*(1 - rho/rho_max); peaks at rho_max/2 with value v*rho_max/4."""
    _check_density(rho, rho_max)
    return _flux(rho, v_max, rho_max, *_buffers(2, rho, v_max, rho_max))[()]


def flux_capacity(v_max, rho_max):
    return v_max * rho_max / 4.0


def _envelopes(rho, flow, cap, critical, dem, sup, below):
    """Demand and supply of densities rho into ``dem`` and ``sup``.

    ``flow`` is Q(rho), ``cap`` the capacity and ``critical`` the critical
    density; ``below`` receives the mask rho <= critical.  Demand is Q up to
    the critical density and the capacity above it, supply the reverse.
    """
    np.less_equal(rho, critical, out=below)
    np.copyto(dem, cap)
    np.copyto(dem, flow, where=below)
    np.copyto(sup, flow)
    np.copyto(sup, cap, where=below)


# ---------------------------------------------------------------------------
# junction coupling (closed forms for the three basis junctions)
#
# Each rule is written once, on arrays; the stepping kernel applies it to all
# junctions of a kind at once, and the tests call the same rule.  A 1to1
# junction passes min{demand, supply}, which the kernel takes inline.


def _diverge(d, s2, s3, alpha2, alpha3):
    """1to2: the demand split by the distribution rates, each share capped by its supply."""
    q2 = np.minimum(alpha2 * d, s2)
    q3 = np.minimum(alpha3 * d, s3)
    return q2 + q3, q2, q3


def _merge(d1, d2, s, beta1, beta2):
    """2to1: priority shares of the supply, the slack one road leaves given to the other."""
    q1 = np.minimum(d1, np.maximum(beta1 * s, s - d2))
    q2 = np.minimum(d2, np.maximum(beta2 * s, s - d1))
    return q1, q2, q1 + q2


def _discharge(ell, q_in, road_supply, dt):
    """Point queue: discharge min{q_in + ell/dt, supply}; returns (next length, outflow)."""
    q_out = np.minimum(q_in + ell / dt, road_supply)
    return np.maximum(ell + dt * (q_in - q_out), 0.0), q_out


def max_stable_dt(v_maxes, ds: float) -> float:
    """Largest stable time step: ds over the speed-limit bound on |Q'|."""
    v = np.asarray(v_maxes, dtype=float)
    if v.size == 0:
        raise TrafficError("empty network")
    return ds / float(np.max(v))


# ---------------------------------------------------------------------------
# stepping


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


class _Workspace:
    """The arrays a march of B policies steps in, allocated once.

    ``flow``, ``dem``, ``sup``, ``diff`` and ``below`` are (B, roads,
    cells) buffers every substep overwrites; ``v``, ``cap``, ``rho_max``
    and ``critical`` hold the per-road parameters at that same shape, since
    a (B, roads, 1) operand makes numpy loop over one road's cells at a
    time.  ``faces`` holds the B * roads * cells + 1 interfaces of the
    cells laid end to end; ``left`` and ``right`` view it as every cell's
    left and right interface, (B, roads, cells).  ``inflow`` and
    ``outflow`` are the fluxes through each road's two ends, (B, roads),
    views of ``ends`` (B, roads, 2); an end no coupling writes keeps flux 0.
    ``rho_max`` is given per road, (roads, 1), or as one number.
    """

    def __init__(self, rho_max, v: np.ndarray, rho: np.ndarray):
        shape = rho.shape
        v = v[:, :, None]
        self.v, self.cap, self.rho_max, self.critical = (
            np.broadcast_to(a, shape).copy()
            for a in (v, flux_capacity(v, rho_max), rho_max, rho_max / 2.0)
        )
        self.flow, self.dem, self.sup, self.diff = (np.empty(shape) for _ in range(4))
        self.below = np.empty(shape, dtype=bool)
        self.faces = np.empty(rho.size + 1)
        self.left, self.right = self.faces[:-1].reshape(shape), self.faces[1:].reshape(shape)
        self.ends = np.zeros(shape[:2] + (2,))
        self.inflow, self.outflow = self.ends[..., 0], self.ends[..., 1]
        _flux(rho, self.v, self.rho_max, self.flow, self.diff)


def _update_roads(ws: _Workspace, rho, lam) -> None:
    """The Godunov update of every road, given its two boundary fluxes.

    ``ws.dem`` and ``ws.sup`` must hold the envelopes of ``rho`` and
    ``ws.inflow``/``ws.outflow`` the fluxes through each road's ends; ``lam``
    is dt / ds.  ``rho`` is updated in place, clipped to [0, rho_max], and
    ``ws.flow`` receives Q of the new densities.

    The interior interface fluxes min{D(left), S(right)} come from one pass
    over the cells laid end to end, which also pairs each road's last cell
    with the next road's first.  Those faces are never used as they are:
    the differences of each road's first and last cell are taken again
    with the boundary fluxes, and on one-cell roads, where the first cell
    is the last, from the boundary fluxes alone.
    """
    diff = ws.diff
    if rho.shape[2] == 1:
        np.subtract(ws.inflow, ws.outflow, out=diff[..., 0])
    else:
        np.minimum(ws.dem.reshape(-1)[:-1], ws.sup.reshape(-1)[1:], out=ws.faces[1:-1])
        np.subtract(ws.left, ws.right, out=diff)
        np.subtract(ws.inflow, ws.right[..., 0], out=diff[..., 0])
        np.subtract(ws.left[..., -1], ws.outflow, out=diff[..., -1])
    np.multiply(diff, lam, out=diff)
    np.add(rho, diff, out=rho)
    np.maximum(rho, 0.0, out=rho)
    np.minimum(rho, ws.rho_max, out=rho)
    _flux(rho, ws.v, ws.rho_max, ws.flow, diff)


def _godunov_step(net: _Network, ws: _Workspace, rho, queues, q_in, dt, lam):
    """One step of size dt of a batch of densities ``rho`` (B, roads, cells).

    The couplings give every road's boundary fluxes from the envelopes at
    its ends, then ``_update_roads`` steps the roads.  ``rho`` is updated in
    place and ``ws.flow``, which must hold Q(rho) on entry, holds Q of the
    new densities on return; ``lam`` is dt / ds.  Returns the new queue
    lengths.
    """
    dem, sup = ws.dem, ws.sup
    _envelopes(rho, ws.flow, ws.cap, ws.critical, dem, sup, ws.below)
    d = dem[:, net.heads, -1]
    s = sup[:, net.tails, 0]
    d_11, d_12, d_21a, d_21b, d_exit = (d[:, g] for g in net.head_groups)
    s_11, s_12a, s_12b, s_21, s_access = (s[:, g] for g in net.tail_groups)
    q_11 = np.minimum(d_11, s_11)
    q_12, q_12a, q_12b = _diverge(d_12, s_12a, s_12b, *net.alpha)
    q_21a, q_21b, q_21 = _merge(d_21a, d_21b, s_21, *net.beta)
    queues, q_access = _discharge(queues, q_in, s_access, dt)
    ws.outflow[:, net.heads] = np.concatenate((q_11, q_12, q_21a, q_21b, d_exit), axis=1)
    ws.inflow[:, net.tails] = np.concatenate((q_11, q_12a, q_12b, q_21, q_access), axis=1)
    _update_roads(ws, rho, lam)
    return queues


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
    _check_density(rho, rho_max)
    ws = _Workspace(rho_max, np.array([[v_max]], dtype=float), rho)
    _envelopes(rho, ws.flow, ws.cap, ws.critical, ws.dem, ws.sup, ws.below)
    ws.inflow[:], ws.outflow[:] = flux_in, flux_out
    _update_roads(ws, rho, dt / ds)
    return rho[0, 0]


def _march(net: _Network, scenario: Scenario, v: np.ndarray, n_sub: int, ends: bool = False):
    """Advance a batch of policies sharing a substep count over the horizon.

    After each output step k = 1..n_time, yields the batch's densities and
    their flux Q, both (B, roads, cells), its queue lengths (B, n_access),
    and, if ``ends``, its mean (inflow, outflow) per road over the step's
    substeps, (B, roads, 2), else None.  The densities and Q are workspace
    arrays the next step overwrites.  Q is computed once per substep: it
    gives the next substep's demand and supply and is the flow the
    objectives sum.
    """
    dt = scenario.dt / n_sub
    lam = dt / scenario.ds
    rho = np.repeat(net.rho0[None], len(v), axis=0)
    queues = np.repeat(net.queue0[None], len(v), axis=0)
    ws = _Workspace(net.rho_max, v, rho)
    mean_ends = np.zeros_like(ws.ends) if ends else None
    for k in range(scenario.n_time):
        if ends:
            mean_ends.fill(0.0)
        for _ in range(n_sub):
            queues = _godunov_step(net, ws, rho, queues, net.inflow[:, k], dt, lam)
            if ends:
                np.add(mean_ends, ws.ends, out=mean_ends)
        yield rho, ws.flow, queues, (mean_ends / n_sub if ends else None)


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
    steps = _march(net, scenario, v, _substeps(v[0], scenario), ends=True)
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
    roads, cells), and their queue lengths (len(rows), n_access).  The
    densities and Q are the march's workspace, valid until ``observe``
    returns.
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
