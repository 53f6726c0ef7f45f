"""Macroscopic traffic dynamics on the network.

Cell-averaged densities evolve by a Godunov finite-volume scheme with a
concave Greenshields flux; junctions couple roads through closed-form
demand/supply solutions, access roads buffer prescribed inflow in point
queues, and exit roads discharge at free flow.

One kernel steps a batch of policies together as (batch, roads, cells)
arrays; ``simulate_traffic`` runs it for one policy and keeps the history,
``simulate_batch`` runs many and hands each output step to a callback
instead.  ``_compile`` turns a scenario's junctions, exits and access queues
into one table of links, each passing min(A, B) of two operands (a 2to1
link takes max(B, C) for B), so a substep couples them all in one pass,
``_couple``, that gathers every operand with one index.  A march allocates
its arrays once, in a ``_Workspace``, and every substep writes into them:
the densities and queues are updated in place, and the per-road parameters
are stored at full (batch, roads, cells) shape so that no operation
broadcasts a per-road column.  A substep first couples the roads, giving
each one the fluxes through its two ends, then updates them all in
``_update_roads``: the interface fluxes in one pass over the batch's cells
laid end to end, the boundary fluxes put in, the conservative add and the
clip.  ``step_single_road`` is that same update on one road with
prescribed end fluxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tramopt.network import Scenario, check_policies

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


def max_stable_dt(v_maxes, ds: float) -> float:
    """Largest stable time step: ds over the speed-limit bound on |Q'|."""
    v = np.asarray(v_maxes, dtype=float)
    if v.size == 0:
        raise TrafficError("empty network")
    return ds / float(np.max(v))


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


# ---------------------------------------------------------------------------
# junction coupling: one table of links
#
# Every flux a substep couples, through a junction, out of an exit or out of
# an access queue, is one link, and every link passes min(A, B) of two
# operands (Garavello & Piccoli, Traffic Flow on Networks, 2006):
#
#   1to1          min(d, s)
#   1to2 branch   min(alpha_b d, s_b)
#   2to1 branch   min(d_a, max(beta_a s, s - d_b))
#   exit          min(d, d) = d
#   access queue  min(q_in + ell/dt, s),  then ell <- max(ell + dt (q_in - q), 0)
#
# with d the demand at an incoming road's head and s the supply at an
# outgoing road's tail.  Only the 2to1 links take the max: on a -0.0 operand
# numpy's vectorised max returns its second operand and its scalar loop its
# first, so a max on the other links would make their bits depend on the
# loop.  A road end receives its link's flow plus a second link's flow (the
# 1to2 head and the 2to1 tail) or plus -0.0, which, unlike +0.0, adds
# nothing to any number.


@dataclass(frozen=True)
class _Network:
    """A scenario's couplings as one table of n links, compiled once per scenario.

    An operand is the demand at a road's last cell or the supply at its
    first: ``side`` (0 demand, 1 supply) and ``slot`` (road * cells + cell)
    list operand A of every link, then operand B of every link, then
    operand C of the 2to1 links, rows ``merge``.  ``coef`` (2, n, 1) scales
    A and B: a 1to2 link's A by its distribution rate, a 2to1 link's B by
    its priority rate, the rest by 1.  The access links, rows ``access``,
    take q_in + ell/dt for A.  ``end_links`` (2, 2 * roads) names the two
    flow rows each road end adds, its tail at 2 * road and its head at
    2 * road + 1: row n is -0.0 and row n + 1 is +0.0, the flux of an end
    no link writes.  Where two links write one end, the later of the heads
    (1to1, 1to2, first and second 2to1 incoming, exits) or of the tails
    (1to1, first and second 1to2 outgoing, 2to1, access) wins.
    """

    rho_max: np.ndarray  # (n_roads, 1)
    rho0: np.ndarray  # (n_roads, n_cells)
    queue0: np.ndarray  # (n_access,)
    side: np.ndarray  # (2 n + 2to1 links,)
    slot: np.ndarray  # (2 n + 2to1 links,)
    coef: np.ndarray  # (2, n, 1)
    merge: slice
    access: slice
    end_links: np.ndarray  # (2, 2 n_roads)
    inflow: np.ndarray  # (n_access, n_time) prescribed access rates


def _compile(scenario: Scenario) -> _Network:
    idx, cells = scenario.road_index, scenario.n_cells
    kind = {k: [j for j in scenario.junctions if j.kind == k] for k in ("1to1", "1to2", "2to1")}
    links = []  # per link: operand A, operand B, operand C or None, coefficients of A and B
    heads, tails = [[] for _ in range(5)], [[] for _ in range(5)]  # per group: (road, links)

    def dem(road):
        return 0, idx(road) * cells + cells - 1

    def sup(road):
        return 1, idx(road) * cells

    def link(a, b, c=None, coef=(1.0, 1.0)):
        links.append((a, b, c, coef))
        return len(links) - 1

    for j in kind["1to1"]:
        (i,), (o,) = j.incoming, j.outgoing
        q = link(dem(i), sup(o))
        heads[0].append((i, q))
        tails[0].append((o, q))
    for j in kind["1to2"]:
        (i,), (o1, o2) = j.incoming, j.outgoing
        q1, q2 = (link(dem(i), sup(o), coef=(a, 1.0)) for o, a in zip((o1, o2), j.alpha))
        heads[1].append((i, q1, q2))
        tails[1].append((o1, q1))
        tails[2].append((o2, q2))
    for r in scenario.exits:
        heads[4].append((r, link(dem(r), dem(r))))
    first_merge = len(links)
    for j in kind["2to1"]:
        (i1, i2), (o,) = j.incoming, j.outgoing
        q1 = link(dem(i1), sup(o), dem(i2), (1.0, j.beta[0]))
        q2 = link(dem(i2), sup(o), dem(i1), (1.0, j.beta[1]))
        heads[2].append((i1, q1))
        heads[3].append((i2, q2))
        tails[3].append((o, q1, q2))
    first_access = len(links)
    for a in scenario.access:
        tails[4].append((a.road, link(sup(a.road), sup(a.road))))

    n = len(links)
    operands = [l[0] for l in links] + [l[1] for l in links] + [l[2] for l in links[first_merge:first_access]]
    ends = {2 * idx(road) + side: (*q, n)[:2] for side, groups in ((1, heads), (0, tails))
            for group in groups for road, *q in group}
    inflow = np.zeros((len(scenario.access), scenario.n_time))
    for row, a in enumerate(scenario.access):
        inflow[row, :] = a.inflow if isinstance(a.inflow, tuple) else float(a.inflow)
    rho_max = np.array([[r.rho_max] for r in scenario.roads], dtype=float)
    return _Network(
        rho_max=rho_max,
        rho0=np.array([r.rho0 for r in scenario.roads], dtype=float),
        queue0=np.array([a.queue0 for a in scenario.access], dtype=float),
        side=np.array([s for s, _ in operands], dtype=int),
        slot=np.array([x for _, x in operands], dtype=int),
        coef=np.array([l[3] for l in links], dtype=float).reshape(n, 2).T[..., None].copy(),
        merge=slice(first_merge, first_access),
        access=slice(first_access, n),
        end_links=np.array([ends.get(e, (n + 1, n + 1)) for e in range(2 * scenario.n_roads)]).T.copy(),
        inflow=inflow,
    )


# ---------------------------------------------------------------------------
# stepping


class _Workspace:
    """The arrays a march of B policies steps in, allocated once.

    ``flow``, ``diff`` and ``below`` are (B, roads, cells) buffers every
    substep overwrites, and so are ``dem`` and ``sup``, the two halves of
    ``env`` (2, B, roads, cells), so that one index gathers every link
    operand.  ``v``, ``cap``, ``rho_max`` and ``critical`` hold the per-road
    parameters at that same shape, since a (B, roads, 1) operand makes
    numpy loop over one road's cells at a time.  ``faces`` holds the B *
    roads * cells + 1 interfaces of the cells laid end to end; ``left`` and
    ``right`` view it as every cell's left and right interface, (B, roads,
    cells); its two outer entries, which no face writes, stay 0, so that
    the differences taken over them read no stale memory.  ``inflow`` and
    ``outflow`` are the fluxes through each road's two ends, (B, roads),
    views of ``ends`` (roads, 2, B), which the link pass writes whole.
    ``rho_max`` is given per road, (roads, 1), or as one number.

    With a network ``net`` it also holds the link pass's arrays, one column
    per policy, and views of them made once: ``gathered``, every operand,
    from the flat index ``gather_at`` into ``env``, viewed as ``ab`` (2, n,
    B), its rows ``a`` and ``b``, and ``c``, with ``merged`` the 2to1
    links' B and ``released`` the access links' A; ``spare`` for the 2to1
    links' s - d; ``flows``, the links' flows and the -0.0 and +0.0 rows,
    viewed as ``link_flows`` and, (B, n_access), ``discharged``; ``both``,
    the two flows of each end; ``end_rows``, ``ends`` as (2 * roads, B);
    and ``queued`` (B, n_access) for the queue update.
    """

    def __init__(self, rho_max, v: np.ndarray, rho: np.ndarray, net: _Network | None = None):
        shape = rho.shape
        v = v[:, :, None]
        self.v, self.cap, self.rho_max, self.critical = (
            np.broadcast_to(a, shape).copy()
            for a in (v, flux_capacity(v, rho_max), rho_max, rho_max / 2.0)
        )
        self.env = np.empty((2,) + shape)
        self.dem, self.sup = self.env
        self.flow, self.diff = np.empty(shape), np.empty(shape)
        self.below = np.empty(shape, dtype=bool)
        self.faces = np.zeros(rho.size + 1)
        self.left, self.right = self.faces[:-1].reshape(shape), self.faces[1:].reshape(shape)
        self.ends = np.zeros((shape[1], 2, shape[0]))
        self.inflow, self.outflow = self.ends[:, 0].T, self.ends[:, 1].T
        if net is not None:
            b, n, size = shape[0], net.coef.shape[1], rho[0].size
            self.gather_at = (net.side * rho.size + net.slot)[:, None] + size * np.arange(b)
            self.gathered = np.empty(self.gather_at.shape)
            self.ab = self.gathered[:2 * n].reshape(2, n, b)
            self.a, self.b = self.ab
            self.c = self.gathered[2 * n:]
            self.merged, self.released = self.b[net.merge], self.a[net.access]
            self.spare = np.empty(self.c.shape)
            self.flows = np.full((n + 2, b), -0.0)
            self.flows[n + 1] = 0.0
            self.link_flows, self.discharged = self.flows[:n], self.flows[net.access].T
            self.both = np.empty(net.end_links.shape + (b,))
            self.end_rows = self.ends.reshape(-1, b)
            self.queued = np.empty((b, len(net.queue0)))
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


def _couple(net: _Network, ws: _Workspace, queues, q_in, dt):
    """Every link's flow from the envelopes in ``ws.env``, in one pass.

    Writes each coupled road end's flux into ``ws.ends`` and the new queue
    lengths into ``queues`` (B, n_access), which it returns; ``q_in`` holds
    the access rates of this step, (n_access,).  ``ws`` must have been made
    with ``net``.
    """
    ws.env.reshape(-1).take(ws.gather_at, out=ws.gathered, mode="clip")
    np.subtract(ws.merged, ws.c, out=ws.spare)  # s - d_b, before s is scaled
    np.multiply(net.coef, ws.ab, out=ws.ab)
    np.maximum(ws.merged, ws.spare, out=ws.merged)
    np.add(q_in[:, None], np.divide(queues.T, dt, out=ws.released), out=ws.released)
    np.minimum(ws.a, ws.b, out=ws.link_flows)
    queued = np.subtract(q_in, ws.discharged, out=ws.queued)
    np.add(queues, np.multiply(dt, queued, out=queued), out=queued)
    np.maximum(queued, 0.0, out=queues)
    both = ws.flows.take(net.end_links, axis=0, out=ws.both, mode="clip")
    np.add(both[0], both[1], out=ws.end_rows)
    return queues


def _godunov_step(net: _Network, ws: _Workspace, rho, queues, q_in, dt, lam):
    """One step of size dt of a batch of densities ``rho`` (B, roads, cells).

    The links give every road's boundary fluxes from the envelopes at its
    ends, then ``_update_roads`` steps the roads.  ``rho`` and ``queues``
    are updated in place, and ``ws.flow``, which must hold Q(rho) on entry,
    holds Q of the new densities on return; ``lam`` is dt / ds.  Returns
    the new queue lengths.
    """
    _envelopes(rho, ws.flow, ws.cap, ws.critical, ws.dem, ws.sup, ws.below)
    queues = _couple(net, ws, queues, q_in, dt)
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
    substeps, (B, roads, 2), else None.  The densities, Q and the queue
    lengths are workspace arrays the next step overwrites.  Q is computed
    once per substep: it gives the next substep's demand and supply and is
    the flow the objectives sum.
    """
    dt = scenario.dt / n_sub
    lam = dt / scenario.ds
    rho = np.repeat(net.rho0[None], len(v), axis=0)
    queues = np.repeat(net.queue0[None], len(v), axis=0)
    ws = _Workspace(net.rho_max, v, rho, net)
    mean_ends = np.zeros_like(ws.ends) if ends else None
    for k in range(scenario.n_time):
        if ends:
            mean_ends.fill(0.0)
        for _ in range(n_sub):
            queues = _godunov_step(net, ws, rho, queues, net.inflow[:, k], dt, lam)
            if ends:
                np.add(mean_ends, ws.ends, out=mean_ends)
        yield rho, ws.flow, queues, ((mean_ends / n_sub).transpose(2, 0, 1) if ends else None)


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
    ``policy`` is one speed limit per road; ``check_policies`` raises
    ``PolicyError`` for one outside the box.
    """
    v = check_policies([policy], scenario)
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
    returns.  ``policies`` holds one row of speed limits per policy, one per
    road; ``check_policies`` raises ``PolicyError`` for the first row outside
    the box.  An empty batch never calls ``observe``.
    """
    net = _compile(scenario)
    v = check_policies(policies, scenario)
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
