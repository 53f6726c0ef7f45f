"""Macroscopic traffic dynamics on the network.

Cell-averaged densities evolve by a Godunov finite-volume scheme with a
concave Greenshields flux; junctions couple roads through closed-form
demand/supply solutions, access roads buffer prescribed inflow in point
queues, and exit roads discharge at free flow.

One kernel steps a batch of policies together as (batch, roads, cells)
arrays; ``simulate_traffic`` runs it for one policy and keeps the history,
``simulate_batch`` runs many and hands each output step to an observer
instead, marching a large batch in slices of at most ``SLICE_BYTES`` per
(batch, roads, cells) array, so that a march's arrays stay in cache.
``_compile`` turns a scenario's junctions, exits and access queues into
one table of links, each passing min(A, B) of two operands (a 2to1 link
takes max(B, C) for B), so a substep couples them all in one pass,
``_couple``, that gathers every operand with one index.  A march allocates
its arrays and binds every rule's operands once, in a ``_Workspace``, and
every substep writes into them, so a step makes only its rules' ufunc
calls: the densities and queues are updated in place, and the per-road
parameters are stored at full (batch, roads, cells) shape so that no
operation broadcasts a per-road column.  A substep first couples the roads, giving
each one the fluxes through its two ends, then updates them all in
``_update_roads``: the interface fluxes in one pass over the batch's cells
laid end to end, the boundary fluxes put in, the conservative add and the
clip.  The tests' exact-Riemann road step (``tests/oracles.py``) runs that
same update on one road of a roads-only network, with prescribed end
fluxes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from tramopt.network import Scenario, check_policies

# the constants of the step as 0-d arrays: numpy takes a Python float
# operand through a slower promotion path, and the result is the same
_ZERO, _ONE = np.array(0.0), np.array(1.0)

#: the most bytes of one (B, roads, cells) array of a march in
#: ``simulate_batch``, unless one policy alone takes more: past about this
#: size a march's dozen such arrays leave a 2 MiB L2 cache and every policy
#: costs more.  It keeps the diamond's batches of up to 273 policies whole
#: and marches the chain of 4 diamonds' seed batch of 86 as two slices of 43
SLICE_BYTES = 2**18


def _flux(rho, v_max, rho_max, out, scratch):
    """Q(rho) = v_max * rho * (1 - rho / rho_max) into ``out``, using ``scratch``."""
    np.multiply(v_max, rho, out=out)
    np.divide(rho, rho_max, out=scratch)
    np.subtract(_ONE, scratch, out=scratch)
    return np.multiply(out, scratch, out=out)


def flux_capacity(v_max, rho_max):
    return v_max * rho_max / 4.0


def _envelopes(rho, cap, critical, dem, sup, above):
    """Demand and supply of densities rho into ``dem`` and ``sup``.

    ``dem`` holds Q(rho) on entry, ``cap`` is the capacity and ``critical``
    the critical density; ``above`` receives the mask rho > critical.
    Demand is Q up to the critical density and the capacity above it,
    supply the reverse.  Most cells sit below the critical density, so the
    masked copies patch only the cells above it: supply is filled with the
    capacity and takes Q there, then demand takes the capacity there.
    """
    np.greater(rho, critical, out=above)
    sup[...] = cap
    np.copyto(sup, dem, where=above)
    np.copyto(dem, cap, where=above)


@dataclass
class TrafficTrajectory:
    """Snapshots over the time grid plus recorded boundary flows.

    ``flow`` holds Q of ``densities`` as the kernel computed it.
    ``inflow``/``outflow`` hold per grid interval the mean flux entering a
    road at its tail and leaving at its head; ``external_inflow`` holds the
    prescribed access rates actually applied on each interval.
    """

    times: np.ndarray  # (n_time + 1,)
    densities: np.ndarray  # (n_time + 1, n_roads, n_cells)
    flow: np.ndarray  # (n_time + 1, n_roads, n_cells)
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
    no link writes.  No two links write one end: ``load_scenario`` rejects
    a road end attached twice.
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
    ends = {}  # road end (2 * road + side) -> the links that write it

    def dem(road):
        return 0, idx(road) * cells + cells - 1

    def sup(road):
        return 1, idx(road) * cells

    def link(a, b, c=None, coef=(1.0, 1.0), head=None, tail=None):
        for road, side in ((tail, 0), (head, 1)):
            if road is not None:
                ends.setdefault(2 * idx(road) + side, []).append(len(links))
        links.append((a, b, c, coef))

    for j in kind["1to1"]:
        (i,), (o,) = j.incoming, j.outgoing
        link(dem(i), sup(o), head=i, tail=o)
    for j in kind["1to2"]:
        (i,), (o1, o2) = j.incoming, j.outgoing
        for o, a in zip((o1, o2), j.alpha):
            link(dem(i), sup(o), coef=(a, 1.0), head=i, tail=o)
    for r in scenario.exits:
        link(dem(r), dem(r), head=r)
    first_merge = len(links)
    for j in kind["2to1"]:
        (i1, i2), (o,) = j.incoming, j.outgoing
        link(dem(i1), sup(o), dem(i2), (1.0, j.beta[0]), head=i1, tail=o)
        link(dem(i2), sup(o), dem(i1), (1.0, j.beta[1]), head=i2, tail=o)
    first_access = len(links)
    for a in scenario.access:
        link(sup(a.road), sup(a.road), tail=a.road)

    n = len(links)
    operands = [l[0] for l in links] + [l[1] for l in links] + [l[2] for l in links[first_merge:first_access]]
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
        end_links=np.array([(*ends[e], n)[:2] if e in ends else (n + 1, n + 1)
                            for e in range(2 * scenario.n_roads)]).T.copy(),
        inflow=inflow,
    )


# ---------------------------------------------------------------------------
# stepping


class _Workspace:
    """The arrays a march of B policies steps in, allocated once, and the
    operands of its rules, bound once.

    A rule takes its operands as arguments, and the workspace binds them,
    views included, for the whole march, so that a substep makes only the
    rules' ufunc calls: ``envelope`` is the argument tuple of
    ``_envelopes``, ``roads`` that of ``_update_roads`` and ``links`` that
    of ``_couple`` after its access rates.

    ``dem`` and ``sup`` are (B, roads, cells) buffers every substep
    overwrites, the two halves of one (2, B, roads, cells) array, so that
    one index gathers every link operand.  ``flow`` is ``dem`` itself: the
    road update writes Q of the new densities into it, the observer reads
    it there, and the next substep's envelopes fill ``sup`` from it before
    they patch it into the demand.  The scratch ``diff``, also (B, roads,
    cells), holds nothing from one substep to the next, so the observer
    may write into it.  ``v``, ``cap``, ``rho_max`` and ``critical`` hold
    the per-road parameters at that same shape, since a (B, roads, 1)
    operand makes numpy loop over one road's cells at a time.  ``faces``
    holds the B * roads * cells + 1 interfaces of the cells laid end to
    end, viewed as every cell's left and right interface, (B, roads,
    cells); its two outer entries, which no face writes, stay 0, so that
    the differences taken over them read no stale memory.  ``inflow`` and
    ``outflow`` are the fluxes through each road's two ends, (B, roads),
    views of ``ends`` (roads, 2, B), which the link pass writes whole.
    ``rho_max`` is the network's, (roads, 1), and ``lam`` is dt / ds.

    It also allocates the link pass's arrays, one column per policy, and
    makes the views ``_couple`` names; ``queues`` (B, n_access) are the
    queue lengths, which a step of length ``dt`` updates in place.
    """

    def __init__(self, net: _Network, v: np.ndarray, rho: np.ndarray, lam: float, queues: np.ndarray, dt: float):
        shape = rho.shape
        v = v[:, :, None]
        v, cap, rho_max, critical = (
            np.broadcast_to(a, shape).copy()
            for a in (v, flux_capacity(v, net.rho_max), net.rho_max, net.rho_max / 2.0)
        )
        env = np.empty((2,) + shape)
        self.dem, self.sup = env
        self.flow = self.dem
        diff = self.diff = np.empty(shape)
        faces = np.zeros(rho.size + 1)
        left, right = faces[:-1].reshape(shape), faces[1:].reshape(shape)
        self.ends = np.zeros((shape[1], 2, shape[0]))
        self.inflow, self.outflow = self.ends[:, 0].T, self.ends[:, 1].T
        self.envelope = (rho, cap, critical, self.dem, self.sup, np.empty(shape, dtype=bool))
        interior = None if shape[2] == 1 else (
            self.dem.reshape(-1)[:-1], self.sup.reshape(-1)[1:], faces[1:-1], left, right)
        boundary = (self.inflow, self.outflow, diff[..., 0], diff[..., -1], right[..., 0], left[..., -1])
        self.roads = (rho, self.flow, diff, v, rho_max, np.array(lam), interior, boundary)
        batch, n, size = shape[0], net.coef.shape[1], rho[0].size
        gather_at = (net.side * rho.size + net.slot)[:, None] + size * np.arange(batch)
        gathered = np.empty(gather_at.shape)
        ab = gathered[:2 * n].reshape(2, n, batch)
        c = gathered[2 * n:]
        flows = np.full((n + 2, batch), -0.0)
        flows[n + 1] = 0.0
        both = np.empty(net.end_links.shape + (batch,))
        merged, released = ab[1, net.merge], ab[0, net.access].T
        link_flows, discharged = flows[:n], flows[net.access].T
        spare, queued = np.empty(c.shape), np.empty((batch, len(net.queue0)))
        self.links = (
            env.reshape(-1), gather_at, gathered, merged, c, spare, net.coef, ab, queues, np.array(dt),
            released, *ab, link_flows, discharged, queued, flows, net.end_links, both, *both,
            self.ends.reshape(-1, batch),
        )
        _flux(rho, v, rho_max, self.flow, diff)


def _update_roads(rho, flow, diff, v, rho_max, lam, interior, boundary) -> None:
    """The Godunov update of every road, given its two boundary fluxes.

    The operands are those ``_Workspace.roads`` binds: the densities ``rho``,
    updated in place and clipped to [0, rho_max], ``flow``, the workspace's
    ``dem``, which receives Q of the new densities once the faces have
    read the demand in it, the scratch ``diff`` and the road parameters
    ``v`` and ``rho_max``, all (B, roads, cells), and ``lam`` = dt / ds.
    The workspace's ``dem`` and ``sup`` must hold the envelopes of ``rho``,
    and its ``inflow`` and ``outflow`` the fluxes through each road's ends.
    ``interior`` is None on one-cell roads, else the demand of every cell
    but the last and the supply of every cell but the first, laid end to
    end, the faces between them and the views ``left`` and ``right``.
    ``boundary`` holds ``inflow``, ``outflow``, the first and the last cell
    of ``diff`` and the right face of each road's first cell and the left
    face of its last.

    The interior interface fluxes min{D(left), S(right)} come from one pass
    over the cells laid end to end, which also pairs each road's last cell
    with the next road's first.  Those faces are never used as they are:
    the differences of each road's first and last cell are taken again
    with the boundary fluxes, and on one-cell roads, where the first cell
    is the last, from the boundary fluxes alone.
    """
    inflow, outflow, first, last, right_of_first, left_of_last = boundary
    if interior is None:
        np.subtract(inflow, outflow, out=first)
    else:
        dem_cells, sup_cells, inner_faces, left, right = interior
        np.minimum(dem_cells, sup_cells, out=inner_faces)
        np.subtract(left, right, out=diff)
        np.subtract(inflow, right_of_first, out=first)
        np.subtract(left_of_last, outflow, out=last)
    np.multiply(diff, lam, out=diff)
    np.add(rho, diff, out=rho)
    np.maximum(rho, _ZERO, out=rho)
    np.minimum(rho, rho_max, out=rho)
    _flux(rho, v, rho_max, flow, diff)


def _couple(q_in, env, gather_at, gathered, merged, c, spare, coef, ab, queues, dt, released,
            a, b, link_flows, discharged, queued, flows, end_links, both, first, second, end_rows):
    """Every link's flow from the envelopes in ``env``, in one pass.

    ``q_in`` holds the access rates of this step, (n_access,); the other
    operands are those ``_Workspace.links`` binds.  ``gathered`` receives
    every operand from ``env``, the workspace's demand and supply laid
    flat, at ``gather_at``; ``ab`` (2, n, B) views its operands A and B,
    which ``coef`` scales, with rows ``a`` and ``b``, and ``c`` views its
    operands C.  ``merged`` views the 2to1 links' B, which becomes
    max(B, s - d_b) through ``spare``, and ``released`` (B, n_access) the
    access links' A.  ``flows`` holds ``link_flows``, the links' flows,
    then a -0.0 and a +0.0 row, and ``discharged`` (B, n_access) views the
    access links' flows.  The queue lengths ``queues`` (B, n_access) are
    updated in place through ``queued`` over the step ``dt``.  ``both``
    receives the two flow rows of each road end, from ``end_links``, and
    its halves ``first`` and ``second`` add into ``end_rows``, the
    workspace's ``ends`` as (2 * roads, B).
    """
    env.take(gather_at, out=gathered, mode="clip")
    np.subtract(merged, c, out=spare)  # s - d_b, before s is scaled
    np.multiply(coef, ab, out=ab)
    np.maximum(merged, spare, out=merged)
    np.add(q_in, np.divide(queues, dt, out=released), out=released)
    np.minimum(a, b, out=link_flows)
    np.subtract(q_in, discharged, out=queued)
    np.add(queues, np.multiply(dt, queued, out=queued), out=queued)
    np.maximum(queued, _ZERO, out=queues)
    flows.take(end_links, axis=0, out=both, mode="clip")
    np.add(first, second, out=end_rows)


def _godunov_step(ws: _Workspace, q_in) -> None:
    """One step of the densities and queue lengths ``ws`` was made with.

    The envelopes are made from Q in ``ws.flow``, the links give every
    road's boundary fluxes from the envelopes at its ends, then
    ``_update_roads`` steps the roads.  The densities and queue lengths are
    updated in place, and ``ws.flow``, which must hold Q of the densities
    on entry, holds Q of the new densities on return; ``q_in`` holds the
    access rates of this step, (n_access,).
    """
    _envelopes(*ws.envelope)
    _couple(q_in, *ws.links)
    _update_roads(*ws.roads)


def _march(net: _Network, scenario: Scenario, v: np.ndarray, n_sub: int, observe, at: np.ndarray,
           mean_ends: np.ndarray | None = None) -> None:
    """Advance a batch of policies sharing a substep count over the horizon:
    ``simulate_batch`` marches each slice of a substep group with one call.

    ``observe(at, rho, flow, queues, scratch)`` is entered once, as a
    context manager around the whole march, with ``at``, the batch
    positions of the policies ``v``, their densities and flux Q, both (B,
    roads, cells), their queue lengths (B, n_access) and ``scratch``, a
    (B, roads, cells) buffer it may overwrite.  These are the workspace
    arrays every step overwrites, the same for the whole march: ``flow`` is
    the workspace's demand buffer and ``scratch`` its ``diff``, which no
    step reads before writing it.  The value it gives is called as
    ``step(k)`` after each output step k = 1..n_time, when the arrays hold
    that step's values; ``step`` must not write ``rho``, ``flow`` or
    ``queues``.  Q is computed once per substep: it gives the next
    substep's demand and supply and is the flow the objectives sum.  With
    ``mean_ends`` (roads, 2, B), the march also writes into it, before each
    ``step(k)``, the mean inflow and outflow of every road over the step's
    substeps.
    """
    dt = scenario.dt / n_sub
    rho = np.repeat(net.rho0[None], len(v), axis=0)
    queues = np.repeat(net.queue0[None], len(v), axis=0)
    ws = _Workspace(net, v, rho, dt / scenario.ds, queues, dt)
    with observe(at, rho, ws.flow, queues, ws.diff) as step:
        for k, q_in in enumerate(net.inflow.T, 1):
            if mean_ends is None:
                for _ in range(n_sub):
                    _godunov_step(ws, q_in)
            else:
                mean_ends.fill(0.0)
                for _ in range(n_sub):
                    _godunov_step(ws, q_in)
                    np.add(mean_ends, ws.ends, out=mean_ends)
                np.divide(mean_ends, n_sub, out=mean_ends)
            step(k)


def _substep_counts(v: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Equal substeps per output step that the CFL bound requires, one per
    row of speed limits ``v`` (B, roads), as floats: inf where the ratio
    leaves the float range.  The largest stable step is ds over the
    speed-limit bound on |Q'|, the row's largest limit."""
    return np.maximum(np.ceil(scenario.dt / (scenario.ds / np.max(v, axis=-1)) - 1e-12), 1.0)


def simulate_traffic(scenario: Scenario, policy, observe=None) -> TrafficTrajectory:
    """Run the traffic model over the whole horizon for a fixed policy.

    This is the batch kernel at batch size one, keeping the history, Q
    included.  The grid step is split into however many equal substeps the
    CFL bound requires; snapshots land exactly on the output time grid and
    boundary fluxes are recorded as per-interval means, so discrete mass
    balance holds to rounding.  ``observe`` sees the march as in
    ``simulate_batch``, at batch position 0.  ``policy`` is one speed limit
    per road; ``check_policies`` raises ``PolicyError`` for one outside the
    box.
    """
    v = check_policies([policy], scenario)
    net = _compile(scenario)
    n_time, n_roads = scenario.n_time, scenario.n_roads
    densities = np.empty((n_time + 1,) + net.rho0.shape)
    flows = np.empty(densities.shape)
    queues = np.empty((n_time + 1, len(net.queue0)))
    inflow = np.empty((n_time, n_roads))
    outflow = np.empty((n_time, n_roads))
    densities[0], queues[0] = net.rho0, net.queue0
    ends = np.zeros((n_roads, 2, 1))

    @contextlib.contextmanager
    def record(at, rho, flow, ell, scratch):
        flows[0] = flow[0]
        observing = (contextlib.nullcontext(lambda k: None) if observe is None
                     else observe(at, rho, flow, ell, scratch))
        with observing as observed:
            def step(k):
                densities[k], flows[k], queues[k] = rho[0], flow[0], ell[0]
                inflow[k - 1], outflow[k - 1] = ends[..., 0].T
                observed(k)

            yield step

    _march(net, scenario, v, int(_substep_counts(v, scenario)[0]), record, np.zeros(1, dtype=int), ends)
    return TrafficTrajectory(
        times=np.arange(n_time + 1) * scenario.dt,
        densities=densities,
        flow=flows,
        queues=queues,
        access_roads=tuple(a.road for a in scenario.access),
        inflow=inflow,
        outflow=outflow,
        external_inflow=net.inflow.T.copy(),
    )


def simulate_batch(scenario: Scenario, policies, observe) -> None:
    """Run a batch of policies over the horizon together, keeping no history.

    The batch is marched in groups of equal substep count, so every policy
    steps with exactly the dt it would get alone.  The groups go in
    increasing substep count, each in batch order, and each group is
    marched in the fewest contiguous slices of near-equal size (they differ
    by at most one policy) that keep a (slice, roads, cells) array within
    ``SLICE_BYTES``, or in slices of one policy if one alone takes more; a
    policy's numbers do not depend on its slice.  Each
    slice enters ``observe(at, rho, flow, queues, scratch)`` once, as a
    context manager around its march, with ``at``, the batch positions of
    its policies, its densities and flux Q, both (len(at), roads, cells),
    its queue lengths (len(at), n_access) and a scratch buffer shaped as
    the densities that it may overwrite: the march's workspace, the same
    arrays for the whole slice, which every step overwrites.  The value it
    gives is called as ``step(k)`` after each output step k = 1..n_time,
    when the arrays hold that step's values; it writes only into
    ``scratch``.  ``policies`` holds one row of speed limits per policy,
    one per road; ``check_policies`` raises ``PolicyError`` for the first
    row outside the box.  An empty batch never enters ``observe``.
    """
    net = _compile(scenario)
    v = check_policies(policies, scenario)
    n_sub = _substep_counts(v, scenario)
    # not np.unique: on floats it imports numpy.ma, about 1 MB of peak memory (numpy 2.4)
    for n in sorted(set(n_sub.tolist())):
        at = np.flatnonzero(n_sub == n)
        slices = min(len(at), math.ceil(len(at) * 8 * net.rho0.size / SLICE_BYTES))
        for part in np.array_split(at, slices):
            _march(net, scenario, v[part], int(n), observe, part)

