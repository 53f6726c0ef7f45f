"""Per-road emission rates and their rasterization onto the control-area grid.

A grid point belongs to a road when its distance to the road's segment is
at most half the road width and the perpendicular foot falls inside the
segment (boundary ties count as covered).  Each covered point carries the
finite-volume cell of that foot; points covered by several roads average
the width-scaled rates of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tramopt.network import Scenario
from tramopt.traffic import greenshields_flux


def emission_rate(flow, rho, theta, out=None):
    """Emission rate of road cells carrying traffic flow ``flow`` at density
    ``rho``, written into ``out`` if given."""
    return np.add(flow, np.multiply(theta, rho, out=out), out=out)


@dataclass
class RasterMap:
    """Precomputed road-coverage structure of the control-area grid.

    Flattened layout: ``points_i/points_j`` list the covered grid indices in
    (i, j) order, ``counts`` how many roads cover each of them.  Each (point,
    road) pair appears once in the ``entry_*`` arrays, ordered by point and
    then road; ``entry_weight`` already folds in the 1/width scaling and the
    1/|covering roads| average.
    """

    n_grid: int
    points_i: np.ndarray
    points_j: np.ndarray
    counts: np.ndarray
    entry_point: np.ndarray
    entry_road: np.ndarray
    entry_cell: np.ndarray
    entry_weight: np.ndarray
    road_point_counts: np.ndarray


def rasterize_network(scenario: Scenario) -> RasterMap:
    """Compute road coverage of all grid points; policy-independent."""
    h = scenario.h
    n = scenario.n_grid
    hits = []  # per road: grid indices and arc length of the covered points
    for e, road in enumerate(scenario.roads):
        (ax, ay), (bx, by) = road.tail, road.head
        half_w = road.width / 2.0
        i_lo = max(0, math.floor((min(ax, bx) - half_w) / h))
        i_hi = min(n, math.ceil((max(ax, bx) + half_w) / h))
        j_lo = max(0, math.floor((min(ay, by) - half_w) / h))
        j_hi = min(n, math.ceil((max(ay, by) + half_w) / h))
        # a box outside the grid is empty, and so are the road's hits
        ii, jj = np.meshgrid(
            np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
        )
        px = ii * h - ax
        py = jj * h - ay
        dx, dy = bx - ax, by - ay
        t = (px * dx + py * dy) / road.length**2
        dist = np.hypot(px - t * dx, py - t * dy)
        # closed membership; epsilons keep exact ties stable under rounding
        hit = (
            (t >= -1e-12)
            & (t <= 1.0 + 1e-12)
            & (dist <= half_w * (1.0 + 1e-12) + 1e-15)
        )
        hits.append((ii[hit], jj[hit], np.full(np.count_nonzero(hit), e), t[hit] * road.length))

    i, j, entry_road, s = (np.concatenate(parts) for parts in zip(*hits))
    order = np.lexsort((entry_road, j, i))
    i, j, entry_road, s = i[order], j[order], entry_road[order], s[order]
    first = np.ones(i.size, dtype=bool)
    first[1:] = (i[1:] != i[:-1]) | (j[1:] != j[:-1])
    entry_point = np.cumsum(first) - 1
    counts = np.bincount(entry_point)
    widths = np.array([r.width for r in scenario.roads])
    return RasterMap(
        n_grid=n,
        points_i=i[first],
        points_j=j[first],
        counts=counts,
        entry_point=entry_point,
        entry_road=entry_road,
        entry_cell=np.minimum((s / scenario.ds).astype(int), scenario.n_cells - 1),
        entry_weight=1.0 / (widths[entry_road] * counts[entry_point]),
        road_point_counts=np.bincount(entry_road, minlength=scenario.n_roads),
    )


def cell_rates(densities: np.ndarray, scenario: Scenario, policy) -> np.ndarray:
    """Emission rate per (time, road, cell) from a density history."""
    from tramopt.traffic import _policy_array

    v = _policy_array(policy, scenario)
    rho_max = np.array([r.rho_max for r in scenario.roads])
    flow = greenshields_flux(densities, v[None, :, None], rho_max[None, :, None])
    return emission_rate(flow, densities, scenario.theta)


def emission_field(traj, raster: RasterMap, scenario: Scenario, policy) -> np.ndarray:
    """Rasterized emission rates, shape (n_time + 1, n_grid + 1, n_grid + 1)."""
    if raster.n_grid != scenario.n_grid:
        raise ValueError("raster map and scenario grids do not match")
    if traj.densities.shape[0] != scenario.n_time + 1:
        raise ValueError("trajectory and scenario time grids do not match")

    rates = cell_rates(traj.densities, scenario, policy)
    n_steps = rates.shape[0]
    field = np.zeros((n_steps, scenario.n_grid + 1, scenario.n_grid + 1))
    contrib = rates[:, raster.entry_road, raster.entry_cell] * raster.entry_weight
    acc = np.zeros((raster.points_i.size, n_steps))
    np.add.at(acc, raster.entry_point, contrib.T)
    field[:, raster.points_i, raster.points_j] = acc.T
    return field
