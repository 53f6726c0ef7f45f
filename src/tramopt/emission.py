"""Per-road emission rates and their rasterization onto the control-area grid.

A grid point belongs to a road when its distance to the road's polyline is
at most half the road width and the perpendicular foot falls inside the
polyline (boundary ties count as covered).  Each covered point carries the
finite-volume cell of that foot; points covered by several roads average
the width-scaled rates of all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tramopt.network import Scenario
from tramopt.traffic import greenshields_flux


def emission_rate(flow, rho, theta):
    """Emission rate of road cells carrying traffic flow ``flow`` at density ``rho``."""
    return flow + theta * rho


def road_emission_rate(rho, v_max, rho_max, theta):
    """Emission rate of a road cell: traffic flow plus theta times density."""
    if theta < 0.0:
        raise ValueError("theta must be nonnegative")
    return emission_rate(greenshields_flux(rho, v_max, rho_max), rho, theta)


@dataclass
class RasterMap:
    """Precomputed road-coverage structure of the control-area grid.

    Flattened layout: ``points_i/points_j`` list the covered grid indices,
    ``counts`` how many roads cover each of them.  Each (point, road) pair
    appears once in the ``entry_*`` arrays; ``entry_weight`` already folds in
    the 1/width scaling and the 1/|covering roads| average.
    """

    n_grid: int
    h: float
    points_i: np.ndarray
    points_j: np.ndarray
    counts: np.ndarray
    entry_point: np.ndarray
    entry_road: np.ndarray
    entry_cell: np.ndarray
    entry_weight: np.ndarray
    road_point_counts: np.ndarray

    def covering(self, i: int, j: int) -> list[tuple[int, int]]:
        """(road index, cell index) pairs covering grid point (i, j)."""
        hits = np.flatnonzero((self.points_i == i) & (self.points_j == j))
        if hits.size == 0:
            return []
        p = hits[0]
        sel = self.entry_point == p
        return list(zip(self.entry_road[sel].tolist(), self.entry_cell[sel].tolist()))


def rasterize_network(scenario: Scenario) -> RasterMap:
    """Compute road coverage of all grid points; policy-independent."""
    h = scenario.h
    n = scenario.n_grid
    ds = scenario.ds

    # (i, j) -> {road index -> (distance, arc length)}
    cover: dict[tuple[int, int], dict[int, tuple[float, float]]] = {}

    for e, road in enumerate(scenario.roads):
        half_w = road.width / 2.0
        offset = 0.0
        for (a, b), seg_len in zip(
            zip(road.points[:-1], road.points[1:]), road.segment_lengths
        ):
            i_lo = max(0, math.floor((min(a[0], b[0]) - half_w) / h))
            i_hi = min(n, math.ceil((max(a[0], b[0]) + half_w) / h))
            j_lo = max(0, math.floor((min(a[1], b[1]) - half_w) / h))
            j_hi = min(n, math.ceil((max(a[1], b[1]) + half_w) / h))
            if i_lo > i_hi or j_lo > j_hi:
                offset += seg_len
                continue
            ii, jj = np.meshgrid(
                np.arange(i_lo, i_hi + 1), np.arange(j_lo, j_hi + 1), indexing="ij"
            )
            px = ii * h - a[0]
            py = jj * h - a[1]
            dx, dy = b[0] - a[0], b[1] - a[1]
            t = (px * dx + py * dy) / seg_len**2
            dist = np.hypot(px - t * dx, py - t * dy)
            # closed membership; epsilons keep exact ties stable under rounding
            hit = (
                (t >= -1e-12)
                & (t <= 1.0 + 1e-12)
                & (dist <= half_w * (1.0 + 1e-12) + 1e-15)
            )
            for i_pt, j_pt, t_pt, d_pt in zip(
                ii[hit].tolist(), jj[hit].tolist(), t[hit].tolist(), dist[hit].tolist()
            ):
                s = offset + t_pt * seg_len
                entry = cover.setdefault((i_pt, j_pt), {})
                prev = entry.get(e)
                if prev is None or (d_pt, s) < prev:
                    entry[e] = (d_pt, s)
            offset += seg_len

    points = sorted(cover)
    points_i = np.array([p[0] for p in points], dtype=int)
    points_j = np.array([p[1] for p in points], dtype=int)
    counts = np.array([len(cover[p]) for p in points], dtype=int)

    entry_point, entry_road, entry_cell, entry_weight = [], [], [], []
    road_counts = np.zeros(scenario.n_roads, dtype=int)
    for p_idx, p in enumerate(points):
        for e in sorted(cover[p]):
            _, s = cover[p][e]
            cell = min(int(s / ds), scenario.n_cells - 1)
            entry_point.append(p_idx)
            entry_road.append(e)
            entry_cell.append(cell)
            entry_weight.append(1.0 / (scenario.roads[e].width * len(cover[p])))
            road_counts[e] += 1

    return RasterMap(
        n_grid=n,
        h=h,
        points_i=points_i,
        points_j=points_j,
        counts=counts,
        entry_point=np.array(entry_point, dtype=int),
        entry_road=np.array(entry_road, dtype=int),
        entry_cell=np.array(entry_cell, dtype=int),
        entry_weight=np.array(entry_weight, dtype=float),
        road_point_counts=road_counts,
    )


def cell_rates(densities: np.ndarray, scenario: Scenario, policy) -> np.ndarray:
    """Emission rate per (time, road, cell) from a density history."""
    from tramopt.traffic import _policy_array

    v = _policy_array(policy, scenario)
    rho_max = np.array([r.rho_max for r in scenario.roads])
    return road_emission_rate(
        densities, v[None, :, None], rho_max[None, :, None], scenario.theta
    )


def emission_field(traj, raster: RasterMap, scenario: Scenario, policy) -> np.ndarray:
    """Rasterized emission rates, shape (n_time + 1, n_grid + 1, n_grid + 1)."""
    if raster.n_grid != scenario.n_grid:
        raise ValueError("raster map and scenario grids do not match")
    if traj.densities.shape[0] != scenario.n_time + 1:
        raise ValueError("trajectory and scenario time grids do not match")

    rates = cell_rates(traj.densities, scenario, policy)
    n_steps = rates.shape[0]
    field = np.zeros((n_steps, scenario.n_grid + 1, scenario.n_grid + 1))
    if raster.points_i.size == 0:
        return field

    contrib = rates[:, raster.entry_road, raster.entry_cell] * raster.entry_weight
    acc = np.zeros((raster.points_i.size, n_steps))
    np.add.at(acc, raster.entry_point, contrib.T)
    field[:, raster.points_i, raster.points_j] = acc.T
    return field
