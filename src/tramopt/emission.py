"""Per-road emission rates and their rasterization onto the control-area grid.

A grid point belongs to a road when its distance to the road's segment is
at most half the road width and the perpendicular foot falls inside the
segment (boundary ties count as covered).  Each covered point carries the
finite-volume cell of that foot; points covered by several roads average
the width-scaled rates of all of them.  That rule is one linear map from
road cells to grid points, and a ``RasterMap`` is its one implementation:
it scatters road-cell rates onto grid levels for the emission field, and
gathers a grid level onto road cells for the adjoint's contraction.  Both
add the entries of a bin in entry order, starting from 0.0.  The map is
built by array operations over the grid points of all roads' boxes at once,
in passes of at most ``RASTER_PASS_POINTS`` points.

The rates are made from a ``TrafficTrajectory``'s densities and the flow Q
the traffic kernel computed with them; this module computes no flux.  The
emission field is made in blocks of levels of at most
``FIELD_BLOCK_BYTES`` (at least one level), so that a caller writing it
never holds the whole (n_time + 1, n_grid + 1, n_grid + 1) array: 157.8 MB
on a chain of 4 diamonds, 1.5 GB on 16.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from tramopt.network import Scenario

#: the most bytes of one block of levels ``emission_field`` yields, unless
#: one level alone is larger: small enough to add little to a process's peak
#: memory, large enough that the fixed cost of a scatter and of a write is
#: paid once per several levels (four on the diamond's 61 x 61 grid)
FIELD_BLOCK_BYTES = 128 * 1024

#: the most candidate grid points one pass of ``rasterize_network`` holds:
#: at about 200 bytes per candidate at its peak, some 13 MB
RASTER_PASS_POINTS = 2**16


def emission_rate(flow, rho, theta, out=None):
    """Emission rate of road cells carrying traffic flow ``flow`` at density
    ``rho``, written into ``out`` if given."""
    return np.add(flow, np.multiply(theta, rho, out=out), out=out)


@dataclass
class RasterMap:
    """The raster map's entries, one per (covered point, covering road),
    ordered by point in (i, j) order, then by road.  Entry k maps road cell
    ``slot[k]`` = road index * ``n_cells`` + cell index to grid point
    (``i[k]``, ``j[k]``) with ``weight[k]``, the 1/width scaling times the
    1/|covering roads| average.  ``scatter`` and ``gather`` add the entries
    of a bin in entry order, starting from 0.0, as ``np.bincount`` does.
    """

    n_grid: int
    n_cells: int
    i: np.ndarray
    j: np.ndarray
    slot: np.ndarray
    weight: np.ndarray

    def scatter(self, rates: np.ndarray) -> np.ndarray:
        """The grid levels of the (levels, roads, cells) ``rates``, shape
        (levels, n_grid + 1, n_grid + 1).  One ``np.bincount`` over the bins
        level * (n_grid + 1)**2 + point makes every level at once; a bin holds
        the entries of one level's point, so each is still summed in entry
        order from 0.0, the same bits as a scatter of that level alone."""
        levels = rates.shape[0]
        size = (self.n_grid + 1) ** 2
        point = self.i * (self.n_grid + 1) + self.j
        bins = (np.arange(levels)[:, None] * size + point).ravel()
        terms = (rates.reshape(levels, -1)[:, self.slot] * self.weight).ravel()
        return np.bincount(bins, terms, minlength=levels * size).reshape(levels, self.n_grid + 1, -1)

    def gather(self, level: np.ndarray, out: np.ndarray) -> None:
        """Write the grid ``level``'s weighted sum per road cell into the (roads, cells) ``out``."""
        sums = np.bincount(self.slot, level[self.i, self.j] * self.weight, minlength=out.size)
        out[...] = sums.reshape(out.shape)

    def select(self, keep: np.ndarray) -> RasterMap:
        """The map of the entries where ``keep`` is true."""
        return replace(self, i=self.i[keep], j=self.j[keep], slot=self.slot[keep], weight=self.weight[keep])

    def cover_counts(self, n_roads: int) -> np.ndarray:
        """The number of grid points each road covers."""
        return np.bincount(self.slot // self.n_cells, minlength=n_roads)


def rasterize_network(scenario: Scenario) -> RasterMap:
    """Compute road coverage of all grid points; policy-independent.  The
    candidates, each road's box's grid points in road and box order, are
    tested by array operations in passes of at most ``RASTER_PASS_POINTS``."""
    h, n, n_cells = scenario.h, scenario.n_grid, scenario.n_cells
    boxes, scalars, total = [], [], 0  # per road; the candidates of the roads before it
    for e, road in enumerate(scenario.roads):
        (ax, ay), (bx, by) = road.tail, road.head
        half_w = road.width / 2.0
        i_lo = max(0, math.floor((min(ax, bx) - half_w) / h))
        i_hi = min(n, math.ceil((max(ax, bx) + half_w) / h))
        j_lo = max(0, math.floor((min(ay, by) - half_w) / h))
        j_hi = min(n, math.ceil((max(ay, by) + half_w) / h))
        # a box outside the grid is empty, and so are the road's hits
        boxes.append((e, i_lo, j_lo, j_hi - j_lo + 1, total))
        total += max(0, i_hi - i_lo + 1) * max(0, j_hi - j_lo + 1)
        # closed membership; epsilons keep exact ties stable under rounding
        reach = half_w * (1.0 + 1e-12) + 1e-15
        scalars.append((ax, ay, bx - ax, by - ay, road.length**2, road.length, reach, road.width))
    boxes, scalars = np.array(boxes).T, np.array(scalars).T
    starts = np.append(boxes[-1], total)  # each road's first candidate, then the end

    hits = []  # per pass: grid indices and slots of the covered points
    # one pass at least, so that a map without candidates still has its arrays
    for start in range(0, max(total, 1), RASTER_PASS_POINTS):
        # per candidate of the pass, in order: its road's box and scalars
        counts = np.diff(np.clip(starts, start, start + RASTER_PASS_POINTS))
        (e, i_lo, j_lo, nj, first), (ax, ay, dx, dy, length_sq, length, reach) = (
            np.repeat(a, counts, axis=1) for a in (boxes, scalars[:-1]))
        di, dj = np.divmod(np.arange(start, start + e.size) - first, nj)
        ii, jj = i_lo + di, j_lo + dj
        px = ii * h - ax
        py = jj * h - ay
        t = (px * dx + py * dy) / length_sq
        dist = np.hypot(px - t * dx, py - t * dy)
        hit = (t >= -1e-12) & (t <= 1.0 + 1e-12) & (dist <= reach)
        cell = np.minimum((t[hit] * length[hit] / scenario.ds).astype(int), n_cells - 1)
        hits.append(np.stack((ii[hit], jj[hit], e[hit] * n_cells + cell)))

    # a road covers a point once, so ordering a point's slots orders its roads
    found = np.concatenate(hits, axis=1)
    i, j, slot = found[:, np.lexsort(found[::-1])]
    # sorted by point, so a point's roads are one run of entries, whose length counts them
    point = i * (n + 1) + j
    edges = np.append(np.flatnonzero(np.concatenate(([True], point[1:] != point[:-1]))), point.size)
    run = edges[1:] - edges[:-1]
    weight = 1.0 / (scalars[-1, slot // n_cells] * np.repeat(run, run))
    return RasterMap(n_grid=n, n_cells=n_cells, i=i, j=j, slot=slot, weight=weight)


def cell_rates(traj, scenario: Scenario) -> np.ndarray:
    """Emission rate per (time, road, cell) of a traffic trajectory, from the
    flow and the densities it holds."""
    return emission_rate(traj.flow, traj.densities, scenario.theta)


def emission_field(traj, raster: RasterMap, scenario: Scenario) -> Iterator[np.ndarray]:
    """Rasterized emission rates, shape (n_time + 1, n_grid + 1, n_grid + 1),
    as an iterator of blocks of consecutive levels, each at most
    ``FIELD_BLOCK_BYTES`` or one level; concatenated, they are the field.

    The grid checks and the road cells' rates, from the trajectory's flow
    and densities, run at this call; only the blocks' scatters wait for the
    iteration.  So a bad input fails where the field is asked for, while the
    field itself is made as it is consumed, one block held at a time."""
    if raster.n_grid != scenario.n_grid:
        raise ValueError("raster map and scenario grids do not match")
    if traj.densities.shape[0] != scenario.n_time + 1:
        raise ValueError("trajectory and scenario time grids do not match")

    rates = cell_rates(traj, scenario)
    step = max(1, FIELD_BLOCK_BYTES // (8 * (scenario.n_grid + 1) ** 2))
    return (raster.scatter(rates[k:k + step]) for k in range(0, len(rates), step))
