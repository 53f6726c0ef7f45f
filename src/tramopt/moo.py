"""Derivative-free multi-objective search over a box of speed limits.

Everything uses the minimization convention (the flow objective enters
negated).  The search is a multi-directional pattern search on a set of
points: an archive of mutually nondominated solutions whose members are
polled along +/- coordinate directions with per-member adaptive mesh sizes.
It starts from 4*dim + 2 seed points (the centre, the all-lower and the
all-upper corner as anchors of the front's ends, seeded-random box corners
and interior points) and polls every active member each iteration with
fixed mesh rules.  The members least polled go first, and among them the
most isolated ones by crowding distance (Deb, Pratap, Agarwal & Meyarivan
2002), so a poll that the budget cuts short extends the front's ends and
fills its widest gaps first.  Each batch of policies goes to one hook,
``map_fn``, which returns their objective vectors.  Runs are deterministic
for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _beaten(front: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """The Pareto rule of the archive and the filter: None if a row of
    ``front`` weakly dominates ``v`` (an equal row included), else the mask of
    the rows that ``v`` dominates.  Past the first test no row equals ``v``,
    so a row that ``v`` is <= everywhere is one that ``v`` dominates."""
    if bool(np.any(np.all(front <= v, axis=1))):
        return None
    return np.all(v <= front, axis=1)


def nondominated_filter(values) -> np.ndarray:
    """Indices of the nondominated points in ascending order; duplicate
    vectors keep the first.  The points join a front in index order by the
    archive's rule, ``_beaten``."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.array([], dtype=int)
    if v.ndim != 2:
        raise ValueError("expected an (n_points, n_objectives) array")
    kept = np.array([], dtype=int)
    for i, row in enumerate(v):
        beaten = _beaten(v[kept], row)
        if beaten is not None:
            kept = np.append(kept[~beaten], i)
    return kept


def hypervolume_2d(values, reference) -> float:
    """Area dominated by a 2D point set relative to a reference point."""
    v = np.asarray(values, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if v.size == 0:
        return 0.0
    v = v[(v[:, 0] < ref[0]) & (v[:, 1] < ref[1])]
    if v.size == 0:
        return 0.0
    v = v[nondominated_filter(v)]
    v = v[np.argsort(v[:, 0])]
    area = 0.0
    upper = ref[1]
    for x, y in v:
        area += (ref[0] - x) * (upper - y)
        upper = y
    return float(area)


@dataclass(eq=False)
class ArchiveEntry:
    policy: tuple[float, ...]
    mesh: float
    polls: int = 0


class ParetoArchive:
    """Mutually nondominated set of (policy, objective vector) pairs:
    ``entries`` in the order they were inserted and ``values``, their
    objective vectors as the rows of one array."""

    def __init__(self):
        self.entries: list[ArchiveEntry] = []
        self.values: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, policy, value, mesh: float) -> bool:
        """Add a point unless an existing one weakly dominates it.

        Dominated incumbents are dropped; an exactly equal objective vector
        keeps the first-seen policy.
        """
        v = np.asarray(value, dtype=float)
        if self.entries:
            vals = self.values
            beaten = _beaten(vals, v)
            if beaten is None:
                return False
            if bool(np.any(beaten)):
                keep = ~beaten
                self.entries = [e for e, k in zip(self.entries, keep) if k]
                vals = vals[keep]
            self.values = np.vstack([vals, v])
        else:
            self.values = v.reshape(1, -1)
        self.entries.append(ArchiveEntry(policy=tuple(np.asarray(policy, dtype=float)), mesh=mesh))
        return True


# poll step per member as a fraction of each coordinate's box width: its
# start, its growth after a successful poll (capped at the whole width) and
# its shrinkage after a failed one
_INITIAL_MESH = 0.25
_EXPANSION = 2.0
_CONTRACTION = 0.5
_MESH_CAP = 1.0
# absolute step below which a member is no longer polled
_MIN_MESH = 1e-3


def _crowding(values) -> np.ndarray:
    """Crowding distance of each point of an (n_points, n_objectives) set.

    Per objective, the two extremes get inf and every other point the gap
    between its two neighbours divided by the objective's range; the
    objectives' terms are summed, and an objective whose range is 0 adds
    nothing.  Points tied on an objective are taken in their given order.
    """
    v = np.asarray(values, dtype=float)
    crowding = np.zeros(len(v))
    for column in v.T:
        order = np.argsort(column, kind="stable")
        ranked = column[order]
        span = ranked[-1] - ranked[0]
        if span > 0:
            crowding[order[[0, -1]]] = np.inf
            crowding[order[1:-1]] += (ranked[2:] - ranked[:-2]) / span
    return crowding


def _seed_points(lower, upper, rng) -> list[tuple[float, ...]]:
    """The centre, the two extreme corners ``lower`` and ``upper``, the
    min(2**d, 2d) drawn box corners that are neither and seeded-random
    interior points, 4d + 2 in all before duplicates are dropped.

    The extreme corners anchor the front's ends (BiMADS, Audet, Savard &
    Zghal 2008, starts from the single-objective optima): the drawn corners
    seldom hold either past a few dimensions, and an objective that grows
    with every limit, such as the flow, is best at ``upper``."""
    d = len(lower)
    anchors = [tuple(lower), tuple(upper)]
    seeds = [tuple((lower + upper) / 2.0), *anchors]
    n_corners = min(2**d, 2 * d)
    if 2**d <= 4096:
        corner_ids = rng.choice(2**d, size=n_corners, replace=False)
        bit_rows = [[(c >> b) & 1 for b in range(d)] for c in corner_ids]
    else:
        bit_rows = rng.integers(0, 2, size=(n_corners, d)).tolist()
    for bits in bit_rows:
        corner = tuple(np.where(np.array(bits) == 1, upper, lower))
        if corner not in anchors:
            seeds.append(corner)
    while len(seeds) < 4 * d + 2:
        seeds.append(tuple(lower + rng.random(d) * (upper - lower)))
    return list(dict.fromkeys(seeds))


def pareto_search(lower, upper, *, budget: int, seed: int, map_fn) -> tuple[ParetoArchive, dict]:
    """Explore the Pareto front over the box [lower, upper] in ``budget``
    evaluations from starting points drawn with ``seed``.

    ``map_fn(policies)``, the one hook, gets each whole batch (the seed
    points, then every iteration's poll candidates) as a list of policy
    arrays and returns their objective vectors in order.  The seed batch
    starts with the centre, ``lower`` and ``upper``, so a budget of 3 or
    more scores both extreme corners: an objective monotone in every limit
    is best at one of them.  It is keyword-only
    and named ``map_fn`` because a tracer timing the search passes its own
    ``map_fn=`` to a call that has none.  Members whose polls all fail
    contract their mesh, successful ones expand it; the search stops on the
    budget or when every member's mesh is below the minimum.

    Each iteration polls its active members in order of (polls, -crowding),
    ties in archive order, the oldest first: the least polled first, then
    the most isolated by ``_crowding`` of the archive's values at the
    iteration's start (the front's extremes first).  So when the budget
    cuts a poll short, the policies it drops are those of the most crowded
    members.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(upper < lower):
        raise ValueError("empty or malformed search box")
    if budget <= 0:
        raise ValueError("evaluation budget must be positive")
    d = lower.size
    ranges = upper - lower
    rng = np.random.default_rng(seed)

    archive = ParetoArchive()
    evaluated: set[tuple[float, ...]] = set()

    def run_batch(policies: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
        values = map_fn([np.array(p) for p in policies])
        evaluated.update(policies)
        return [tuple(np.asarray(v, dtype=float)) for v in values]

    seeds = _seed_points(lower, upper, rng)[:budget]
    results = run_batch(seeds)
    for p, v in sorted(zip(seeds, results)):
        archive.insert(p, v, _INITIAL_MESH)

    iterations = 0
    while len(evaluated) < budget:
        active = [
            e
            for e in archive.entries
            if e.mesh * float(np.max(ranges)) >= _MIN_MESH
        ]
        if not active:
            break
        iterations += 1
        crowding = dict(zip(archive.entries, _crowding(archive.values)))
        batch = sorted(active, key=lambda e: (e.polls, -crowding[e]))

        candidates: list[tuple[tuple[float, ...], ArchiveEntry]] = []
        seen = set()
        for entry in batch:
            base = np.array(entry.policy)
            for axis in range(d):
                step = entry.mesh * ranges[axis]
                for sign in (1.0, -1.0):
                    cand = base.copy()
                    cand[axis] = min(max(cand[axis] + sign * step, lower[axis]), upper[axis])
                    key = tuple(cand)
                    if key == entry.policy or key in evaluated or key in seen:
                        continue
                    seen.add(key)
                    candidates.append((key, entry))
        # a member counts as polled unless the budget cut one of its
        # candidates; one with no new candidate has a completed (failed) poll
        room = budget - len(evaluated)
        cut = {e for _, e in candidates[room:]}
        candidates = candidates[:room]

        succeeded = set()
        if candidates:
            values = run_batch([c for c, _ in candidates])
            # candidates are distinct policies, so the sort never compares parents;
            # children ride the expanded mesh of their parent so successful
            # directions keep stretching toward the box faces
            for (key, parent), value in sorted(zip(candidates, values)):
                if archive.insert(key, value, min(parent.mesh * _EXPANSION, _MESH_CAP)):
                    succeeded.add(parent)

        for entry in batch:
            if entry in cut:
                continue
            entry.polls += 1
            if entry in succeeded:
                entry.mesh = min(entry.mesh * _EXPANSION, _MESH_CAP)
            else:
                entry.mesh *= _CONTRACTION

    diagnostics = {
        "evaluations": len(evaluated),
        "iterations": iterations,
        "archive_size": len(archive),
        "max_step": max(
            (e.mesh * float(np.max(ranges)) for e in archive.entries), default=0.0
        ),
    }
    return archive, diagnostics


def normalize_front(values, ideal, skip_axes=()) -> np.ndarray:
    """Divide each objective by its ideal value (axes in skip_axes pass through)."""
    v = np.asarray(values, dtype=float)
    ideal = np.asarray(ideal, dtype=float)
    out = v.copy()
    for axis in range(v.shape[1]):
        if axis in skip_axes:
            continue
        if abs(ideal[axis]) < 1e-300:
            raise ValueError(f"cannot normalize axis {axis}: ideal value is zero")
        out[:, axis] = v[:, axis] / ideal[axis]
    return out
