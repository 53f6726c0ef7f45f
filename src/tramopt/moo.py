"""Derivative-free multi-objective search over a box of speed limits.

Everything uses the minimization convention (the flow objective enters
negated).  The search is a multi-directional pattern search on a set of
points: an archive of mutually nondominated solutions whose members are
polled along +/- coordinate directions with per-member adaptive mesh sizes.
It starts from 4*dim + 2 seed points (the centre, box corners, seeded-random
interior points) and polls every active member each iteration with fixed
mesh rules.  The members least polled go first, and among them the most
isolated ones by crowding distance (Deb, Pratap, Agarwal & Meyarivan 2002),
so a poll that the budget cuts short extends the front's ends and fills its
widest gaps first.  Each batch of policies goes to one hook, ``map_fn``,
which returns their objective vectors.  Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def nondominated_filter(values) -> np.ndarray:
    """Indices of the nondominated points; duplicate vectors keep the first.

    Lexicographic presorting guarantees every potential dominator of a point
    is screened before the point itself, so one pass against the kept set
    suffices (a running minimum in two dimensions).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return np.array([], dtype=int)
    if v.ndim != 2:
        raise ValueError("expected an (n_points, n_objectives) array")
    order = np.lexsort(v.T[::-1])
    kept: list[int] = []
    if v.shape[1] == 2:
        best = np.inf
        for idx in order:
            if v[idx, 1] < best:
                kept.append(int(idx))
                best = v[idx, 1]
    else:
        buffer = np.empty_like(v)
        m = 0
        for idx in order:
            if m and bool(np.any(np.all(buffer[:m] <= v[idx], axis=1))):
                continue
            buffer[m] = v[idx]
            kept.append(int(idx))
            m += 1
    return np.array(sorted(kept), dtype=int)


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


@dataclass
class ArchiveEntry:
    policy: tuple[float, ...]
    value: tuple[float, ...]
    mesh: float
    polls: int = 0
    seq: int = 0


class ParetoArchive:
    """Mutually nondominated set of (policy, objective vector) pairs."""

    def __init__(self):
        self.entries: list[ArchiveEntry] = []
        self._next_seq = 0
        self._values: np.ndarray | None = None  # cache aligned with entries

    def __len__(self) -> int:
        return len(self.entries)

    def insert(self, policy, value, mesh: float) -> bool:
        """Add a point unless an existing one weakly dominates it.

        Dominated incumbents are dropped; an exactly equal objective vector
        keeps the first-seen policy.
        """
        v = np.asarray(value, dtype=float)
        if self.entries:
            vals = self._values
            weakly_dominated = np.all(vals <= v, axis=1)
            if bool(np.any(weakly_dominated)):
                return False
            beaten = np.all(v <= vals, axis=1) & np.any(v < vals, axis=1)
            if bool(np.any(beaten)):
                keep = ~beaten
                self.entries = [e for e, k in zip(self.entries, keep) if k]
                vals = vals[keep]
            self._values = np.vstack([vals, v])
        else:
            self._values = v.reshape(1, -1)
        self.entries.append(
            ArchiveEntry(
                policy=tuple(np.asarray(policy, dtype=float)),
                value=tuple(v),
                mesh=mesh,
                seq=self._next_seq,
            )
        )
        self._next_seq += 1
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
    """The centre, min(2**d, 2d) box corners and seeded-random interior
    points, 4d + 2 in all before duplicates are dropped."""
    d = len(lower)
    seeds = [tuple((lower + upper) / 2.0)]
    n_corners = min(2**d, 2 * d)
    if 2**d <= 4096:
        corner_ids = rng.choice(2**d, size=n_corners, replace=False)
        bit_rows = [[(c >> b) & 1 for b in range(d)] for c in corner_ids]
    else:
        bit_rows = rng.integers(0, 2, size=(n_corners, d)).tolist()
    for bits in bit_rows:
        seeds.append(tuple(np.where(np.array(bits) == 1, upper, lower)))
    while len(seeds) < 4 * d + 2:
        seeds.append(tuple(lower + rng.random(d) * (upper - lower)))
    unique = []
    for s in seeds:
        if s not in unique:
            unique.append(s)
    return unique


def pareto_search(lower, upper, *, budget: int, seed: int, map_fn) -> tuple[ParetoArchive, dict]:
    """Explore the Pareto front over the box [lower, upper] in ``budget``
    evaluations from starting points drawn with ``seed``.

    ``map_fn(policies)``, the one hook, gets each whole batch (the seed
    points, then every iteration's poll candidates) as a list of policy
    arrays and returns their objective vectors in order.  It is keyword-only
    and named ``map_fn`` because a tracer timing the search passes its own
    ``map_fn=`` to a call that has none.  Members whose polls all fail
    contract their mesh, successful ones expand it; the search stops on the
    budget or when every member's mesh is below the minimum.

    Each iteration polls its active members in order of (polls, -crowding,
    seq): the least polled first, then the most isolated by ``_crowding``
    of the archive's values at the iteration's start (the front's extremes
    first), then the oldest.  So when the budget cuts a poll short, the
    policies it drops are those of the most crowded members.
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
        crowding = dict(zip(map(id, archive.entries), _crowding(archive._values)))
        batch = sorted(active, key=lambda e: (e.polls, -crowding[id(e)], e.seq))

        candidates: list[tuple[tuple[float, ...], ArchiveEntry]] = []
        seen = set()
        polled: dict[int, ArchiveEntry] = {}
        for entry in batch:
            base = np.array(entry.policy)
            fresh = 0
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
                    fresh += 1
            if fresh == 0:
                # everything already known: a completed (failed) poll
                polled[id(entry)] = entry
        dropped = candidates[budget - len(evaluated) :]
        candidates = candidates[: budget - len(evaluated)]
        cut = {id(e) for _, e in dropped}
        polled.update(
            {id(e): e for _, e in candidates if id(e) not in cut}
        )

        succeeded: set[int] = set()
        if candidates:
            values = run_batch([c for c, _ in candidates])
            # candidates are distinct policies, so the sort never compares parents;
            # children ride the expanded mesh of their parent so successful
            # directions keep stretching toward the box faces
            for (key, parent), value in sorted(zip(candidates, values)):
                if archive.insert(key, value, min(parent.mesh * _EXPANSION, _MESH_CAP)):
                    succeeded.add(id(parent))

        for entry_id, entry in polled.items():
            entry.polls += 1
            if entry_id in succeeded:
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
