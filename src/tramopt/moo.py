"""Derivative-free multi-objective search over a box of speed limits.

Everything uses the minimization convention (the flow objective enters
negated).  The search is a multi-directional pattern search on a set of
points: an archive of mutually nondominated solutions whose members are
polled along +/- coordinate directions with per-member adaptive mesh sizes.
Runs are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def dominates(a, b) -> bool:
    """Pareto dominance: a is at least as good everywhere and better somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective dimension mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


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

    def policies(self) -> np.ndarray:
        return np.array([e.policy for e in self.entries])

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])


@dataclass
class SearchOptions:
    """Tuning knobs of the pattern search.

    ``initial_mesh``, ``expansion``, ``contraction`` and ``mesh_cap`` scale
    the per-member poll step as a fraction of each coordinate's box width;
    ``min_mesh`` is an absolute step size below which a member stops being
    polled.  ``n_initial`` defaults to 4*dim + 2 seed points (center, a
    sample of box corners, seeded-random interior points).  By default every
    active archive member is polled each iteration; ``poll_batch`` caps the
    number of members polled per iteration (least recently polled first).
    """

    max_evaluations: int = 1000
    initial_mesh: float = 0.25
    expansion: float = 2.0
    contraction: float = 0.5
    min_mesh: float = 1e-3
    mesh_cap: float = 1.0
    seed: int = 0
    n_initial: int | None = None
    poll_batch: int | None = None
    track_history: bool = False

    def __post_init__(self):
        if self.max_evaluations <= 0:
            raise ValueError("evaluation budget must be positive")
        if self.expansion <= 1.0 or not (0.0 < self.contraction < 1.0):
            raise ValueError("need expansion > 1 and contraction in (0, 1)")
        if self.initial_mesh <= 0.0 or self.min_mesh <= 0.0:
            raise ValueError("mesh sizes must be positive")
        if self.poll_batch is not None and self.poll_batch <= 0:
            raise ValueError("poll batch must be positive when set")


def _seed_points(lower, upper, n_points, rng) -> list[tuple[float, ...]]:
    d = len(lower)
    seeds = [tuple((lower + upper) / 2.0)]
    n_corners = min(2**d if d < 30 else n_points, max(0, (n_points - 1) // 2))
    if 2**d <= 4096:
        corner_ids = rng.choice(2**d, size=min(n_corners, 2**d), replace=False)
        bit_rows = [[(c >> b) & 1 for b in range(d)] for c in corner_ids]
    else:
        bit_rows = rng.integers(0, 2, size=(n_corners, d)).tolist()
    for bits in bit_rows:
        seeds.append(tuple(np.where(np.array(bits) == 1, upper, lower)))
    while len(seeds) < n_points:
        seeds.append(tuple(lower + rng.random(d) * (upper - lower)))
    unique = []
    for s in seeds:
        if s not in unique:
            unique.append(s)
    return unique


def pareto_search(
    evaluate, lower, upper, options: SearchOptions, map_fn=None
) -> tuple[ParetoArchive, dict]:
    """Explore the Pareto front of ``evaluate`` over the box [lower, upper].

    ``evaluate`` maps a policy array to an objective vector and must be a
    pure function.  ``map_fn(evaluate, policies)`` is the batch hook: it
    receives each whole batch (the seed points, then every iteration's poll
    candidates) as a list of policy arrays and returns their objective
    vectors in order.  The default maps ``evaluate`` over the batch; a
    batch scorer may ignore ``evaluate`` and score the list in one pass.
    Members whose polls all fail contract their mesh, successful ones
    expand it; the search stops on the evaluation budget or when every
    member's mesh is below the minimum.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if lower.shape != upper.shape or np.any(upper < lower):
        raise ValueError("empty or malformed search box")
    if map_fn is None:
        map_fn = map
    d = lower.size
    ranges = upper - lower
    rng = np.random.default_rng(options.seed)

    archive = ParetoArchive()
    cache: dict[tuple[float, ...], tuple[float, ...]] = {}
    evaluations = 0
    budget = options.max_evaluations

    def run_batch(policies: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
        nonlocal evaluations
        results = list(map_fn(evaluate, [np.array(p) for p in policies]))
        evaluations += len(policies)
        out = []
        for p, r in zip(policies, results):
            r = tuple(np.asarray(r, dtype=float))
            cache[p] = r
            out.append(r)
        return out

    n_initial = options.n_initial if options.n_initial is not None else 4 * d + 2
    seeds = _seed_points(lower, upper, n_initial, rng)[:budget]
    results = run_batch(seeds)
    for p, v in sorted(zip(seeds, results)):
        archive.insert(p, v, options.initial_mesh)

    history: list[np.ndarray] = []
    iterations = 0
    while evaluations < budget:
        active = [
            e
            for e in archive.entries
            if e.mesh * float(np.max(ranges)) >= options.min_mesh
        ]
        if not active:
            break
        iterations += 1
        batch = sorted(active, key=lambda e: (e.polls, e.seq))
        if options.poll_batch is not None:
            batch = batch[: options.poll_batch]

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
                    if key == entry.policy or key in cache or key in seen:
                        continue
                    seen.add(key)
                    candidates.append((key, entry))
                    fresh += 1
            if fresh == 0:
                # everything already known: a completed (failed) poll
                polled[id(entry)] = entry
        dropped = candidates[budget - evaluations :]
        candidates = candidates[: budget - evaluations]
        cut = {id(e) for _, e in dropped}
        polled.update(
            {id(e): e for _, e in candidates if id(e) not in cut}
        )

        succeeded: set[int] = set()
        child_mesh: dict[tuple[float, ...], float] = {}
        if candidates:
            values = run_batch([c for c, _ in candidates])
            by_key = dict(zip([c for c, _ in candidates], values))
            parent_of = {c: e for c, e in candidates}
            for key in sorted(by_key):
                parent = parent_of[key]
                if archive.insert(key, by_key[key], parent.mesh):
                    succeeded.add(id(parent))
                    child_mesh[key] = min(
                        parent.mesh * options.expansion, options.mesh_cap
                    )

        still_there = {id(e) for e in archive.entries}
        for entry_id, entry in polled.items():
            if entry_id not in still_there:
                continue
            entry.polls += 1
            if entry_id in succeeded:
                entry.mesh = min(entry.mesh * options.expansion, options.mesh_cap)
            else:
                entry.mesh *= options.contraction
        # children ride the expanded mesh of their parent so successful
        # directions keep stretching toward the box faces
        for entry in archive.entries:
            mesh = child_mesh.get(entry.policy)
            if mesh is not None:
                entry.mesh = mesh
        if options.track_history:
            history.append(archive.values())

    diagnostics = {
        "evaluations": evaluations,
        "iterations": iterations,
        "archive_size": len(archive),
        "max_step": max(
            (e.mesh * float(np.max(ranges)) for e in archive.entries), default=0.0
        ),
    }
    if options.track_history:
        diagnostics["history"] = history
    return archive, diagnostics


def ideal_point(evaluate, lower, upper, options: SearchOptions, n_objectives: int) -> np.ndarray:
    """Componentwise best objective values via single-objective searches."""
    ideal = np.empty(n_objectives)
    for j in range(n_objectives):

        def single(policy, _j=j):
            return np.asarray(evaluate(policy), dtype=float)[[_j]]

        archive, _ = pareto_search(single, lower, upper, options)
        ideal[j] = min(e.value[0] for e in archive.entries)
    return ideal


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
