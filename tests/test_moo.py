import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import brute_force_front

from tramopt.moo import (
    ParetoArchive,
    _crowding,
    hypervolume_2d,
    nondominated_filter,
    normalize_front,
    pareto_search,
)
from tramopt.objectives import ObjectiveBreakdown


def _policies(archive) -> np.ndarray:
    return np.array([e.policy for e in archive.entries])


class TestNondominatedFilter:
    def test_simple_example(self):
        values = np.array([[1, 2], [2, 1], [2, 2]])
        kept = nondominated_filter(values)
        assert {tuple(values[i]) for i in kept} == {(1, 2), (2, 1)}

    def test_singleton(self):
        assert list(nondominated_filter([[3.0, 4.0]])) == [0]

    def test_duplicates_collapse(self):
        # equal vectors keep the first, by index, in 2-D and 3-D
        for values, first in (
            ([[1, 2], [1, 2], [0, 5]], [0, 2]),
            ([[2, 2, 2], [1, 1, 1], [1, 1, 1]], [1]),
        ):
            assert nondominated_filter(values).tolist() == first

    def test_empty(self):
        assert len(nondominated_filter([])) == 0

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="n_points, n_objectives"):
            nondominated_filter([1.0, 2.0])

    @given(
        values=arrays(
            float,
            st.tuples(st.integers(1, 60), st.integers(2, 3)),
            elements=st.floats(0, 1, width=16),
        )
    )
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, values):
        kept = nondominated_filter(values)
        assert {tuple(values[i]) for i in kept} == brute_force_front(values)


class TestHypervolume:
    def test_no_points_no_area(self):
        assert hypervolume_2d([], (3, 3)) == 0.0

    def test_hand_computed_union_of_rectangles(self):
        assert hypervolume_2d([(1, 2), (2, 1)], (3, 3)) == pytest.approx(3.0)

    def test_points_beyond_reference_ignored(self):
        assert hypervolume_2d([(4, 4)], (3, 3)) == 0.0
        # on the reference in one coordinate: not below it, so no area
        assert hypervolume_2d([(3, 1), (1, 3)], (3, 3)) == 0.0
        # (5, 0.5) exceeds the reference in one coordinate: no dominated area
        assert hypervolume_2d([(1, 1), (5, 0.5)], (3, 3)) == pytest.approx(4.0)

    def test_dominated_points_do_not_change_volume(self):
        base = hypervolume_2d([(1, 2), (2, 1)], (3, 3))
        with_dup = hypervolume_2d([(1, 2), (2, 1), (2.5, 2.5)], (3, 3))
        assert with_dup == pytest.approx(base)


class TestArchive:
    def test_insert_keeps_mutual_nondominance(self):
        archive = ParetoArchive()
        assert archive.insert((0.1,), (1.0, 2.0), mesh=0.25)
        assert archive.insert((0.2,), (2.0, 1.0), mesh=0.25)
        assert not archive.insert((0.3,), (2.0, 2.0), mesh=0.25)
        assert archive.insert((0.4,), (0.5, 0.5), mesh=0.25)
        assert len(archive) == 1

    def test_equal_vector_keeps_first_policy(self):
        archive = ParetoArchive()
        archive.insert((0.1,), (1.0, 1.0), mesh=0.25)
        assert not archive.insert((0.9,), (1.0, 1.0), mesh=0.25)
        assert archive.entries[0].policy == (0.1,)

    def test_hypervolume_never_falls_across_inserts(self):
        # the search changes its archive only through insert, so this covers
        # its hypervolume over iterations; half the points lie on a 0.1 grid,
        # so equal and weakly dominated vectors occur
        rng = np.random.default_rng(11)
        points = rng.random((400, 2)) * 1.2
        points[::2] = np.round(points[::2], 1)
        arch = ParetoArchive()
        hv = 0.0
        accepted = 0
        for k, value in enumerate(points):
            accepted += arch.insert((float(k),), value, 0.25)
            after = hypervolume_2d(arch.values, (1.1, 1.1))
            assert after >= hv - 1e-12
            hv = after
        assert hv > 0.0 and 0 < accepted < len(points)


# J values on a 0.5 grid half the time, so equal and weakly dominated
# vectors occur
_parts = st.one_of(st.floats(0.0, 10.0), st.integers(0, 20).map(lambda k: k / 2.0))


@given(
    parts=st.lists(st.tuples(_parts, _parts, _parts), min_size=1, max_size=30),
    delta=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
)
def test_delta_front_lies_inside_the_three_objective_front(parts, delta):
    # a point dominated in (-J_flow, J_diff, J_queue) is weakly dominated in
    # (-J_flow, J_diff + delta J_queue) for delta >= 0, so every vector of
    # the 2d nondominated subset is the projection of a member that the 3d
    # archive keeps; up to equal vectors, since each side keeps the first
    # of equal vectors and two 3d vectors can share a projection
    scored = [ObjectiveBreakdown(f, d, q, delta) for f, d, q in parts]
    archive = ParetoArchive()
    for k, b in enumerate(scored):
        archive.insert((float(k),), (-b.j_flow, b.j_diff, b.j_queue), 0.25)
    flat = np.array([(-b.j_flow, b.j_poll) for b in scored])
    kept = {(-b.j_flow, b.j_poll) for b in (scored[int(e.policy[0])] for e in archive.entries)}
    assert {tuple(v) for v in flat[nondominated_filter(flat)]} <= kept


class TestCrowding:
    def test_two_objectives_by_hand(self):
        # both ranges are 4: (1, 2) gets 3/4 + 3/4 and (3, 1) 3/4 + 2/4
        values = [(0.0, 4.0), (1.0, 2.0), (3.0, 1.0), (4.0, 0.0)]
        assert _crowding(values).tolist() == [np.inf, 1.5, 1.25, np.inf]

    def test_three_objectives_with_ties_and_a_zero_range_axis(self):
        # axis 0 (range 2) ties 0, 0 and 2, 2, taken in the given order, so
        # the first of the low pair and the second of the high pair are its
        # extremes; axis 1 (range 4) has no ties; axis 2 adds nothing
        values = [(0, 1, 7), (0, 3, 7), (1, 0, 7), (2, 2, 7), (2, 4, 7)]
        # axis 0: inf, 1/2, 2/2, 1/2, inf; axis 1: 2/4, 2/4, inf, 2/4, inf
        assert _crowding(values).tolist() == [np.inf, 1.0, np.inf, 1.0, np.inf]

    @pytest.mark.parametrize("values", [[(0.0, 1.0), (1.0, 0.0)], [(0.0, 1.0, 5.0), (1.0, 0.0, 5.0)]])
    def test_two_points_are_both_extremes(self, values):
        assert _crowding(values).tolist() == [np.inf, np.inf]

    def test_no_range_on_any_axis_adds_nothing(self):
        assert _crowding([(1.0, 2.0)]).tolist() == [0.0]
        assert _crowding([(1.0, 2.0, 3.0)] * 3).tolist() == [0.0, 0.0, 0.0]


def _two_parabolas(x):
    return np.array([x[0] ** 2, (x[0] - 1.0) ** 2])


def _batched(f):
    """The search's batch hook for a function of one policy."""
    return lambda policies: [f(x) for x in policies]


def _seed_batch(lower, upper, seed) -> list[tuple[float, ...]]:
    """The first batch a search over [lower, upper] scores: its seed points."""
    batches = []

    def record(policies):
        batches.append([tuple(p) for p in policies])
        return [np.array([p[0], -p[0]]) for p in policies]

    pareto_search(lower, upper, budget=4 * len(lower) + 2, seed=seed, map_fn=record)
    return batches[0]


class TestParetoSearch:
    def test_sweeps_the_whole_interval(self):
        arch, diag = pareto_search(
            [0.0], [1.0], budget=500, seed=0, map_fn=_batched(_two_parabolas)
        )
        xs = np.sort(_policies(arch)[:, 0])
        assert xs[0] <= 1e-9 and xs[-1] >= 1.0 - 1e-9
        assert np.max(np.diff(xs)) < 0.1
        assert diag["evaluations"] <= 500

    def test_aligned_objectives_collapse_to_optimum(self):
        arch, _ = pareto_search(
            [0.0], [1.0], budget=200, seed=1, map_fn=_batched(lambda x: np.array([x[0], x[0]]))
        )
        assert len(arch) == 1
        assert _policies(arch)[0, 0] == pytest.approx(0.0, abs=2e-3)

    def test_feasible_ideal_point_reached(self):
        arch, diag = pareto_search(
            [0.0, 0.0], [1.0, 1.0], budget=400, seed=3, map_fn=_batched(lambda x: x.copy())
        )
        best = _policies(arch)
        assert np.max(np.abs(best)) < 2.0 * max(diag["max_step"], 1e-3)

    def test_archive_mutually_nondominated(self):
        arch, _ = pareto_search(
            [0.0], [1.0], budget=300, seed=5, map_fn=_batched(_two_parabolas)
        )
        values = arch.values
        assert len(nondominated_filter(values)) == len(values)

    def test_policies_respect_box_exactly(self):
        arch, _ = pareto_search(
            [0.25], [2.0], budget=200, seed=2, map_fn=_batched(_two_parabolas)
        )
        pols = _policies(arch)
        assert np.all(pols >= 0.25) and np.all(pols <= 2.0)

    def test_deterministic_for_fixed_seed(self):
        runs = [
            pareto_search([0.0], [1.0], budget=300, seed=9, map_fn=_batched(_two_parabolas))[0]
            for _ in range(2)
        ]
        assert np.array_equal(_policies(runs[0]), _policies(runs[1]))
        assert np.array_equal(runs[0].values, runs[1].values)

    def test_seed_corners_drawn_coordinatewise_past_twelve_dimensions(self):
        # 2**13 corners are too many to choose among, so past d = 12 each
        # seed corner is drawn one coordinate at a time
        lower, upper = np.full(13, 0.25), np.full(13, 2.0)
        batch = _seed_batch(lower, upper, 7)
        assert len(batch) == 4 * 13 + 2 == len(set(batch))
        assert batch[0] == tuple((lower + upper) / 2.0)
        assert all(np.all((lower <= p) & (p <= upper)) for p in batch)
        # the 26 drawn corners and the two extreme ones
        assert sum(set(p) <= {0.25, 2.0} for p in batch) == 2 * 13 + 2
        assert _seed_batch(lower, upper, 7) == batch

    @pytest.mark.parametrize("d", [1, 6, 13, 21])
    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    def test_seed_batch_holds_both_extreme_corners_once(self, d, seed):
        lower, upper = np.linspace(0.25, 0.5, d), np.linspace(1.0, 2.0, d)
        batch = _seed_batch(lower, upper, seed)
        assert batch[:3] == [tuple((lower + upper) / 2.0), tuple(lower), tuple(upper)]
        assert len(batch) == 4 * d + 2 == len(set(batch))
        assert all(np.all((lower <= p) & (p <= upper)) for p in batch)
        # a drawn corner that is an extreme one is not scored twice
        assert [p in {tuple(lower), tuple(upper)} for p in batch].count(True) == 2

    @pytest.mark.parametrize("d", [1, 6, 13, 21])
    @pytest.mark.parametrize("fixed", ["some", "all"])
    def test_seed_batch_dedupes_on_a_box_with_fixed_limits(self, d, fixed):
        lower = np.full(d, 0.5)
        upper = lower.copy() if fixed == "all" else np.where(np.arange(d) % 2 == 0, 1.5, 0.5)
        for seed in (0, 3):
            batch = _seed_batch(lower, upper, seed)
            assert len(batch) == len(set(batch))
            assert all(np.all((lower <= p) & (p <= upper)) for p in batch)
            assert batch[0] == tuple((lower + upper) / 2.0)
            if fixed == "all":
                assert batch == [tuple(lower)]
                continue
            assert batch[1:3] == [tuple(lower), tuple(upper)]
            # every fixed limit stays put; the drawn corners collapse onto the
            # corners of the free sub-box and come before the interior points,
            # whose fill still counts the seeds to 4d + 2
            free = upper > lower
            assert all(np.all(np.asarray(p)[~free] == 0.5) for p in batch)
            is_corner = [set(np.asarray(p)[free]) <= {0.5, 1.5} for p in batch]
            n_corners = sum(is_corner)
            assert is_corner == [False] + [True] * n_corners + [False] * (len(batch) - 1 - n_corners)
            assert n_corners <= 2 ** int(free.sum())
            assert len(batch) - 1 - n_corners >= 4 * d + 2 - 3 - min(2**d, 2 * d)

    def test_search_scores_the_corner_that_alone_minimizes_an_objective(self):
        # on 21 roads the first objective is the negated sum of the limits,
        # least at the all-upper corner and nowhere else, and the second the
        # sum plus the limits' spread: the all-upper corner is the front's
        # end on axis 0, which the search misses if it never scores it
        lower, upper = np.full(21, 0.25), np.full(21, 2.0)
        arch, _ = pareto_search(
            lower, upper, budget=120, seed=7,
            map_fn=_batched(lambda x: np.array([-x.sum(), x.sum() + float(np.ptp(x))])),
        )
        assert tuple(upper) in {e.policy for e in arch.entries}

    def test_a_poll_cut_by_the_budget_goes_to_the_extremes_and_the_widest_gap_first(self):
        # the six seed points on [0, 1] get the vectors (a, -a) with a set
        # by their rank in x, so the archive (every seed, seq by x) has its
        # extremes at ranks 4 and 5, its widest gap at rank 3 (a = 5,
        # between 4 and 9) and the oldest members, ranks 0 and 1, crowded;
        # the poll after the seeds has room for the four policies of ranks
        # 3 to 5, which polled by age would come last
        spread = [2.0, 3.0, 4.0, 5.0, 0.0, 9.0]
        batches = []

        def record(policies):
            xs = [float(p[0]) for p in policies]
            batches.append(xs)
            if len(batches) == 1:
                return [np.array([a, -a]) for a in (spread[sorted(xs).index(x)] for x in xs)]
            return [np.array([100.0, 100.0]) for _ in xs]

        pareto_search([0.0], [1.0], budget=6 + 4, seed=0, map_fn=record)
        seeds, (poll,) = sorted(batches[0]), batches[1:]
        assert len(seeds) == 6 and len(poll) == 4
        # a member polls x +/- 0.25 (mesh 0.25 of a unit box), clipped to it
        step = {x: {min(max(x + s, 0.0), 1.0) for s in (0.25, -0.25)} - set(seeds) for x in seeds}
        assert set(poll) == step[seeds[3]] | step[seeds[4]] | step[seeds[5]]

    @pytest.mark.parametrize("budget", [6 + 3, 6 + 4])
    def test_only_a_member_whose_poll_is_whole_counts_as_polled(self, budget):
        # the seeds and the poll order of the test above: ranks 4 and 5 (the
        # extremes), then 3, 0, 1 and 2 (by crowding, then age), so the poll
        # after the seeds makes the candidates 4+, 4-, 3+, 3-, 1+ and 2+;
        # 0+ and 5- are 4's, and 0-, 1-, 2- and 5+ are clipped onto the box's
        # ends, which are seeds.  Only 3+ (rank 3 plus a mesh of 0.25) enters
        # the archive.  A budget of 9 drops 3-, 1+ and 2+, one of 10 only
        # 1+ and 2+
        spread = [2.0, 3.0, 4.0, 5.0, 0.0, 9.0]
        seeds = []

        def record(policies):
            xs = [float(p[0]) for p in policies]
            if not seeds:
                seeds.extend(sorted(xs))
                return [np.array([a, -a]) for a in (spread[seeds.index(x)] for x in xs)]
            return [np.array([6.0, -6.0]) if x == seeds[3] + 0.25 else np.array([100.0, 100.0]) for x in xs]

        arch, _ = pareto_search([0.0], [1.0], budget=budget, seed=0, map_fn=record)
        state = {e.policy[0]: (e.polls, e.mesh) for e in arch.entries}
        whole = budget == 10
        assert state == {
            # 5 and 0 had no new candidate, 4's were scored and failed: halved
            seeds[4]: (1, 0.125), seeds[5]: (1, 0.125), seeds[0]: (1, 0.125),
            # 3 succeeded, but counts only if the budget left it 3- as well
            seeds[3]: (1, 0.5) if whole else (0, 0.25),
            # 1 and 2 lost their one candidate to the budget: unchanged
            seeds[1]: (0, 0.25), seeds[2]: (0, 0.25),
            # a child starts unpolled on its parent's doubled mesh
            seeds[3] + 0.25: (0, 0.5),
        }

    def test_a_poll_halves_the_mesh_or_doubles_it_up_to_the_whole_box(self):
        # every new value of s = x0 + sqrt(2) x1 lies on the front of (s, -s),
        # so a poll that scores a candidate succeeds.  A budget that ends with
        # an iteration shows the archive after it: between two such budgets a
        # member polls once with its mesh halved or doubled, capped at the
        # whole width 1.0, or is left as it was
        def line(policies):
            return [np.array([s, -s]) for s in (p[0] + np.sqrt(2.0) * p[1] for p in policies)]

        sizes = []
        pareto_search([0.0, 0.0], [1.0, 1.0], budget=400, seed=0,
                      map_fn=lambda policies: sizes.append(len(policies)) or line(policies))
        states = []
        for n in np.cumsum(sizes)[:6]:
            arch, _ = pareto_search([0.0, 0.0], [1.0, 1.0], budget=int(n), seed=0, map_fn=line)
            states.append({e.policy: (e.polls, e.mesh) for e in arch.entries})
        steps = set()
        for before, after in zip(states, states[1:]):
            for policy in before.keys() & after.keys():
                (polls, mesh), (polls_next, mesh_next) = before[policy], after[policy]
                assert (polls_next, mesh_next) in {
                    (polls, mesh), (polls + 1, mesh / 2), (polls + 1, min(mesh * 2, 1.0))
                }
                steps.add((mesh, mesh_next))
        assert {(0.25, 0.5), (0.5, 1.0), (1.0, 1.0), (1.0, 0.5), (0.5, 0.25)} <= steps

    def test_members_tied_on_polls_and_crowding_are_polled_in_archive_order(self):
        # six seeds on [0, 1], mutually nondominated in three objectives;
        # ranks 1 to 5 in x hold an end of some axis (crowding inf) and rank
        # 0 does not.  The archive holds them in the order they were
        # inserted, by x, so the extremes poll by x and rank 0 last
        vectors = [(3, 3, 3), (0, 5, 4), (6, 0, 4), (4, 4, 0), (5, 1, 6), (7, 2, 1)]
        batches = []

        def record(policies):
            xs = [float(p[0]) for p in policies]
            batches.append(xs)
            if len(batches) == 1:
                return [np.array(vectors[sorted(xs).index(x)], dtype=float) for x in xs]
            return [np.array([100.0] * 3) for _ in xs]

        pareto_search([0.0], [1.0], budget=6 + 6, seed=0, map_fn=record)
        seeds = sorted(batches[0])
        assert np.isinf(_crowding(vectors)).tolist() == [False] + [True] * 5
        # a member polls x +/- 0.25 clipped to the box, new policies only
        expected = []
        for x in seeds[1:] + seeds[:1]:
            for c in (min(x + 0.25, 1.0), max(x - 0.25, 0.0)):
                if c not in seeds and c not in expected:
                    expected.append(c)
        assert batches[1] == expected

    def test_budget_zero_rejected(self):
        with pytest.raises(ValueError):
            pareto_search([0.0], [1.0], budget=0, seed=0, map_fn=_batched(_two_parabolas))

    def test_malformed_box_rejected(self):
        with pytest.raises(ValueError):
            pareto_search([1.0], [0.0], budget=10, seed=0, map_fn=_batched(_two_parabolas))


class TestNormalizeFront:
    def test_flow_and_pollution_axes(self):
        # minimization values (-J_flow, J_poll); ideal = (-max flow, min poll)
        values = np.array([[-10.0, 0.16], [-3.7, 0.10]])
        ideal = np.array([-10.0, 0.10])
        norm = normalize_front(values, ideal)
        assert norm[0] == pytest.approx([1.0, 1.6])
        assert norm[1] == pytest.approx([0.37, 1.0])

    def test_own_minimum_maps_to_one(self):
        values = np.array([[-5.0, 0.3], [-2.0, 0.2]])
        norm = normalize_front(values, values.min(axis=0))
        assert norm[:, 1].min() == pytest.approx(1.0)

    def test_skip_axes_passthrough(self):
        values = np.array([[-5.0, 0.3, 0.0], [-2.0, 0.2, 4.0]])
        norm = normalize_front(values, np.array([-5.0, 0.2, 0.0]), skip_axes=(2,))
        assert np.array_equal(norm[:, 2], values[:, 2])

    def test_zero_ideal_on_divided_axis_rejected(self):
        with pytest.raises(ValueError):
            normalize_front(np.array([[1.0, 0.0]]), np.array([1.0, 0.0]))
