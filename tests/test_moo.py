import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tramopt.moo import (
    ParetoArchive,
    _crowding,
    hypervolume_2d,
    nondominated_filter,
    normalize_front,
    pareto_search,
)
from tramopt.objectives import ObjectiveBreakdown


def brute_force_front(values: np.ndarray) -> set[tuple[float, ...]]:
    """All-pairs oracle: keep points no other point weakly improves on."""
    uniq = np.unique(values, axis=0)
    kept = []
    for i, a in enumerate(uniq):
        dominated = False
        for j, b in enumerate(uniq):
            if i != j and np.all(b <= a) and np.any(b < a):
                dominated = True
                break
        if not dominated:
            kept.append(tuple(a))
    return set(kept)


def _policies(archive) -> np.ndarray:
    return np.array([e.policy for e in archive.entries])


def _values(archive) -> np.ndarray:
    return np.array([e.value for e in archive.entries])


class TestNondominatedFilter:
    def test_simple_example(self):
        values = np.array([[1, 2], [2, 1], [2, 2]])
        kept = nondominated_filter(values)
        assert {tuple(values[i]) for i in kept} == {(1, 2), (2, 1)}

    def test_singleton(self):
        assert list(nondominated_filter([[3.0, 4.0]])) == [0]

    def test_duplicates_collapse(self):
        values = np.array([[1, 2], [1, 2], [0, 5]])
        kept = nondominated_filter(values)
        assert len(kept) == 2
        assert {tuple(values[i]) for i in kept} == {(1, 2), (0, 5)}

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
            after = hypervolume_2d(_values(arch), (1.1, 1.1))
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
        values = _values(arch)
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
        assert np.array_equal(_values(runs[0]), _values(runs[1]))

    def test_seed_corners_drawn_coordinatewise_past_twelve_dimensions(self):
        # 2**13 corners are too many to choose among, so past d = 12 each
        # seed corner is drawn one coordinate at a time
        lower, upper = np.full(13, 0.25), np.full(13, 2.0)

        def first_batch(seed):
            batches = []

            def record(policies):
                batches.append([tuple(p) for p in policies])
                return [np.array([p[0], -p[0]]) for p in policies]

            pareto_search(lower, upper, budget=60, seed=seed, map_fn=record)
            return batches[0]

        batch = first_batch(7)
        assert len(batch) == 4 * 13 + 2 == len(set(batch))
        assert batch[0] == tuple((lower + upper) / 2.0)
        assert all(np.all((lower <= p) & (p <= upper)) for p in batch)
        assert sum(set(p) <= {0.25, 2.0} for p in batch) == 2 * 13
        assert first_batch(7) == batch

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
