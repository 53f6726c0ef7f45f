import contextlib
import dataclasses
import importlib.util
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from oracles import adjoint_history, closed_form_flux, j_diff_adjoint, j_diff_forward, solve_dispersion_forward
from scenarios import TWO_ACCESS_POLICIES, diamond_doc, road, scenario_doc

from tramopt import objectives, traffic
from tramopt.cli import search_front
from tramopt.emission import emission_field, rasterize_network
from tramopt.network import load_scenario
from tramopt.objectives import (
    AdjointContractor,
    ObjectiveBreakdown,
    ObjectiveTally,
    PolicyEvaluator,
    contract_adjoint,
)
from tramopt.traffic import TrafficTrajectory, _substep_counts, simulate_batch, simulate_traffic


def _single_road(T=5.0, n_cells=20, n_time=400, rho0=0.5, inflow=0.0, y=1.5, vertical=False):
    """One road from (1, y) to (2, y), or with x and y swapped if ``vertical``."""
    start, end = ([y, 1.0], [y, 2.0]) if vertical else ([1.0, y], [2.0, y])
    doc = scenario_doc([road(1, start, end, rho0=rho0)], horizon=T, n_grid=30, n_cells=n_cells, n_time=n_time,
                       access=[{"road": 1, "inflow": inflow}], exits=[1])
    return load_scenario(json.dumps(doc))


def _contracted(scenario, history):
    """The contraction of a given adjoint history, level by level as the
    march hands the levels on."""
    contractor = AdjointContractor(scenario)
    for k, level in enumerate(history):
        contractor(k, level)
    return contractor.contraction()


def _frozen_trajectory(scenario, rho):
    """Trajectory pinned at a constant density, with the flow Q's closed form
    gives it at speed limit 1 on every road (oracle for the quadratures)."""
    shape = (scenario.n_time + 1, scenario.n_roads, scenario.n_cells)
    rho_max = np.array([[r.rho_max] for r in scenario.roads])
    densities = np.full(shape, rho)
    return TrafficTrajectory(
        times=np.arange(scenario.n_time + 1) * scenario.dt,
        densities=densities,
        flow=closed_form_flux(densities, 1.0, rho_max),
        queues=np.zeros((scenario.n_time + 1, len(scenario.access))),
        access_roads=tuple(a.road for a in scenario.access),
        inflow=np.zeros((scenario.n_time, scenario.n_roads)),
        outflow=np.zeros((scenario.n_time, scenario.n_roads)),
        external_inflow=np.zeros((scenario.n_time, len(scenario.access))),
    )


def _tallied(scenario, traj):
    """Objectives of a stored trajectory, summed by the kernel's tally."""
    n1 = scenario.n_grid + 1
    tally = ObjectiveTally(
        PolicyEvaluator(scenario, adjoint=_contracted(scenario, np.zeros((scenario.n_time + 1, n1, n1)))), 1
    )
    # the tally reads one set of arrays for the whole march, as the kernel's workspace
    rho, flow, scratch = np.empty((3, 1) + traj.densities.shape[1:])
    queues = np.empty((1, traj.queues.shape[1]))
    with tally(np.array([0]), rho, flow, queues, scratch) as step:
        for k in range(1, scenario.n_time + 1):
            rho[0] = traj.densities[k]
            flow[0] = traj.flow[k]
            queues[0] = traj.queues[k]
            step(k)
    return tally.breakdowns()[0]


def test_tally_of_a_whole_slice_equals_its_groups_bitwise(diamond):
    # the same steps fed as one group of the whole batch, and as groups of
    # batch positions in other orders, one of them not contiguous
    sc = dataclasses.replace(diamond, n_time=40)
    rng = np.random.default_rng(11)
    adjoint = rng.random((sc.n_time + 1, sc.n_grid + 1, sc.n_grid + 1))
    ev = PolicyEvaluator(sc, adjoint=_contracted(sc, adjoint))
    policies = [[2.0, 1, 0.25, 1.5, 0.7, 2], [1.0] * 6, [0.25, 2, 1, 0.5, 2, 1.2]]
    trajs = [simulate_traffic(sc, p) for p in policies]

    def fed(*groups):
        tally = ObjectiveTally(ev, len(policies))
        for at in map(np.array, groups):
            rho = np.empty((len(at),) + trajs[0].densities.shape[1:])
            flow, scratch = np.empty((2,) + rho.shape)
            queues = np.empty((len(at), len(sc.access)))
            with tally(at, rho, flow, queues, scratch) as step:
                for k in range(1, sc.n_time + 1):
                    for i, b in enumerate(at):
                        rho[i] = trajs[b].densities[k]
                        flow[i] = trajs[b].flow[k]
                        queues[i] = trajs[b].queues[k]
                    step(k)
        return np.array([[b.j_flow, b.j_diff, b.j_queue] for b in tally.breakdowns()]).tobytes()

    whole = fed((0, 1, 2))
    assert whole == fed((2,), (1,), (0,))
    assert whole == fed((2,), (1, 0))
    assert whole == fed((0, 2), (1,))


class TestJFlow:
    def test_zero_for_empty_network(self):
        s = _single_road(rho0=0.0)
        traj = _frozen_trajectory(s, 0.0)
        assert _tallied(s, traj).j_flow == 0.0

    def test_frozen_half_density_matches_analytic_integral(self):
        # Q(0.5) = 0.25 over unit road and T = 5: exactly 1.25
        s = _single_road(T=5.0)
        traj = _frozen_trajectory(s, 0.5)
        assert _tallied(s, traj).j_flow == pytest.approx(1.25, abs=1e-12)

    def test_jammed_network_has_no_flow(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 1.0)
        assert _tallied(s, traj).j_flow == 0.0


class TestJQueue:
    def test_zero_for_empty_queues(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 0.4)
        assert _tallied(s, traj).j_queue == 0.0

    def test_constant_queue_time_average(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 0.4)
        traj.queues[:] = 2.0
        assert _tallied(s, traj).j_queue == pytest.approx(2.0, abs=1e-12)

    def test_linear_queue_right_rectangle_rule(self):
        s = _single_road(T=5.0, n_time=100)
        traj = _frozen_trajectory(s, 0.4)
        traj.queues[:, 0] = traj.times
        expected = 5.0 / 2.0 * (1.0 + 1.0 / s.n_time)
        assert _tallied(s, traj).j_queue == pytest.approx(expected, abs=1e-12)
        assert _tallied(s, traj).j_queue == pytest.approx(2.5, abs=0.05)


class TestJDiff:
    def test_zero_emission_zero_phi0(self):
        s = _single_road()
        zeros = np.zeros((s.n_time + 1, s.n_grid + 1, s.n_grid + 1))
        adjoint = adjoint_history(s)
        assert j_diff_adjoint(zeros, adjoint, 0.0, s) == 0.0

    def test_phi0_term_is_policy_independent_shift(self):
        s0 = _single_road(inflow=0.25)
        s1 = dataclasses.replace(
            s0, dispersion=dataclasses.replace(s0.dispersion, phi0=0.7)
        )
        adjoint = adjoint_history(s0)
        raster = rasterize_network(s0)
        shifts = []
        for policy in ([0.5], [1.7]):
            traj = simulate_traffic(s0, policy)
            field = np.concatenate(list(emission_field(traj, raster, s0)))
            base = j_diff_adjoint(field, adjoint, 0.0, s0)
            shifted = j_diff_adjoint(field, adjoint, 0.7, s1)
            shifts.append(shifted - base)
        assert shifts[0] == pytest.approx(shifts[1], abs=1e-15)

    def test_forward_functional_of_constant_field_is_exact(self):
        s = _single_road()
        phi = np.full((s.n_time + 1, s.n_grid + 1, s.n_grid + 1), 0.93)
        assert j_diff_forward(phi, s) == pytest.approx(0.93, abs=1e-12)

    def test_forward_functional_of_zero_field(self):
        s = _single_road()
        assert j_diff_forward(np.zeros((s.n_time + 1, 31, 31)), s) == 0.0

    def test_fields_off_the_scenario_grids_rejected(self):
        s = _single_road(n_time=20)
        fits, short = (np.zeros((n, s.n_grid + 1, s.n_grid + 1)) for n in (s.n_time + 1, s.n_time))
        with pytest.raises(ValueError, match="emission/adjoint"):
            j_diff_adjoint(fits, short, 0.0, s)
        with pytest.raises(ValueError, match="emission/adjoint"):
            j_diff_adjoint(short, short, 0.0, s)
        with pytest.raises(ValueError, match="concentration"):
            j_diff_forward(short, s)

    def test_adjoint_matches_forward_on_small_problem(self):
        s = _single_road(T=2.0, n_time=300, inflow=0.25)
        policy = [1.0]
        traj = simulate_traffic(s, policy)
        raster = rasterize_network(s)
        field = np.concatenate(list(emission_field(traj, raster, s)))
        adjoint = adjoint_history(s)
        via_adjoint = j_diff_adjoint(field, adjoint, 0.0, s)
        via_forward = j_diff_forward(solve_dispersion_forward(s, field), s)
        assert via_adjoint == pytest.approx(via_forward, rel=0.05)

    def test_evaluator_matches_dense_pairing(self, diamond):
        policy = [1.2, 0.7, 1.9, 0.4, 1.0, 2.0]
        adjoint = adjoint_history(diamond)
        raster = rasterize_network(diamond)
        ev = PolicyEvaluator(diamond)
        traj = simulate_traffic(diamond, policy)
        field = np.concatenate(list(emission_field(traj, raster, diamond)))
        dense = j_diff_adjoint(field, adjoint, 0.0, diamond)
        assert ev.components(policy).j_diff == pytest.approx(dense, rel=1e-10)


class TestEvaluatePolicy:
    def test_delta_zero_poll_equals_diff(self):
        b = ObjectiveBreakdown(j_flow=1.0, j_diff=0.3, j_queue=2.0, delta=0.0)
        assert b.j_poll == b.j_diff

    def test_zero_queues_make_delta_irrelevant(self):
        b = ObjectiveBreakdown(j_flow=1.0, j_diff=0.3, j_queue=0.0, delta=0.5)
        assert b.j_poll == b.j_diff

    def test_vector_shapes(self):
        b = ObjectiveBreakdown(j_flow=1.0, j_diff=0.3, j_queue=2.0, delta=0.5)
        assert b.vector("2d") == pytest.approx([-1.0, 0.3 + 1.0])
        assert b.vector("3d") == pytest.approx([-1.0, 0.3, 2.0])

    def test_unknown_mode_rejected(self):
        b = ObjectiveBreakdown(j_flow=1.0, j_diff=0.3, j_queue=2.0, delta=0.5)
        with pytest.raises(ValueError, match="unknown objective mode '4d'"):
            b.vector("4d")

    def test_repeat_evaluations_bitwise_identical(self, diamond):
        adjoint = contract_adjoint(diamond)
        policy = [1.0, 0.5, 2.0, 0.25, 1.5, 1.0]
        a = PolicyEvaluator(diamond, adjoint=adjoint).components(policy).vector(diamond.mode)
        b = PolicyEvaluator(diamond, adjoint=adjoint).components(policy).vector(diamond.mode)
        assert np.array_equal(a, b)

    def test_three_objective_mode(self, diamond):
        s = dataclasses.replace(diamond, mode="3d")
        vec = PolicyEvaluator(s).components([1.0] * 6).vector(s.mode)
        assert vec.shape == (3,)
        assert vec[0] < 0.0 and vec[1] > 0.0 and vec[2] >= 0.0

    def test_nonnegative_components_for_feasible_policies(self, diamond):
        ev = PolicyEvaluator(diamond)
        for policy in ([0.25] * 6, [2.0] * 6):
            c = ev.components(policy)
            assert c.j_flow >= 0.0 and c.j_diff >= 0.0 and c.j_queue >= 0.0


class TestBatchEqualsSerial:
    """A batch scores bitwise the same as each of its policies alone."""

    @pytest.fixture()
    def policies(self, diamond):
        lower, upper = (np.array(b) for b in diamond.policy_bounds())
        rng = np.random.default_rng(17)
        corners = [lower, upper] + [np.where(rng.random(6) < 0.5, lower, upper) for _ in range(4)]
        inside = [lower + rng.random(6) * (upper - lower) for _ in range(6)]
        return corners + inside + [np.ones(6), np.array([1.0, 1, 1, 1, 1, 2])]

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_batch_equals_one_by_one(self, diamond, policies, mode):
        # at n_time 100 a speed limit of 2 needs two substeps and <= 1 needs
        # one, so the batch mixes substep counts; that grid breaks the
        # adjoint's CFL bound, so a seeded array stands in for the adjoint
        _assert_batch_equals_one_by_one(dataclasses.replace(diamond, n_time=100), policies, mode)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_two_access_batch_equals_one_by_one(self, two_access, mode):
        # two access queues, one fed by an inflow series, and a batch that
        # marches in two substep groups
        _assert_batch_equals_one_by_one(two_access, TWO_ACCESS_POLICIES, mode)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("n_cells, n_time", [(1, 6), (2, 12)])
    def test_batch_equals_one_by_one_on_short_roads(self, coarse_diamond, policies, n_cells, n_time, mode):
        # n_time mixes one and two substeps again; on one-cell roads the
        # first cell is the last
        _assert_batch_equals_one_by_one(coarse_diamond(n_cells, n_time), policies, mode)

    @pytest.fixture()
    def interleaved(self, diamond, policies):
        """The diamond at n_time 100 and a batch whose two substep groups
        alternate, 2, 1, 2, 1, ...: each policy that needs two substeps
        there, followed by itself capped at 1."""
        sc = dataclasses.replace(diamond, n_time=100)
        two = [p for p, n in zip(policies, _substep_counts(np.array(policies), sc)) if n == 2]
        batch = [q for p in two for q in (p, np.minimum(p, 1.0))]
        assert len(two) >= 8 and _substep_counts(np.array(batch), sc).tolist() == [2, 1] * len(two)
        return sc, batch

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_interleaved_substep_groups_equal_one_by_one(self, interleaved, mode):
        # each group is marched at batch positions that are not contiguous
        _assert_batch_equals_one_by_one(*interleaved, mode)

    @pytest.mark.parametrize("per_slice", [0.5, 1, 3, 5])
    def test_sliced_substep_groups_equal_one_by_one(self, interleaved, monkeypatch, per_slice):
        # a bound of a few policies' bytes splits each interleaved group into
        # several slices; each slice enters the observer once, holds at most
        # the bound and differs from its group's other slices by at most one
        # policy, and the group's slices are its positions in batch order.
        # Below one policy's bytes each slice holds one policy, none is empty
        sc, batch = interleaved
        monkeypatch.setattr(traffic, "SLICE_BYTES", int(per_slice * 8 * sc.n_roads * sc.n_cells))
        per_slice = max(1, int(per_slice))
        adjoint = np.random.default_rng(3).random((sc.n_time + 1, sc.n_grid + 1, sc.n_grid + 1))
        ev = PolicyEvaluator(sc, adjoint=_contracted(sc, adjoint))
        tally, entered = ObjectiveTally(ev, len(batch)), []

        @contextlib.contextmanager
        def recording(at, *arrays):
            entered.append(at.tolist())
            with tally(at, *arrays) as step:
                yield step

        simulate_batch(sc, batch, recording)
        assert all(entered)
        groups = [list(range(1, len(batch), 2)), list(range(0, len(batch), 2))]  # one substep, then two
        for positions in groups:
            slices = [at for at in entered if set(at) <= set(positions)]
            assert sum(slices, []) == positions
            assert len(slices) == math.ceil(len(positions) / per_slice) >= 2
            sizes = [len(at) for at in slices]
            assert max(sizes) <= per_slice and max(sizes) - min(sizes) <= 1
        assert len(entered) == sum(math.ceil(len(p) / per_slice) for p in groups)

        def bits(parts):
            return np.array([[b.j_flow, b.j_diff, b.j_queue] for b in parts]).tobytes()

        assert bits(tally.breakdowns()) == bits(ev.score([p])[0] for p in batch) == bits(map(ev.components, batch))

    def test_the_diamond_polls_enter_the_observer_once_each(self, diamond, monkeypatch):
        # at the real bound every batch of perfbench's optimize-diamond
        # search (budget 300, search seed 7), its 154-policy poll included,
        # is marched whole: one substep count, one slice
        entered = []

        def recorded(scenario, policies, observe):
            @contextlib.contextmanager
            def recording(at, *arrays):
                entered[-1] += 1
                with observe(at, *arrays) as step:
                    yield step

            entered.append(0)
            simulate_batch(scenario, policies, recording)

        monkeypatch.setattr(objectives, "simulate_batch", recorded)
        sizes = []

        def score(policies):
            sizes.append(len(policies))
            return ev.score(policies)

        ev = PolicyEvaluator(diamond)
        search_front(ev, 300, 7, score=score)
        assert 154 in sizes and 8 * diamond.n_roads * diamond.n_cells * max(sizes) <= traffic.SLICE_BYTES
        assert entered == [1] * len(sizes)

    def test_pickled_evaluator_scores_bitwise_the_same(self, diamond, policies):
        # workers receive the evaluator pickled: it must carry only the
        # contraction (0.58 MB on the diamond), not the 18 MB adjoint
        ev = PolicyEvaluator(diamond)
        data = pickle.dumps(ev)
        assert len(data) < 2**20
        copy = pickle.loads(data)

        def bits(evaluator):
            parts = evaluator.score(policies)
            return np.array([[b.j_flow, b.j_diff, b.j_queue] for b in parts]).tobytes()

        assert bits(copy) == bits(ev)


def _assert_batch_equals_one_by_one(scenario, policies, mode):
    sc = dataclasses.replace(scenario, mode=mode, delta=0.5)
    assert set(_substep_counts(np.array(policies), sc).tolist()) == {1, 2}
    adjoint = np.random.default_rng(3).random((sc.n_time + 1, sc.n_grid + 1, sc.n_grid + 1))
    ev = PolicyEvaluator(sc, adjoint=_contracted(sc, adjoint))

    batch = ev.score(policies)
    reversed_batch = ev.score(policies[::-1])[::-1]
    for policy, b, r in zip(policies, batch, reversed_batch):
        alone = ev.components(policy)
        assert b == alone == r == ev.score([policy])[0]
        assert np.array_equal(b.vector(mode), ev.components(policy).vector(sc.mode))


def _chain(k: int):
    spec = importlib.util.spec_from_file_location("chain", Path(__file__).parents[1] / "perfbench" / "chain.py")
    chain = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chain)
    return load_scenario(json.dumps(chain.make_chain(k, 1)))


@pytest.mark.parametrize("name", ["diamond", "chain-1", "bottom-edge", "left-edge"])
def test_streamed_contraction_is_the_history_contraction_bitwise(diamond, name):
    # reference: the whole adjoint history, every raster entry of a point
    # with both indices >= 1 weighted and added into its (road, cell) for
    # all times at once, in entry order; the bottom-edge road covers the
    # grid rows j = 0, which the quadrature skips, and j = 1, the left-edge
    # road the columns i = 0 and i = 1
    sc = {"diamond": diamond, "chain-1": _chain(1), "bottom-edge": _single_road(y=0.05),
          "left-edge": _single_road(y=0.05, vertical=True)}[name]
    p = adjoint_history(sc)
    raster = rasterize_network(sc)
    keep = (raster.i >= 1) & (raster.j >= 1)
    assert keep.any()
    assert not name.endswith("-edge") or not keep.all()
    want = np.zeros((sc.n_time + 1, sc.n_roads * sc.n_cells))
    np.add.at(
        want, (slice(None), raster.slot[keep]),
        p[:, raster.i[keep], raster.j[keep]] * raster.weight[keep],
    )
    want = want.reshape(sc.n_time + 1, sc.n_roads, sc.n_cells)
    got = contract_adjoint(sc)
    assert got.pairing.shape == want.shape
    assert got.pairing.tobytes() == want.tobytes()
    assert got.level0.hex() == float(np.sum(p[0, 1:, 1:])).hex()


def test_contracted_level_is_the_add_at_form():
    # entries of one (road, cell) are added in entry order from 0.0, as
    # np.add.at does; the level's values span twenty orders of magnitude
    # and both signs, so another order of the sums would change their bits
    sc = _chain(1)
    rng = np.random.default_rng(3)
    n1 = sc.n_grid + 1
    level = rng.standard_normal((n1, n1)) * 10.0 ** rng.integers(-10, 10, (n1, n1))
    contractor = AdjointContractor(sc)
    contractor(5, level)
    raster = rasterize_network(sc)
    keep = (raster.i >= 1) & (raster.j >= 1)
    want = np.zeros(sc.n_roads * sc.n_cells)
    np.add.at(want, raster.slot[keep], level[raster.i[keep], raster.j[keep]] * raster.weight[keep])
    got = contractor.contraction().pairing[5]
    assert np.array_equal(got, want.reshape(sc.n_roads, sc.n_cells))
    assert not np.any(contractor.contraction().pairing[4])


def _star(n_roads=4):
    """Roads of length 1 and width 0.3 crossing at (1.5, 1.5), h = 0.1: up
    to ``n_roads`` roads cover a grid point near the crossing."""
    roads = []
    for k in range(n_roads):
        dx, dy = 0.5 * math.cos(math.pi * k / n_roads), 0.5 * math.sin(math.pi * k / n_roads)
        roads.append(road(k + 1, [1.5 - dx, 1.5 - dy], [1.5 + dx, 1.5 + dy], width=0.3))
    doc = scenario_doc(roads, n_grid=30, n_time=100, exits=[r["id"] for r in roads])
    return load_scenario(json.dumps(doc))


def test_scattered_level_is_the_add_at_form():
    # the entries of one grid point are added in entry order from 0.0, as
    # np.add.at does; the rates span twenty orders of magnitude and both
    # signs, and points near the crossing sum four roads, so another order
    # of the sums would change their bits.  Points no road covers get 0.0.
    sc = _star()
    rng = np.random.default_rng(4)
    rates = rng.standard_normal((sc.n_roads, sc.n_cells)) * 10.0 ** rng.integers(-10, 10, (sc.n_roads, sc.n_cells))
    raster = rasterize_network(sc)
    n1 = sc.n_grid + 1
    assert np.bincount(raster.i * n1 + raster.j).max() == 4
    want = np.zeros((n1, n1))
    np.add.at(want, (raster.i, raster.j), rates.ravel()[raster.slot] * raster.weight)
    (got,) = raster.scatter(rates[None])
    assert np.array_equal(got, want)


def test_reflecting_roads_and_wind_across_the_diagonal_mirrors_the_objectives():
    # (x, y) -> (y, x) maps the grid, the raster and the stencil onto
    # themselves with the wind (ax, ay) turned into (ay, ax), so every
    # (time, road, cell) pairs with the same p.  The stencil adds its N/S
    # and E/W terms in the other order, so the pairing and J_diff agree to
    # rounding (1e-15 measured), within RTOL; the traffic never sees the
    # geometry, so J_flow and J_queue keep their bits
    RTOL = 1e-12

    def mirrored(doc):
        for r in doc["roads"]:
            r["start"], r["end"] = r["start"][::-1], r["end"][::-1]

    base = load_scenario(json.dumps(diamond_doc(dispersion={"wind": [1, 0.3]})))
    mirror = load_scenario(json.dumps(diamond_doc(mirrored, dispersion={"wind": [0.3, 1]})))
    unturned = load_scenario(json.dumps(diamond_doc(mirrored, dispersion={"wind": [1, 0.3]})))
    policies = [[2.0, 1, 0.25, 1.5, 0.7, 2], [1.0] * 6, [0.25, 2, 1, 0.5, 2, 1.2]]
    a, b = contract_adjoint(base), contract_adjoint(mirror)
    np.testing.assert_allclose(b.pairing, a.pairing, rtol=RTOL, atol=0)
    assert b.level0 == a.level0
    scores = [PolicyEvaluator(sc, adjoint=c).score(policies)
              for sc, c in ((base, a), (mirror, b), (unturned, contract_adjoint(unturned)))]
    for one, two, other in zip(*scores):
        assert np.array([two.j_flow, two.j_queue]).tobytes() == np.array([one.j_flow, one.j_queue]).tobytes()
        assert two.j_diff == pytest.approx(one.j_diff, rel=RTOL, abs=0)
        # the relation is no symmetry of the diamond: reflected without its
        # wind, the network scores another J_diff
        assert abs(other.j_diff - one.j_diff) > 0.01 * one.j_diff
