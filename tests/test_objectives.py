import dataclasses
import importlib.util
import json
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from tramopt.dispersion import solve_adjoint, solve_dispersion_forward
from tramopt.emission import emission_field, rasterize_network
from tramopt.network import load_scenario
from tramopt.objectives import (
    AdjointContractor,
    ObjectiveBreakdown,
    ObjectiveTally,
    PolicyEvaluator,
    contract_adjoint,
    j_diff_adjoint,
    j_diff_forward,
)
from tramopt.traffic import TrafficTrajectory, greenshields_flux, max_stable_dt, simulate_traffic


def _single_road(T=5.0, n_cells=20, n_time=400, rho0=0.5, inflow=0.0, y=1.5):
    doc = {
        "horizon": T,
        "domain": {"side": 3, "n_grid": 30},
        "discretization": {"n_cells": n_cells, "n_time": n_time},
        "roads": [
            {"id": 1, "start": [1.0, y], "end": [2.0, y], "width": 0.1,
             "rho_max": 1, "rho0": rho0, "v_min": 0.25, "v_max": 2}
        ],
        "junctions": [],
        "access": [{"road": 1, "inflow": inflow}],
        "exits": [1],
        "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1]},
        "emission": {"theta": 0.5},
        "objectives": {"delta": 0, "mode": "2d"},
    }
    return load_scenario(json.dumps(doc))


def _contracted(scenario, history):
    """The contraction of a given adjoint history, level by level as the
    march hands the levels on."""
    contractor = AdjointContractor(scenario)
    for k, level in enumerate(history):
        contractor(k, level)
    return contractor.contraction()


def _frozen_trajectory(scenario, rho):
    """Trajectory pinned at a constant density (oracle for the quadratures)."""
    shape = (scenario.n_time + 1, scenario.n_roads, scenario.n_cells)
    return TrafficTrajectory(
        times=np.arange(scenario.n_time + 1) * scenario.dt,
        densities=np.full(shape, rho),
        queues=np.zeros((scenario.n_time + 1, len(scenario.access))),
        access_roads=tuple(a.road for a in scenario.access),
        inflow=np.zeros((scenario.n_time, scenario.n_roads)),
        outflow=np.zeros((scenario.n_time, scenario.n_roads)),
        external_inflow=np.zeros((scenario.n_time, len(scenario.access))),
    )


def _tallied(scenario, traj, policy):
    """Objectives of a stored trajectory, summed by the kernel's tally."""
    n1 = scenario.n_grid + 1
    tally = ObjectiveTally(
        PolicyEvaluator(scenario, adjoint=_contracted(scenario, np.zeros((scenario.n_time + 1, n1, n1)))), 1
    )
    v = np.asarray(policy, dtype=float)[:, None]
    rho_max = np.array([[r.rho_max] for r in scenario.roads])
    for k in range(1, scenario.n_time + 1):
        rho = traj.densities[k]
        flow = greenshields_flux(rho, v, rho_max)
        tally(np.arange(1), k, rho[None], flow[None], traj.queues[k][None])
    return tally.breakdowns()[0]


class TestJFlow:
    def test_zero_for_empty_network(self):
        s = _single_road(rho0=0.0)
        traj = _frozen_trajectory(s, 0.0)
        assert _tallied(s, traj, [1.0]).j_flow == 0.0

    def test_frozen_half_density_matches_analytic_integral(self):
        # Q(0.5) = 0.25 over unit road and T = 5: exactly 1.25
        s = _single_road(T=5.0)
        traj = _frozen_trajectory(s, 0.5)
        assert _tallied(s, traj, [1.0]).j_flow == pytest.approx(1.25, abs=1e-12)

    def test_jammed_network_has_no_flow(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 1.0)
        assert _tallied(s, traj, [1.0]).j_flow == 0.0


class TestJQueue:
    def test_zero_for_empty_queues(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 0.4)
        assert _tallied(s, traj, [1.0]).j_queue == 0.0

    def test_constant_queue_time_average(self):
        s = _single_road()
        traj = _frozen_trajectory(s, 0.4)
        traj.queues[:] = 2.0
        assert _tallied(s, traj, [1.0]).j_queue == pytest.approx(2.0, abs=1e-12)

    def test_linear_queue_right_rectangle_rule(self):
        s = _single_road(T=5.0, n_time=100)
        traj = _frozen_trajectory(s, 0.4)
        traj.queues[:, 0] = traj.times
        expected = 5.0 / 2.0 * (1.0 + 1.0 / s.n_time)
        assert _tallied(s, traj, [1.0]).j_queue == pytest.approx(expected, abs=1e-12)
        assert _tallied(s, traj, [1.0]).j_queue == pytest.approx(2.5, abs=0.05)


class TestJDiff:
    def test_zero_emission_zero_phi0(self):
        s = _single_road()
        zeros = np.zeros((s.n_time + 1, s.n_grid + 1, s.n_grid + 1))
        adjoint = solve_adjoint(s)
        assert j_diff_adjoint(zeros, adjoint, 0.0, s) == 0.0

    def test_phi0_term_is_policy_independent_shift(self):
        s0 = _single_road(inflow=0.25)
        s1 = dataclasses.replace(
            s0, dispersion=dataclasses.replace(s0.dispersion, phi0=0.7)
        )
        adjoint = solve_adjoint(s0)
        raster = rasterize_network(s0)
        shifts = []
        for policy in ([0.5], [1.7]):
            traj = simulate_traffic(s0, policy)
            field = emission_field(traj, raster, s0, policy)
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

    def test_adjoint_matches_forward_on_small_problem(self):
        s = _single_road(T=2.0, n_time=300, inflow=0.25)
        policy = [1.0]
        traj = simulate_traffic(s, policy)
        raster = rasterize_network(s)
        field = emission_field(traj, raster, s, policy)
        adjoint = solve_adjoint(s)
        via_adjoint = j_diff_adjoint(field, adjoint, 0.0, s)
        via_forward = j_diff_forward(solve_dispersion_forward(s, field), s)
        assert via_adjoint == pytest.approx(via_forward, rel=0.05)

    def test_evaluator_matches_dense_pairing(self, diamond):
        policy = [1.2, 0.7, 1.9, 0.4, 1.0, 2.0]
        adjoint = solve_adjoint(diamond)
        raster = rasterize_network(diamond)
        ev = PolicyEvaluator(diamond)
        traj = simulate_traffic(diamond, policy)
        field = emission_field(traj, raster, diamond, policy)
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
    @pytest.mark.parametrize("n_cells, n_time", [(1, 6), (2, 12)])
    def test_batch_equals_one_by_one_on_short_roads(self, coarse_diamond, policies, n_cells, n_time, mode):
        # n_time mixes one and two substeps again; on one-cell roads the
        # first cell is the last
        _assert_batch_equals_one_by_one(coarse_diamond(n_cells, n_time), policies, mode)

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
    substeps = {math.ceil(sc.dt / max_stable_dt(p, sc.ds) - 1e-12) for p in policies}
    assert substeps == {1, 2}
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


@pytest.mark.parametrize("name", ["diamond", "chain-1", "bottom-edge"])
def test_streamed_contraction_is_the_history_contraction_bitwise(diamond, name):
    # reference: the whole adjoint history, every raster entry of a point
    # with both indices >= 1 weighted and added into its (road, cell) for
    # all times at once, in entry order; the bottom-edge road covers the
    # grid rows j = 0, which the quadrature skips, and j = 1
    sc = {"diamond": diamond, "chain-1": _chain(1), "bottom-edge": _single_road(y=0.05)}[name]
    p = solve_adjoint(sc)
    raster = rasterize_network(sc)
    point = raster.entry_point
    keep = (raster.points_i[point] >= 1) & (raster.points_j[point] >= 1)
    assert keep.any()
    assert name != "bottom-edge" or not keep.all()
    i, j = raster.points_i[point[keep]], raster.points_j[point[keep]]
    want = np.zeros((sc.n_time + 1, sc.n_roads, sc.n_cells))
    np.add.at(
        want, (slice(None), raster.entry_road[keep], raster.entry_cell[keep]),
        p[:, i, j] * raster.entry_weight[keep],
    )
    got = contract_adjoint(sc)
    assert got.pairing.shape == want.shape
    assert got.pairing.tobytes() == want.tobytes()
    assert got.level0.hex() == float(np.sum(p[0, 1:, 1:])).hex()
