import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scenarios import diamond_doc, road, scenario_doc

from tramopt.cli import main
from tramopt.emission import rasterize_network
from tramopt.network import (
    PolicyError,
    ScenarioError,
    check_policies,
    load_scenario,
    validate_scenario,
)
from tramopt.objectives import PolicyEvaluator
from tramopt.traffic import simulate_traffic


def _minimal_doc(**values):
    """One road of 10 cells fed at 0.25 and leaving by an exit, with
    ``values`` passed on to ``scenario_doc``."""
    return scenario_doc(**{
        "roads": [road(1, [0.5, 1.5], [1.5, 1.5], rho0=0.4)], "access": [{"road": 1, "inflow": 0.25}],
        "exits": [1], "objectives": {"delta": 0, "mode": "2d"}, **values,
    })


class TestLoadScenario:
    def test_proof_of_concept_parameters(self, diamond):
        assert diamond.horizon == 5.0
        assert diamond.ds == pytest.approx(0.05)
        assert diamond.h == pytest.approx(0.05)
        assert diamond.theta == 0.5
        assert diamond.dispersion.mu == 1e-6
        assert diamond.dispersion.wind == (1.0, 1.0)
        assert diamond.n_time == 601
        assert len(diamond.roads) == 6
        assert all(r.length == pytest.approx(1.0, abs=1e-12) for r in diamond.roads)

    def test_defaults_applied(self):
        doc = _minimal_doc()
        del doc["access"][0]["inflow"]
        doc["access"][0]["inflow"] = 0.1
        doc["dispersion"] = {"mu": 1e-6, "wind": [1, 1]}
        s = load_scenario(json.dumps(doc))
        assert s.dispersion.phi0 == 0.0
        assert s.dispersion.kappa == 0.0
        assert s.access[0].queue0 == 0.0

    def test_alpha_must_sum_to_one(self):
        doc = _minimal_doc(
            roads=[road(i, [0.5 * i, 1.0], [0.5 * i + 1.0, 1.0], rho0=0.1) for i in (1, 2, 3)],
            junctions=[{"kind": "1to2", "in": [1], "out": [2, 3], "alpha": [0.6, 0.5]}],
        )
        with pytest.raises(ScenarioError, match="distribution rates must sum to 1"):
            load_scenario(json.dumps(doc))

    def test_unknown_road_reference(self, diamond):
        doc = _minimal_doc(exits=[7])
        with pytest.raises(ScenarioError, match="unknown road 7"):
            load_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="unknown road id 7"):
            diamond.road_index(7)

    def test_negative_width(self):
        doc = _minimal_doc()
        doc["roads"][0]["width"] = -0.1
        with pytest.raises(ScenarioError, match="width"):
            load_scenario(json.dumps(doc))

    def test_parse_error_reports_position(self):
        with pytest.raises(ScenarioError, match="line"):
            load_scenario("{ not json }")

    def test_rho0_above_rho_max(self):
        doc = _minimal_doc()
        doc["roads"][0]["rho0"] = 1.5
        with pytest.raises(ScenarioError, match="rho0"):
            load_scenario(json.dumps(doc))

    def test_per_cell_rho0_length_checked(self):
        doc = _minimal_doc()
        doc["roads"][0]["rho0"] = [0.1] * 7
        with pytest.raises(ScenarioError, match="per-cell"):
            load_scenario(json.dumps(doc))

    def test_inflow_series_length_checked(self):
        doc = _minimal_doc()
        doc["access"][0]["inflow"] = [0.25] * 10
        with pytest.raises(ScenarioError, match="n_time"):
            load_scenario(json.dumps(doc))

    def test_unequal_road_lengths_rejected(self):
        doc = _minimal_doc(
            roads=[road(1, [0.0, 1.0], [1.0, 1.0], rho0=0.1), road(2, [1.0, 1.0], [2.5, 1.0], rho0=0.1)],
            junctions=[{"kind": "1to1", "in": [1], "out": [2]}],
            exits=[2],
        )
        with pytest.raises(ScenarioError, match="share one length"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: [road.__setitem__("v_max", 1e6) for road in doc["roads"]], "cell updates"),
            (lambda doc: doc["discretization"].__setitem__("n_time", 10**9), "the emission field of"),
            (lambda doc: doc["domain"].__setitem__("n_grid", 10**5), "the emission field of"),
            (lambda doc: [doc["discretization"].__setitem__("n_cells", 10**9)]
             + [road.__setitem__("rho0", [0.1]) for road in doc["roads"]], "cell updates"),
            (lambda doc: doc.update(
                roads=doc["roads"][:1], junctions=[], exits=[1], domain={"side": 3, "n_grid": 1},
                discretization={"n_cells": 1, "n_time": 10**8}), "kernel steps"),
            (lambda doc: doc.update(discretization={"n_cells": 3000, "n_time": 50000}),
             "density history"),
        ],
        ids=["v-max-1e6", "n-time-1e9", "n-grid-1e5", "n-cells-1e9", "one-cell-n-time-1e8",
             "history-7.2-gb"],
    )
    def test_work_past_ceiling_rejected(self, change, message):
        # 166,390 substeps per output step; a 30 TB emission field; a 48 TB one;
        # 10^9 cells, rejected before the short per-cell lists are read, and
        # so before a road's 10^9 densities are made; 10^8 steps of one cell
        # on one road, under the other ceilings; a 7.2 GB density history
        with pytest.raises(ScenarioError, match=message):
            load_scenario(json.dumps(diamond_doc(change)))


    @pytest.mark.parametrize(
        "change, field",
        [
            (lambda doc: doc["emission"].__setitem__("theta", -0.1), r"emission\.theta"),
            (lambda doc: doc["junctions"][3].__setitem__("beta", [0.5, 0.4]), r"junctions\[3\]\.beta"),
            (lambda doc: doc["junctions"][0].__setitem__("alpha", [0.2, 0.3, 0.5]),
             r"junctions\[0\]\.alpha"),
            (lambda doc: doc["junctions"][0].__setitem__("alpha", [0, 1]), r"junctions\[0\]\.alpha"),
            (lambda doc: doc["junctions"][3].__setitem__("beta", [1.0]), r"junctions\[3\]\.beta"),
            (lambda doc: doc["junctions"][3].__setitem__("beta", [1.0, 0.0]), r"junctions\[3\]\.beta"),
        ],
        ids=["negative-theta", "beta-sum-0.9", "three-alpha", "alpha-0-1", "one-beta", "beta-1-0"],
    )
    def test_bad_theta_or_rates_rejected(self, change, field):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(json.dumps(diamond_doc(change)))


class TestRoundTrip:
    @given(
        rho0=st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
        inflow=st.floats(0.0, 1.0),
        theta=st.floats(0.0, 2.0),
        delta=st.floats(0.0, 1.0),
        wind=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    )
    def test_round_trip_random_scenarios(self, rho0, inflow, theta, delta, wind):
        # each drawn number comes back from the JSON text as the loaded field
        doc = _minimal_doc()
        doc["roads"][0]["rho0"] = rho0
        doc["access"][0]["inflow"] = inflow
        doc["emission"]["theta"] = theta
        doc["objectives"]["delta"] = delta
        doc["dispersion"]["wind"] = list(wind)
        s = load_scenario(json.dumps(doc))
        assert s.roads[0].rho0 == tuple(rho0)
        assert s.access[0].inflow == inflow
        assert s.theta == theta
        assert s.delta == delta
        assert s.dispersion.wind == wind


class TestValidation:
    def test_diamond_is_valid(self, diamond):
        report = validate_scenario(diamond)
        assert report.ok
        assert report.cfl.passed
        assert report.cfl.dt_bound == pytest.approx(0.008333, abs=5e-7)
        assert np.all(rasterize_network(diamond).cover_counts(diamond.n_roads) >= diamond.n_cells)

    def test_cfl_violation_flagged(self, diamond):
        import dataclasses

        bad = dataclasses.replace(diamond, n_time=500)  # dt = 0.01 > bound
        report = validate_scenario(bad)
        assert not report.ok
        assert any("CFL" in f for f in report.findings)

    def test_invisible_road_flagged(self):
        # h = 0.5 grid; width-0.1 road centered between grid lines
        doc = _minimal_doc(n_grid=6)
        doc["roads"][0]["start"] = [0.75, 0.25]
        doc["roads"][0]["end"] = [1.75, 0.25]
        s = load_scenario(json.dumps(doc))
        report = validate_scenario(s)
        assert any("invisible" in f for f in report.findings)

    def test_dangling_endpoint_flagged(self):
        doc = _minimal_doc(exits=[])
        s = load_scenario(json.dumps(doc))
        report = validate_scenario(s)
        assert any("head attached to nothing" in f for f in report.findings)

    def test_non_coincident_junction_flagged(self):
        doc = _minimal_doc(
            roads=[road(1, [0.0, 1.0], [1.0, 1.0], rho0=0.1), road(2, [1.2, 1.0], [2.2, 1.0], rho0=0.1)],
            junctions=[{"kind": "1to1", "in": [1], "out": [2]}],
            exits=[2],
        )
        report = validate_scenario(load_scenario(json.dumps(doc)))
        assert any("do not coincide" in f for f in report.findings)


class TestPolicy:
    def test_bounds_enforced(self, diamond):
        with pytest.raises(PolicyError, match="V_1 = 3.0 exceeds upper bound 2"):
            check_policies([[3, 1, 1, 1, 1, 1]], diamond)
        with pytest.raises(PolicyError, match="below lower bound"):
            check_policies([[1, 1, 0.1, 1, 1, 1]], diamond)

    def test_dimension_checked(self, diamond):
        with pytest.raises(PolicyError, match="components"):
            check_policies([[1, 1]], diamond)

    def test_feasible_accepted(self, diamond):
        (p,) = check_policies([[0.25, 2, 1, 1, 1, 1]], diamond)
        assert p.tolist() == [0.25, 2.0, 1.0, 1.0, 1.0, 1.0]

    def test_first_bad_entry_in_row_major_order_named(self, diamond):
        batch = [[1] * 6, [1, 1, 0.1, 1, 1, 3], [3, 1, 1, 1, 1, 1]]
        with pytest.raises(PolicyError, match="^V_3 = 0.1 falls below lower bound 0.25$"):
            check_policies(batch, diamond)

    @pytest.mark.parametrize("value", [float("inf"), -float("inf")])
    def test_infinite_limit_named_not_finite_before_its_bound(self, diamond, value):
        with pytest.raises(PolicyError, match=f"^V_2 = {value} is not a finite number$"):
            check_policies([[1, value, 1, 1, 1, 1]], diamond)

    @pytest.mark.parametrize(
        "batch, message",
        [
            ([[1] * 6, [1] * 7, [1] * 2], "policy has 7 components, scenario has 6 roads"),
            ([[1] * 6, [1, "a", 1, 1, 1, 1]], "a policy holds an entry that is not a number"),
            ([[1, [1, 2], 1, 1, 1, 1]], "a policy holds an entry that is not a number"),
        ],
        ids=["ragged", "text", "nested"],
    )
    def test_malformed_batch_is_a_policy_error(self, diamond, batch, message):
        with pytest.raises(PolicyError, match=f"^{message}$"):
            check_policies(batch, diamond)

    def test_empty_batch_stays_empty(self, diamond):
        assert check_policies([], diamond).shape == (0, 6)
        assert check_policies(np.empty((0, 6)), diamond).shape == (0, 6)


#: infeasible diamond policies and the message of the one box rule on each
BAD_POLICIES = {
    "above": ([3.0, 1, 1, 1, 1, 1], "V_1 = 3.0 exceeds upper bound 2.0"),
    "below": ([1, 1, 0.1, 1, 1, 1], "V_3 = 0.1 falls below lower bound 0.25"),
    "nan": ([1, 1, 1, float("nan"), 1, 1], "V_4 = nan is not a finite number"),
    "inf": ([1, 1, 1, 1, 1, float("inf")], "V_6 = inf is not a finite number"),
    "short": ([1, 1], "policy has 2 components, scenario has 6 roads"),
}
FEASIBLE = [1.0] * 6


@pytest.fixture(scope="module")
def small_evaluator(diamond, coarse_diamond):
    return PolicyEvaluator(coarse_diamond(4, diamond.n_time))


@pytest.fixture(scope="module")
def policy_entry_points(small_evaluator, diamond_path, tmp_path_factory):
    """Each entry point that takes a policy, as a function of one bad policy
    that raises the ``PolicyError`` it gives.  ``score`` gets the bad policy
    in the middle of a feasible batch, so a short one makes it ragged."""
    scenario = small_evaluator.scenario
    out = tmp_path_factory.mktemp("sim") / "out"

    def cli(policy):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([
                "simulate", "--scenario", str(diamond_path),
                f"--policy={','.join(map(repr, policy))}", "--out", str(out),
            ])
        printed = err.getvalue()
        assert code == 1 and not out.exists()
        assert printed.startswith("error: ") and printed.count("\n") == 1
        raise PolicyError(printed.removeprefix("error: ").rstrip("\n"))

    return {
        "cli-simulate": cli,
        "simulate_traffic": lambda policy: simulate_traffic(scenario, policy),
        "components": small_evaluator.components,
        "score": lambda policy: small_evaluator.score([FEASIBLE, FEASIBLE, policy, FEASIBLE]),
    }


@pytest.mark.parametrize("case", list(BAD_POLICIES))
@pytest.mark.parametrize("entry", ["cli-simulate", "simulate_traffic", "components", "score"])
def test_every_entry_point_gives_the_box_rule_message(policy_entry_points, entry, case):
    policy, message = BAD_POLICIES[case]
    with pytest.raises(PolicyError) as caught:
        policy_entry_points[entry](policy)
    assert str(caught.value) == message


def test_score_takes_an_empty_batch_and_rejects_a_ragged_one(small_evaluator):
    assert small_evaluator.score([]) == []
    with pytest.raises(PolicyError, match="^policy has 7 components, scenario has 6 roads$"):
        small_evaluator.score([FEASIBLE, FEASIBLE + [1.0], FEASIBLE[:2]])
