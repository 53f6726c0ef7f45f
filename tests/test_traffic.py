import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tramopt.network import load_scenario
from tramopt.traffic import (
    TrafficError,
    TrafficState,
    demand,
    flux_capacity,
    godunov_flux,
    greenshields_flux,
    junction_one_to_one,
    junction_one_to_two,
    junction_two_to_one,
    lwr_step,
    mass_balance_residuals,
    max_stable_dt,
    queue_step,
    simulate_traffic,
    step_single_road,
    supply,
)

densities = st.floats(0.0, 1.0)


class TestFluxFunctions:
    def test_empty_road(self):
        assert greenshields_flux(0.0, 1.0, 1.0) == 0.0

    def test_critical_density_gives_capacity(self):
        assert greenshields_flux(0.5, 1.0, 1.0) == pytest.approx(0.25)

    def test_quarter_density(self):
        assert greenshields_flux(0.25, 1.0, 1.0) == pytest.approx(0.1875)

    def test_rejects_out_of_range(self):
        with pytest.raises(TrafficError):
            greenshields_flux(1.5, 1.0, 1.0)
        with pytest.raises(TrafficError):
            demand(-0.2, 1.0, 1.0)

    def test_demand_branches(self):
        assert demand(0.25, 1.0, 1.0) == pytest.approx(0.1875)
        assert demand(0.75, 1.0, 1.0) == pytest.approx(0.25)

    def test_supply_at_critical(self):
        assert supply(0.5, 1.0, 1.0) == pytest.approx(0.25)

    @given(rho=densities, v=st.floats(0.1, 3.0))
    def test_envelopes_bound_capacity(self, rho, v):
        cap = flux_capacity(v, 1.0)
        assert 0.0 <= demand(rho, v, 1.0) <= cap + 1e-15
        assert 0.0 <= supply(rho, v, 1.0) <= cap + 1e-15

    @given(rho=densities)
    def test_min_of_envelopes_recovers_flux(self, rho):
        # D and S agree with Q on their respective branches
        q = greenshields_flux(rho, 1.0, 1.0)
        assert min(demand(rho, 1.0, 1.0), supply(rho, 1.0, 1.0)) == pytest.approx(q)


class TestGodunovFlux:
    def test_hand_evaluated_interface(self):
        assert godunov_flux(0.25, 0.75, 1.0, 1.0) == pytest.approx(0.1875)

    @given(v=densities)
    def test_zero_demand(self, v):
        assert godunov_flux(0.0, v, 1.0, 1.0) == 0.0

    @given(u=densities)
    def test_zero_supply(self, u):
        assert godunov_flux(u, 1.0, 1.0, 1.0) == 0.0

    @given(u=densities, v=densities)
    def test_nonnegative_and_bounded(self, u, v):
        q = godunov_flux(u, v, 1.0, 1.0)
        assert 0.0 <= q <= 0.25 + 1e-15


class TestJunctions:
    def test_one_to_one_takes_minimum(self):
        assert junction_one_to_one(0.25, 0.1) == (0.1, 0.1)
        assert junction_one_to_one(0.1, 0.25) == (0.1, 0.1)
        assert junction_one_to_one(0.0, 0.25) == (0.0, 0.0)

    def test_one_to_two_supply_constrained(self):
        q1, q2, q3 = junction_one_to_two(0.2, 0.05, 0.2, (0.5, 0.5))
        assert (q1, q2, q3) == pytest.approx((0.15, 0.05, 0.10))

    def test_one_to_two_no_demand(self):
        assert junction_one_to_two(0.0, 1.0, 1.0, (0.5, 0.5)) == (0.0, 0.0, 0.0)

    def test_one_to_two_unconstrained_splits_by_alpha(self):
        q1, q2, q3 = junction_one_to_two(0.2, 1.0, 1.0, (0.5, 0.5))
        assert (q1, q2, q3) == pytest.approx((0.2, 0.1, 0.1))

    def test_one_to_two_rejects_bad_rates(self):
        with pytest.raises(TrafficError):
            junction_one_to_two(0.2, 1.0, 1.0, (0.6, 0.5))

    def test_two_to_one_symmetric_split(self):
        q1, q2, q3 = junction_two_to_one(0.3, 0.3, 0.25, (0.5, 0.5))
        assert (q1, q2, q3) == pytest.approx((0.125, 0.125, 0.25))

    def test_two_to_one_reallocates_slack(self):
        q1, q2, q3 = junction_two_to_one(0.05, 0.3, 0.25, (0.5, 0.5))
        assert (q1, q2, q3) == pytest.approx((0.05, 0.2, 0.25))

    def test_two_to_one_empty(self):
        assert junction_two_to_one(0.0, 0.0, 0.3, (0.5, 0.5)) == (0.0, 0.0, 0.0)

    @given(
        d1=st.floats(0.0, 0.25),
        d2=st.floats(0.0, 0.25),
        s=st.floats(0.0, 0.25),
    )
    def test_two_to_one_conserves_and_respects_supply(self, d1, d2, s):
        q1, q2, q3 = junction_two_to_one(d1, d2, s, (0.5, 0.5))
        assert q3 == q1 + q2
        assert q3 <= s + 1e-15
        assert q1 <= d1 + 1e-15 and q2 <= d2 + 1e-15

    @given(d1=st.floats(0.0, 0.25), s2=st.floats(0.0, 0.25), s3=st.floats(0.0, 0.25))
    def test_one_to_two_conserves(self, d1, s2, s3):
        q1, q2, q3 = junction_one_to_two(d1, s2, s3, (0.5, 0.5))
        assert q1 == q2 + q3


class TestQueue:
    def test_supply_exceeds_demand(self):
        assert queue_step(0.0, 0.25, 0.3, 0.01) == (0.0, 0.25)

    def test_capped_by_supply(self):
        ell, q = queue_step(0.1, 0.25, 0.2, 0.01)
        assert q == pytest.approx(0.2)
        assert ell == pytest.approx(0.1005)

    def test_queue_drains_fully(self):
        ell, q = queue_step(0.002, 0.0, 0.5, 0.01)
        assert q == pytest.approx(0.2)
        assert ell == pytest.approx(0.0, abs=1e-15)

    @given(
        ell=st.floats(0.0, 5.0),
        q_in=st.floats(0.0, 1.0),
        sup=st.floats(0.0, 0.5),
        dt=st.floats(1e-4, 0.1),
    )
    def test_never_negative_and_nonincreasing_without_inflow(self, ell, q_in, sup, dt):
        ell_next, _ = queue_step(ell, q_in, sup, dt)
        assert ell_next >= 0.0
        drained, _ = queue_step(ell, 0.0, sup, dt)
        assert drained <= ell + 1e-15


class TestCfl:
    @pytest.mark.parametrize(
        "v,expected", [(2.0, 0.025), (1.0, 0.05), (0.25, 0.2)]
    )
    def test_bound_from_speed_limits(self, v, expected):
        assert max_stable_dt([v] * 3, 0.05) == pytest.approx(expected)

    def test_empty_network_rejected(self):
        with pytest.raises(TrafficError):
            max_stable_dt([], 0.05)


def _single_road_scenario(rho0=0.5, inflow=0.25, v_max=2.0, n_cells=20, n_time=100):
    doc = {
        "horizon": 1.0,
        "domain": {"side": 3, "n_grid": 60},
        "discretization": {"n_cells": n_cells, "n_time": n_time},
        "roads": [
            {"id": 1, "start": [1.0, 1.5], "end": [2.0, 1.5], "width": 0.1,
             "rho_max": 1, "rho0": rho0, "v_min": 0.25, "v_max": v_max}
        ],
        "junctions": [],
        "access": [{"road": 1, "inflow": inflow}],
        "exits": [1],
        "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1]},
        "emission": {"theta": 0.5},
        "objectives": {"delta": 0, "mode": "2d"},
    }
    return load_scenario(json.dumps(doc))


def _loop_scenario():
    # single road whose head feeds its own tail through a 1to1 junction
    doc = {
        "horizon": 1.0,
        "domain": {"side": 3, "n_grid": 60},
        "discretization": {"n_cells": 10, "n_time": 50},
        "roads": [
            {"id": 1, "start": [1.0, 1.5], "end": [2.0, 1.5], "width": 0.1,
             "rho_max": 1, "rho0": 0.5, "v_min": 0.25, "v_max": 2}
        ],
        "junctions": [{"kind": "1to1", "in": [1], "out": [1]}],
        "access": [],
        "exits": [],
        "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1]},
        "emission": {"theta": 0.5},
        "objectives": {"delta": 0, "mode": "2d"},
    }
    return load_scenario(json.dumps(doc))


class TestStepping:
    def test_hand_evaluated_two_cell_update(self):
        rho = step_single_road(
            [0.25, 0.75], 1.0, 1.0, ds=0.05, dt=0.01, flux_in=0.0, flux_out=0.0
        )
        assert rho == pytest.approx([0.2125, 0.7875])

    def test_mass_change_equals_boundary_fluxes(self):
        rng = np.random.default_rng(3)
        rho = rng.uniform(0.0, 1.0, size=30)
        f_in, f_out = 0.12, 0.07
        after = step_single_road(rho, 1.0, 1.0, 0.05, 0.02, f_in, f_out)
        change = 0.05 * (after.sum() - rho.sum())
        assert change == pytest.approx(0.02 * (f_in - f_out), abs=1e-14)

    def test_constant_state_on_loop_is_steady(self):
        scenario = _loop_scenario()
        state = TrafficState(
            densities=np.full((1, 10), 0.5), queues=np.zeros(0), time=0.0
        )
        after = lwr_step(state, [1.0], scenario, dt=0.02)
        assert after.densities == pytest.approx(state.densities)

    def test_lwr_step_rejects_cfl_violation(self):
        scenario = _single_road_scenario()
        state = TrafficState(
            densities=np.full((1, 20), 0.5), queues=np.zeros(1), time=0.0
        )
        with pytest.raises(TrafficError):
            lwr_step(state, [2.0], scenario, dt=0.1)

    @given(u=densities, v=densities)
    def test_maximum_principle_single_step(self, u, v):
        rho = np.array([u, v, u, v])
        out = step_single_road(rho, 1.0, 1.0, 0.05, 0.05, 0.0, 0.0)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestSimulateTraffic:
    def test_zero_scenario_stays_zero(self):
        scenario = _single_road_scenario(rho0=0.0, inflow=0.0)
        traj = simulate_traffic(scenario, [1.0])
        assert not np.any(traj.densities)
        assert not np.any(traj.queues)

    def test_diamond_densities_and_queues_in_bounds(self, diamond):
        traj = simulate_traffic(diamond, [1.5, 0.4, 1.9, 0.25, 1.0, 2.0])
        assert traj.densities.shape == (diamond.n_time + 1, 6, diamond.n_cells)
        assert np.all(traj.densities >= 0.0)
        assert np.all(traj.densities <= 1.0)
        assert np.all(traj.queues >= 0.0)

    def test_queue_grows_when_inflow_exceeds_capacity(self):
        # capacity at v = 0.25 is 0.0625 < inflow 0.25
        scenario = _single_road_scenario(rho0=0.0, inflow=0.25, v_max=2.0)
        traj = simulate_traffic(scenario, [0.25])
        assert np.all(np.diff(traj.queues[:, 0]) > 0.0)

    def test_substepping_triggered_and_mass_balanced(self):
        # dt_grid = 0.01 > ds / v = 0.05 / 10 would need v > 5; force v high
        scenario = _single_road_scenario(rho0=0.4, inflow=0.1, v_max=8.0, n_time=20)
        traj = simulate_traffic(scenario, [8.0])
        res = mass_balance_residuals(traj, scenario)
        assert np.max(np.abs(res)) < 1e-12
        assert np.all(traj.densities <= 1.0)

    def test_infeasible_policy_rejected(self, diamond):
        with pytest.raises(TrafficError):
            simulate_traffic(diamond, [3.0, 1, 1, 1, 1, 1])

    @given(
        v=st.tuples(*(st.floats(0.25, 2.0) for _ in range(6))),
    )
    def test_mass_balance_any_policy(self, diamond, v):
        small = dataclasses.replace(diamond, n_time=40)
        traj = simulate_traffic(small, list(v))
        res = mass_balance_residuals(traj, small)
        assert np.max(np.abs(res)) < 1e-12

    def test_junction_flux_conservation_recorded(self, diamond):
        traj = simulate_traffic(diamond, [1.0] * 6)
        idx = {r.id: i for i, r in enumerate(diamond.roads)}
        for j in diamond.junctions:
            lhs = sum(traj.outflow[:, idx[r]] for r in j.incoming)
            rhs = sum(traj.inflow[:, idx[r]] for r in j.outgoing)
            assert np.max(np.abs(lhs - rhs)) < 1e-14

    @pytest.mark.parametrize("policy", [[2.0, 1, 0.25, 1.5, 0.7, 2], [1.0, 0.25, 1, 0.5, 0.8, 1]])
    def test_kernel_matches_per_junction_reference(self, diamond, policy):
        # at n_time 100 the first policy takes two substeps and the second one
        small = dataclasses.replace(diamond, n_time=100)
        traj = simulate_traffic(small, policy)
        densities, queues = _reference_run(small, policy)
        assert np.array_equal(traj.densities, densities)
        assert np.array_equal(traj.queues, queues)

    def test_deterministic(self, diamond):
        a = simulate_traffic(diamond, [1.0] * 6)
        b = simulate_traffic(diamond, [1.0] * 6)
        assert np.array_equal(a.densities, b.densities)
        assert np.array_equal(a.queues, b.queues)


def _reference_run(scenario, policy):
    """Densities and queues stepped one junction, queue and road at a time
    through the public scalar rules: the reference for the batched kernel."""
    v = np.asarray(policy, dtype=float)
    n_roads, idx = scenario.n_roads, scenario.road_index
    rho_max = [r.rho_max for r in scenario.roads]
    rho = np.array([r.rho0 for r in scenario.roads], dtype=float)
    ell = [a.queue0 for a in scenario.access]
    n_sub = max(1, math.ceil(scenario.dt / max_stable_dt(v, scenario.ds) - 1e-12))
    dt = scenario.dt / n_sub
    densities, queues = [rho], [list(ell)]
    for k in range(scenario.n_time):
        for _ in range(n_sub):
            d = [float(demand(rho[e, -1], v[e], rho_max[e])) for e in range(n_roads)]
            s = [float(supply(rho[e, 0], v[e], rho_max[e])) for e in range(n_roads)]
            f_in, f_out = np.zeros(n_roads), np.zeros(n_roads)
            for j in scenario.junctions:
                i, o = [idx(r) for r in j.incoming], [idx(r) for r in j.outgoing]
                if j.kind == "1to1":
                    f_out[i[0]], f_in[o[0]] = junction_one_to_one(d[i[0]], s[o[0]])
                elif j.kind == "1to2":
                    f_out[i[0]], f_in[o[0]], f_in[o[1]] = junction_one_to_two(
                        d[i[0]], s[o[0]], s[o[1]], j.alpha)
                else:
                    f_out[i[0]], f_out[i[1]], f_in[o[0]] = junction_two_to_one(
                        d[i[0]], d[i[1]], s[o[0]], j.beta)
            for slot, a in enumerate(scenario.access):
                q_in = a.inflow[k] if isinstance(a.inflow, tuple) else a.inflow
                ell[slot], f_in[idx(a.road)] = queue_step(ell[slot], q_in, s[idx(a.road)], dt)
            for r in scenario.exits:
                f_out[idx(r)] = d[idx(r)]
            rho = np.array([
                step_single_road(rho[e], v[e], rho_max[e], scenario.ds, dt, f_in[e], f_out[e])
                for e in range(n_roads)
            ])
        densities.append(rho)
        queues.append(list(ell))
    return np.array(densities), np.array(queues)
