import contextlib
import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import closed_form_flux, mass_balance_residuals, roads_only_network, step_single_road
from scenarios import TWO_ACCESS_POLICIES, road, scenario_doc

from tramopt.network import PolicyError, load_scenario
from tramopt.objectives import AdjointContraction, ObjectiveTally, PolicyEvaluator
from tramopt.traffic import (
    _compile,
    _couple,
    _envelopes,
    _flux,
    _godunov_step,
    _substep_counts,
    _Workspace,
    flux_capacity,
    simulate_batch,
    simulate_traffic,
)

densities = st.floats(0.0, 1.0)
#: diamond policies the kernel is checked against the per-junction reference on
REFERENCE_POLICIES = [[2.0, 1, 0.25, 1.5, 0.7, 2], [1.0, 0.25, 1, 0.5, 0.8, 1]]


def _kernel_flux(rho, v_max, rho_max):
    """Q of the densities ``rho`` from the kernel's ``_flux``, as an array."""
    rho = np.asarray(rho, dtype=float)
    return _flux(rho, v_max, rho_max, np.empty(rho.shape), np.empty(rho.shape))


def _kernel_envelopes(rho, v_max, rho_max):
    """(demand, supply) of densities ``rho`` from the kernel's ``_envelopes``,
    which takes Q in the demand buffer."""
    dem = _kernel_flux(rho, v_max, rho_max)
    sup, above = np.empty(dem.shape), np.empty(dem.shape, dtype=bool)
    _envelopes(rho, flux_capacity(v_max, rho_max), rho_max / 2.0, dem, sup, above)
    return dem[()], sup[()]


def _interface_flux(u, v):
    """The kernel's face flux min{D(u), S(v)} between cells u and v (v_max = rho_max = 1)."""
    dem, sup = _kernel_envelopes(np.array([u, v]), 1.0, 1.0)
    return min(dem[0], sup[1])


class TestFluxFunctions:
    def test_empty_road(self):
        assert _kernel_flux(0.0, 1.0, 1.0) == 0.0

    def test_critical_density_gives_capacity(self):
        assert _kernel_flux(0.5, 1.0, 1.0) == pytest.approx(0.25)

    def test_quarter_density(self):
        assert _kernel_flux(0.25, 1.0, 1.0) == pytest.approx(0.1875)

    def test_demand_branches(self):
        assert _kernel_envelopes(0.25, 1.0, 1.0)[0] == pytest.approx(0.1875)
        assert _kernel_envelopes(0.75, 1.0, 1.0)[0] == pytest.approx(0.25)

    def test_supply_at_critical(self):
        assert _kernel_envelopes(0.5, 1.0, 1.0)[1] == pytest.approx(0.25)

    @given(rho=densities, v=st.floats(0.1, 3.0))
    def test_envelopes_bound_capacity(self, rho, v):
        cap = flux_capacity(v, 1.0)
        dem, sup = _kernel_envelopes(rho, v, 1.0)
        assert 0.0 <= dem <= cap + 1e-15
        assert 0.0 <= sup <= cap + 1e-15

    @given(rho=densities)
    def test_min_of_envelopes_recovers_flux(self, rho):
        # D and S agree with Q on their respective branches
        q = closed_form_flux(rho, 1.0, 1.0)
        assert min(_kernel_envelopes(rho, 1.0, 1.0)) == pytest.approx(q)


class TestGodunovFlux:
    def test_hand_evaluated_interface(self):
        assert _interface_flux(0.25, 0.75) == pytest.approx(0.1875)

    @given(v=densities)
    def test_zero_demand(self, v):
        assert _interface_flux(0.0, v) == 0.0

    @given(u=densities)
    def test_zero_supply(self, u):
        assert _interface_flux(u, 1.0) == 0.0

    @given(u=densities, v=densities)
    def test_nonnegative_and_bounded(self, u, v):
        q = _interface_flux(u, v)
        assert 0.0 <= q <= 0.25 + 1e-15


class TestJunctions:
    def test_one_to_one_takes_minimum(self):
        # one-cell roads at rho_max 1: D(0.5) = Q(0.5) = v/4 and S(0) = v/4,
        # so (v_in, v_out) = (1, 0.4) gives demand 0.25 and supply 0.1
        assert _one_to_one_fluxes(0.5, 1.0, 0.0, 0.4) == (0.1, 0.1)
        assert _one_to_one_fluxes(0.5, 0.4, 0.0, 1.0) == (0.1, 0.1)
        assert _one_to_one_fluxes(0.0, 1.0, 0.0, 1.0) == (0.0, 0.0)

    def test_one_to_two_supply_constrained(self):
        q1, q2, q3 = _kernel_diverge(0.2, 0.05, 0.2, 0.5, 0.5)
        assert (q1, q2, q3) == pytest.approx((0.15, 0.05, 0.10))

    def test_one_to_two_no_demand(self):
        assert _kernel_diverge(0.0, 1.0, 1.0, 0.5, 0.5) == (0.0, 0.0, 0.0)

    def test_one_to_two_unconstrained_splits_by_alpha(self):
        q1, q2, q3 = _kernel_diverge(0.2, 1.0, 1.0, 0.5, 0.5)
        assert (q1, q2, q3) == pytest.approx((0.2, 0.1, 0.1))

    def test_two_to_one_symmetric_split(self):
        q1, q2, q3 = _kernel_merge(0.3, 0.3, 0.25, 0.5, 0.5)
        assert (q1, q2, q3) == pytest.approx((0.125, 0.125, 0.25))

    def test_two_to_one_reallocates_slack(self):
        q1, q2, q3 = _kernel_merge(0.05, 0.3, 0.25, 0.5, 0.5)
        assert (q1, q2, q3) == pytest.approx((0.05, 0.2, 0.25))

    def test_two_to_one_empty(self):
        assert _kernel_merge(0.0, 0.0, 0.3, 0.5, 0.5) == (0.0, 0.0, 0.0)

    @given(
        d1=st.floats(0.0, 0.25),
        d2=st.floats(0.0, 0.25),
        s=st.floats(0.0, 0.25),
    )
    def test_two_to_one_conserves_and_respects_supply(self, d1, d2, s):
        q1, q2, q3 = _kernel_merge(d1, d2, s, 0.5, 0.5)
        assert (q1, q2, q3) == _merge(d1, d2, s, 0.5, 0.5)
        assert q3 == q1 + q2
        assert q3 <= s + 1e-15
        assert q1 <= d1 + 1e-15 and q2 <= d2 + 1e-15

    @given(d1=st.floats(0.0, 0.25), s2=st.floats(0.0, 0.25), s3=st.floats(0.0, 0.25))
    def test_one_to_two_conserves(self, d1, s2, s3):
        q1, q2, q3 = _kernel_diverge(d1, s2, s3, 0.5, 0.5)
        assert (q1, q2, q3) == _diverge(d1, s2, s3, 0.5, 0.5)
        assert q1 == q2 + q3

    @given(rates=st.floats(0.01, 0.99), d=st.floats(0.0, 0.25), s=st.floats(0.0, 0.25))
    def test_uneven_rates_match_the_reference(self, rates, d, s):
        split = (rates, 1.0 - rates)
        assert _kernel_diverge(d, s, 0.5 * s, *split) == _diverge(d, s, 0.5 * s, *split)
        assert _kernel_merge(d, 0.5 * d, s, *split) == _merge(d, 0.5 * d, s, *split)


class TestQueue:
    def test_supply_exceeds_demand(self):
        assert _kernel_discharge(0.0, 0.25, 0.3, 0.01) == (0.0, 0.25)

    def test_capped_by_supply(self):
        ell, q = _kernel_discharge(0.1, 0.25, 0.2, 0.01)
        assert q == pytest.approx(0.2)
        assert ell == pytest.approx(0.1005)

    def test_queue_drains_fully(self):
        ell, q = _kernel_discharge(0.002, 0.0, 0.5, 0.01)
        assert q == pytest.approx(0.2)
        assert ell == pytest.approx(0.0, abs=1e-15)

    @given(
        ell=st.floats(0.0, 5.0),
        q_in=st.floats(0.0, 1.0),
        sup=st.floats(0.0, 0.5),
        dt=st.floats(1e-4, 0.1),
    )
    def test_never_negative_and_nonincreasing_without_inflow(self, ell, q_in, sup, dt):
        ell_next, q = _kernel_discharge(ell, q_in, sup, dt)
        assert (ell_next, q) == _discharge(ell, q_in, sup, dt)
        assert ell_next >= 0.0
        drained, _ = _kernel_discharge(ell, 0.0, sup, dt)
        assert drained <= ell + 1e-15


class TestCfl:
    @pytest.mark.parametrize(
        "v,expected", [(2.0, 0.025), (1.0, 0.05), (0.25, 0.2)]
    )
    def test_bound_from_speed_limits(self, diamond, v, expected):
        # ds = 0.05, so ``expected`` is the stable step ds / v of the largest
        # limit: the substeps are the fewest that are no longer than it, at
        # output steps dt from 0.0125 to 0.2 (horizon 5)
        for n_time in (25, 50, 100, 200, 400):
            sc = dataclasses.replace(diamond, n_time=n_time)
            (n_sub,) = _substep_counts(np.array([[0.25, 0.25, v, 0.25, 0.25, 0.25]]), sc).tolist()
            assert n_sub >= 1 and sc.dt / n_sub <= expected * (1 + 1e-12)
            assert n_sub == 1 or sc.dt / (n_sub - 1) > expected

    def test_substep_counts_are_the_scalar_rule_row_by_row(self, diamond):
        # at n_time 100, dt * v / ds is 1 at v = 1 and 2 at v = 2, up to one
        # ulp above, which the 1e-12 guard keeps from adding a substep
        sc = dataclasses.replace(diamond, n_time=100)
        rng = np.random.default_rng(5)
        lower, upper = (np.array(b) for b in sc.policy_bounds())
        v = np.vstack([np.ones(6), np.full(6, 2.0), [0.25, 1, 1.5, 1, 0.5, 1],
                       lower + rng.random((9, 6)) * (upper - lower)])
        expected = [max(1, math.ceil(sc.dt / (sc.ds / max(row)) - 1e-12)) for row in v.tolist()]
        counts = _substep_counts(v, sc)
        assert counts.tolist() == expected
        assert expected[:3] == [1, 2, 2] and set(expected) == {1, 2}


def _single_road_scenario(rho0=0.5, inflow=0.25, v_max=2.0, n_cells=20, n_time=100):
    doc = scenario_doc([road(1, [1.0, 1.5], [2.0, 1.5], rho0=rho0, v_max=v_max)], n_cells=n_cells, n_time=n_time,
                       access=[{"road": 1, "inflow": inflow}], exits=[1])
    return load_scenario(json.dumps(doc))


def _loop_scenario():
    # single road whose head feeds its own tail through a 1to1 junction
    doc = scenario_doc([road(1, [1.0, 1.5], [2.0, 1.5])], junctions=[{"kind": "1to1", "in": [1], "out": [1]}])
    return load_scenario(json.dumps(doc))


def _one_cell_network(n_roads, junctions=(), access=(), exits=()):
    """A scenario of ``n_roads`` parallel one-cell roads of unit length at
    rho_max 1, coupled as given."""
    roads = [road(i, [0.5, 0.3 * i], [1.5, 0.3 * i], rho0=0.0) for i in range(1, n_roads + 1)]
    doc = scenario_doc(roads, n_cells=1, junctions=junctions, access=access, exits=exits)
    return load_scenario(json.dumps(doc))


def _one_to_one_fluxes(rho_in, v_in, rho_out, v_out):
    """(flux out of road 1's head, flux into road 2's tail) in one kernel step
    of a 1to1 junction between two one-cell roads at rho_max 1."""
    net = _compile(_one_cell_network(2, [{"kind": "1to1", "in": [1], "out": [2]}], exits=[2]))
    rho = np.array([[[rho_in], [rho_out]]])
    ws = _Workspace(net, np.array([[v_in, v_out]]), rho, 0.0, np.zeros((1, 0)), 0.02)
    _godunov_step(ws, net.inflow[:, 0])
    return ws.outflow[0, 0], ws.inflow[0, 1]


@functools.cache
def _one_junction(kind, rates=None):
    """The link table of one junction between one-cell roads: 1to2 from road
    1 into roads 2 and 3, 2to1 from roads 1 and 2 into road 3, or an access
    queue onto road 1."""
    if kind == "access":
        return _compile(_one_cell_network(1, access=[{"road": 1, "inflow": 0.0}]))
    ends = {"1to2": ([1], [2, 3], "alpha"), "2to1": ([1, 2], [3], "beta")}[kind]
    junction = {"kind": kind, "in": ends[0], "out": ends[1], ends[2]: list(rates)}
    return _compile(_one_cell_network(3, [junction]))


def _kernel_couple(net, demand, supply, queues=(), q_in=(), dt=0.01):
    """(outflow, inflow) per road and the queue lengths after the kernel's
    link pass, given each road's demand at its head and supply at its tail."""
    rho = np.zeros((1, len(demand), 1))
    ell = np.array([queues], dtype=float)
    ws = _Workspace(net, np.ones((1, len(demand))), rho, 0.0, ell, dt)
    ws.dem[0, :, 0], ws.sup[0, :, 0] = demand, supply
    _couple(np.array(q_in, dtype=float), *ws.links)
    return ws.outflow[0].tolist(), ws.inflow[0].tolist(), ell[0].tolist()


def _kernel_diverge(d, s2, s3, alpha2, alpha3):
    """(q1, q2, q3) of the kernel's 1to2 links, as ``_diverge`` returns them."""
    out, into, _ = _kernel_couple(_one_junction("1to2", (alpha2, alpha3)), [d, 0, 0], [0, s2, s3])
    return out[0], into[1], into[2]


def _kernel_merge(d1, d2, s, beta1, beta2):
    """(q1, q2, q3) of the kernel's 2to1 links, as ``_merge`` returns them."""
    out, into, _ = _kernel_couple(_one_junction("2to1", (beta1, beta2)), [d1, d2, 0], [0, 0, s])
    return out[0], out[1], into[2]


def _kernel_discharge(ell, q_in, road_supply, dt):
    """(next length, outflow) of the kernel's access link, as ``_discharge``."""
    _, into, queues = _kernel_couple(_one_junction("access"), [0], [road_supply], [ell], [q_in], dt)
    return queues[0], into[0]


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

    @pytest.mark.parametrize("n_cells", [1, 2, 7])
    def test_matches_reference_road_step(self, n_cells):
        rho = np.random.default_rng(n_cells).uniform(0.0, 1.0, size=n_cells)
        args = (1.5, 1.0, 0.05, 0.02, 0.1, 0.2)
        assert np.array_equal(step_single_road(rho, *args), _reference_road_step(rho, *args))

    @pytest.mark.parametrize("rho", [[1.5], [0.2, -0.1]])
    def test_rejects_density_out_of_range(self, rho):
        with pytest.raises(ValueError, match="density outside"):
            step_single_road(rho, 1.0, 1.0, 0.05, 0.02, 0.0, 0.0)

    def test_constant_state_on_loop_is_steady(self):
        traj = simulate_traffic(_loop_scenario(), [1.0])
        assert traj.densities == pytest.approx(np.full_like(traj.densities, 0.5))

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
        with pytest.raises(PolicyError, match="^V_1 = 3.0 exceeds upper bound 2.0$"):
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

    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    def test_kernel_matches_per_junction_reference(self, diamond, policy):
        # at n_time 100 the first policy takes two substeps and the second one
        _assert_matches_reference(dataclasses.replace(diamond, n_time=100), policy)

    @pytest.mark.parametrize("policy", REFERENCE_POLICIES)
    @pytest.mark.parametrize("n_cells, n_time", [(1, 6), (2, 12)])
    def test_kernel_matches_reference_on_short_roads(self, coarse_diamond, n_cells, n_time, policy):
        # on one-cell roads the first cell is the last; n_time again gives
        # the first policy two substeps and the second one
        _assert_matches_reference(coarse_diamond(n_cells, n_time), policy)

    @pytest.mark.parametrize("policy", TWO_ACCESS_POLICIES)
    def test_kernel_matches_reference_on_two_access(self, two_access, policy):
        _assert_matches_reference(two_access, policy)

    def test_kernel_matches_reference_with_nothing_attached(self):
        # no junction, exit or access: the link table is empty and both
        # ends keep flux 0
        scenario = _one_cell_network(1)
        road = dataclasses.replace(scenario.roads[0], rho0=(0.1, 0.9, 0.4, 0.7))
        _assert_matches_reference(dataclasses.replace(scenario, roads=(road,), n_cells=4), [1.5])

    def test_deterministic(self, diamond):
        a = simulate_traffic(diamond, [1.0] * 6)
        b = simulate_traffic(diamond, [1.0] * 6)
        assert np.array_equal(a.densities, b.densities)
        assert np.array_equal(a.queues, b.queues)


def _assert_matches_reference(scenario, policy):
    traj = simulate_traffic(scenario, policy)
    densities, queues, inflow, outflow = _reference_run(scenario, policy)
    assert np.array_equal(traj.densities, densities)
    assert np.array_equal(traj.queues, queues)
    assert np.array_equal(traj.inflow, inflow)
    assert np.array_equal(traj.outflow, outflow)


# The junction and queue rules written out on scalars, apart from the
# kernel's link table (Garavello & Piccoli, Traffic Flow on Networks, 2006).


def _diverge(d, s2, s3, alpha2, alpha3):
    """1to2: the demand split by the distribution rates, each share capped by
    its supply; returns (outflow, inflow 2, inflow 3)."""
    q2 = min(alpha2 * d, s2)
    q3 = min(alpha3 * d, s3)
    return q2 + q3, q2, q3


def _merge(d1, d2, s, beta1, beta2):
    """2to1: priority shares of the supply, the slack one road leaves given
    to the other; returns (outflow 1, outflow 2, inflow)."""
    q1 = min(d1, max(beta1 * s, s - d2))
    q2 = min(d2, max(beta2 * s, s - d1))
    return q1, q2, q1 + q2


def _discharge(ell, q_in, road_supply, dt):
    """Point queue: discharge min{q_in + ell/dt, supply}; returns (next
    length, outflow)."""
    q_out = min(q_in + ell / dt, road_supply)
    return max(ell + dt * (q_in - q_out), 0.0), q_out


def _reference_envelopes(rho, v_max, rho_max):
    """Demand and supply written out apart from the kernel's ``_envelopes``:
    Q up to the critical density rho_max/2 and the capacity v_max rho_max/4
    above it, and the reverse."""
    q = closed_form_flux(rho, v_max, rho_max)
    cap = v_max * rho_max / 4.0
    below = rho <= rho_max / 2.0
    return np.where(below, q, cap), np.where(below, cap, q)


@pytest.mark.parametrize("side", ["below", "above", "mixed"])
def test_envelopes_equal_the_closed_form_bitwise(side):
    # the kernel's envelopes, made in a workspace as a march makes them, bit
    # for bit against the closed form on (B, roads, cells) densities: every
    # cell at or below the critical density, every cell above it, and both,
    # with the densities where the branches meet and the ends of the range
    # (at the critical density itself Q and the capacity are the same bits)
    rng = np.random.default_rng(5)
    rho_max = np.array([1.0, 1.5, 0.8, 0.3])
    crit, zero = rho_max / 2.0, np.zeros(4)
    under, over = np.nextafter(crit, 0.0), np.nextafter(crit, 1.0)
    lo, hi, edges = {
        "below": (zero, crit, [zero, under, crit]),
        "above": (over, rho_max, [over, rho_max]),
        "mixed": (zero, rho_max, [zero, under, crit, over, rho_max]),
    }[side]
    rho = rng.uniform(lo[:, None], hi[:, None], size=(3, 4, 9))
    for cell, edge in enumerate(edges):
        rho[:, :, cell] = edge
    above = rho > crit[:, None]
    assert {"below": not above.any(), "above": above.all(), "mixed": 0 < above.mean() < 1}[side]
    v = rng.uniform(0.25, 2.0, size=(3, 4))
    ws = _Workspace(roads_only_network(rho_max, rho.shape[2]), v, rho, 0.0, np.zeros((3, 0)), 0.0)
    _envelopes(*ws.envelope)
    dem, sup = _reference_envelopes(rho, v[:, :, None], rho_max[:, None])
    assert np.array_equal(ws.dem.view(np.int64), dem.view(np.int64))
    assert np.array_equal(ws.sup.view(np.int64), sup.view(np.int64))


def _jammed(scenario):
    """``scenario`` with every road starting at its rho_max."""
    roads = tuple(dataclasses.replace(r, rho0=(r.rho_max,) * scenario.n_cells) for r in scenario.roads)
    return dataclasses.replace(scenario, roads=roads)


@pytest.mark.parametrize("case", ["diamond", "two_access", "jammed"])
def test_trajectory_flow_is_q_of_its_densities_bitwise(case, diamond, two_access):
    # the trajectory keeps Q as the kernel computed it, level 0 included,
    # bit for bit the closed form of the densities it keeps; the jammed
    # start holds densities at the clip's bound rho_max, where Q is 0
    scenario, policy = {
        "diamond": (diamond, REFERENCE_POLICIES[0]),
        "two_access": (two_access, TWO_ACCESS_POLICIES[0]),
        "jammed": (_jammed(two_access), TWO_ACCESS_POLICIES[2]),
    }[case]
    traj = simulate_traffic(scenario, policy)
    rho_max = np.array([[r.rho_max] for r in scenario.roads])
    if case == "jammed":
        assert (traj.densities[1:] == rho_max).any()
    q = closed_form_flux(traj.densities, np.array(policy)[:, None], rho_max)
    assert traj.flow.shape == traj.densities.shape
    assert np.array_equal(traj.flow.view(np.int64), q.view(np.int64))


def _reference_road_step(rho, v_max, rho_max, ds, dt, flux_in, flux_out):
    """One road's Godunov update written out apart from the kernel: faces
    min{D(left), S(right)} between the prescribed end fluxes, a conservative
    add and a clip to [0, rho_max]."""
    dem, sup = _reference_envelopes(rho, v_max, rho_max)
    interior = np.minimum(dem[:-1], sup[1:])
    flux = np.concatenate(([flux_in], interior, [flux_out]))
    return np.clip(rho + dt / ds * (flux[:-1] - flux[1:]), 0.0, rho_max)


def _reference_run(scenario, policy):
    """Densities, queues and the mean end fluxes of each output step (inflow
    at the tail, outflow at the head), stepped one junction, queue and road
    at a time with the envelopes and the junction and queue rules written
    out on scalars: the reference for the batched kernel.  An end fluxes
    mean adds its substeps' fluxes from 0 and divides by their number."""
    v = np.asarray(policy, dtype=float)
    n_roads, idx = scenario.n_roads, scenario.road_index
    rho_max = [r.rho_max for r in scenario.roads]
    rho = np.array([r.rho0 for r in scenario.roads], dtype=float)
    ell = [a.queue0 for a in scenario.access]
    n_sub = max(1, math.ceil(scenario.dt / (scenario.ds / max(v)) - 1e-12))
    dt = scenario.dt / n_sub
    densities, queues, inflow, outflow = [rho], [list(ell)], [], []
    for k in range(scenario.n_time):
        sum_in, sum_out = np.zeros(n_roads), np.zeros(n_roads)
        for _ in range(n_sub):
            d = [float(_reference_envelopes(rho[e, -1], v[e], rho_max[e])[0]) for e in range(n_roads)]
            s = [float(_reference_envelopes(rho[e, 0], v[e], rho_max[e])[1]) for e in range(n_roads)]
            f_in, f_out = np.zeros(n_roads), np.zeros(n_roads)
            for j in scenario.junctions:
                i, o = [idx(r) for r in j.incoming], [idx(r) for r in j.outgoing]
                if j.kind == "1to1":
                    f_out[i[0]] = f_in[o[0]] = min(d[i[0]], s[o[0]])
                elif j.kind == "1to2":
                    f_out[i[0]], f_in[o[0]], f_in[o[1]] = _diverge(
                        d[i[0]], s[o[0]], s[o[1]], *j.alpha)
                else:
                    f_out[i[0]], f_out[i[1]], f_in[o[0]] = _merge(
                        d[i[0]], d[i[1]], s[o[0]], *j.beta)
            for slot, a in enumerate(scenario.access):
                q_in = a.inflow[k] if isinstance(a.inflow, tuple) else a.inflow
                ell[slot], f_in[idx(a.road)] = _discharge(ell[slot], q_in, s[idx(a.road)], dt)
            for r in scenario.exits:
                f_out[idx(r)] = d[idx(r)]
            rho = np.array([
                _reference_road_step(rho[e], v[e], rho_max[e], scenario.ds, dt, f_in[e], f_out[e])
                for e in range(n_roads)
            ])
            sum_in, sum_out = sum_in + f_in, sum_out + f_out
        densities.append(rho)
        queues.append(list(ell))
        inflow.append(sum_in / n_sub)
        outflow.append(sum_out / n_sub)
    return np.array(densities), np.array(queues), np.array(inflow), np.array(outflow)


# ---------------------------------------------------------------------------
# metamorphic relations: two scenarios whose outputs must agree, with no
# reference implementation between them


def _split_road_docs():
    """One 40-cell road of length 2, fed by an access queue with a peaked
    inflow and leaving by an exit, and the same road as two 20-cell roads of
    length 1 joined by a 1to1 junction, as scenario documents: ds is 0.05 in
    both.  The initial jam across the midpoint reaches 0.9, above the
    critical density, so the junction's supply is not just the capacity."""
    n_time = 601
    t = (np.arange(n_time) + 1) * 5.0 / n_time
    inflow = (0.1 + 0.7 * np.exp(-(((t - 1.5) / 0.4) ** 2))).tolist()
    rho0 = (0.1 + 0.8 * np.exp(-(((np.arange(40) - 20.5) / 6.0) ** 2))).tolist()

    def scenario(cuts):
        n_cells = 40 // (len(cuts) - 1)
        roads = [road(k + 1, [0.5 + a, 1.5], [0.5 + b, 1.5], rho0=rho0[k * n_cells:(k + 1) * n_cells])
                 for k, (a, b) in enumerate(zip(cuts, cuts[1:]))]
        return scenario_doc(roads, horizon=5.0, n_cells=n_cells, n_time=n_time,
                            junctions=[{"kind": "1to1", "in": [k], "out": [k + 1]} for k in range(1, len(roads))],
                            access=[{"road": 1, "inflow": inflow}], exits=[len(roads)])

    return scenario([0.0, 2.0]), scenario([0.0, 1.0, 2.0])


def _split_road_pair():
    return tuple(load_scenario(json.dumps(doc)) for doc in _split_road_docs())


def test_split_road_equals_the_whole_road():
    # the 1to1 link's min(d, s) is the interior face's min(D, S), so a road
    # split at its midpoint steps bitwise as the whole road, and the flow and
    # queue sums add the same cells in the same order
    whole, split = _split_road_pair()
    limits = [0.6, 1.0, 2.0]
    for v in limits:
        one, two = simulate_traffic(whole, [v]), simulate_traffic(split, [v, v])
        assert one.queues.max() > 0.1  # the peak outruns the road at every limit
        assert two.densities.reshape(one.densities.shape).tobytes() == one.densities.tobytes()
        assert two.queues.tobytes() == one.queues.tobytes()
        assert two.inflow[:, 0].tobytes() == one.inflow[:, 0].tobytes()
        assert two.outflow[:, 1].tobytes() == one.outflow[:, 0].tobytes()
    scores = []
    for sc, width in ((whole, 1), (split, 2)):
        zero = AdjointContraction(np.zeros((sc.n_time + 1, sc.n_roads, sc.n_cells)), 0.0)
        scores.append(PolicyEvaluator(sc, adjoint=zero).score([[v] * width for v in limits]))
    for one, two in zip(*scores):
        assert np.array([two.j_flow, two.j_queue]).tobytes() == np.array([one.j_flow, one.j_queue]).tobytes()


@pytest.mark.parametrize("name, policies", [("diamond", REFERENCE_POLICIES), ("two_access", TWO_ACCESS_POLICIES)])
def test_reordering_the_roads_permutes_every_per_road_output(name, policies):
    # roads 2..n of the JSON rotated by one, so no road but the first keeps
    # its place, and each policy with them: every per-road output is the
    # same bits at the new places.  roads[0] stays first, since ds reads its
    # length and the roads' lengths differ in the last bits.  The access
    # queues keep their order, so J_queue is the same bits; J_flow and
    # J_diff add the same terms in another order, within 4 ulps (J_flow
    # moved by 2 on the diamond)
    doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json").read_text())
    perm = [0, *range(2, len(doc["roads"])), 1]
    one = load_scenario(json.dumps(doc))
    other = load_scenario(json.dumps({**doc, "roads": [doc["roads"][k] for k in perm]}))
    moved = [[p[k] for k in perm] for p in policies]
    for policy, permuted in zip(policies, moved):
        a, b = simulate_traffic(one, policy), simulate_traffic(other, permuted)
        for field in ("densities", "flow", "inflow", "outflow"):
            assert getattr(b, field).tobytes() == getattr(a, field)[:, perm].tobytes(), field
        assert b.queues.tobytes() == a.queues.tobytes()
    evaluators = PolicyEvaluator(one), PolicyEvaluator(other)
    assert evaluators[1]._pairing.tobytes() == evaluators[0]._pairing[:, perm].tobytes()
    for a, b in zip(evaluators[0].score(policies), evaluators[1].score(moved)):
        assert np.float64(b.j_queue).tobytes() == np.float64(a.j_queue).tobytes()
        for x, y in ((a.j_flow, b.j_flow), (a.j_diff, b.j_diff)):
            assert abs(x - y) <= 4 * np.spacing(abs(x))


def _with_third_road(doc, junction):
    """The split road ``doc`` with its 1to1 junction replaced by
    ``junction`` and a third road, 3, of 20 empty cells that nothing feeds
    and nothing drains.  The traffic model reads no road geometry, so road
    3 lies anywhere inside the domain."""
    third = {**doc["roads"][1], "id": 3, "start": [0.5, 0.5], "end": [1.5, 0.5], "rho0": [0.0] * 20}
    return load_scenario(json.dumps({**doc, "roads": doc["roads"] + [third], "junctions": [junction]}))


def _assert_steps_as_the_split_road(scenario):
    """Roads 1 and 2 of ``scenario`` step bitwise as the split road's two
    roads, and its queue as the split road's, at three speed limits.  The
    objectives are left out: the third road's cells reorder their sums."""
    _, split = _split_road_pair()
    for v in [0.6, 1.0, 2.0]:
        one, other = simulate_traffic(split, [v, v]), simulate_traffic(scenario, [v, v, v])
        assert one.queues.max() > 0.1  # the peak outruns the road at every limit
        assert other.densities[:, :2].tobytes() == one.densities.tobytes()
        assert other.queues.tobytes() == one.queues.tobytes()
        assert other.inflow[:, :2].tobytes() == one.inflow.tobytes()
        assert other.outflow[:, :2].tobytes() == one.outflow.tobytes()


@pytest.mark.parametrize("incoming", [(1, 3), (3, 1)])
def test_merge_with_an_empty_unfed_road_equals_the_one_to_one(incoming):
    # the empty road's demand is 0, so road 1's link passes
    # min(d, max(beta s, s - 0)) = min(d, s), the 1to1 link, and the empty
    # road's passes min(0, ...) = 0; with road 1 first and then second, road
    # 2's tail must add both links and each head must take its own
    _, split = _split_road_docs()
    _assert_steps_as_the_split_road(
        _with_third_road(split, {"kind": "2to1", "in": list(incoming), "out": [2], "beta": [0.3, 0.7]}))


@pytest.mark.parametrize("outgoing, alpha", [((2, 3), (1.0, 0.0)), ((3, 2), (0.0, 1.0))])
def test_diverge_sending_everything_one_way_equals_the_one_to_one(outgoing, alpha):
    # road 2's link passes min(1 d, s), the 1to1 link, and road 3's
    # min(0 d, s) = 0; with road 2 the first branch and then the second,
    # road 1's head must add both links.  A scenario file takes no rate of
    # 0 or 1, so the rates are set on the loaded junction.
    _, split = _split_road_docs()
    sc = _with_third_road(split, {"kind": "1to2", "in": [1], "out": list(outgoing), "alpha": [0.5, 0.5]})
    _assert_steps_as_the_split_road(
        dataclasses.replace(sc, junctions=(dataclasses.replace(sc.junctions[0], alpha=alpha),)))


#: first order in dt: each 3x refinement of the clock cuts the change of an
#: objective 3x.  The ratios of the ladders below measure 2.985-3.239; the
#: bound allows 0.5 either side of 3, about twice the largest deviation
CLOCK_RATIO = (2.5, 3.5)


@pytest.mark.parametrize("name, n_times", [("diamond", (200, 600, 1800, 5400)), ("two_access", (192, 576, 1728))],
                         ids=["diamond", "two_access"])
def test_refining_the_clock_converges_at_first_order(name, n_times):
    # n_time times 3 per level, each inflow-series value repeated with it, so
    # the piecewise-constant inflow is the same.  two_access starts at 3x its
    # own 64 steps, since its 64->192 change at the upper limits is still
    # pre-asymptotic (ratio 1.77).  J_flow and J_queue at the all-upper and
    # all-lower limits come from the production tally against a zero
    # pairing, so no dispersion CFL applies.  An objective that is 0 at every
    # level, such as the diamond's J_queue at the upper limits, has no ratio
    doc = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json").read_text())
    limits = [[r["v_max"] for r in doc["roads"]], [r["v_min"] for r in doc["roads"]]]
    rows = []
    for n_time in n_times:
        access = [{**a, "inflow": np.repeat(a["inflow"], n_time // len(a["inflow"])).tolist()}
                  if isinstance(a["inflow"], list) else a for a in doc["access"]]
        sc = load_scenario(json.dumps({**doc, "discretization": {**doc["discretization"], "n_time": n_time},
                                       "access": access}))
        zero = AdjointContraction(np.zeros((sc.n_time + 1, sc.n_roads, sc.n_cells)), 0.0)
        rows.append([(b.j_flow, b.j_queue) for b in PolicyEvaluator(sc, adjoint=zero).score(limits)])
    ladder = np.array(rows)  # (level, limits, objective)
    changes = np.diff(ladder, axis=0)
    for side in range(2):
        for objective in range(2):
            if not ladder[:, side, objective].any():
                continue
            ratios = changes[:-1, side, objective] / changes[1:, side, objective]
            assert np.all((CLOCK_RATIO[0] <= ratios) & (ratios <= CLOCK_RATIO[1])), (side, objective, ratios)
    assert ladder[:, :, 1].any()  # some J_queue is checked


# ---------------------------------------------------------------------------
# the observer's scratch: the march hands its observer the step's scratch
# buffer, which no step reads before writing it


def _scribbling(tally, densities, queues, scribble):
    """An observer around ``tally`` that keeps each output step's densities
    and queue lengths in ``densities`` and ``queues`` by batch position
    and, with ``scribble``, fills the scratch with NaN before and after each
    step of the tally."""

    @contextlib.contextmanager
    def observe(at, rho, flow, ell, scratch):
        assert not any(np.shares_memory(scratch, a) for a in (rho, flow, ell))
        with tally(at, rho, flow, ell, scratch) as tallied:
            def step(k):
                if scribble:
                    scratch.fill(np.nan)
                tallied(k)
                if scribble:
                    scratch.fill(np.nan)
                densities[at, k - 1], queues[at, k - 1] = rho, ell

            yield step

    return observe


@pytest.mark.parametrize("name, policies", [("diamond", REFERENCE_POLICIES), ("two_access", TWO_ACCESS_POLICIES)])
def test_scratch_written_by_the_observer_changes_nothing(request, name, policies):
    # NaN in the scratch at every output step leaves the densities, queues,
    # end fluxes and scores bitwise as they are, through simulate_batch and
    # through simulate_traffic; the two-access policies march in two groups,
    # one of them at two substeps per output step
    sc = request.getfixturevalue(name)
    pairing = np.random.default_rng(2).random((sc.n_time + 1, sc.n_roads, sc.n_cells))
    evaluator = PolicyEvaluator(sc, adjoint=AdjointContraction(pairing, 0.0))

    def scores(tally):
        return np.array([[b.j_flow, b.j_diff, b.j_queue] for b in tally.breakdowns()]).tobytes()

    def run(scribble):
        n = len(policies)
        densities = np.empty((n, sc.n_time, sc.n_roads, sc.n_cells))
        queues = np.empty((n, sc.n_time, len(sc.access)))
        tally = ObjectiveTally(evaluator, n)
        simulate_batch(sc, policies, _scribbling(tally, densities, queues, scribble))
        outputs = [densities.tobytes(), queues.tobytes(), scores(tally)]
        for policy in policies:
            tally = ObjectiveTally(evaluator, 1)
            observe = _scribbling(tally, np.empty_like(densities[:1]), np.empty_like(queues[:1]), scribble)
            traj = simulate_traffic(sc, policy, observe=observe)
            outputs += [traj.densities.tobytes(), traj.queues.tobytes(), traj.inflow.tobytes(),
                        traj.outflow.tobytes(), scores(tally)]
        return outputs

    assert run(scribble=True) == run(scribble=False)


def test_flow_is_the_demand_buffer(diamond):
    net = _compile(diamond)
    v = np.array(REFERENCE_POLICIES)
    rho, queues = np.repeat(net.rho0[None], len(v), axis=0), np.repeat(net.queue0[None], len(v), axis=0)
    ws = _Workspace(net, v, rho, diamond.dt / diamond.ds, queues, diamond.dt)
    assert np.shares_memory(ws.flow, ws.dem)
    assert not any(np.shares_memory(ws.diff, a) for a in (ws.dem, ws.sup, rho))
