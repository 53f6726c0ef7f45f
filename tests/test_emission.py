import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import closed_form_flux
from scenarios import road, scenario_doc

from tramopt import emission
from tramopt.cli import write_emission_bin
from tramopt.emission import emission_field, emission_rate, rasterize_network
from tramopt.network import load_scenario
from tramopt.traffic import simulate_traffic


def _scenario(roads, n_grid=6, n_cells=4, theta=0.5):
    doc = scenario_doc(roads, n_grid=n_grid, n_cells=n_cells, n_time=10, theta=theta, exits=[r["id"] for r in roads])
    return load_scenario(json.dumps(doc))


class TestEmissionRate:
    def test_empty_road_emits_nothing(self):
        assert emission_rate(closed_form_flux(0.0, 1.7, 1.0), 0.0, 0.9) == 0.0

    def test_flow_plus_weighted_density(self):
        assert emission_rate(closed_form_flux(0.5, 1.0, 1.0), 0.5, 0.5) == pytest.approx(0.5)

    def test_jammed_road_emits_density_term_only(self):
        assert emission_rate(closed_form_flux(1.0, 1.0, 1.0), 1.0, 0.5) == pytest.approx(0.5)

    @given(rho=st.floats(0.0, 1.0), theta=st.floats(0.0, 2.0))
    @example(rho=1.0, theta=0.0)
    def test_zero_iff_empty(self, rho, theta):
        # zero on an empty road, and on a jammed one (flow 0) when theta is 0
        rate = emission_rate(closed_form_flux(rho, 1.0, 1.0), rho, theta)
        assert rate >= 0.0
        assert (rate == 0.0) == (rho == 0.0 or (rho == 1.0 and theta == 0.0))


class TestRasterize:
    def test_axis_aligned_band_width_two_h(self):
        # h = 0.5, width 1.0: rows within one grid line of the centerline
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=1.0)])
        raster = rasterize_network(s)
        assert len(set(zip(raster.i.tolist(), raster.j.tolist()))) == raster.i.size  # one road each
        ys = np.unique(raster.j)
        assert list(ys) == [2, 3, 4]  # y = 1.0, 1.5, 2.0
        xs = np.unique(raster.i)
        assert list(xs) == [1, 2, 3, 4, 5]  # feet inside [0.5, 2.5]

    def test_crossing_roads_counted_twice(self):
        s = _scenario(
            [
                road(1, [0.5, 1.5], [2.5, 1.5], width=1.0),
                road(2, [1.5, 0.5], [1.5, 2.5], width=1.0),
            ]
        )
        raster = rasterize_network(s)
        at = Counter(zip(raster.i.tolist(), raster.j.tolist()))
        assert at[(3, 3)] == 2  # center of the cross
        assert at[(1, 3)] == 1  # on road 1 only

    def test_point_beyond_head_not_covered(self):
        s = _scenario([road(1, [0.5, 1.5], [2.0, 1.5], width=1.0)])
        raster = rasterize_network(s)
        pts = set(zip(raster.i.tolist(), raster.j.tolist()))
        assert (5, 3) not in pts  # x = 2.5: foot would fall outside [0, L]

    def test_footpoint_cells_half_open(self):
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=1.0)], n_cells=4)
        raster = rasterize_network(s)
        cover = {}  # grid point -> its (road index, cell index) entries
        for i, j, slot in zip(raster.i.tolist(), raster.j.tolist(), raster.slot.tolist()):
            cover.setdefault((i, j), []).append(divmod(slot, s.n_cells))
        assert cover[(1, 3)] == [(0, 0)]  # x = 0.5 -> s = 0 -> first cell
        assert cover[(5, 3)] == [(0, 3)]  # x = 2.5 -> s = L -> last cell

    def test_policy_independent(self, diamond):
        a = rasterize_network(diamond)
        b = rasterize_network(diamond)
        assert np.array_equal(a.slot, b.slot)
        assert np.array_equal(a.weight, b.weight)


_RASTER_FIELDS = ("i", "j", "slot", "weight")
_COORDS = st.one_of(st.floats(-1.5, 4.5), st.integers(-3, 9).map(lambda k: k * 0.5))
_DIRECTIONS = st.one_of(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]),
    st.floats(0.0, 2 * math.pi).map(lambda a: (math.cos(a), math.sin(a))),
)


@st.composite
def _straight_road_scenarios(draw):
    """1-8 roads of one length in the domain [0, 3]^2, some partly or wholly
    outside it, on grid-aligned or arbitrary endpoints."""
    length = draw(st.one_of(st.sampled_from([1.0, 1.5]), st.floats(0.2, 2.5)))
    roads = []
    for rid in range(1, draw(st.integers(1, 8)) + 1):
        x, y = draw(_COORDS), draw(_COORDS)
        dx, dy = draw(_DIRECTIONS)
        width = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 1.5)))
        roads.append(road(rid, [x, y], [x + length * dx, y + length * dy], width=width))
    return _scenario(roads, n_grid=draw(st.integers(2, 12)), n_cells=draw(st.integers(1, 8)))


def _reference_raster(s):
    """The rule of the emission module's docstring, grid point by grid point."""
    cover = {}  # (i, j) -> [(road index, cell)], roads in index order
    for i in range(s.n_grid + 1):
        for j in range(s.n_grid + 1):
            for e, r in enumerate(s.roads):
                (ax, ay), (bx, by) = r.tail, r.head
                px, py = i * s.h - ax, j * s.h - ay
                dx, dy = bx - ax, by - ay
                t = (px * dx + py * dy) / r.length**2
                dist = np.hypot(px - t * dx, py - t * dy)
                if -1e-12 <= t <= 1.0 + 1e-12 and dist <= r.width / 2.0 * (1.0 + 1e-12) + 1e-15:
                    cell = min(int(t * r.length / s.ds), s.n_cells - 1)
                    cover.setdefault((i, j), []).append((e, cell))
    entries = [(pt, e, cell, len(cover[pt])) for pt in sorted(cover) for e, cell in cover[pt]]
    return {
        "i": [i for (i, _), _, _, _ in entries],
        "j": [j for (_, j), _, _, _ in entries],
        "slot": [e * s.n_cells + cell for _, e, cell, _ in entries],
        "weight": [1.0 / (s.roads[e].width * count) for _, e, _, count in entries],
        "cover_counts": [sum(e == r for _, e, _, _ in entries) for r in range(s.n_roads)],
    }


@pytest.mark.parametrize("pass_points", [emission.RASTER_PASS_POINTS, 5], ids=["default", "5"])
@given(scenario=_straight_road_scenarios())
def test_raster_matches_point_by_point_rule(pass_points, scenario):
    # the bits do not depend on the pass bound: at 5 points, below almost
    # every road's box, passes split boxes and run from one road into the next
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emission, "RASTER_PASS_POINTS", pass_points)
        raster = rasterize_network(scenario)
    expected = _reference_raster(scenario)
    assert (raster.n_grid, raster.n_cells) == (scenario.n_grid, scenario.n_cells)
    for name in _RASTER_FIELDS:
        got = getattr(raster, name)
        assert got.dtype == (float if name == "weight" else int), name
        assert got.tolist() == expected[name], name
    assert raster.cover_counts(scenario.n_roads).tolist() == expected["cover_counts"]


class TestEmissionField:
    def _field_for(self, scenario, policy=None):
        policy = policy if policy is not None else np.ones(scenario.n_roads)
        traj = simulate_traffic(scenario, policy)
        raster = rasterize_network(scenario)
        return traj, raster, np.concatenate(list(emission_field(traj, raster, scenario)))

    def test_single_road_rate_scaled_by_width(self):
        # rho = 0.5, V = 1, theta = 0.5: rate 0.5; width 0.1 -> xi = 5.0
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)], n_grid=60)
        _, _, field = self._field_for(s)
        assert field[0].max() == pytest.approx(5.0)

    def test_two_covering_roads_average(self):
        # both roads at rate 0.5 with widths 0.1 and 0.25 crossing at (1.5, 1.5):
        # xi = (0.5/0.1 + 0.5/0.25) / 2 = 3.5
        s = _scenario(
            [
                road(1, [0.5, 1.5], [2.5, 1.5], width=0.1),
                road(2, [1.5, 0.5], [1.5, 2.5], width=0.25),
            ],
            n_grid=60,
        )
        _, _, field = self._field_for(s)
        i = j = 30  # the crossing point
        assert field[0, i, j] == pytest.approx((5.0 + 2.0) / 2.0)

    def test_uncovered_points_zero_for_all_times(self):
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)], n_grid=60)
        _, raster, field = self._field_for(s)
        mask = np.ones(field.shape[1:], dtype=bool)
        mask[raster.i, raster.j] = False
        assert not np.any(field[:, mask])

    def test_nonnegative_and_linear_in_theta(self):
        s1 = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)], theta=0.5)
        s2 = dataclasses.replace(s1, theta=1.0)
        traj = simulate_traffic(s1, [1.0])
        raster = rasterize_network(s1)
        f1 = np.concatenate(list(emission_field(traj, raster, s1)))
        f2 = np.concatenate(list(emission_field(traj, raster, s2)))
        assert np.all(f1 >= 0.0)
        # xi = Q/w + theta*rho/w pointwise: doubling theta adds one density share
        dens_share = f2 - f1
        assert np.allclose(f2, f1 + dens_share)
        assert np.all(dens_share >= 0.0)

    def test_doubling_width_halves_field_where_counts_equal(self):
        roads_thin = [road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)]
        roads_wide = [road(1, [0.5, 1.5], [2.5, 1.5], width=0.2)]
        s_thin = _scenario(roads_thin, n_grid=60)
        s_wide = _scenario(roads_wide, n_grid=60)
        traj = simulate_traffic(s_thin, [1.0])
        f_thin, f_wide = (
            np.concatenate(list(emission_field(traj, rasterize_network(s), s))) for s in (s_thin, s_wide)
        )
        thin_pts = rasterize_network(s_thin)
        vals_thin = f_thin[0, thin_pts.i, thin_pts.j]
        vals_wide = f_wide[0, thin_pts.i, thin_pts.j]
        assert vals_wide == pytest.approx(vals_thin / 2.0)

    # these checks raise at the call itself, before any block is asked for
    def test_grid_mismatch_rejected(self, diamond):
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)])
        traj = simulate_traffic(s, [1.0])
        raster = rasterize_network(s)
        with pytest.raises(ValueError):
            emission_field(traj, raster, diamond)

    def test_time_grid_mismatch_rejected(self):
        s = _scenario([road(1, [0.5, 1.5], [2.5, 1.5], width=0.1)])
        traj = simulate_traffic(s, [1.0])
        longer = dataclasses.replace(s, n_time=s.n_time + 1)
        with pytest.raises(ValueError, match="time grids"):
            emission_field(traj, rasterize_network(s), longer)


def _reference_emission_bin(s, densities, policy) -> bytes:
    """The emission.bin of the field made level by level, each grid point's
    entries of ``_reference_raster`` added in entry order from 0.0."""
    raster = _reference_raster(s)
    v = np.asarray(policy, float)[:, None]
    rho_max = np.array([r.rho_max for r in s.roads])[:, None]
    data = [b"TRMO", np.array([1, s.n_grid, s.n_time], dtype="<u4").tobytes()]
    for rho in densities:
        rates = emission_rate(closed_form_flux(rho, v, rho_max), rho, s.theta).ravel()
        level = np.zeros((s.n_grid + 1, s.n_grid + 1))
        for i, j, slot, weight in zip(raster["i"], raster["j"], raster["slot"], raster["weight"]):
            level[i, j] += rates[slot] * weight
        data.append(level.astype("<f8").tobytes())
    return b"".join(data)


@pytest.mark.parametrize("n_grid", [60, 130], ids=["levels-not-a-block-multiple", "level-over-the-budget"])
def test_emission_bin_is_the_level_by_level_field(n_grid, tmp_path):
    # two crossing roads of unequal widths, so that some points average two rates
    s = _scenario(
        [road(1, [0.5, 1.5], [2.5, 1.5], width=0.1, rho0=0.3), road(2, [1.5, 0.5], [1.5, 2.5], width=0.25)],
        n_grid=n_grid,
    )
    policy = [1.0, 1.5]
    traj = simulate_traffic(s, policy)
    level_bytes = 8 * (n_grid + 1) ** 2
    per_block = max(1, emission.FIELD_BLOCK_BYTES // level_bytes)
    blocks = list(emission_field(traj, rasterize_network(s), s))
    assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
    assert all(b.nbytes <= max(emission.FIELD_BLOCK_BYTES, level_bytes) for b in blocks)
    if n_grid == 60:
        assert per_block > 1 and (s.n_time + 1) % per_block != 0
    else:
        assert level_bytes > emission.FIELD_BLOCK_BYTES
    path = tmp_path / "emission.bin"
    write_emission_bin(path, iter(blocks), s.n_grid, s.n_time)
    assert path.read_bytes() == _reference_emission_bin(s, traj.densities, policy)
