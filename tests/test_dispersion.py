import dataclasses
import json

import numpy as np
import pytest
from oracles import _field_terms, adjoint_history, solve_dispersion_forward
from scenarios import road, scenario_doc

from tramopt.dispersion import (
    DispersionError,
    _edge_coefficients,
    _stencil_weights,
    _Workspace,
    advance_field,
    cfl_check_adjoint,
    solve_adjoint,
)
from tramopt.network import DispersionParams, load_scenario

TABLE_PARAMS = DispersionParams(mu=1e-6, kappa=0.0, wind=(1.0, 1.0))


# the Robin multiplier of an edge with v.eta = -1 at mu 1e-6, h 0.05
_ROBIN = (1e-6 - 0.05) / (1e-6 + 0.05)


class TestClassifyBoundary:
    # an edge the velocity leaves (v.eta >= 0) is Neumann, multiplier 1.0;
    # one it enters (v.eta < 0) is Robin
    def test_diagonal_wind(self):
        coeffs = _edge_coefficients(1e-6, 0.05, (1.0, 1.0))
        assert coeffs["right"] == 1.0 and coeffs["top"] == 1.0
        assert coeffs["left"] == _ROBIN and coeffs["bottom"] == _ROBIN

    def test_calm_air_everything_outflow(self):
        assert set(_edge_coefficients(1e-6, 0.05, (0.0, 0.0)).values()) == {1.0}

    def test_westward_wind(self):
        coeffs = _edge_coefficients(1e-6, 0.05, (-1.0, 0.0))
        assert coeffs["left"] == 1.0
        assert coeffs["right"] == _ROBIN


class TestCflCheck:
    def test_proof_of_concept_numbers(self):
        report = cfl_check_adjoint(0.05, 0.0083, TABLE_PARAMS)
        assert report.dt_bound == pytest.approx(0.008333, rel=1e-4)
        assert report.advective_value == pytest.approx(0.331987, rel=1e-5)
        assert report.passed

    def test_larger_dt_fails_first_bound(self):
        report = cfl_check_adjoint(0.05, 0.009, TABLE_PARAMS)
        assert not report.passed
        assert report.dt > report.dt_bound

    def test_advection_free_limit(self):
        params = DispersionParams(mu=1e-6, kappa=0.0, wind=(0.0, 0.0))
        report = cfl_check_adjoint(0.05, 1.0, params)
        assert report.dt_bound == pytest.approx(208.33, rel=1e-3)
        assert report.passed

    def test_kappa_term_tightens(self):
        params = DispersionParams(mu=1e-6, kappa=100.0, wind=(0.0, 0.0))
        report = cfl_check_adjoint(0.05, 0.01, params)
        assert not report.passed
        assert report.kappa_value == pytest.approx(1.0)


class TestGhostValues:
    # the wind (1, 0) leaves through the right edge and enters through the
    # left one, where -(v.eta) = 1; it runs along the bottom edge, v.eta = 0
    def test_neumann_reflects(self):
        assert _edge_coefficients(1e-6, 0.05, (1.0, 0.0))["right"] * 0.7 == 0.7

    def test_robin_hand_value(self):
        got = _edge_coefficients(1e-6, 0.05, (1.0, 0.0))["left"] * 1.0
        assert got == pytest.approx((1e-6 - 0.05) / (1e-6 + 0.05))
        assert got == pytest.approx(-0.99996, abs=1e-5)

    def test_robin_with_zero_wind_reduces_to_neumann(self):
        assert _edge_coefficients(1e-6, 0.05, (1.0, 0.0))["bottom"] * 0.7 == pytest.approx(0.7)


def _per_problem_coefficients(params, h, problem):
    """The boundary rule as it was written per problem: the adjoint had Robin
    mu dp/deta + (w.eta) p = 0 on the wind's outflow edges (w.eta >= 0), the
    forward problem Robin mu dphi/deta - (w.eta) phi = 0 on its inflow edges
    (w.eta < 0), each Neumann elsewhere."""
    normals = {"left": (-1.0, 0.0), "right": (1.0, 0.0), "bottom": (0.0, -1.0), "top": (0.0, 1.0)}
    coeffs = {}
    for edge, eta in normals.items():
        nu = params.wind[0] * eta[0] + params.wind[1] * eta[1]
        robin, v_normal = (nu >= 0.0, nu) if problem == "adjoint" else (nu < 0.0, -nu)
        coeffs[edge] = (params.mu - v_normal * h) / (params.mu + v_normal * h) if robin else 1.0
    return coeffs


@pytest.mark.parametrize("wind", [(1.0, 1.0), (1.0, 0.0), (-1.0, 0.5), (0.0, -2.0), (0.0, 0.0)])
@pytest.mark.parametrize("mu, h", [(1e-6, 0.05), (0.02, 0.1)])
def test_one_boundary_rule_gives_both_problems_coefficients(wind, mu, h):
    # the adjoint marches with the reversed wind, the forward problem with the
    # wind; v.eta is positive, negative and zero on some edge across the winds
    params = DispersionParams(mu=mu, kappa=0.0, wind=wind)
    for problem, velocity in (("adjoint", (-wind[0], -wind[1])), ("forward", wind)):
        got = _edge_coefficients(mu, h, velocity)
        want = _per_problem_coefficients(params, h, problem)
        assert {e: c.hex() for e, c in got.items()} == {e: c.hex() for e, c in want.items()}, problem


def _neumann_coeffs():
    return {"left": 1.0, "right": 1.0, "bottom": 1.0, "top": 1.0}


def _terms(dt, sources):
    """``term(k)`` of a march whose step k has the source ``sources[k]``: the
    forward problem's padded rows for fields, the adjoint's 0-d array for
    numbers."""
    if np.ndim(sources[0]):
        return _field_terms(dt, np.asarray(sources))
    return lambda k: np.array(dt * sources[k])


def _marched(u, coeffs, velocity, mu, kappa, h, dt, sources):
    """The levels after each of ``len(sources)`` consecutive ``advance_field``
    steps from ``u`` in one march's workspace, step k with ``sources[k]``."""
    ws = _Workspace(u.shape[0], coeffs, _stencil_weights(velocity, mu, kappa, h, dt))
    ws.u[...] = u
    term, levels = _terms(dt, sources), []
    for k in range(len(sources)):
        advance_field(ws, term(k))
        levels.append(ws.u.copy())
    return levels


def _advanced(u, coeffs, velocity, mu, kappa, h, dt, source):
    """``u`` after one ``advance_field`` step in a march's workspace."""
    return _marched(u, coeffs, velocity, mu, kappa, h, dt, [source])[0]


def _neighbors(u, coeffs):
    """East, west, north and south neighbors of ``u`` from a ghost-padded copy."""
    ext = np.zeros((u.shape[0] + 2, u.shape[1] + 2))
    ext[1:-1, 1:-1] = u
    ext[0, 1:-1] = coeffs["left"] * u[1, :]
    ext[-1, 1:-1] = coeffs["right"] * u[-2, :]
    ext[1:-1, 0] = coeffs["bottom"] * u[:, 1]
    ext[1:-1, -1] = coeffs["top"] * u[:, -2]
    return ext[2:, 1:-1], ext[:-2, 1:-1], ext[1:-1, 2:], ext[1:-1, :-2]


def _reference_step(u, coeffs, velocity, mu, kappa, h, dt, source):
    """The step as one five-weight expression on a ghost-padded copy of ``u``
    (reference), its weights written out here."""
    east, west, north, south = _neighbors(u, coeffs)
    ax, ay = velocity
    d = mu / (h * h)
    c_c = 1.0 - dt * (4.0 * d + (abs(ax) + abs(ay)) / h + kappa)
    c_e, c_w = dt * (d - min(ax, 0.0) / h), dt * (d + max(ax, 0.0) / h)
    c_n, c_s = dt * (d - min(ay, 0.0) / h), dt * (d + max(ay, 0.0) / h)
    return c_c * u + c_e * east + c_w * west + c_n * north + c_s * south + dt * source


def _term_by_term_step(u, coeffs, velocity, mu, kappa, h, dt, source):
    """The step as diffusion, advection, reaction and source, term by term
    (second reference: the same operator in another rounding order)."""
    east, west, north, south = _neighbors(u, coeffs)
    ax, ay = velocity
    lap = (east + west + north + south - 4.0 * u) * (mu / (h * h))
    adv = (
        min(ax, 0.0) * east - max(ax, 0.0) * west + min(ay, 0.0) * north - max(ay, 0.0) * south
        + (abs(ax) + abs(ay)) * u
    ) / h
    return u + dt * (lap - adv - kappa * u + source)


_STEP_VELOCITIES = [(0.8, -0.4), (-1.0, 0.5), (0.0, 0.0)]


def _step_case(velocity):
    rng = np.random.default_rng(11)
    u = rng.random((9, 9)) - 0.5
    params = dict(mu=0.02, kappa=0.3, h=0.1, dt=0.01, source=rng.random((9, 9)))
    return u, _edge_coefficients(0.02, 0.1, velocity), params


@pytest.mark.parametrize("velocity", _STEP_VELOCITIES)
def test_step_rounds_as_the_expression(velocity):
    # the step adds the five weighted terms and the source in the
    # expression's order, so it gives the expression's bits, Robin edges and
    # a field source included
    u, coeffs, params = _step_case(velocity)
    got = _advanced(u, coeffs, velocity, **params)
    assert got.tobytes() == _reference_step(u, coeffs, velocity, **params).tobytes()


@pytest.mark.parametrize("velocity", _STEP_VELOCITIES)
@pytest.mark.parametrize("field", [True, False], ids=["field-term", "constant-term"])
def test_consecutive_steps_round_as_the_expression(velocity, field):
    # three steps read and write both buffers of the workspace, each with
    # its own bound operands; each level has the expression's bits
    u, coeffs, params = _step_case(velocity)
    rng = np.random.default_rng(12)
    sources = list(rng.random((3,) + u.shape)) if field else [0.7, -1.3, 0.0]
    params.pop("source")
    levels = _marched(u, coeffs, velocity, sources=sources, **params)
    want = u
    for k, got in enumerate(levels):
        want = _reference_step(want, coeffs, velocity, source=sources[k], **params)
        assert got.tobytes() == want.tobytes(), k


@pytest.mark.parametrize("velocity", _STEP_VELOCITIES)
def test_step_agrees_with_the_term_by_term_expression(velocity):
    # the same operator rounded another way: equal to a few ulps of the field
    u, coeffs, params = _step_case(velocity)
    got = _advanced(u, coeffs, velocity, **params)
    want = _term_by_term_step(u, coeffs, velocity, **params)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("wind", [(1.0, 1.0), (-1.0, 0.5), (-0.3, -2.0), (2.0, -0.7)])
@pytest.mark.parametrize("mu, h", [(1e-6, 0.05), (0.02, 0.1)])
def test_weights_nonnegative_at_the_cfl_bound(wind, mu, h):
    # at the largest dt the gate passes, and with kappa at its own bound,
    # every weight of the step is >= 0, for the adjoint's reversed wind too
    dt = cfl_check_adjoint(h, 1.0, DispersionParams(mu, 0.0, wind)).dt_bound
    kappa = (1.0 / 3.0) / dt
    assert cfl_check_adjoint(h, dt, DispersionParams(mu, kappa, wind)).passed
    for velocity in (wind, (-wind[0], -wind[1])):
        weights = _stencil_weights(velocity, mu, kappa, h, dt)
        assert min(weights) >= 0.0, weights


class TestStencils:
    def test_diffusion_annihilates_affine_fields(self):
        n = 12
        x, y = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        u = 0.3 + 0.7 * x * 0.1 - 1.1 * y * 0.1
        out = _advanced(
            u, _neumann_coeffs(), (0.0, 0.0), mu=0.02, kappa=0.0, h=0.1, dt=1.0, source=0.0
        )
        interior = (out - u)[1:-1, 1:-1]
        assert np.max(np.abs(interior)) < 1e-12

    def test_advection_is_exact_directional_derivative_on_affine(self):
        n = 12
        h = 0.1
        b, c = 0.7, -1.1
        x, y = np.meshgrid(np.arange(n + 1) * h, np.arange(n + 1) * h, indexing="ij")
        u = 0.3 + b * x + c * y
        vel = (0.8, -0.4)
        out = _advanced(
            u, _neumann_coeffs(), vel, mu=0.0, kappa=0.0, h=h, dt=1.0, source=0.0
        )
        rate = (out - u)[1:-1, 1:-1]
        assert rate == pytest.approx(-(vel[0] * b + vel[1] * c), abs=1e-12)

    def test_interior_sum_preserved_for_compact_fields(self):
        # field supported away from the boundary: pure diffusion telescopes
        rng = np.random.default_rng(5)
        u = np.zeros((15, 15))
        u[4:10, 4:10] = rng.random((6, 6))
        out = _advanced(
            u, _neumann_coeffs(), (0.0, 0.0), mu=0.05, kappa=0.0, h=0.3, dt=0.05, source=0.0
        )
        assert out.sum() == pytest.approx(u.sum(), abs=1e-13)

    def test_interior_update_coefficients_nonnegative_under_bound(self):
        # monotonicity of the explicit step at the tightened limit
        h, mu, wind = 0.05, 1e-6, (1.0, 1.0)
        report = cfl_check_adjoint(h, 0.0083, DispersionParams(mu, 0.0, wind))
        dt = report.dt
        diag = 1.0 - dt * (4.0 * mu / h**2 + (abs(wind[0]) + abs(wind[1])) / h)
        assert diag >= 0.0
        for comp in wind:
            assert dt * (mu / h**2 + abs(comp) / h) >= 0.0


def _tiny_scenario(n_grid=10, n_time=40, horizon=0.5, kappa=0.0, wind=(1.0, 1.0), phi0=0.0):
    doc = scenario_doc([road(1, [1.0, 1.5], [2.0, 1.5], width=0.3)], horizon=horizon, n_grid=n_grid, n_cells=4,
                       n_time=n_time, kappa=kappa, wind=wind, phi0=phi0, exits=[1])
    return load_scenario(json.dumps(doc))


class TestSolveAdjoint:
    def test_terminal_condition_exact(self):
        p = adjoint_history(_tiny_scenario())
        assert not np.any(p[-1])

    def test_first_reversed_step_is_uniform_source(self, diamond):
        p = adjoint_history(diamond)
        expected = diamond.dt / (diamond.horizon * diamond.area)
        assert p[-2] == pytest.approx(np.full_like(p[-2], expected))

    def test_visit_sees_each_level_once_in_march_order(self):
        s = _tiny_scenario()
        seen = []
        assert solve_adjoint(s, lambda k, level: seen.append(k)) is None
        assert seen == list(range(s.n_time, -1, -1))

    def test_cfl_violation_raises(self, diamond):
        bad = dataclasses.replace(diamond, n_time=500)
        with pytest.raises(DispersionError):
            adjoint_history(bad)

    def test_large_kappa_bounded_by_scalar_fixed_point(self):
        kappa = 1e3
        s = _tiny_scenario(n_grid=8, n_time=2000, horizon=0.5, kappa=kappa)
        assert s.dt * kappa <= 1.0 / 3.0
        p = adjoint_history(s)
        source = 1.0 / (s.horizon * s.area)
        level = source / kappa
        # scalar recursion ignoring transport: u <- u(1 - kappa dt) + dt src
        u = 0.0
        for _ in range(s.n_time):
            u = u * (1.0 - kappa * s.dt) + s.dt * source
        assert u == pytest.approx(level, rel=1e-6)
        assert np.max(np.abs(p)) <= level * 1.05 + 1e-12


class TestForwardDispersion:
    def test_zero_source_zero_initial_stays_zero(self):
        s = _tiny_scenario()
        emission = np.zeros((s.n_time + 1, s.n_grid + 1, s.n_grid + 1))
        phi = solve_dispersion_forward(s, emission)
        assert not np.any(phi)

    def test_uniform_source_accumulates_linearly_without_transport(self):
        s = _tiny_scenario(n_grid=10, n_time=50, horizon=0.5, wind=(0.0, 0.0))
        c = 0.37
        emission = np.full((s.n_time + 1, s.n_grid + 1, s.n_grid + 1), c)
        phi = solve_dispersion_forward(s, emission)
        # mu = 1e-6: diffusion negligible over this horizon at interior points
        interior = phi[-1, 3:-3, 3:-3]
        assert interior == pytest.approx(c * s.horizon, rel=1e-6)

    def test_initial_condition_exact(self):
        s = _tiny_scenario(phi0=0.9)
        emission = np.zeros((s.n_time + 1, s.n_grid + 1, s.n_grid + 1))
        phi = solve_dispersion_forward(s, emission)
        assert phi[0] == pytest.approx(np.full_like(phi[0], 0.9))

    def test_shape_mismatch_rejected(self):
        s = _tiny_scenario()
        with pytest.raises(ValueError):
            solve_dispersion_forward(s, np.zeros((3, 3, 3)))

    def test_every_level_rounds_as_the_reference_steps(self):
        # the march's padded source rows give each level the bits of the
        # reference step looped over the emission levels
        s = _tiny_scenario(kappa=0.5, wind=(1.0, -0.5), phi0=0.2)
        params = s.dispersion
        rng = np.random.default_rng(13)
        emission = rng.random((s.n_time + 1, s.n_grid + 1, s.n_grid + 1))
        phi = solve_dispersion_forward(s, emission)
        coeffs = _edge_coefficients(params.mu, s.h, params.wind)
        want = np.full(phi[0].shape, params.phi0)
        assert phi[0].tobytes() == want.tobytes()
        for k in range(s.n_time):
            want = _reference_step(
                want, coeffs, params.wind, params.mu, params.kappa, s.h, s.dt, emission[k]
            )
            assert phi[k + 1].tobytes() == want.tobytes(), k

    def test_overflowing_field_raises(self):
        # an emission near the largest double overflows within the horizon
        s = _tiny_scenario(n_time=400, horizon=5.0)
        emission = np.full((s.n_time + 1, s.n_grid + 1, s.n_grid + 1), 1e308)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DispersionError, match="blew up"):
            solve_dispersion_forward(s, emission)
