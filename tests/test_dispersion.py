import dataclasses
import json

import numpy as np
import pytest

from tramopt.dispersion import (
    DispersionError,
    _edge_coefficients,
    advance_field,
    cfl_check_adjoint,
    solve_adjoint,
    solve_dispersion_forward,
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


class TestStencils:
    def test_diffusion_annihilates_affine_fields(self):
        n = 12
        x, y = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        u = 0.3 + 0.7 * x * 0.1 - 1.1 * y * 0.1
        out = advance_field(
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
        out = advance_field(
            u, _neumann_coeffs(), vel, mu=0.0, kappa=0.0, h=h, dt=1.0, source=0.0
        )
        rate = (out - u)[1:-1, 1:-1]
        assert rate == pytest.approx(-(vel[0] * b + vel[1] * c), abs=1e-12)

    def test_interior_sum_preserved_for_compact_fields(self):
        # field supported away from the boundary: pure diffusion telescopes
        rng = np.random.default_rng(5)
        u = np.zeros((15, 15))
        u[4:10, 4:10] = rng.random((6, 6))
        out = advance_field(
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
    doc = {
        "horizon": horizon,
        "domain": {"side": 3, "n_grid": n_grid},
        "discretization": {"n_cells": 4, "n_time": n_time},
        "roads": [
            {"id": 1, "start": [1.0, 1.5], "end": [2.0, 1.5], "width": 0.3,
             "rho_max": 1, "rho0": 0.5, "v_min": 0.25, "v_max": 2}
        ],
        "junctions": [],
        "access": [],
        "exits": [1],
        "dispersion": {"mu": 1e-6, "kappa": kappa, "wind": list(wind), "phi0": phi0},
        "emission": {"theta": 0.5},
        "objectives": {"delta": 0, "mode": "2d"},
    }
    return load_scenario(json.dumps(doc))


class TestSolveAdjoint:
    def test_terminal_condition_exact(self):
        p = solve_adjoint(_tiny_scenario())
        assert not np.any(p[-1])

    def test_first_reversed_step_is_uniform_source(self, diamond):
        p = solve_adjoint(diamond)
        expected = diamond.dt / (diamond.horizon * diamond.area)
        assert p[-2] == pytest.approx(np.full_like(p[-2], expected))

    def test_cfl_violation_raises(self, diamond):
        bad = dataclasses.replace(diamond, n_time=500)
        with pytest.raises(DispersionError):
            solve_adjoint(bad)

    def test_large_kappa_bounded_by_scalar_fixed_point(self):
        kappa = 1e3
        s = _tiny_scenario(n_grid=8, n_time=2000, horizon=0.5, kappa=kappa)
        assert s.dt * kappa <= 1.0 / 3.0
        p = solve_adjoint(s)
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
