"""Pollutant transport on the control area: adjoint and forward solvers.

Both solvers share one march: one explicit stencil kernel (five-point
diffusion, componentwise upwind advection, forward Euler in time) on the
square grid, behind one CFL gate.  Boundary stencils are closed by
eliminating ghost points through one rule for both problems: the Robin
condition mu du/deta - (v.eta) u = 0 on each edge where the marched
velocity v enters the domain (v.eta < 0), Neumann du/deta = 0 elsewhere.
The adjoint problem is marched in reversed time with the reversed wind and
a constant source, so its Robin edges are the wind's outflow edges; it is
solved once per scenario and reused for every policy.
"""

from __future__ import annotations

import numpy as np

from tramopt.network import CflReport, DispersionParams, Scenario

# outward normals of the four edges of the square domain
_EDGES = {
    "left": (-1.0, 0.0),
    "right": (1.0, 0.0),
    "bottom": (0.0, -1.0),
    "top": (0.0, 1.0),
}


class DispersionError(RuntimeError):
    """Raised on CFL violations or unstable marches."""


def cfl_check_adjoint(h: float, dt: float, params: DispersionParams) -> CflReport:
    """Tightened stability bounds for the explicit advection-diffusion step.

    The step passes when dt is at most one third of h^2/(4 mu + |v|_1 h),
    the advective expression stays below 1/3, and (for kappa > 0) dt*kappa
    stays below 1/3 so the reaction term keeps the update monotone.
    """
    vx, vy = params.wind
    mu = params.mu
    dt_bound = (1.0 / 3.0) * h * h / (4.0 * mu + (abs(vx) + abs(vy)) * h)
    advective = dt * (
        vx * vx / (2.0 * mu + abs(vx) * h) + vy * vy / (2.0 * mu + abs(vy) * h)
    )
    return CflReport(
        dt=dt,
        dt_bound=dt_bound,
        advective_value=advective,
        advective_bound=1.0 / 3.0,
        kappa_value=dt * params.kappa,
        kappa_bound=1.0 / 3.0,
    )


def _edge_coefficients(mu: float, h: float, velocity) -> dict[str, float]:
    """Ghost multipliers per edge for a march with ``velocity``.

    The one boundary rule of both problems: Robin mu du/deta - (v.eta) u = 0
    on each edge the velocity enters (v.eta < 0), Neumann elsewhere.
    Central differencing gives the ghost value as a multiplier times the
    mirrored interior neighbor: (mu + (v.eta) h) / (mu - (v.eta) h) for
    Robin, whose denominator mu + |v.eta| h is positive, and 1.0 for
    Neumann.  Where v.eta = 0 the Robin form would give exactly 1.0 too.
    """
    coeffs = {}
    for edge, eta in _EDGES.items():
        nu = velocity[0] * eta[0] + velocity[1] * eta[1]
        coeffs[edge] = (mu + nu * h) / (mu - nu * h) if nu < 0.0 else 1.0
    return coeffs


def _pad_with_ghosts(u: np.ndarray, coeffs: dict[str, float]) -> np.ndarray:
    """Extend the field by one ghost layer per edge (corners stay unused)."""
    n1 = u.shape[0]
    ext = np.zeros((n1 + 2, n1 + 2))
    ext[1:-1, 1:-1] = u
    ext[0, 1:-1] = coeffs["left"] * u[1, :]
    ext[-1, 1:-1] = coeffs["right"] * u[-2, :]
    ext[1:-1, 0] = coeffs["bottom"] * u[:, 1]
    ext[1:-1, -1] = coeffs["top"] * u[:, -2]
    return ext


def advance_field(u, coeffs, velocity, mu, kappa, h, dt, source):
    """One explicit step of du/dt = mu*lap(u) - velocity.grad(u) - kappa*u + source.

    ``u`` is indexed [i, j] with x = i*h, y = j*h; the update runs on every
    grid point including the boundary, which is closed by ghost elimination.
    """
    ax, ay = velocity
    axp, axm = max(ax, 0.0), min(ax, 0.0)
    ayp, aym = max(ay, 0.0), min(ay, 0.0)

    ext = _pad_with_ghosts(u, coeffs)
    east, west = ext[2:, 1:-1], ext[:-2, 1:-1]
    north, south = ext[1:-1, 2:], ext[1:-1, :-2]

    lap = (east + west + north + south - 4.0 * u) * (mu / (h * h))
    adv = (
        axm * east - axp * west + aym * north - ayp * south + (abs(ax) + abs(ay)) * u
    ) / h
    return u + dt * (lap - adv - kappa * u + source)


def _march(scenario: Scenario, u0, velocity, source, reverse=False):
    """March the scenario's n_time steps with ``velocity``, returning the full
    history (n_time+1, n_grid+1, n_grid+1).

    The CFL gate runs first, before ``source`` is called: ``source(k)`` is the
    source (a scalar or a field) of the step from k to k+1.  Level k lands in
    slot k, or in slot n_time - k if ``reverse``, so a time-reversed march
    comes out on the original time grid without a reversed copy.
    """
    params, h, dt, n_steps = scenario.dispersion, scenario.h, scenario.dt, scenario.n_time
    cfl = cfl_check_adjoint(h, dt, params)
    if not cfl.passed:
        raise DispersionError(cfl.finding)
    coeffs = _edge_coefficients(params.mu, h, velocity)
    history = np.empty((n_steps + 1,) + u0.shape)
    slots = range(n_steps, -1, -1) if reverse else range(n_steps + 1)
    history[slots[0]] = u0
    u = u0
    for k in range(n_steps):
        u = advance_field(u, coeffs, velocity, params.mu, params.kappa, h, dt, source(k))
        history[slots[k + 1]] = u
    if not np.all(np.isfinite(u)):
        raise DispersionError("field blew up: non-finite values (instability)")
    return history


def solve_adjoint(scenario: Scenario) -> np.ndarray:
    """Solve the backward pollution-sensitivity problem once per scenario.

    Returns p with shape (n_time+1, n_grid+1, n_grid+1) on the original time
    grid (p[n_time] = 0).  Internally the time-reversed problem is marched
    forward with the reversed wind and the constant source 1/(T*|area|).
    """
    n1 = scenario.n_grid + 1
    wind = scenario.dispersion.wind
    return _march(
        scenario, np.zeros((n1, n1)), (-wind[0], -wind[1]),
        lambda k: 1.0 / (scenario.horizon * scenario.area), reverse=True,
    )


def solve_dispersion_forward(scenario: Scenario, emission: np.ndarray) -> np.ndarray:
    """Solve the concentration evolution driven by a rasterized emission field.

    Validation oracle for the adjoint route: the same march with the
    physical wind and the emission as source.  Returns phi with shape
    (n_time+1, n_grid+1, n_grid+1).
    """
    params = scenario.dispersion
    n1 = scenario.n_grid + 1
    if emission.shape != (scenario.n_time + 1, n1, n1):
        raise ValueError("emission field does not match the scenario grids")
    return _march(scenario, np.full((n1, n1), params.phi0), params.wind, emission.__getitem__)
