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

The march steps one padded field in place and hands each time level to a
callback as it is made.  Scoring contracts each adjoint level there and
keeps only the contraction; the oracles collect the whole
(n_time+1, n_grid+1, n_grid+1) history.
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


class _Workspace:
    """The field of a march inside one ghost layer per edge, with the step's
    temporaries; made once per march.

    ``rows`` and its four neighbors are the padded rows 1..n1 whole, ghost
    columns included, and their shifts by one row or column, so that each
    product of the step is one pass over contiguous memory.  What the step
    writes into the ghost columns is overwritten by the next ghost fill.
    """

    def __init__(self, n1: int):
        m = n1 + 2
        self.padded = np.zeros((m, m))
        flat = self.padded.reshape(-1)
        self.rows, self.east, self.west, self.north, self.south = (
            flat[m + shift:(n1 + 1) * m + shift].reshape(n1, m) for shift in (0, m, -m, 1, -1)
        )
        self.u = self.padded[1:-1, 1:-1]
        self.lap, self.adv, self.tmp = (np.empty((n1, m)) for _ in range(3))


def advance_field(ws: _Workspace, coeffs, velocity, mu, kappa, h, dt, source) -> None:
    """One explicit step of du/dt = mu*lap(u) - velocity.grad(u) - kappa*u + source,
    in place on ``ws.u``.

    ``u`` is indexed [i, j] with x = i*h, y = j*h; the update runs on every
    grid point including the boundary, which is closed by ghost elimination.
    Each product is written into the workspace in the order of
    u + dt*((E + W + N + S - 4u)*(mu/h^2)
            - (ax- E - ax+ W + ay- N - ay+ S + (|ax| + |ay|) u)/h - kappa u + source),
    so every level rounds as that expression does.
    """
    ax, ay = velocity
    axp, axm = max(ax, 0.0), min(ax, 0.0)
    ayp, aym = max(ay, 0.0), min(ay, 0.0)
    ext, u, lap, adv, tmp = ws.padded, ws.rows, ws.lap, ws.adv, ws.tmp
    # ghost layer: the edge's multiplier times the mirrored interior
    # neighbor; the corners stay unused
    np.multiply(coeffs["left"], ext[2, 1:-1], out=ext[0, 1:-1])
    np.multiply(coeffs["right"], ext[-3, 1:-1], out=ext[-1, 1:-1])
    np.multiply(coeffs["bottom"], ext[1:-1, 2], out=ext[1:-1, 0])
    np.multiply(coeffs["top"], ext[1:-1, -3], out=ext[1:-1, -1])

    np.add(ws.east, ws.west, out=lap)
    lap += ws.north
    lap += ws.south
    lap -= np.multiply(4.0, u, out=tmp)
    lap *= mu / (h * h)
    np.multiply(axm, ws.east, out=adv)
    adv -= np.multiply(axp, ws.west, out=tmp)
    adv += np.multiply(aym, ws.north, out=tmp)
    adv -= np.multiply(ayp, ws.south, out=tmp)
    adv += np.multiply(abs(ax) + abs(ay), u, out=tmp)
    adv /= h
    lap -= adv
    lap -= np.multiply(kappa, u, out=tmp)
    lap[:, 1:-1] += source
    lap *= dt
    u += lap


def _march(scenario: Scenario, u0: float, velocity, source, visit=None, reverse=False):
    """March the scenario's n_time steps with ``velocity`` from the constant
    field ``u0``, handing each level to ``visit(slot, level)`` as it is made.

    The CFL gate runs first, before ``source`` is called: ``source(k)`` is the
    source (a scalar or a field) of the step from k to k+1.  Level k goes to
    slot k, or to slot n_time - k if ``reverse``, so a time-reversed march
    comes out on the original time grid.  ``level`` is the workspace's field,
    overwritten by the next step.  Without ``visit`` the levels are collected
    and the history (n_time+1, n_grid+1, n_grid+1) is returned.
    """
    params, h, dt, n_steps = scenario.dispersion, scenario.h, scenario.dt, scenario.n_time
    cfl = cfl_check_adjoint(h, dt, params)
    if not cfl.passed:
        raise DispersionError(cfl.finding)
    coeffs = _edge_coefficients(params.mu, h, velocity)
    ws = _Workspace(scenario.n_grid + 1)
    history = None
    if visit is None:
        history = np.empty((n_steps + 1,) + ws.u.shape)
        visit = history.__setitem__
    slots = range(n_steps, -1, -1) if reverse else range(n_steps + 1)
    ws.u[...] = u0
    visit(slots[0], ws.u)
    for k in range(n_steps):
        advance_field(ws, coeffs, velocity, params.mu, params.kappa, h, dt, source(k))
        visit(slots[k + 1], ws.u)
    if not np.all(np.isfinite(ws.u)):
        raise DispersionError("field blew up: non-finite values (instability)")
    return history


def solve_adjoint(scenario: Scenario, visit=None) -> np.ndarray | None:
    """Solve the backward pollution-sensitivity problem once per scenario.

    Returns p with shape (n_time+1, n_grid+1, n_grid+1) on the original time
    grid (p[n_time] = 0).  With ``visit``, nothing is kept or returned:
    ``visit(k, p[k])`` sees each level as it is made, k from n_time down to
    0.  Internally the time-reversed problem is marched forward with the
    reversed wind and the constant source 1/(T*|area|).
    """
    wind = scenario.dispersion.wind
    return _march(
        scenario, 0.0, (-wind[0], -wind[1]),
        lambda k: 1.0 / (scenario.horizon * scenario.area), visit, reverse=True,
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
    return _march(scenario, params.phi0, params.wind, emission.__getitem__)
