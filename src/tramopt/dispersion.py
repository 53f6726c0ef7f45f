"""Pollutant transport on the control area: the adjoint solver and its march.

The adjoint and forward problems share one march: one explicit step
(five-point diffusion, componentwise upwind advection, forward Euler in
time) on the square grid, behind one CFL gate.  The step is linear in a point and its four neighbors,
so it is one weighted five-point stencil, u <- cC u + cE E + cW W + cN N +
cS S + dt*source, its terms added left to right; ``advance_field`` is that
step, with the weights of ``_stencil_weights``.  Boundary stencils are closed by
eliminating ghost points through one rule for both problems: the Robin
condition mu du/deta - (v.eta) u = 0 on each edge where the marched velocity
v enters the domain (v.eta < 0), Neumann du/deta = 0 elsewhere.  The adjoint
problem is marched in reversed time with the reversed wind and a constant
source, so its Robin edges are the wind's outflow edges; it is solved once
per scenario and reused for every policy.

The march steps a padded field between two copies and hands each time
level to a callback as it is made.  Scoring contracts each adjoint level
there and keeps only the contraction.  The forward solve, the oracle of the
adjoint route, lives with the tests (``tests/oracles.py``): it marches the
forward problem through the same ``_march`` and collects the whole
(n_time+1, n_grid+1, n_grid+1) history.  A step reads one copy and writes
the other, so ``_Workspace`` binds the step's operands once per march for
each of the two parities, and a step makes only the stencil's ufunc calls.
The march asks ``term(k)`` for the step's dt*source term: one 0-d array for
the adjoint, the emission level in padded rows for the forward problem.  The
step adds it over whole padded rows; the ghost columns take it harmlessly,
since the next ghost fill overwrites them before any read.
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
    """The field ``u`` of a march inside one ghost layer per edge, twice, and
    the operands of its step, bound once per march.

    A step reads one padded buffer and writes the other, and the next step
    reads what this one wrote, so the workspace binds both buffer parities:
    ``steps[parity]`` is (ghosts, terms, out, u) for the step that reads
    buffer ``parity``, and ``parity`` names the buffer that holds the
    current level ``u``.  ``ghosts`` are the four edges' (multiplier,
    mirror, ghost) triples: a ghost row or column is the multiplier times
    the interior one it mirrors.  ``terms`` are the five (weight, view) pairs (cC, cE, cW,
    cN, cS), each view the read buffer's padded rows 1..n1, or their shift
    by one row or column, (n1, n1 + 2).  ``out`` is the written buffer's
    padded rows 1..n1, ghost columns included, where the step also adds its
    ``term(k)`` (the next step's ghost fill overwrites those columns), and
    ``u`` is its level.  Multipliers and weights are 0-d
    arrays: numpy takes a Python float operand through a slower promotion
    path, and the result is the same.  ``tmp`` is the step's temporary.
    """

    def __init__(self, n1: int, coeffs: dict[str, float], weights):
        m = n1 + 2
        pads = np.zeros((2, m, m))
        c = {edge: np.array(value) for edge, value in coeffs.items()}
        weights = [np.array(value) for value in weights]
        steps = []
        for ext, written in zip(pads, pads[::-1]):
            ghosts = (
                (c["left"], ext[2, 1:-1], ext[0, 1:-1]),
                (c["right"], ext[-3, 1:-1], ext[-1, 1:-1]),
                (c["bottom"], ext[1:-1, 2], ext[1:-1, 0]),
                (c["top"], ext[1:-1, -3], ext[1:-1, -1]),
            )
            flat = ext.reshape(-1)
            views = (flat[m + shift:(m - 1) * m + shift].reshape(n1, m) for shift in (0, m, -m, 1, -1))
            steps.append((ghosts, tuple(zip(weights, views)), written[1:-1], written[1:-1, 1:-1]))
        self.steps = tuple(steps)
        self.parity = 0
        self.u = pads[0, 1:-1, 1:-1]
        self.tmp = np.empty((n1, m))


def _stencil_weights(velocity, mu, kappa, h, dt) -> tuple[float, float, float, float, float]:
    """The weights (cC, cE, cW, cN, cS) of ``advance_field`` for ``velocity``
    (ax, ay); under the CFL gate all five are >= 0."""
    ax, ay = velocity
    diffusion = mu / (h * h)
    return (
        1.0 - dt * (4.0 * diffusion + (abs(ax) + abs(ay)) / h + kappa),
        dt * (diffusion - min(ax, 0.0) / h),
        dt * (diffusion + max(ax, 0.0) / h),
        dt * (diffusion - min(ay, 0.0) / h),
        dt * (diffusion + max(ay, 0.0) / h),
    )


def advance_field(ws: _Workspace, term) -> None:
    """One explicit step of du/dt = mu*lap(u) - velocity.grad(u) - kappa*u + source
    on ``ws.u``, which holds the new field after it.

    ``u`` is indexed [i, j] with x = i*h, y = j*h; every grid point is
    updated, the boundary closed by ghost values from the edge multipliers
    the workspace binds.  The step is u <- cC u + cE E + cW W + cN N + cS S
    + term, its terms added left to right, so every level rounds as that
    expression with term = dt*source does; the adjoint cache key names this
    form.  The weights are ``_stencil_weights``':
    cE = dt*(mu/h^2 - min(ax, 0)/h), cW = dt*(mu/h^2 + max(ax, 0)/h), cN and
    cS alike with ay, and cC = 1 - dt*(4 mu/h^2 + (|ax| + |ay|)/h + kappa).

    Each term is one pass over the padded rows 1..n1 whole, or their shift
    by one row or column, and ``term`` is added over those whole rows too:
    a 0-d array for a constant source, or (n1, n1 + 2) padded rows for a
    source field, since a pass over contiguous rows is cheaper than one
    over the strided (n1, n1) interior.  What lands in the two ghost
    columns, the term included, is never read: the next step's ghost fill
    overwrites them first, and the level ``u`` excludes them.  The step
    reads buffer ``ws.parity`` through that parity's bound operands, writes
    the other buffer and flips ``ws.parity``.
    """
    ghosts, terms, out, u = ws.steps[ws.parity]
    # ghost layer: the edge's multiplier times the mirrored interior
    # neighbor; the corners stay unused
    for multiplier, mirror, ghost in ghosts:
        np.multiply(multiplier, mirror, out=ghost)
    (weight, point), *neighbors = terms
    np.multiply(weight, point, out=out)
    tmp = ws.tmp
    for weight, neighbor in neighbors:
        out += np.multiply(weight, neighbor, out=tmp)
    out += term
    ws.parity ^= 1
    ws.u = u


def _march(scenario: Scenario, u0: float, velocity, term, visit, reverse=False) -> None:
    """March the scenario's n_time steps with ``velocity`` from the constant
    field ``u0``, handing each level to ``visit(slot, level)`` as it is made.

    The CFL gate runs first, before ``term`` is called: ``term(k)`` is the
    dt*source term that ``advance_field`` adds in the step from k to k+1, a
    0-d array or (n1, n1 + 2) padded rows, whose ghost columns the next
    step's ghost fill overwrites.  The workspace binds the step's operands
    for both buffer parities once, before the first step.  Level k goes to
    slot k, or to slot n_time - k if ``reverse``, so a time-reversed march
    comes out on the original time grid.  ``level`` is the workspace's
    field, overwritten by a later step.
    """
    params, h, dt, n_steps = scenario.dispersion, scenario.h, scenario.dt, scenario.n_time
    cfl = cfl_check_adjoint(h, dt, params)
    if not cfl.passed:
        raise DispersionError(cfl.finding)
    ws = _Workspace(
        scenario.n_grid + 1,
        _edge_coefficients(params.mu, h, velocity),
        _stencil_weights(velocity, params.mu, params.kappa, h, dt),
    )
    slots = range(n_steps, -1, -1) if reverse else range(n_steps + 1)
    ws.u[...] = u0
    visit(slots[0], ws.u)
    for k in range(n_steps):
        advance_field(ws, term(k))
        visit(slots[k + 1], ws.u)
    if not np.all(np.isfinite(ws.u)):
        raise DispersionError("field blew up: non-finite values (instability)")


def solve_adjoint(scenario: Scenario, visit) -> None:
    """Solve the backward pollution-sensitivity problem once per scenario.

    ``visit(k, p[k])`` sees each level of p, (n_grid+1, n_grid+1) on the
    original time grid, as it is made, k from n_time down to 0 (p[n_time] =
    0); nothing is kept.  Internally the time-reversed problem is marched
    forward with the reversed wind and the constant source 1/(T*|area|).
    """
    wind = scenario.dispersion.wind
    term = np.array(scenario.dt * (1.0 / (scenario.horizon * scenario.area)))
    _march(scenario, 0.0, (-wind[0], -wind[1]), lambda k: term, visit, reverse=True)
