"""Discrete objective functionals for a speed-limit policy.

All quadratures follow the right rectangle rule: time sums start at the
first step after the initial datum, spatial sums over the control area skip
the left and bottom grid rows.  The pollution objective is evaluated
through the adjoint, solved once per scenario, so no PDE is solved per
policy.  Scoring needs only the adjoint's contraction with the raster
weights per (time, road, cell) and the sum of its level 0, so
``contract_adjoint`` contracts each level as the march makes it and the
history is never held.  ``PolicyEvaluator.score`` runs a batch of policies
through one pass of the traffic kernel, and an ``ObjectiveTally`` adds each
output step's flow, adjoint-paired emission rate and queue lengths to one
breakdown per policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tramopt.dispersion import solve_adjoint
# cell_rates is not called here but stays a name of this module, which
# perfbench/spans.py wraps
from tramopt.emission import cell_rates, emission_rate, rasterize_network  # noqa: F401
from tramopt.network import PolicyError, Scenario
from tramopt.traffic import simulate_batch, simulate_traffic


def j_diff_adjoint(
    emission: np.ndarray, adjoint: np.ndarray, phi0, scenario: Scenario
) -> float:
    """Average pollutant mass via the adjoint pairing with the emission field.

    ``phi0`` is the constant initial concentration; its term is
    policy-independent.
    """
    n1 = scenario.n_grid + 1
    if emission.shape != (scenario.n_time + 1, n1, n1) or adjoint.shape != emission.shape:
        raise ValueError("emission/adjoint fields do not match the scenario grids")
    h2 = scenario.h**2
    source_term = scenario.dt * h2 * float(
        np.sum(emission[1:, 1:, 1:] * adjoint[1:, 1:, 1:])
    )
    initial_term = h2 * float(phi0) * float(np.sum(adjoint[0, 1:, 1:]))
    return source_term + initial_term


def j_diff_forward(concentration: np.ndarray, scenario: Scenario) -> float:
    """Average pollutant mass from a forward concentration history (oracle)."""
    n1 = scenario.n_grid + 1
    if concentration.shape != (scenario.n_time + 1, n1, n1):
        raise ValueError("concentration field does not match the scenario grids")
    weight = scenario.dt * scenario.h**2 / (scenario.horizon * scenario.area)
    return weight * float(np.sum(concentration[1:, 1:, 1:]))


@dataclass(frozen=True)
class ObjectiveBreakdown:
    j_flow: float
    j_diff: float
    j_queue: float
    delta: float

    @property
    def j_poll(self) -> float:
        return self.j_diff + self.delta * self.j_queue

    def vector(self, mode: str) -> np.ndarray:
        """Minimization-convention objective vector for the given mode."""
        if mode == "2d":
            return np.array([-self.j_flow, self.j_poll])
        if mode == "3d":
            return np.array([-self.j_flow, self.j_diff, self.j_queue])
        raise ValueError(f"unknown objective mode {mode!r}")


class ObjectiveTally:
    """The ``observe`` callback of the traffic kernel that scores a batch.

    Per policy and output step k >= 1 it keeps the flow summed over all
    cells, the emission rate paired with the contracted adjoint, and the
    total queue; the sums over time are taken per policy at the end.  The
    emission rate of a step is formed in a workspace the next step reuses.
    """

    def __init__(self, evaluator: "PolicyEvaluator", n_policies: int):
        sc = evaluator.scenario
        self.evaluator = evaluator
        self._pairing = evaluator._pairing.reshape(sc.n_time + 1, -1)
        self._steps = np.zeros((3, n_policies, sc.n_time))  # flow, emission, queue
        self._rate = np.empty((0, self._pairing.shape[1]))

    def __call__(self, rows, k, rho, flow, queues) -> None:
        b = len(rows)
        if len(self._rate) != b:
            self._rate = np.empty((b, self._pairing.shape[1]))
        flow, rate = flow.reshape(b, -1), self._rate
        # a scenario's numbers may overflow these sums; ``breakdowns`` reports it
        with np.errstate(over="ignore"):
            emission_rate(flow, rho.reshape(b, -1), self.evaluator.scenario.theta, out=rate)
            np.multiply(rate, self._pairing[k], out=rate)
            self._steps[0, rows, k - 1] = flow.sum(axis=1)
            self._steps[1, rows, k - 1] = rate.sum(axis=1)
            self._steps[2, rows, k - 1] = queues.sum(axis=1)

    def breakdowns(self) -> list[ObjectiveBreakdown]:
        """One breakdown per policy.  A component that is not finite, because
        the scenario's numbers overflow it, raises ``PolicyError`` naming it."""
        sc = self.evaluator.scenario
        phi0_term = self.evaluator.phi0_term
        with np.errstate(over="ignore"):
            totals = self._steps.sum(axis=2).T
        breakdowns = [
            ObjectiveBreakdown(
                j_flow=float(sc.dt * sc.ds * flow),
                j_diff=sc.dt * sc.h**2 * float(emitted) + phi0_term,
                j_queue=float(sc.dt / sc.horizon * queued),
                delta=sc.delta,
            )
            for flow, emitted, queued in totals
        ]
        for b in breakdowns:
            for name in ("j_flow", "j_diff", "j_queue", "j_poll"):
                if not math.isfinite(getattr(b, name)):
                    raise PolicyError(
                        f"{name} = {getattr(b, name)} is not finite: the scenario overflows the objectives"
                    )
        return breakdowns


@dataclass(frozen=True)
class AdjointContraction:
    """What scoring keeps of the adjoint p: ``pairing``, the raster-weighted
    p per (time, road, cell), and ``level0``, the sum of p at time 0 over
    the grid points with both indices >= 1, which the phi0 term scales."""

    pairing: np.ndarray
    level0: float


class AdjointContractor:
    """The ``visit`` callback of the adjoint march that contracts each level
    with the raster weights as it is made.

    Only covered grid points with both indices >= 1 contribute, matching
    the spatial quadrature of the pollution objective; a level's raster
    entries are added to their (road, cell) in entry order.
    """

    def __init__(self, sc: Scenario):
        raster = rasterize_network(sc)
        keep_point = (raster.points_i >= 1) & (raster.points_j >= 1)
        keep_entry = keep_point[raster.entry_point]
        entry_point = raster.entry_point[keep_entry]
        self._i, self._j = raster.points_i[entry_point], raster.points_j[entry_point]
        self._weight = raster.entry_weight[keep_entry]
        self._slot = raster.entry_road[keep_entry] * sc.n_cells + raster.entry_cell[keep_entry]
        self._shape = (sc.n_time + 1, sc.n_roads, sc.n_cells)
        self._pairing = np.zeros((sc.n_time + 1, sc.n_roads * sc.n_cells))
        self._level0 = math.nan

    def __call__(self, k: int, level: np.ndarray) -> None:
        np.add.at(self._pairing[k], self._slot, level[self._i, self._j] * self._weight)
        if k == 0:
            self._level0 = float(np.sum(level[1:, 1:]))

    def contraction(self) -> AdjointContraction:
        return AdjointContraction(self._pairing.reshape(self._shape), self._level0)


def contract_adjoint(scenario: Scenario) -> AdjointContraction:
    """Solve the scenario's adjoint, contracting each level as it is made."""
    contractor = AdjointContractor(scenario)
    solve_adjoint(scenario, contractor)
    return contractor.contraction()


class PolicyEvaluator:
    """Scores policies against a scenario with the adjoint precomputed.

    ``adjoint`` is the scenario's ``AdjointContraction``, made here by
    ``contract_adjoint`` if not given; only its pairing is kept, with the
    scenario and the phi0 term.  An instance pickles to 0.58 MB on the
    diamond, where the whole adjoint history would take 18 MB and is never
    built, and is what ``--jobs`` workers receive.  Per policy
    only the traffic run remains, each output step paired with the
    contraction on the fly.  ``score`` runs a whole batch through the kernel
    at once; ``components`` runs one policy through ``simulate_traffic`` and
    gives bitwise the same numbers.  Instances are read-only and safe to share.
    """

    def __init__(self, scenario: Scenario, adjoint: AdjointContraction | None = None):
        self.scenario = scenario
        adjoint = contract_adjoint(scenario) if adjoint is None else adjoint
        self._pairing = adjoint.pairing
        self.phi0_term = scenario.h**2 * scenario.dispersion.phi0 * adjoint.level0

    def score(self, policies) -> list[ObjectiveBreakdown]:
        """Breakdowns of a batch of policies from one pass of the traffic kernel."""
        policies = list(policies)
        tally = ObjectiveTally(self, len(policies))
        simulate_batch(self.scenario, policies, tally)
        return tally.breakdowns()

    def components(self, policy) -> ObjectiveBreakdown:
        tally = ObjectiveTally(self, 1)
        simulate_traffic(self.scenario, policy, observe=tally)
        return tally.breakdowns()[0]
