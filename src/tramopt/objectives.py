"""Discrete objective functionals for a speed-limit policy.

All quadratures follow the right rectangle rule: time sums start at the
first step after the initial datum, spatial sums over the control area skip
the left and bottom grid rows.  The pollution objective is evaluated
through the precomputed adjoint, so no PDE is solved per policy: a batch
of policies is scored in one pass of the traffic kernel, which hands every
output step to an ``ObjectiveTally`` that adds up the flow, the
adjoint-paired emission rate and the queue lengths as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tramopt.dispersion import solve_adjoint
# cell_rates is not called here but stays a name of this module, which
# perfbench/spans.py wraps
from tramopt.emission import RasterMap, cell_rates, emission_rate, rasterize_network  # noqa: F401
from tramopt.network import Scenario
from tramopt.traffic import simulate_batch, simulate_traffic

#: floor for relative comparisons on pollutant-free scenarios
EPS_RELATIVE = 1e-12


def j_diff_adjoint(
    emission: np.ndarray, adjoint: np.ndarray, phi0, scenario: Scenario
) -> float:
    """Average pollutant mass via the adjoint pairing with the emission field.

    ``phi0`` may be a constant or a full (n_grid+1, n_grid+1) array; its term
    is policy-independent.
    """
    n1 = scenario.n_grid + 1
    if emission.shape != (scenario.n_time + 1, n1, n1) or adjoint.shape != emission.shape:
        raise ValueError("emission/adjoint fields do not match the scenario grids")
    h2 = scenario.h**2
    source_term = scenario.dt * h2 * float(
        np.sum(emission[1:, 1:, 1:] * adjoint[1:, 1:, 1:])
    )
    phi0_grid = np.asarray(phi0, dtype=float)
    if phi0_grid.ndim == 0:
        initial_term = h2 * float(phi0_grid) * float(np.sum(adjoint[0, 1:, 1:]))
    else:
        if phi0_grid.shape != (n1, n1):
            raise ValueError("phi0 grid does not match the scenario grid")
        initial_term = h2 * float(np.sum(phi0_grid[1:, 1:] * adjoint[0, 1:, 1:]))
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
    total queue; the sums over time are taken per policy at the end.
    """

    def __init__(self, evaluator: "PolicyEvaluator", n_policies: int):
        sc = evaluator.scenario
        self.evaluator = evaluator
        self._pairing = evaluator._pairing.reshape(sc.n_time + 1, -1)
        self._steps = np.zeros((3, n_policies, sc.n_time))  # flow, emission, queue

    def __call__(self, rows, k, rho, flow, queues) -> None:
        b = len(rows)
        rate = emission_rate(flow, rho, self.evaluator.scenario.theta)
        self._steps[0, rows, k - 1] = flow.reshape(b, -1).sum(axis=1)
        self._steps[1, rows, k - 1] = (rate.reshape(b, -1) * self._pairing[k]).sum(axis=1)
        self._steps[2, rows, k - 1] = queues.sum(axis=1)

    def breakdowns(self) -> list[ObjectiveBreakdown]:
        sc = self.evaluator.scenario
        phi0_term = self.evaluator.phi0_term
        return [
            ObjectiveBreakdown(
                j_flow=float(sc.dt * sc.ds * flow),
                j_diff=sc.dt * sc.h**2 * float(emitted) + phi0_term,
                j_queue=float(sc.dt / sc.horizon * queued),
                delta=sc.delta,
            )
            for flow, emitted, queued in self._steps.sum(axis=2).T
        ]


class PolicyEvaluator:
    """Scores policies against a scenario with the adjoint precomputed.

    The adjoint is contracted with the raster weights once, leaving per
    policy only the traffic run, whose every output step is paired with the
    contraction on the fly.  ``score`` runs a whole batch through the kernel
    at once; ``components`` runs one policy through ``simulate_traffic`` and
    gives bitwise the same numbers.  Instances are read-only after
    construction and safe to share.
    """

    def __init__(
        self,
        scenario: Scenario,
        adjoint: np.ndarray | None = None,
        raster: RasterMap | None = None,
    ):
        self.scenario = scenario
        self.adjoint = solve_adjoint(scenario) if adjoint is None else adjoint
        self.raster = rasterize_network(scenario) if raster is None else raster
        self._pairing = self._contract_adjoint()
        phi0 = scenario.dispersion.phi0
        self.phi0_term = (
            scenario.h**2 * phi0 * float(np.sum(self.adjoint[0, 1:, 1:]))
        )

    def _contract_adjoint(self) -> np.ndarray:
        """Raster-weighted adjoint per (time, road, cell).

        Only covered grid points with both indices >= 1 contribute, matching
        the spatial quadrature of the pollution objective.
        """
        sc = self.scenario
        raster = self.raster
        pairing_flat = np.zeros((sc.n_roads * sc.n_cells, sc.n_time + 1))
        keep_point = (raster.points_i >= 1) & (raster.points_j >= 1)
        keep_entry = keep_point[raster.entry_point] if raster.entry_point.size else np.zeros(0, bool)
        if np.any(keep_entry):
            p_at_points = self.adjoint[:, raster.points_i, raster.points_j]
            vals = (
                p_at_points[:, raster.entry_point[keep_entry]]
                * raster.entry_weight[keep_entry]
            )
            flat_idx = (
                raster.entry_road[keep_entry] * sc.n_cells
                + raster.entry_cell[keep_entry]
            )
            np.add.at(pairing_flat, flat_idx, vals.T)
        return pairing_flat.T.reshape(sc.n_time + 1, sc.n_roads, sc.n_cells)

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

    def vector(self, policy) -> np.ndarray:
        return self.components(policy).vector(self.scenario.mode)


class BatchScorer:
    """``map_fn`` of ``pareto_search``: scores each whole batch with ``score``
    (the evaluator's unless replaced) and keeps every breakdown in ``scored``."""

    def __init__(self, evaluator: PolicyEvaluator):
        self.mode = evaluator.scenario.mode
        self.score = evaluator.score
        self.scored: dict[tuple[float, ...], ObjectiveBreakdown] = {}

    def __call__(self, _evaluate, policies) -> list[np.ndarray]:
        policies = list(policies)
        parts = self.score(policies)
        self.scored.update(zip(map(tuple, policies), parts))
        return [b.vector(self.mode) for b in parts]


def evaluate_policy(scenario: Scenario, policy, adjoint: np.ndarray) -> np.ndarray:
    """Objective vector of one policy given the precomputed adjoint."""
    return PolicyEvaluator(scenario, adjoint=adjoint).vector(policy)
