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

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from tramopt.dispersion import solve_adjoint
# cell_rates is not called here but stays a name of this module, which
# perfbench/spans.py wraps
from tramopt.emission import cell_rates, emission_rate, rasterize_network  # noqa: F401
from tramopt.network import PolicyError, Scenario
from tramopt.traffic import simulate_batch, simulate_traffic


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
    total queue.  Each slice of a substep group that the kernel marches
    enters it once, with ``at``, the slice's batch positions, and the
    workspace arrays it steps in, the same for the whole slice.  The tally
    then views those arrays as (len(at), -1), keeps a (3, len(at), n_time)
    store for the slice and holds one ``np.errstate`` for the slice's
    march, so that each step only forms the rate, pairs it and adds three
    sums straight into the store; when the march ends, the store's sums
    over time go to the slice's policies.  The rate is formed in the
    march's ``scratch``, which no step of the march reads before writing
    it, so the tally allocates no buffer for it.
    """

    def __init__(self, evaluator: "PolicyEvaluator", n_policies: int):
        sc = evaluator.scenario
        self.evaluator = evaluator
        self._pairing = evaluator._pairing.reshape(sc.n_time + 1, -1)
        self._totals = np.zeros((n_policies, 3))  # flow, emission, queue

    @contextlib.contextmanager
    def __call__(self, at: np.ndarray, rho, flow, queues, scratch):
        b = len(at)
        flow, rho, rate = flow.reshape(b, -1), rho.reshape(b, -1), scratch.reshape(b, -1)
        sc, pairing = self.evaluator.scenario, self._pairing
        # theta as a 0-d array, as the traffic step's constants: the same
        # product, without numpy's slower path for a Python float operand
        theta = np.array(sc.theta)
        flows, emitted, queued = steps = np.zeros((3, b, sc.n_time))

        def step(k):
            emission_rate(flow, rho, theta, out=rate)
            np.multiply(rate, pairing[k], out=rate)
            np.add.reduce(flow, axis=1, out=flows[:, k - 1])
            np.add.reduce(rate, axis=1, out=emitted[:, k - 1])
            np.add.reduce(queues, axis=1, out=queued[:, k - 1])

        # a scenario's numbers may overflow these sums; ``breakdowns`` reports it
        with np.errstate(over="ignore"):
            yield step
            self._totals[at] = steps.sum(axis=2).T

    def breakdowns(self) -> list[ObjectiveBreakdown]:
        """One breakdown per policy, in batch order.  A component that is
        not finite, because the scenario's numbers overflow it, raises
        ``PolicyError`` naming it."""
        sc = self.evaluator.scenario
        phi0_term = self.evaluator.phi0_term
        breakdowns = [
            ObjectiveBreakdown(
                j_flow=float(sc.dt * sc.ds * flow),
                j_diff=sc.dt * sc.h**2 * float(emitted) + phi0_term,
                j_queue=float(sc.dt / sc.horizon * queued),
                delta=sc.delta,
            )
            for flow, emitted, queued in self._totals
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

    Only raster entries of grid points with both indices >= 1 contribute,
    matching the spatial quadrature of the pollution objective; the map's
    ``gather`` adds them to their (road, cell) in entry order, from 0.0.
    """

    def __init__(self, sc: Scenario):
        raster = rasterize_network(sc)
        self._raster = raster.select((raster.i >= 1) & (raster.j >= 1))
        self._pairing = np.zeros((sc.n_time + 1, sc.n_roads, sc.n_cells))
        self._level0 = math.nan

    def __call__(self, k: int, level: np.ndarray) -> None:
        self._raster.gather(level, out=self._pairing[k])
        if k == 0:
            self._level0 = float(np.sum(level[1:, 1:]))

    def contraction(self) -> AdjointContraction:
        return AdjointContraction(self._pairing, self._level0)


def contract_adjoint(scenario: Scenario) -> AdjointContraction:
    """Solve the scenario's adjoint, contracting each level with the
    scenario's raster as it is made."""
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
