"""Seeded generator of junction-heavy scenarios: a chain of k diamonds.

The chain is the diamond of ``scenarios/diamond.json`` repeated k times along
the x axis, traffic running right to left against the (1, 1) wind:

    access -> [split, upper, lower, merge] -> connector -> ... -> exit

k diamonds give 5k + 1 unit-length roads (one access road, four per diamond,
k - 1 connectors, one exit road) and 4k junctions: per diamond one 1to2, two
1to1 and one 2to1.  The access inflow is a per-step series: a base rate of
0.25 with a Gaussian peak of 0.6, above the access road's top capacity
v_max * rho_max / 4 = 0.5, so queues form whatever the speed limits.

The seed draws the split rates, the merge priorities, the initial densities
and the time of the inflow peak, each from a narrow range (see ``make_chain``).
Everything else is fixed, so the discretisation matches the diamond's
(ds = h = 0.05, n_time = 601) and its adjoint CFL check passes.

``run.py`` and ``reference.py`` call ``make_chain``.
"""

from __future__ import annotations

import math
import random

HORIZON = 5.0
N_TIME = 601
N_CELLS = 20
H = 0.05
MARGIN = 0.8
BASE_INFLOW = 0.25
PEAK_INFLOW = 0.6
PEAK_WIDTH = 0.5
# the diamond's diagonals: a 7-24-25 triangle, so every road has unit length
DX, DY = 0.28, 0.96


def chain_length(k: int) -> float:
    """Extent along x of a chain of k diamonds."""
    return 1.0 + k * 2 * DX + (k - 1) * 1.0 + 1.0


def make_chain(k: int, seed: int) -> dict:
    """Scenario document (as loaded by ``tramopt``) for a chain of k diamonds."""
    if k < 1:
        raise ValueError("a chain needs at least one diamond")
    rng = random.Random(seed)
    side = math.ceil(chain_length(k) + 2 * MARGIN)
    y = side / 2.0
    x = side - (side - chain_length(k)) / 2.0

    roads, junctions = [], []

    def road(start, end):
        rid = len(roads) + 1
        roads.append({
            "id": rid, "start": list(start), "end": list(end), "width": 0.1,
            "rho_max": 1, "rho0": round(rng.uniform(0.15, 0.25), 3),
            "v_min": 0.25, "v_max": 2,
        })
        return rid

    node = (x, y)
    feeder = road(node, (x - 1.0, y))
    access_road = feeder
    node = (x - 1.0, y)
    for _ in range(k):
        ax, ay = node
        top, bottom, merge = (ax - DX, ay + DY), (ax - DX, ay - DY), (ax - 2 * DX, ay)
        up_in, low_in = road(node, top), road(node, bottom)
        up_out, low_out = road(top, merge), road(bottom, merge)
        a = round(rng.uniform(0.45, 0.55), 3)
        b = round(rng.uniform(0.45, 0.55), 3)
        out_end = (merge[0] - 1.0, merge[1])
        out = road(merge, out_end)
        junctions += [
            {"kind": "1to2", "in": [feeder], "out": [up_in, low_in],
             "alpha": [a, round(1.0 - a, 3)]},
            {"kind": "1to1", "in": [up_in], "out": [up_out]},
            {"kind": "1to1", "in": [low_in], "out": [low_out]},
            {"kind": "2to1", "in": [low_out, up_out], "out": [out],
             "beta": [b, round(1.0 - b, 3)]},
        ]
        feeder = out
        node = out_end

    peak_time = round(rng.uniform(1.8, 2.2), 3)
    dt = HORIZON / N_TIME
    inflow = [
        BASE_INFLOW + (PEAK_INFLOW - BASE_INFLOW)
        * math.exp(-(((kk + 0.5) * dt - peak_time) / PEAK_WIDTH) ** 2)
        for kk in range(N_TIME)
    ]
    return {
        "_comment": [
            f"Chain of {k} diamonds made by perfbench/chain.py with seed {seed}.",
            f"Access inflow peaks at {PEAK_INFLOW} at t = {peak_time}.",
        ],
        "horizon": HORIZON,
        "domain": {"side": side, "n_grid": round(side / H)},
        "discretization": {"n_cells": N_CELLS, "n_time": N_TIME},
        "roads": roads,
        "junctions": junctions,
        "access": [{"road": access_road, "inflow": inflow}],
        "exits": [feeder],
        "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1], "phi0": 0},
        "emission": {"theta": 0.5},
        "objectives": {"delta": 0.5, "mode": "3d"},
    }

