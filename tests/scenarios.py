"""Scenario documents for the tests: one builder, and the diamond with edits.

Each gives a plain dict, the document ``load_scenario`` reads after
``json.dumps``, so a test can still edit or delete any key before it loads
the document or writes it with ``write_doc``.
"""

from __future__ import annotations

import json
from pathlib import Path

DIAMOND_PATH = Path(__file__).resolve().parents[1] / "scenarios" / "diamond.json"
#: policies of ``scenarios/two_access.json``: two substeps per output step (v
#: above 6.4 on roads 3 and 6), one, and one that grows both queues
TWO_ACCESS_POLICIES = [
    [1.5, 0.5, 7, 1, 0.75, 7.5, 1], [2, 2, 1, 0.5, 0.5, 1, 2], [0.3, 0.3, 8, 2, 2, 0.25, 0.25],
]


def road(rid: int, start, end, *, rho0=0.5, **values) -> dict:
    """A road from ``start`` to ``end``: width 0.1, rho_max 1 and limits in
    [0.25, 2] unless ``values`` says otherwise."""
    return {"id": rid, "start": list(start), "end": list(end), "width": 0.1, "rho_max": 1, "rho0": rho0,
            "v_min": 0.25, "v_max": 2, **values}


def scenario_doc(roads, *, horizon=1.0, n_grid=60, n_cells=10, n_time=50, kappa=0, wind=(1, 1), theta=0.5,
                 phi0=None, junctions=None, access=None, exits=None, objectives=None) -> dict:
    """A scenario of ``roads`` on the domain [0, 3]^2, with dispersion mu
    1e-6.  ``phi0`` and the sections ``junctions``, ``access``, ``exits`` and
    ``objectives`` appear only when given, so a test that leaves one out
    gets ``load_scenario``'s default."""
    doc = {
        "horizon": horizon,
        "domain": {"side": 3, "n_grid": n_grid},
        "discretization": {"n_cells": n_cells, "n_time": n_time},
        "roads": list(roads),
        "dispersion": {"mu": 1e-6, "kappa": kappa, "wind": list(wind)},
        "emission": {"theta": theta},
    }
    if phi0 is not None:
        doc["dispersion"]["phi0"] = phi0
    sections = {"junctions": junctions, "access": access, "exits": exits, "objectives": objectives}
    doc.update((name, value) for name, value in sections.items() if value is not None)
    return doc


def diamond_doc(*edits, **sections) -> dict:
    """``scenarios/diamond.json`` without its comment: each of ``sections``
    set, a dict merged into the diamond's section of that name, and then
    each of ``edits`` called on the document in turn."""
    doc = json.loads(DIAMOND_PATH.read_text())
    del doc["_comment"]
    for name, value in sections.items():
        if isinstance(value, dict):
            doc[name].update(value)
        else:
            doc[name] = value
    for edit in edits:
        edit(doc)
    return doc


def write_doc(path: Path, doc) -> Path:
    """``path``, with ``doc`` written there as JSON."""
    path.write_text(json.dumps(doc))
    return path
