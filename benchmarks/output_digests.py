"""SHA-256 digests of what ``tramopt`` prints and writes, to compare two source trees.

    python3 benchmarks/output_digests.py --src TREE/src > digests.json

It imports ``tramopt`` from ``--src`` and runs seven commands through
``tramopt.cli.main``, each into its own temporary directory:

* optimize-diamond: ``optimize`` on ``scenarios/diamond.json``, 2d, delta 0,
  budget 300, seed 7
* criterion-7: the same at budget 4000, seed 0
* optimize-chain: ``optimize`` on the chain of 4 diamonds that
  ``perfbench/chain.py`` makes with chain seed 1, 3d, delta 0.5, budget 120,
  seed 7
* optimize-chain-jobs2: the same with ``--jobs 2``, whose ``front.csv``,
  ``speed_limit_ranges.csv`` and ``diagnostics.json`` digests must equal
  optimize-chain's, so the diff also covers the worker path
* simulate-diamond: ``simulate`` of policy 1.5,0.5,1,1,0.75,2 on the diamond
* simulate-chain: ``simulate`` on the same chain of 4 diamonds with all 21
  limits at 1.0: junctions of every kind, and a queue that reaches 0.31,
  where the diamond's stays at 0
* simulate-empty-raster: ``simulate`` of one road that covers no grid point

For each it prints the exit code and the digests of the stdout and of every
file written except ``manifest.json``, which holds timestamps; the adjoint
cache files are included.  The scenarios come from this script's own
checkout, so both trees get the same inputs.  With a parent exported by
``git archive``, one ``diff`` shows every output that changed:

    diff <(python3 benchmarks/output_digests.py --src PARENT/src) \\
         <(python3 benchmarks/output_digests.py --src src)

Needs only the standard library and numpy.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIAMOND = ROOT / "scenarios" / "diamond.json"
SIMULATED_POLICY = "1.5,0.5,1,1,0.75,2"

#: h = 0.5 and a width-0.1 road centred between two grid lines
EMPTY_RASTER = {
    "horizon": 1.0,
    "domain": {"side": 3, "n_grid": 6},
    "discretization": {"n_cells": 10, "n_time": 100},
    "roads": [
        {"id": 1, "start": [0.75, 0.25], "end": [1.75, 0.25], "width": 0.1,
         "rho_max": 1, "rho0": 0.4, "v_min": 0.25, "v_max": 2}
    ],
    "access": [{"road": 1, "inflow": 0.25}],
    "exits": [1],
    "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1], "phi0": 0},
    "emission": {"theta": 0.5},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _chain_document() -> dict:
    spec = importlib.util.spec_from_file_location("chain", ROOT / "perfbench" / "chain.py")
    chain = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chain)
    return chain.make_chain(4, 1)


def _cases(inputs: Path) -> dict[str, list[str]]:
    chain_path = inputs / "chain.json"
    chain_path.write_text(json.dumps(_chain_document()))
    empty_path = inputs / "empty_raster.json"
    empty_path.write_text(json.dumps(EMPTY_RASTER))
    diamond = ["--scenario", str(DIAMOND)]
    return {
        "optimize-diamond": ["optimize", *diamond, "--mode", "2d", "--delta", "0",
                             "--budget", "300", "--seed", "7"],
        "criterion-7": ["optimize", *diamond, "--mode", "2d", "--delta", "0",
                        "--budget", "4000", "--seed", "0"],
        "optimize-chain": ["optimize", "--scenario", str(chain_path), "--mode", "3d",
                           "--delta", "0.5", "--budget", "120", "--seed", "7"],
        "optimize-chain-jobs2": ["optimize", "--scenario", str(chain_path), "--mode", "3d",
                                 "--delta", "0.5", "--budget", "120", "--seed", "7", "--jobs", "2"],
        "simulate-diamond": ["simulate", *diamond, "--policy", SIMULATED_POLICY],
        "simulate-chain": ["simulate", "--scenario", str(chain_path), "--policy", ",".join(["1.0"] * 21)],
        "simulate-empty-raster": ["simulate", "--scenario", str(empty_path), "--policy", "1"],
    }


def _run(cli, argv: list[str], out: Path) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([*argv, "--out", str(out)])
    return {
        "exit": code,
        "stdout": _sha(printed.getvalue().encode()),
        "files": {
            p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir()) if p.name != "manifest.json"
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src/ directory of a tree")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.dont_write_bytecode = True  # leave no bytecode in the tree or in perfbench/
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # nor do the --jobs workers
    sys.path.insert(0, str(src))
    from tramopt import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not a module under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        digests = {
            name: _run(cli, argv, tmp / name) for name, argv in _cases(tmp).items()
        }
    print(json.dumps(digests, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
