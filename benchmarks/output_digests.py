"""SHA-256 digests of what ``tramopt`` prints and writes, to compare two source trees.

    python3 benchmarks/output_digests.py --src TREE/src > digests.json

It imports ``tramopt`` from ``--src`` and runs nine commands through
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
* simulate-edge-road: ``simulate`` of one road that covers the grid rows
  j = 0 and j = 1: the emission field writes both, the adjoint's
  contraction skips row 0 as the objective's quadrature does
* simulate-two-access: ``simulate`` on ``scenarios/two_access.json`` with
  two substeps per output step: two access roads, one with an inflow
  series and one whose queue starts at 0.05, merging 2to1, a 1to2 into two
  exits, rho_max 1.5 and 0.8, and a road whose tail is attached to nothing

For each it prints the exit code and the digests of the stdout and of every
file written except ``manifest.json``, which holds timestamps; the adjoint
cache files are included.  The scenarios come from this script's own
checkout, so both trees get the same inputs.  With a parent exported by
``git archive``, one ``diff`` shows every output that changed:

    diff <(python3 benchmarks/output_digests.py --src PARENT/src) \\
         <(python3 benchmarks/output_digests.py --src src)

With ``--keep DIR`` the outputs stay in ``DIR/<case>/`` and each stdout in
``DIR/<case>.stdout``.  ``--compare A B`` then reads two such directories and
prints, per case and file, "identical" where the bytes are equal, else by how
much the values moved: the largest relative change |a - b|/max(|a|, |b|) of
each CSV column, of the numbers in the stdout and in ``diagnostics.json``, and
of the cached ``pairing`` and ``level0``, decoded from the values between the
cache file's header and its CRC; a text that differs outside its numbers, or
another binary file, reads "differs":

    python3 benchmarks/output_digests.py --src PARENT/src --keep /tmp/parent > /dev/null
    python3 benchmarks/output_digests.py --src src --keep /tmp/change > /dev/null
    python3 benchmarks/output_digests.py --compare /tmp/parent /tmp/change

The digests also record the numpy and Python versions they were made with.
``benchmarks/digests.json`` is this tree's digests, pinned; ``--check FILE``
runs the nine commands and compares their digests with such a file, case by
case and file by file, and exits 1 on any difference:

    python3 benchmarks/output_digests.py --src src --check benchmarks/digests.json

numpy does not promise the same ``Generator`` streams across versions, and
they seed the search, so the check refuses to run under a numpy other than
the file's; a Python version other than the file's is allowed.  A PR that
changes an output on purpose regenerates the file in the same commit.  An
adjoint cache file that keeps its name ``adjoint-<key>.bin`` but changes its
bytes fails with its own message: the key does not cover the change, so a
user's old cache file would be read as a hit with stale values, and the
key's ``"step"`` tag in ``tramopt.cli._adjoint_cache_key`` must change.

Needs only the standard library and numpy.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DIAMOND = ROOT / "scenarios" / "diamond.json"
TWO_ACCESS = ROOT / "scenarios" / "two_access.json"
SIMULATED_POLICY = "1.5,0.5,1,1,0.75,2"
#: v above 6.4 on roads 3 and 6 takes two substeps per output step
TWO_ACCESS_POLICY = "1.5,0.5,7,1,0.75,7.5,1"
#: a number in printed text; digits inside a name such as v_1 are not one
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\b(?:inf|nan)\b")

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
#: h = 0.1 and a width-0.1 road along y = 0.05, half a width from rows j = 0 and 1
EDGE_ROAD = {
    "horizon": 1.0,
    "domain": {"side": 3, "n_grid": 30},
    "discretization": {"n_cells": 20, "n_time": 100},
    "roads": [
        {"id": 1, "start": [1.0, 0.05], "end": [2.0, 0.05], "width": 0.1,
         "rho_max": 1, "rho0": 0.5, "v_min": 0.25, "v_max": 2}
    ],
    "access": [{"road": 1, "inflow": 0.25}],
    "exits": [1],
    "dispersion": {"mu": 1e-6, "kappa": 0, "wind": [1, 1], "phi0": 0.1},
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
    edge_path = inputs / "edge_road.json"
    edge_path.write_text(json.dumps(EDGE_ROAD))
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
        "simulate-edge-road": ["simulate", "--scenario", str(edge_path), "--policy", "1.5"],
        "simulate-two-access": ["simulate", "--scenario", str(TWO_ACCESS), "--policy", TWO_ACCESS_POLICY],
    }


def _run(cli, argv: list[str], out: Path) -> dict:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main([*argv, "--out", str(out)])
    (out.parent / f"{out.name}.stdout").write_text(printed.getvalue())
    return {
        "exit": code,
        "stdout": _sha(printed.getvalue().encode()),
        "files": {
            p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir()) if p.name != "manifest.json"
        },
    }


def _largest_change(a, b) -> float | str:
    """The largest |a - b|/max(|a|, |b|) over two equal-length number lists;
    inf where only one side is finite or a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(same, 0.0, np.nan_to_num(rel, nan=np.inf)).max(initial=0.0))


def _text_change(a: str, b: str) -> float | str:
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "differs"
    return _largest_change([float(x) for x in NUMBER.findall(a)], [float(x) for x in NUMBER.findall(b)])


def _csv_change(a: Path, b: Path) -> dict | str:
    """Per column, the largest relative change, or "differs" for a column
    that does not parse as numbers and is not equal."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if ra[:1] != rb[:1] or len(ra) != len(rb):
        return "header or row count differs"
    changes = {}
    for c, name in enumerate(ra[0]):
        ca, cb = [row[c] for row in ra[1:]], [row[c] for row in rb[1:]]
        try:
            changes[name] = _largest_change([float(x) for x in ca], [float(x) for x in cb])
        except ValueError:
            changes[name] = 0.0 if ca == cb else "differs"
    return changes


def _adjoint_change(a: Path, b: Path) -> dict:
    """The change of ``pairing`` and ``level0`` between two adjoint cache
    files, whose float64 values between the 20-byte header and the 4-byte
    CRC are ``level0`` and then the pairing."""
    va, vb = (np.frombuffer(path.read_bytes()[20:-4], dtype="<f8") for path in (a, b))
    return {"pairing": _largest_change(va[1:], vb[1:]), "level0": _largest_change(va[:1], vb[:1])}


def compare(a: Path, b: Path) -> dict:
    """Per case and output of two ``--keep`` directories: "identical", or by
    how much the values moved.  Adjoint cache files are matched by their
    ``adjoint-*.bin`` pattern, since the key in the name may differ."""
    report = {}
    for stdout in sorted(a.glob("*.stdout")):
        case = stdout.stem
        da, db = a / case, b / case
        names = {p.name for p in (*da.iterdir(), *db.iterdir())} - {"manifest.json"}
        text_a, text_b = stdout.read_text(), (b / stdout.name).read_text()
        row = {"stdout": "identical" if text_a == text_b else _text_change(text_a, text_b)}
        for name in sorted(n for n in names if not n.startswith("adjoint-")):
            fa, fb = da / name, db / name
            if not (fa.exists() and fb.exists()):
                row[name] = "only in " + ("A" if fa.exists() else "B")
            elif fa.read_bytes() == fb.read_bytes():
                row[name] = "identical"
            elif name.endswith(".csv"):
                row[name] = _csv_change(fa, fb)
            elif name.endswith(".json"):
                row[name] = _text_change(fa.read_text(), fb.read_text())
            else:
                row[name] = "differs"
        caches = [sorted(d.glob("adjoint-*.bin")) for d in (da, db)]
        if [len(c) for c in caches] != [1, 1]:
            row["adjoint"] = f"cache files: {len(caches[0])} against {len(caches[1])}"
        elif caches[0][0].read_bytes() == caches[1][0].read_bytes():
            row["adjoint"] = "identical"
        else:
            row["adjoint"] = _adjoint_change(caches[0][0], caches[1][0])
        report[case] = row
    return report


def check(pinned: dict, digests: dict) -> list[str]:
    """One line per difference between a pinned digests file and this run's
    digests, the versions they were made with aside."""
    problems = []
    for case in sorted((pinned.keys() | digests.keys()) - {"made_with"}):
        if case not in pinned or case not in digests:
            problems.append(f"{case}: only in {'the pinned file' if case in pinned else 'this run'}")
            continue
        old, new = pinned[case], digests[case]
        problems += [f"{case}: {key} changed" for key in ("exit", "stdout") if old[key] != new[key]]
        for name in sorted(old["files"].keys() | new["files"].keys()):
            a, b = old["files"].get(name), new["files"].get(name)
            if a is None or b is None:
                problems.append(f"{case}: {name} only in {'this run' if a is None else 'the pinned file'}")
            elif a != b and name.startswith("adjoint-"):
                problems.append(
                    f"{case}: {name} kept its name but its bytes changed, so an old cache file of "
                    'that name would be a hit with stale values: change the "step" tag of '
                    "tramopt.cli._adjoint_cache_key"
                )
            elif a != b:
                problems.append(f"{case}: {name} changed")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="the src/ directory of a tree")
    parser.add_argument("--keep", type=Path, help="write the outputs here instead of a temporary directory")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare the values of two --keep directories")
    parser.add_argument("--check", type=Path, metavar="PINNED",
                        help="compare the digests with a pinned digests file; exit 1 on a difference")
    args = parser.parse_args()
    if args.compare:
        print(json.dumps(compare(*args.compare), indent=2))
        return
    if args.src is None:
        parser.error("--src is required without --compare")
    pinned = json.loads(args.check.read_text()) if args.check else None
    if pinned is not None and pinned["made_with"]["numpy"] != np.__version__:
        raise SystemExit(f"{args.check} was made with numpy {pinned['made_with']['numpy']}, "
                         f"this is numpy {np.__version__}")
    src = args.src.resolve()
    sys.dont_write_bytecode = True  # leave no bytecode in the tree or in perfbench/
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # nor do the --jobs workers
    sys.path.insert(0, str(src))
    from tramopt import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not a module under {src}")
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            tmp = args.keep
            tmp.mkdir(parents=True, exist_ok=False)
        digests = {
            name: _run(cli, argv, tmp / name) for name, argv in _cases(tmp).items()
        }
    digests["made_with"] = {"numpy": np.__version__, "python": platform.python_version()}
    if pinned is None:
        print(json.dumps(digests, indent=2, sort_keys=True))
        return
    problems = check(pinned, digests)
    print("\n".join(problems) or f"every case matches {args.check}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
