"""Command-line front end: validate, simulate, optimize, export.

All numeric output uses round-trip float formatting, so repeated runs with
the same seed produce byte-identical CSV files.  ``simulate`` writes its time
series one output step at a time, each step's lines in one write, and its
emission field, made from the flow Q the traffic kernel computed and kept,
one block of levels at a time as ``emission_field`` makes them, so no
command holds the whole field or computes Q twice.  Every command that
writes results also writes a manifest recording the inputs (including a
scenario content hash), the seed/budget, the files it wrote to ``--out`` and
the path of the adjoint cache file it read or wrote.

Every output file is written as a new file by ``_create``: the old file at
its path is unlinked first, never truncated in place or renamed over.  On
ext4, truncating a file that holds data, or renaming a file over one, makes
the kernel flush the new contents at close or rename, so a run into an
``--out`` that holds an earlier run's files would wait on the disk: rewriting
a 17.9 MB file took 18-21 ms by truncation and 23-25 ms through a temporary
file and ``os.replace``, against 6-7 ms unlinked first (2 cores, ext4).

Exit codes: 0 success, 1 domain error (infeasible policy, failed
validation, unstable setup, objectives that overflow), 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import sys
import time
import zlib
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from tramopt import __version__
# solve_adjoint is not called here but stays a name of this module, which
# perfbench/spans.py wraps
from tramopt.dispersion import DispersionError, solve_adjoint  # noqa: F401
from tramopt.emission import emission_field, rasterize_network
from tramopt.moo import normalize_front, pareto_search
from tramopt.network import (
    PolicyError,
    Scenario,
    ScenarioError,
    check_policies,
    load_scenario,
    validate_scenario,
)
from tramopt.objectives import (
    AdjointContraction,
    ObjectiveBreakdown,
    ObjectiveTally,
    PolicyEvaluator,
    contract_adjoint,
)
from tramopt.traffic import simulate_traffic

_EMISSION_MAGIC = b"TRMO"
_ADJOINT_MAGIC = b"TRMA"


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_scenario(path: str) -> tuple[Scenario, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc}") from None
    return load_scenario(text), text


def _scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _create(path: Path, mode: str = "w", **kwargs):
    """``open(path, mode)`` on a new file: any old file at ``path`` is
    unlinked first, never truncated in place (see the module docstring).
    A directory at ``path`` raises ``IsADirectoryError``."""
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    return open(path, mode, **kwargs)


@contextlib.contextmanager
def _create_whole(path: Path, mode: str = "w"):
    """``_create`` for a file that appears at ``path`` whole or not at all:
    the file is written under a temporary name made from this process's id,
    so two processes writing one directory never rename each other's
    half-written file.  The old file at ``path`` is unlinked before the
    rename, which is then no rename over a file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with _create(tmp, mode) as fh:
        yield fh
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    os.replace(tmp, path)


def _write_manifest(out_dir: Path, payload: dict) -> Path:
    payload = {"toolkit_version": __version__, **payload}
    target = out_dir / "manifest.json"
    with _create_whole(target) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
    return target


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) if isinstance(x, float) else x for x in row])


def _write_series(path: Path, header: list[str], times: np.ndarray, keys: list[str], values) -> None:
    """Write one line ``t,key,value`` per time and key, the same bytes
    ``_write_csv`` writes for those rows: csv's default dialect ends lines
    with ``\\r\\n`` and quotes none of these fields, and floats are ``repr``.
    ``values`` reshapes to one row of ``len(keys)`` numbers per time.  Each
    time's lines are joined and written at once, so only one step's text is
    held at a time."""
    rows = np.reshape(values, (len(times), len(keys)))
    with _create(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, row in zip(times.tolist(), rows):
            stamp = repr(t)
            fh.write("".join([f"{stamp},{key},{v!r}\r\n" for key, v in zip(keys, row.tolist())]))


def write_emission_bin(path: Path, blocks: Iterable[np.ndarray], n_grid: int, n_time: int) -> None:
    """Flat binary emission field: magic, version, n_grid, n_time (uint32 LE),
    then (n_time+1) row-major float64 slices of shape (n_grid+1, n_grid+1).

    ``blocks`` are the field's consecutive levels, in blocks such as
    ``emission_field`` yields; each is written as it arrives, so only one is
    held at a time.  The file is new, as every output is (``_create``)."""
    with _create(path, "wb") as fh:
        fh.write(_EMISSION_MAGIC)
        fh.write(np.array([1, n_grid, n_time], dtype="<u4").tobytes())
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


# ---------------------------------------------------------------------------
# adjoint cache


def _adjoint_cache_key(scenario: Scenario) -> str:
    """Hash of everything the adjoint contraction depends on: the transport
    problem and its step, and the raster's roads (in scenario order) and cells."""
    payload = {
        "step": "five-weight stencil",  # the rounding of dispersion.advance_field
        "side": scenario.domain_side,
        "n_grid": scenario.n_grid,
        "mu": scenario.dispersion.mu,
        "kappa": scenario.dispersion.kappa,
        "wind": list(scenario.dispersion.wind),
        "horizon": scenario.horizon,
        "n_time": scenario.n_time,
        "n_cells": scenario.n_cells,
        "roads": [[list(r.tail), list(r.head), r.width] for r in scenario.roads],
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def cached_adjoint(scenario: Scenario, cache_dir: Path) -> tuple[AdjointContraction, Path]:
    """The scenario's adjoint contraction, loaded from a content-addressed
    cache file ``adjoint-<key>.bin`` or made by ``contract_adjoint``.

    The file is flat: magic ``TRMA``, then version 1 and the pairing's shape
    (n_time+1, n_roads, n_cells) as uint32 LE, then the level-0 sum and the
    pairing as float64 LE, then the CRC-32 of all the bytes before it as
    uint32 LE.  The scenario fixes its size and header bytes, so a file is
    read only if its size is right, and is a hit only if the bytes read have
    that size and those header bytes, its CRC matches and every value is
    finite.  Anything else, any ``OSError`` included, is a miss: the
    contraction is made again and the file replaced whole
    (``_create_whole``), written part by part with a running CRC, so
    nothing is copied.  A hit's pairing is a read-only view of the file's
    bytes.
    """
    path = cache_dir / f"adjoint-{_adjoint_cache_key(scenario)}.bin"
    shape = (scenario.n_time + 1, scenario.n_roads, scenario.n_cells)
    header = _ADJOINT_MAGIC + np.array([1, *shape], dtype="<u4").tobytes()
    count = 1 + math.prod(shape)  # level0, then the pairing
    size = len(header) + 8 * count + 4
    try:
        data = path.read_bytes() if path.stat().st_size == size else b""
    except OSError:
        data = b""
    if (len(data) == size and data[:len(header)] == header
            and zlib.crc32(memoryview(data)[:-4]) == int.from_bytes(data[-4:], "little")):
        values = np.frombuffer(data, dtype="<f8", count=count, offset=len(header))
        if np.isfinite(values).all():
            return AdjointContraction(values[1:].reshape(shape), float(values[0])), path
    contraction = contract_adjoint(scenario)
    cache_dir.mkdir(parents=True, exist_ok=True)
    crc = 0
    with _create_whole(path, "wb") as fh:
        for part in (header, np.array([contraction.level0], dtype="<f8").data,
                     np.ascontiguousarray(contraction.pairing, dtype="<f8").data):
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(crc.to_bytes(4, "little"))
    return contraction, path


def _evaluator(scenario: Scenario, args, out_dir) -> tuple[PolicyEvaluator, Path]:
    """The command's evaluator and its adjoint cache file, in ``--cache-dir``
    or else ``out_dir``."""
    contraction, path = cached_adjoint(scenario, Path(args.cache_dir or out_dir))
    return PolicyEvaluator(scenario, adjoint=contraction), path


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args) -> int:
    scenario, _ = _read_scenario(args.scenario)
    report = validate_scenario(scenario)
    for finding in report.findings:
        print(finding)
    cfl = report.cfl
    if cfl.passed:
        print(f"CFL: pass (dt={cfl.dt:.6g} <= {cfl.dt_bound:.6g}, "
              f"advective {cfl.advective_value:.6g} <= {cfl.advective_bound:.6g})")
    if report.ok:
        print("scenario valid")
        return 0
    return 1


def _parse_policy(text: str, scenario: Scenario) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise PolicyError(f"cannot parse policy {text!r}: {exc}") from None
    return check_policies([values], scenario)[0]


def cmd_simulate(args) -> int:
    scenario, text = _read_scenario(args.scenario)
    policy = _parse_policy(args.policy, scenario)
    out_dir = Path(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    evaluator, adjoint_path = _evaluator(scenario, args, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = ObjectiveTally(evaluator, 1)
    traj = simulate_traffic(scenario, policy, observe=tally)
    (breakdown,) = tally.breakdowns()
    blocks = emission_field(traj, rasterize_network(scenario), scenario)

    road_ids = [r.id for r in scenario.roads]
    times = traj.times
    cells = [f"{rid},{n}" for rid in road_ids for n in range(1, scenario.n_cells + 1)]
    _write_series(out_dir / "trajectory.csv", ["t", "road", "cell", "rho"], times, cells, traj.densities)
    _write_series(out_dir / "queues.csv", ["t", "road", "queue"], times,
                  [str(rid) for rid in traj.access_roads], traj.queues)
    ends = [f"{rid},{end}" for rid in road_ids for end in ("in", "out")]
    _write_series(out_dir / "flows.csv", ["t", "road", "end", "flux"], times[1:], ends,
                  np.stack((traj.inflow, traj.outflow), axis=2))
    write_emission_bin(out_dir / "emission.bin", blocks, scenario.n_grid, scenario.n_time)

    header = [f"v_{rid}" for rid in road_ids] + ["j_flow", "j_diff", "j_queue", "j_poll"]
    _write_csv(
        out_dir / "objectives.csv",
        header,
        [policy.tolist() + [breakdown.j_flow, breakdown.j_diff,
                            breakdown.j_queue, breakdown.j_poll]],
    )
    _write_manifest(
        out_dir,
        {
            "command": "simulate",
            "scenario_path": str(args.scenario),
            "scenario_sha256": _scenario_hash(text),
            "policy": policy.tolist(),
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": [
                "trajectory.csv", "queues.csv", "flows.csv", "emission.bin", "objectives.csv",
            ],
            "adjoint_cache": str(adjoint_path),
        },
    )

    print(f"J_flow={_fmt(breakdown.j_flow)}")
    print(f"J_diff={_fmt(breakdown.j_diff)}")
    print(f"J_queue={_fmt(breakdown.j_queue)}")
    print(f"J_poll={_fmt(breakdown.j_poll)}")
    vec = breakdown.vector(scenario.mode)
    print("objective_vector=" + ",".join(_fmt(x) for x in vec))
    return 0


def _score_sliced(pool, jobs: int, evaluator, policies) -> list[ObjectiveBreakdown]:
    """Score a batch in ``jobs`` contiguous, near-equal slices (one per
    policy in a smaller batch), one per worker process; each task carries
    the pickled evaluator, which is its contraction."""
    parts = pool.map(evaluator.score, np.array_split(policies, min(jobs, len(policies))))
    return [b for part in parts for b in part]


def search_front(evaluator: PolicyEvaluator, budget: int, seed: int, score=None):
    """The scenario's Pareto front: the search's entries sorted by policy,
    their breakdowns and its diagnostics.  Each batch is scored in one call
    of ``score`` (default ``evaluator.score``).  The search is called through
    this module's ``pareto_search``, the name a tracer wraps to time it."""
    mode = evaluator.scenario.mode
    score = evaluator.score if score is None else score
    scored: dict[tuple[float, ...], ObjectiveBreakdown] = {}

    def score_batch(policies):
        parts = score(policies)
        scored.update(zip(map(tuple, policies), parts))
        return [b.vector(mode) for b in parts]

    archive, diagnostics = pareto_search(
        *evaluator.scenario.policy_bounds(), budget=budget, seed=seed, map_fn=score_batch
    )
    entries = sorted(archive.entries, key=lambda e: e.policy)
    return entries, [scored[e.policy] for e in entries], diagnostics


def _check_delta(delta: float) -> None:
    """The queue weight ``--delta``, which a scenario file bounds the same way."""
    if not (math.isfinite(delta) and delta >= 0):
        raise PolicyError(f"delta must be a finite nonnegative number, got {delta}")


def cmd_optimize(args) -> int:
    scenario, text = _read_scenario(args.scenario)
    overrides = {}
    if args.delta is not None:
        _check_delta(args.delta)
        overrides["delta"] = args.delta
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    if args.budget <= 0:
        raise PolicyError("budget must be positive")
    if args.seed < 0:
        raise PolicyError("seed must be nonnegative")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise PolicyError(f"jobs must be from 1 to the {cpus} CPUs of this machine, got {args.jobs}")

    out_dir = Path(args.out)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    evaluator, adjoint_path = _evaluator(scenario, args, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = (
        ProcessPoolExecutor(args.jobs, multiprocessing.get_context("spawn"))
        if args.jobs > 1
        else contextlib.nullcontext()
    )
    with workers as pool:
        score = None if pool is None else functools.partial(_score_sliced, pool, args.jobs, evaluator)
        entries, breakdowns, diagnostics = search_front(evaluator, args.budget, args.seed, score)
    values = np.array([b.vector(scenario.mode) for b in breakdowns])

    ideal = values.min(axis=0)
    skip_axes = (2,) if scenario.mode == "3d" and abs(ideal[2]) < 1e-12 else ()
    try:
        normalized = normalize_front(values, ideal, skip_axes=skip_axes)
    except ValueError as exc:
        raise PolicyError(f"the front has no normalized form: {exc}") from None

    road_ids = [r.id for r in scenario.roads]
    header = [f"v_{rid}" for rid in road_ids]
    header += ["j_flow", "j_diff", "j_queue", "j_poll"]
    if scenario.mode == "2d":
        header += ["j_flow_norm", "j_poll_norm"]
    else:
        header += ["j_flow_norm", "j_diff_norm", "j_queue_norm"]
    rows = []
    for e, b, norm in zip(entries, breakdowns, normalized):
        rows.append(
            list(e.policy)
            + [b.j_flow, b.j_diff, b.j_queue, b.j_poll]
            + [float(x) for x in norm]
        )
    _write_csv(out_dir / "front.csv", header, rows)

    policies = np.array([e.policy for e in entries])
    _write_csv(
        out_dir / "speed_limit_ranges.csv",
        ["road", "v_min_opt", "v_max_opt"],
        (
            (rid, float(policies[:, i].min()), float(policies[:, i].max()))
            for i, rid in enumerate(road_ids)
        ),
    )

    diag = {
        "evaluations": diagnostics["evaluations"],
        "iterations": diagnostics["iterations"],
        "archive_size": diagnostics["archive_size"],
        "max_step": diagnostics["max_step"],
        "ideal": [float(x) for x in ideal],
        "mode": scenario.mode,
        "delta": scenario.delta,
    }
    if scenario.mode == "3d":
        diag["queue_axis_normalized"] = not skip_axes
    with _create(out_dir / "diagnostics.json") as fh:
        fh.write(json.dumps(diag, indent=2, sort_keys=True))

    _write_manifest(
        out_dir,
        {
            "command": "optimize",
            "scenario_path": str(args.scenario),
            "scenario_sha256": _scenario_hash(text),
            "seed": args.seed,
            "budget": args.budget,
            "mode": scenario.mode,
            "delta": scenario.delta,
            "jobs": args.jobs,
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": ["front.csv", "speed_limit_ranges.csv", "diagnostics.json"],
            "adjoint_cache": str(adjoint_path),
        },
    )
    print(f"archive size: {len(entries)} (evaluations: {diagnostics['evaluations']})")
    return 0


def _front_columns(path: Path, names: list[str]) -> list[list[float]]:
    """Each data row of a stored front as the finite numbers of ``names``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields, rows = reader.fieldnames, list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ScenarioError(f"{path}: not a CSV file of UTF-8 text: {exc}") from None
    if fields is None:
        raise ScenarioError(f"{path}: no header line")
    missing = set(names) - set(fields)
    if missing and rows:
        raise ScenarioError(f"{path}: missing columns {sorted(missing)}")
    for n, row in enumerate(rows, start=1):
        for name in names:
            try:
                x = float(row[name])
            except (TypeError, ValueError):  # a short row holds None
                x = math.nan
            if not math.isfinite(x):
                raise ScenarioError(f"{path}: row {n}, column {name}: not a finite number: {row[name]!r}")
            row[name] = x
    return [[row[name] for name in names] for row in rows]


def cmd_export(args) -> int:
    _check_delta(args.delta)
    front_path = Path(args.front)
    if args.coords == "diff-queue":
        header = ["j_diff", "j_queue"]
        out_rows = _front_columns(front_path, header)
    else:
        header = ["j_flow", "j_poll"]
        out_rows = []
        for n, (j_flow, j_diff, j_queue) in enumerate(
            _front_columns(front_path, ["j_flow", "j_diff", "j_queue"]), start=1
        ):
            j_poll = ObjectiveBreakdown(j_flow, j_diff, j_queue, args.delta).j_poll
            if not math.isfinite(j_poll):
                raise PolicyError(
                    f"{front_path}: row {n}: j_poll = j_diff + delta*j_queue = {j_poll} is not finite"
                )
            out_rows.append((j_flow, j_poll))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"front_{args.coords}.csv"
    _write_csv(target, header, out_rows)
    _write_manifest(
        out_dir,
        {
            "command": "export",
            "front_path": str(front_path),
            "coords": args.coords,
            "delta": args.delta,
            "outputs": [target.name],
        },
    )
    print(f"wrote {target}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tramopt",
        description="Traffic emission simulation and Pareto speed-limit optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="simulate one policy and write all fields")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--policy", required=True, help="comma-separated speed limits, one per road")
    p.add_argument("--out", required=True, help="directory the field files and manifest go to")
    p.add_argument("--cache-dir", default=None,
                   help="directory of the adjoint cache (default: --out)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="compute a Pareto front of policies")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="directory the front, diagnostics and manifest go to")
    p.add_argument("--mode", choices=["2d", "3d"], default=None,
                   help="objectives (-J_flow, J_poll) or (-J_flow, J_diff, J_queue) "
                        "(default: the scenario's)")
    p.add_argument("--delta", type=float, default=None,
                   help="queue weight in J_poll = J_diff + delta*J_queue, finite and "
                        ">= 0 (default: the scenario's)")
    p.add_argument("--seed", type=int, default=0, help="seed of the search's starting points, >= 0")
    p.add_argument("--budget", type=int, default=2000, help="policy evaluations of the search, > 0")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes scoring each poll batch, at most one per CPU (default 1). On the "
                        "diamond with 2 cores, --jobs 2 took about 1.8 times as long as --jobs 1 "
                        "at budget 300 and about 0.72 times as long at 4000. "
                        "Workers are spawned, so a program calling main() in-process needs an "
                        "'if __name__ == \"__main__\":' guard")
    p.add_argument("--cache-dir", default=None,
                   help="directory of the adjoint cache (default: --out)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("export", help="re-express a stored front for plotting")
    p.add_argument("--front", required=True)
    p.add_argument("--coords", choices=["flow-poll", "diff-queue"], required=True)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PolicyError, DispersionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
