"""Command-line front end: validate, simulate, optimize, export.

All numeric output uses round-trip float formatting, so repeated runs with
the same seed produce byte-identical CSV files.  ``simulate`` writes its time
series one output step at a time, each step's lines in one write.  Every
command that writes results also writes a manifest recording the inputs
(including a scenario content hash), the seed/budget, and the produced files.

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
import io
import json
import math
import multiprocessing
import os
import sys
import time
import zipfile
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
    SpeedLimitPolicy,
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
from tramopt.traffic import TrafficError, simulate_traffic

_EMISSION_MAGIC = b"TRMO"


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_scenario(path: str) -> tuple[Scenario, str]:
    text = Path(path).read_text()
    return load_scenario(text), text


def _scenario_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_manifest(out_dir: Path, payload: dict) -> Path:
    payload = {"toolkit_version": __version__, **payload}
    target = out_dir / "manifest.json"
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, target)
    return target


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
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
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, row in zip(times.tolist(), rows):
            stamp = repr(t)
            fh.write("".join([f"{stamp},{key},{v!r}\r\n" for key, v in zip(keys, row.tolist())]))


def write_emission_bin(path: Path, field: np.ndarray, n_grid: int, n_time: int) -> None:
    """Flat binary emission field: magic, version, n_grid, n_time (uint32 LE),
    then (n_time+1) row-major float64 slices of shape (n_grid+1, n_grid+1)."""
    with open(path, "wb") as fh:
        fh.write(_EMISSION_MAGIC)
        fh.write(np.array([1, n_grid, n_time], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(field, dtype="<f8").data)


def read_emission_bin(path: Path) -> np.ndarray:
    """Read a file ``write_emission_bin`` wrote; a wrong header or payload
    length raises ``ScenarioError``."""
    with open(path, "rb") as fh:
        if fh.read(4) != _EMISSION_MAGIC:
            raise ScenarioError(f"{path}: not an emission field file")
        header = fh.read(12)
        if len(header) != 12:
            raise ScenarioError(f"{path}: truncated header ({4 + len(header)} of 16 bytes)")
        version, n_grid, n_time = (int(x) for x in np.frombuffer(header, dtype="<u4"))
        if version != 1:
            raise ScenarioError(f"{path}: unsupported emission file version {version}")
        payload = fh.read()
    shape = (n_time + 1, n_grid + 1, n_grid + 1)
    if len(payload) != 8 * math.prod(shape):
        raise ScenarioError(
            f"{path}: payload of {len(payload)} bytes, a {shape} field needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(shape)


# ---------------------------------------------------------------------------
# adjoint cache


def _adjoint_cache_key(scenario: Scenario) -> str:
    """Hash of everything the adjoint contraction depends on: the transport
    problem, and the raster's roads (in scenario order) and cells."""
    payload = {
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
    cache file ``adjoint-<key>.npz`` or made by ``contract_adjoint``.

    A cache file that cannot be read or fails a member's CRC check, or whose
    pairing or level-0 sum has the wrong shape or dtype or is not finite, is
    a miss: the contraction
    is made again and the file replaced atomically.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"adjoint-{_adjoint_cache_key(scenario)}.npz"
    shape = (scenario.n_time + 1, scenario.n_roads, scenario.n_cells)
    try:
        # ZipFile.read reads each member whole, so a CRC mismatch raises
        # BadZipFile; np.load stops at the end of the npy payload its header
        # states and so never checks the CRC
        with zipfile.ZipFile(path) as archive:
            pairing, level0 = (
                np.lib.format.read_array(io.BytesIO(archive.read(f"{name}.npy")), allow_pickle=False)
                for name in ("pairing", "level0")
            )
        if (
            pairing.shape == shape and pairing.dtype == float and np.all(np.isfinite(pairing))
            and level0.shape == () and level0.dtype == float and np.isfinite(level0)
        ):
            return AdjointContraction(pairing, float(level0)), path
    # besides the read errors: a damaged zip entry makes zipfile raise
    # RuntimeError (NotImplementedError for an unknown method)
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, RuntimeError):
        pass
    contraction = contract_adjoint(scenario)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    # np.savez's layout, but with ZipInfo's fixed time stamp, so that the
    # same contraction is always the same bytes
    with zipfile.ZipFile(tmp, "w") as archive:
        for name, value in (("pairing", contraction.pairing), ("level0", contraction.level0)):
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(value), allow_pickle=False)
    os.replace(tmp, path)
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


def _parse_policy(text: str, scenario: Scenario) -> SpeedLimitPolicy:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise PolicyError(f"cannot parse policy {text!r}: {exc}") from None
    return SpeedLimitPolicy.checked(values, scenario)


def cmd_simulate(args) -> int:
    scenario, text = _read_scenario(args.scenario)
    policy = _parse_policy(args.policy, scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    raster = rasterize_network(scenario)
    evaluator, adjoint_path = _evaluator(scenario, args, out_dir)
    tally = ObjectiveTally(evaluator, 1)
    traj = simulate_traffic(scenario, policy, observe=tally)
    (breakdown,) = tally.breakdowns()
    field = emission_field(traj, raster, scenario, policy)

    road_ids = [r.id for r in scenario.roads]
    times = traj.times
    cells = [f"{rid},{n}" for rid in road_ids for n in range(1, scenario.n_cells + 1)]
    _write_series(out_dir / "trajectory.csv", ["t", "road", "cell", "rho"], times, cells, traj.densities)
    _write_series(out_dir / "queues.csv", ["t", "road", "queue"], times,
                  [str(rid) for rid in traj.access_roads], traj.queues)
    ends = [f"{rid},{end}" for rid in road_ids for end in ("in", "out")]
    _write_series(out_dir / "flows.csv", ["t", "road", "end", "flux"], times[1:], ends,
                  np.stack((traj.inflow, traj.outflow), axis=2))
    write_emission_bin(out_dir / "emission.bin", field, scenario.n_grid, scenario.n_time)

    header = [f"v_{rid}" for rid in road_ids] + ["j_flow", "j_diff", "j_queue", "j_poll"]
    _write_csv(
        out_dir / "objectives.csv",
        header,
        [list(policy.values) + [breakdown.j_flow, breakdown.j_diff,
                                breakdown.j_queue, breakdown.j_poll]],
    )
    _write_manifest(
        out_dir,
        {
            "command": "simulate",
            "scenario_path": str(args.scenario),
            "scenario_sha256": _scenario_hash(text),
            "policy": list(policy.values),
            "started": started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": [
                "trajectory.csv", "queues.csv", "flows.csv", "emission.bin",
                "objectives.csv", str(adjoint_path.name),
            ],
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
    """Score a batch in ``jobs`` contiguous slices, one per worker process;
    each task carries the pickled evaluator, which is its contraction."""
    n = len(policies)
    slices = [policies[i * n // jobs:(i + 1) * n // jobs] for i in range(jobs)]
    parts = pool.map(evaluator.score, [part for part in slices if part])
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


def cmd_optimize(args) -> int:
    scenario, text = _read_scenario(args.scenario)
    overrides = {}
    if args.delta is not None:
        if not (math.isfinite(args.delta) and args.delta >= 0):
            raise PolicyError(f"delta must be a finite nonnegative number, got {args.delta}")
        overrides["delta"] = args.delta
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    if args.budget <= 0:
        raise PolicyError("budget must be positive")
    if args.seed < 0:
        raise PolicyError("seed must be nonnegative")
    if args.jobs < 1:
        raise PolicyError("jobs must be at least 1")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    evaluator, adjoint_path = _evaluator(scenario, args, out_dir)
    workers = (
        ProcessPoolExecutor(args.jobs, multiprocessing.get_context("spawn"))
        if args.jobs > 1
        else contextlib.nullcontext()
    )
    with workers as pool:
        score = None if pool is None else functools.partial(_score_sliced, pool, args.jobs, evaluator)
        entries, breakdowns, diagnostics = search_front(evaluator, args.budget, args.seed, score)
    values = np.array([e.value for e in entries])

    ideal = values.min(axis=0)
    skip_axes = ()
    queue_axis_normalized = None
    if scenario.mode == "3d" and abs(ideal[2]) < 1e-12:
        skip_axes = (2,)
        queue_axis_normalized = False
    elif scenario.mode == "3d":
        queue_axis_normalized = True
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
    if queue_axis_normalized is not None:
        diag["queue_axis_normalized"] = queue_axis_normalized
    (out_dir / "diagnostics.json").write_text(json.dumps(diag, indent=2, sort_keys=True))

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
            "outputs": [
                "front.csv", "speed_limit_ranges.csv", "diagnostics.json",
                str(adjoint_path.name),
            ],
        },
    )
    print(f"archive size: {len(entries)} (evaluations: {diagnostics['evaluations']})")
    return 0


def cmd_export(args) -> int:
    if not math.isfinite(args.delta):
        raise PolicyError(f"delta must be a finite number, got {args.delta}")
    front_path = Path(args.front)
    with open(front_path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        fields = reader.fieldnames or []
    needed = {"j_diff", "j_queue"} if args.coords == "diff-queue" else {"j_flow", "j_diff", "j_queue"}
    missing = needed - set(fields)
    if missing and rows:
        raise ScenarioError(f"{front_path}: missing columns {sorted(missing)}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.coords == "diff-queue":
        header = ["j_diff", "j_queue"]
        out_rows = [(float(r["j_diff"]), float(r["j_queue"])) for r in rows]
    else:
        header = ["j_flow", "j_poll"]
        out_rows = [
            (float(r["j_flow"]), float(r["j_diff"]) + args.delta * float(r["j_queue"]))
            for r in rows
        ]
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
    p.add_argument("--out", default=None, help="unused; accepted for uniformity")
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
                   help="worker processes scoring each poll batch (default 1). On the "
                        "diamond with 2 cores, --jobs 2 took 0.7-0.9 s against 0.5-0.6 s for "
                        "--jobs 1 at budget 300, and 3.4-3.6 s against 5.3-5.9 s at 4000. "
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
    except (PolicyError, TrafficError, DispersionError) as exc:
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
