"""Command-line front end: validate, simulate, optimize, export.

All numeric output uses round-trip float formatting, so repeated runs with
the same seed produce byte-identical CSV files.  Every command that writes
results also writes a manifest recording the inputs (including a scenario
content hash), the seed/budget, and the produced files.

Exit codes: 0 success, 1 domain error (infeasible policy, failed
validation, unstable setup), 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from tramopt import __version__
from tramopt.dispersion import DispersionError, solve_adjoint
from tramopt.emission import emission_field, rasterize_network
from tramopt.moo import SearchOptions, normalize_front, pareto_search
from tramopt.network import (
    PolicyError,
    Scenario,
    ScenarioError,
    SpeedLimitPolicy,
    load_scenario,
    validate_scenario,
)
from tramopt.objectives import BatchScorer, ObjectiveBreakdown, ObjectiveTally, PolicyEvaluator
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


def write_emission_bin(path: Path, field: np.ndarray, n_grid: int, n_time: int) -> None:
    """Flat binary emission field: magic, version, n_grid, n_time (uint32 LE),
    then (n_time+1) row-major float64 slices of shape (n_grid+1, n_grid+1)."""
    with open(path, "wb") as fh:
        fh.write(_EMISSION_MAGIC)
        fh.write(np.array([1, n_grid, n_time], dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(field, dtype="<f8").tobytes())


def read_emission_bin(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != _EMISSION_MAGIC:
            raise ScenarioError(f"{path}: not an emission field file")
        version, n_grid, n_time = np.frombuffer(fh.read(12), dtype="<u4")
        if version != 1:
            raise ScenarioError(f"{path}: unsupported emission file version {version}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(int(n_time) + 1, int(n_grid) + 1, int(n_grid) + 1)


# ---------------------------------------------------------------------------
# adjoint cache


def _adjoint_cache_key(scenario: Scenario) -> str:
    payload = {
        "side": scenario.domain_side,
        "n_grid": scenario.n_grid,
        "mu": scenario.dispersion.mu,
        "kappa": scenario.dispersion.kappa,
        "wind": list(scenario.dispersion.wind),
        "horizon": scenario.horizon,
        "n_time": scenario.n_time,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def cached_adjoint(scenario: Scenario, cache_dir: Path) -> tuple[np.ndarray, Path]:
    """Solve the adjoint or load it from a content-addressed cache file.

    A cache file that cannot be read or holds the wrong array is a miss: the
    adjoint is solved again and the file replaced atomically.
    """
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"adjoint-{_adjoint_cache_key(scenario)}.npy"
    expected = (scenario.n_time + 1, scenario.n_grid + 1, scenario.n_grid + 1)
    try:
        adjoint = np.load(path)
        if isinstance(adjoint, np.ndarray) and adjoint.shape == expected and adjoint.dtype == float:
            return adjoint, path
    except (OSError, ValueError, EOFError):
        pass
    adjoint = solve_adjoint(scenario)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        np.save(fh, adjoint)
    os.replace(tmp, path)
    return adjoint, path


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
    cache_dir = Path(args.cache_dir) if args.cache_dir else out_dir
    adjoint, adjoint_path = cached_adjoint(scenario, cache_dir)
    tally = ObjectiveTally(PolicyEvaluator(scenario, adjoint=adjoint, raster=raster), 1)
    traj = simulate_traffic(scenario, policy, observe=tally)
    (breakdown,) = tally.breakdowns()
    field = emission_field(traj, raster, scenario, policy)

    road_ids = [r.id for r in scenario.roads]
    times = traj.times
    rows = (
        (float(times[k]), rid, n + 1, float(traj.densities[k, e, n]))
        for k in range(len(times))
        for e, rid in enumerate(road_ids)
        for n in range(scenario.n_cells)
    )
    _write_csv(out_dir / "trajectory.csv", ["t", "road", "cell", "rho"], rows)
    _write_csv(
        out_dir / "queues.csv",
        ["t", "road", "queue"],
        (
            (float(times[k]), rid, float(traj.queues[k, slot]))
            for k in range(len(times))
            for slot, rid in enumerate(traj.access_roads)
        ),
    )
    _write_csv(
        out_dir / "flows.csv",
        ["t", "road", "end", "flux"],
        (
            (float(times[k + 1]), rid, end, float(rec[k, e]))
            for k in range(scenario.n_time)
            for e, rid in enumerate(road_ids)
            for end, rec in (("in", traj.inflow), ("out", traj.outflow))
        ),
    )
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


_WORKER_EVALUATOR: PolicyEvaluator | None = None


def _init_worker(scenario: Scenario, adjoint: np.ndarray) -> None:
    global _WORKER_EVALUATOR
    _WORKER_EVALUATOR = PolicyEvaluator(scenario, adjoint=adjoint)


def _score_in_worker(policies: list[np.ndarray]) -> list[ObjectiveBreakdown]:
    assert _WORKER_EVALUATOR is not None
    return _WORKER_EVALUATOR.score(policies)


def _score_sliced(pool, jobs: int, policies: list[np.ndarray]) -> list[ObjectiveBreakdown]:
    """Score a batch in ``jobs`` contiguous slices, one per worker process."""
    n = len(policies)
    slices = [policies[i * n // jobs:(i + 1) * n // jobs] for i in range(jobs)]
    parts = pool.map(_score_in_worker, [part for part in slices if part])
    return [b for part in parts for b in part]


def cmd_optimize(args) -> int:
    scenario, text = _read_scenario(args.scenario)
    overrides = {}
    if args.delta is not None:
        if args.delta < 0:
            raise PolicyError("delta must be nonnegative")
        overrides["delta"] = args.delta
    if args.mode is not None:
        overrides["mode"] = args.mode
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    if args.budget <= 0:
        raise PolicyError("budget must be positive")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.strftime("%Y-%m-%dT%H:%M:%S")

    cache_dir = Path(args.cache_dir) if args.cache_dir else out_dir
    adjoint, adjoint_path = cached_adjoint(scenario, cache_dir)
    evaluator = PolicyEvaluator(scenario, adjoint=adjoint)
    lower, upper = scenario.policy_bounds()
    options = SearchOptions(max_evaluations=args.budget, seed=args.seed)

    scorer = BatchScorer(evaluator)
    workers = (
        ProcessPoolExecutor(
            args.jobs, multiprocessing.get_context("spawn"), _init_worker, (scenario, adjoint)
        )
        if args.jobs > 1
        else contextlib.nullcontext()
    )
    with workers as pool:
        if pool is not None:
            scorer.score = functools.partial(_score_sliced, pool, args.jobs)
        archive, diagnostics = pareto_search(
            evaluator.vector, lower, upper, options, map_fn=scorer
        )

    entries = sorted(archive.entries, key=lambda e: e.policy)
    breakdowns = [scorer.scored[e.policy] for e in entries]
    values = np.array([e.value for e in entries])

    ideal = values.min(axis=0)
    skip_axes = ()
    queue_axis_normalized = None
    if scenario.mode == "3d" and abs(ideal[2]) < 1e-12:
        skip_axes = (2,)
        queue_axis_normalized = False
    elif scenario.mode == "3d":
        queue_axis_normalized = True
    normalized = normalize_front(values, ideal, skip_axes=skip_axes)

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
    p.add_argument("--scenario", required=True)
    p.add_argument("--policy", required=True, help="comma-separated speed limits")
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="compute a Pareto front of policies")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["2d", "3d"], default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cache-dir", default=None)
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
