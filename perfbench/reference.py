"""Reference figures quoted in the README, measured once per machine.

    python3 perfbench/reference.py

Prints one JSON object: the machine, Python and numpy versions and git SHA;
``optimize`` on the diamond at budget 300 with ``--jobs 2`` against serial
(raw wall seconds, alternating, and whether every run wrote the same
``front.csv``); the traffic simulation time and junction solves per policy
on chains of 1, 4 and 16 diamonds; and the tracing overhead on one
``optimize-diamond`` call.  Takes about three minutes.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np

from run import DIAMOND, ROOT, RUNS, SEARCH_SEED, DIAMOND_BUDGET, timed_call

sys.path.insert(0, str(ROOT / "src"))
import chain  # noqa: E402
from probe import HostClock  # noqa: E402
from spans import Tracer, layer_targets, search_targets  # noqa: E402


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"cpu": cpu, "cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__, "git_sha": sha}


def jobs(cli, work, pairs=2, budget=300) -> dict:
    clock, search = HostClock(), Tracer(search_targets(cli))
    walls = {"1": [], "2": []}
    fronts = set()
    for _ in range(pairs):
        for n in ("1", "2"):
            out = work / f"jobs{n}"
            argv = ["optimize", "--scenario", str(DIAMOND), "--out", str(out), "--budget", str(budget),
                    "--seed", str(SEARCH_SEED), "--jobs", n, "--cache-dir", str(work / "cache")]
            code, log, wall, _, _ = timed_call(cli, argv, clock, search, False)
            if code != 0:
                raise RuntimeError(log)
            walls[n].append(wall)
            fronts.add((out / "front.csv").read_bytes())
    return {"budget": budget, "serial_wall_s": walls["1"], "jobs2_wall_s": walls["2"],
            "identical_front": len(fronts) == 1,
            "probe_median_s": statistics.median(d for _, d in clock.samples)}


def chains(objectives) -> dict:
    from tramopt.network import load_scenario

    out = {}
    for k in (1, 4, 16):
        scenario = load_scenario(json.dumps(chain.make_chain(k, 1)))
        tracer = Tracer([(objectives, "simulate_traffic", "traffic.simulate")])
        policy = np.full(scenario.n_roads, 1.0)
        with tracer.installed():
            for _ in range(5):
                objectives.simulate_traffic(scenario, policy)
        spans = tracer.named("traffic.simulate")
        out[k] = {"roads": scenario.n_roads, "junctions": len(scenario.junctions),
                  "simulate_s": statistics.median(s.duration for s in spans),
                  "junction_solves": spans[0].info["junction_solves"]}
    return out


def overhead(cli, objectives, work, pairs=3) -> dict:
    clock = HostClock()
    plain, traced = Tracer(search_targets(cli)), Tracer(layer_targets(cli, objectives), batches=True)
    times = {"plain": [], "traced": []}
    argv = ["optimize", "--scenario", str(DIAMOND), "--out", str(work / "ovh"), "--budget",
            str(DIAMOND_BUDGET), "--seed", str(SEARCH_SEED), "--cache-dir", str(work / "cache")]
    for _ in range(pairs):
        for name, tracer in (("plain", plain), ("traced", traced)):
            code, log, _, secs, _ = timed_call(cli, argv, clock, tracer, False)
            if code != 0:
                raise RuntimeError(log)
            times[name].append(secs)
    ratio = statistics.median(times["traced"]) / statistics.median(times["plain"])
    return {"plain_s": times["plain"], "traced_s": times["traced"], "overhead_pct": 100 * (ratio - 1),
            "spans_per_call": len(traced.spans) / pairs}


def main() -> None:
    from tramopt import cli, objectives

    work = RUNS / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = {"machine": machine(), "chains": chains(objectives),
                  "tracing": overhead(cli, objectives, work), "jobs": jobs(cli, work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
