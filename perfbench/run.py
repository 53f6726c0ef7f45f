"""Benchmark of ``tramopt``: three workloads run through ``tramopt.cli.main``.

    python3 perfbench/run.py --workload optimize-diamond --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (it imports ``tramopt`` from ``src/``).
Every command runs in this one process with ``--jobs 1``.  A run prepares
its inputs, times the workload's set-up several times, then repeats whole
rounds of command calls for ``--seconds`` seconds, checking every call's
outputs with ``checks.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` calls, and the metrics,
end to end with ``--trace 0`` and per layer with ``--trace 1``.  The
README describes the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
DIAMOND = ROOT / "scenarios" / "diamond.json"

sys.path.insert(0, str(HERE))
import chain  # noqa: E402
import checks  # noqa: E402
from probe import HostClock  # noqa: E402
from spans import Tracer, layer_metrics, layer_targets, search_targets  # noqa: E402

#: search seed of both optimize workloads, fixed so that every run does the
#: same work and writes the same front
SEARCH_SEED = 7
DIAMOND_BUDGET = 300
CHAIN_DIAMONDS = 4
CHAIN_BUDGET = 120
#: policies per simulate-diamond round: a ladder of uniform speed limits from
#: the lower to the upper bound, each road's limit jittered by the seed
LADDER = 8
LADDER_JITTER = 0.1
#: reference points of the (-J_flow, J_poll) hypervolume; J_flow > 0, and
#: J_poll stays below these on every policy of the box
HV_REFERENCE = {"diamond": (0.0, 0.3), "chain": (0.0, 0.6)}


def cli_call(cli, argv) -> tuple[int, str]:
    """Run one command in-process: (exit code, its output)."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed call, not a failed run
            traceback.print_exc()
            code = -1
    return code, log.getvalue()


def measured(clock: HostClock, fn, ticking: bool):
    """Run ``fn()`` between probe bursts: (its result, raw and reference seconds, probes).

    With ``ticking`` set, probes also run on a timer while ``fn`` runs, so
    that it is scaled by the host speed while it ran; their time is taken
    out of the measured time (and, in a traced run, of the spans they fall
    in).  ``run`` always ticks; ``reference.py`` reports raw wall times.
    """
    mark = clock.mark()
    clock.burst()
    with clock.ticking() if ticking else contextlib.nullcontext():
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
    clock.burst()
    samples = clock.since(mark)
    work = end - start - clock.inside(samples, start, end)
    return result, end - start, work * clock.factor(samples), samples


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclasses.dataclass
class Call:
    argv: list[str]
    check: object  # () -> list of failures
    cache: Path | None = None  # a cold cache made for this call alone


class Workload:
    """Inputs, set-up and rounds of command calls of one workload."""

    setup_reps = 5
    cold_cache = False
    overrides: dict = {}

    def __init__(self, cli, work: Path, seed: int):
        self.cli = cli
        self.work = work
        self.seed = seed
        self.out = work / "out"
        self.cache = work / "cache"

    def prepare(self) -> None:
        """Inputs made, untraced, before anything is timed."""

    def set_up(self, cache: Path):
        """From reading the scenario to a ready ``PolicyEvaluator``."""
        cli = self.cli
        scenario = cli.load_scenario(self.scenario.read_text())
        if self.overrides:
            scenario = dataclasses.replace(scenario, **self.overrides)
        report = cli.validate_scenario(scenario)
        adjoint, _ = cli.cached_adjoint(scenario, cache)
        cli.PolicyEvaluator(scenario, adjoint=adjoint)
        return report

    def timed_set_up(self, clock: HostClock) -> float:
        """Reference seconds of one set-up under the workload's cache state."""
        cache = self.work / "setup-cache" if self.cold_cache else self.cache
        try:
            report, _, seconds, _ = measured(clock, lambda: self.set_up(cache), ticking=True)
        finally:
            if self.cold_cache:
                shutil.rmtree(cache, ignore_errors=True)
        if not report.ok:
            raise RuntimeError(f"{self.scenario.name} fails validation: {report.findings}")
        return seconds


class Optimize(Workload):
    """``tramopt optimize`` on one scenario, the same seed every call."""

    def __init__(self, cli, work, seed):
        super().__init__(cli, work, seed)
        self.front: bytes | None = None

    def round(self):
        cache = self.work / "call-cache" if self.cold_cache else self.cache
        argv = [
            "optimize", "--scenario", str(self.scenario), "--out", str(self.out),
            "--mode", self.overrides["mode"], "--delta", str(self.overrides["delta"]),
            "--budget", str(self.budget), "--seed", str(SEARCH_SEED), "--jobs", "1",
            "--cache-dir", str(cache),
        ]
        yield Call(argv, self.check, cache if self.cold_cache else None)

    def check(self) -> list[str]:
        fails = checks.check_front(
            self.out, self.facts, self.overrides["mode"], self.overrides["delta"], self.budget
        )
        front = (self.out / "front.csv").read_bytes()
        if self.front is None:
            self.front = front
        elif front != self.front:
            fails.append("front.csv differs from the run's first call with the same seed")
        return fails

    def hypervolume(self) -> float:
        points = checks.front_points(self.out / "front.csv")
        return checks.hypervolume_2d(points, HV_REFERENCE[self.kind])


class OptimizeDiamond(Optimize):
    kind = "diamond"
    setup_reps = 7
    budget = DIAMOND_BUDGET
    overrides = {"mode": "2d", "delta": 0.0}

    def prepare(self):
        self.scenario = DIAMOND
        self.facts = checks.Facts(json.loads(DIAMOND.read_text()))


class OptimizeChain(Optimize):
    kind = "chain"
    setup_reps = 5
    cold_cache = True
    budget = CHAIN_BUDGET
    overrides = {"mode": "3d", "delta": 0.5}

    def prepare(self):
        doc = chain.make_chain(CHAIN_DIAMONDS, self.seed)
        self.scenario = self.work / "chain.json"
        self.scenario.write_text(json.dumps(doc, indent=1))
        self.facts = checks.Facts(doc)
        code, log = cli_call(self.cli, ["validate", "--scenario", str(self.scenario)])
        findings = [l for l in log.splitlines() if not l.startswith("CFL: pass") and l != "scenario valid"]
        if code != 0 or findings:
            raise RuntimeError(f"generated chain fails tramopt validate (exit {code}): {findings}")


class SimulateDiamond(Workload):
    """``tramopt simulate`` on a seeded ladder of policies, one shared cache."""

    cold_cache = True

    def prepare(self):
        self.scenario = DIAMOND
        doc = json.loads(DIAMOND.read_text())
        self.facts = f = checks.Facts(doc)
        self.delta = float(doc.get("objectives", {}).get("delta", 0.0))
        rng = random.Random(self.seed)
        lo, hi = float(f.v_min.min()), float(f.v_max.max())
        self.policies = []
        for i in range(LADDER):
            base = lo + (hi - lo) * i / (LADDER - 1)
            self.policies.append([
                round(min(max(base + rng.uniform(-LADDER_JITTER, LADDER_JITTER), a), b), 3)
                for a, b in zip(f.v_min.tolist(), f.v_max.tolist())
            ])
        self.objectives: dict[int, bytes] = {}
        self.points: dict[int, tuple[float, float]] = {}

    def round(self):
        for n, policy in enumerate(self.policies):
            argv = [
                "simulate", "--scenario", str(DIAMOND), "--out", str(self.out),
                "--policy", ",".join(repr(v) for v in policy), "--cache-dir", str(self.cache),
            ]
            yield Call(argv, lambda n=n, policy=policy: self.check(n, policy))

    def check(self, n: int, policy) -> list[str]:
        fails = checks.check_simulate(self.out, self.facts, policy, self.delta)
        written = (self.out / "objectives.csv").read_bytes()
        if self.objectives.setdefault(n, written) != written:
            fails.append(f"objectives.csv of policy {n} differs from its first round")
        self.points.setdefault(n, checks.front_points(self.out / "objectives.csv")[0])
        return fails

    def hypervolume(self) -> float:
        return checks.hypervolume_2d(self.points.values(), HV_REFERENCE["diamond"])


WORKLOADS = {
    "optimize-diamond": OptimizeDiamond,
    "optimize-chain": OptimizeChain,
    "simulate-diamond": SimulateDiamond,
}


def timed_call(cli, argv, clock: HostClock, tracer: Tracer, ticking: bool):
    """One command with ``tracer`` installed, measured as ``measured`` does:
    (exit code, output, raw and reference seconds, probes)."""
    with tracer.installed():
        (code, log), raw, seconds, samples = measured(clock, lambda: cli_call(cli, argv), ticking)
    return code, log, raw, seconds, samples


def search_rates(spans, clock: HostClock, samples) -> list[float]:
    """Evaluations per reference second inside each search span of one call.

    A span is scaled by the probes that ran inside it, or by all the call's
    probes where none did.
    """
    rates = []
    for span in spans:
        inside = [x for x in samples if span.start <= x[0] <= span.end] or samples
        busy = span.duration - clock.inside(inside, span.start, span.end)
        rates.append(span.info["evaluations"] / (busy * clock.factor(inside)))
    return rates


def run(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    from tramopt import cli, objectives

    wl = WORKLOADS[name](cli, work, seed)
    clock = HostClock()
    search = Tracer(search_targets(cli))
    layers = Tracer(layer_targets(cli, objectives), batches=True) if traced else None

    wl.prepare()
    setups = []
    with (layers or search).installed():
        if not wl.cold_cache:
            wl.set_up(wl.cache)  # fills the cache the timed set-ups and calls read
        for _ in range(wl.setup_reps):
            setups.append(wl.timed_set_up(clock))

    # (traced, reference seconds, bytes written) of every call that exited 0
    calls: list[tuple[bool, float, int]] = []
    rates: list[float] = []
    attempted = failed = 0
    wrong: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        for call in wl.round():
            # a traced run alternates plain and traced calls to measure overhead
            use_layers = layers is not None and attempted % 2 == 0
            searched = len(search.spans)
            code, log, _, secs, samples = timed_call(
                cli, call.argv, clock, layers if use_layers else search, ticking=True)
            attempted += 1
            if code != 0:
                failed += 1
                print(f"call {attempted} exit {code}: {log.strip()[-500:]}", file=sys.stderr)
            else:
                fails = call.check()
                if fails:
                    failed += 1
                    wrong += fails
                    print(f"call {attempted} wrong: {fails[:3]}", file=sys.stderr)
                calls.append((use_layers, secs, tree_bytes(wl.out)))
                if not use_layers:
                    rates += search_rates(search.spans[searched:], clock, samples)
            if call.cache is not None:
                shutil.rmtree(call.cache, ignore_errors=True)
        kinds = {t for t, _, _ in calls}
        if time.perf_counter() >= deadline and (layers is None or kinds == {True, False}):
            break

    plain = [s for t, s, _ in calls if not t]
    metrics: dict[str, tuple[float, str]]
    if layers is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "call_s": (statistics.median(plain) if plain else 0.0, "s"),
            "evals_per_s": (statistics.median(rates) if rates else len(plain) / max(sum(plain), 1e-300), "1/s"),
            "front_hypervolume": (wl.hypervolume() if calls else 0.0, "area"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        for span in layers.spans:  # probes that ran inside a span are not its work
            span.paused = clock.inside(clock.samples, span.start, span.end)
        metrics = layer_metrics(layers, clock.factor(clock.samples))
        traced_calls = [s for t, s, _ in calls if t]
        metrics["cli.bytes_written"] = (statistics.median(b for t, _, b in calls if t), "bytes")
        metrics["trace.overhead"] = (
            100.0 * (statistics.median(traced_calls) / statistics.median(plain) - 1.0), "%")
        metrics["host.probe_s"] = (statistics.median(d for _, d in clock.samples), "s")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of tramopt's commands")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tramopt" / "cli.py").is_file() or not DIAMOND.is_file():
        print(f"error: {ROOT} holds no tramopt source tree (src/tramopt, scenarios/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
