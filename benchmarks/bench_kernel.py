"""Layer bench of the traffic kernel, the adjoint set-up and ``simulate``, on two source trees.

    python3 benchmarks/bench_kernel.py --parent HEAD~1 --pairs 15 --out BENCH_N.json

It compares the working tree ("change") with a git revision ("parent", written
to a temporary directory with ``git archive``) on the same machine.  Each tree
runs in its own worker process, which imports ``tramopt`` from that tree's
``src/`` and sets everything up before anything is timed.

* Scoring: ``PolicyEvaluator.score`` on the batches the search scores,
  recorded by a ``score`` passed to ``cli.search_front`` (the wiring
  ``tramopt optimize`` uses), per ``SEARCHES``: on ``scenarios/diamond.json``
  (2d, budget 300, search seed 7), on the chain of 4 diamonds from
  ``perfbench/chain.py`` (3d, delta 0.5, budget 120, search seed 7) and on
  the criterion-7 search (the diamond, 2d, budget 4000, search seed 0),
  whose fifth batch, B = 682, is timed.  B = 1 is the first seed point.
  The congested rows score the diamond search's B = 26 and B = 154
  batches on a congested diamond (``CONGESTED``: every road's rho0 at
  0.85 and the access inflow at 0.6), so that a change to the envelopes'
  masks is timed where most cells sit above the critical density, not
  only where most sit below it.  Each row also gives the mean share of
  cells above the critical density over the output steps of its scoring,
  read once from the change's tree (the densities are the same in both).
  Both trees must have ``cli.search_front``.  The main process asks the two
  workers in turn for one timed scoring of a batch, alternating which goes
  first, ``--pairs`` times per batch, so that a slow spell of a shared host
  hits both sides of a pair.  Wall and CPU time are kept and both are
  reported; a speed-up is the median over pairs of the parent's time over
  the change's.  CPU time counts only the worker's own process, so it
  spreads less than wall time on a shared host.
* Stages: ``--traced`` traced scorings per batch and tree, alternated, with
  the median of each stage reported; 0 skips them.  A line tracer charges the time of
  every line of the step, the road update, the march and the objective
  tally to a stage (``STAGES``) by the line's text, so the same rules read
  both trees.  The couplings are the lines of the step that no other rule
  claims and every line of the link pass (``_couple``), which older trees
  write inline in the step.
  Tracing slows every line by about the same amount, so it inflates the
  stages made of many cheap lines (the couplings); compare a stage between
  the trees rather than with the untraced scoring time.
* Adjoint: the cold set-up that ``tramopt optimize`` and ``simulate`` run,
  ``cli.cached_adjoint`` into an empty directory and then
  ``PolicyEvaluator``, per ``ADJOINT_SETUPS``: on ``scenarios/diamond.json``
  (the set-up of perfbench's ``simulate-diamond``) and on the chains of
  k = 1, 4 and 16 diamonds (n_grid 100, 180 and 560), each in a fresh
  process: its wall and CPU time and the process's peak RSS
  (``ru_maxrss``) after it, ``--adjoint-runs`` times per set-up and tree,
  alternating which tree goes first; 0 skips them.  A speed-up is the
  median over pairs of the parent's wall time over the change's, with CPU
  time kept as a column: a process's CPU clock can read above its wall
  clock for one single-threaded set-up of tens of milliseconds on a loaded
  host, so for these rows wall time over many pairs is the sharper measure.
* Simulate: whole ``tramopt simulate`` calls through ``cli.main``, all
  limits at 1.0, per ``SIMULATE_SETUPS``: on ``scenarios/diamond.json`` and
  on the chain of k = 4 diamonds.  Per set-up and tree, every call writes
  into one reused ``--out`` with one ``--cache-dir``, so after a first,
  untimed call each call rewrites the files of the one before it from a
  warm cache.  Each call runs in a fresh process: its wall and CPU time and
  the process's peak RSS after it, ``--simulate-runs`` pairs per set-up,
  alternating which tree goes first, reported as the set-ups are.  Then one
  call per tree on the chain of k = 16 diamonds (a 1.5 GB emission field),
  with a cold cache, for its peak RSS alone; 0 skips the section.

Needs only the standard library and numpy.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHAIN_SEED = 1
CHAIN_DIAMONDS = 4
#: the cold adjoint set-ups: the diamond, and chains of k diamonds
ADJOINT_SETUPS = ("diamond", "k=1", "k=4", "k=16")
#: the simulate calls timed in pairs, and the one run once per tree for its peak
SIMULATE_SETUPS = ("diamond", "k=4")
SIMULATE_PEAK_ONLY = "k=16"
#: batch sizes timed per row group; all but 1 occur as whole poll batches
BATCHES = {"diamond": (1, 26, 154), "chain": (34, 86), "criterion-7": (682,), "congested": (26, 154)}
#: per row group: the scenario searched, its budget and search seed, and
#: the scenario the search's batches are scored on
SEARCHES = {
    "diamond": ("diamond", 300, 7, "diamond"),
    "chain": ("chain", 120, 7, "chain"),
    "criterion-7": ("diamond", 4000, 0, "diamond"),
    "congested": ("diamond", 300, 7, "congested"),
}
#: the congested diamond: every road's initial density and every access inflow
CONGESTED = {"rho0": 0.85, "inflow": 0.6}
STAGES = ("envelopes", "interior", "couplings", "update", "Q", "tally", "other")
#: the kernel's functions whose lines are charged to stages: the step, the
#: link pass and the road update it calls (absent from older trees, which
#: couple and update inline) and the march
KERNEL_FRAMES = ("_godunov_step", "_couple", "_update_roads", "_march")
#: the functions whose lines no other rule claims are couplings
COUPLING_FRAMES = ("_godunov_step", "_couple")
#: the objective tally's functions in objectives.py: its per-step ``__call__``
#: in older trees, its per-group ``__call__`` and per-step ``step`` in newer ones
TALLY_FRAMES = ("__call__", "step")


# -- worker side: runs inside one tree ---------------------------------------


def _scenario(tree: Path, name: str, diamonds: int = CHAIN_DIAMONDS):
    import dataclasses

    from tramopt.network import load_scenario

    if name in ("diamond", "congested"):
        doc = json.loads((tree / "scenarios" / "diamond.json").read_text())
        if name == "congested":
            for road in doc["roads"]:
                road["rho0"] = CONGESTED["rho0"]
            for access in doc["access"]:
                access["inflow"] = CONGESTED["inflow"]
        return dataclasses.replace(load_scenario(json.dumps(doc)), mode="2d", delta=0.0)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import chain

    return load_scenario(json.dumps(chain.make_chain(diamonds, CHAIN_SEED)))


def _poll_batches(evaluator, budget: int, seed: int) -> dict[int, list]:
    """The batches a seeded search scores, by size; B = 1 is the first policy."""
    from tramopt.cli import search_front

    seen: dict[int, list] = {}

    def record(policies):
        seen.setdefault(len(policies), list(policies))
        return evaluator.score(policies)

    search_front(evaluator, budget, seed, score=record)
    first = next(iter(seen.values()))
    seen[1] = first[:1]
    return seen


def _above_critical(evaluator, policies) -> float:
    """The share of cells above the critical density, over every output
    step of a march of ``policies`` on the evaluator's scenario."""
    import numpy as np
    from tramopt.traffic import simulate_batch

    critical = np.array([[r.rho_max / 2.0] for r in evaluator.scenario.roads])
    counts = [0, 0]

    @contextlib.contextmanager
    def observe(rows, rho, *_):
        def step(k):
            counts[0] += np.count_nonzero(rho > critical)
            counts[1] += rho.size

        yield step

    simulate_batch(evaluator.scenario, policies, observe)
    return counts[0] / counts[1]


class LineClock:
    """Charges wall time to stages, line by line, in the kernel's frames."""

    def __init__(self):
        self.totals = dict.fromkeys(STAGES, 0.0)
        self.label = "other"
        self.stack: list[str] = []
        self.last = time.perf_counter()

    @staticmethod
    def traced(code) -> bool:
        if code.co_name in KERNEL_FRAMES:
            return code.co_filename.endswith("traffic.py")
        return code.co_name in TALLY_FRAMES and code.co_filename.endswith("objectives.py")

    @staticmethod
    def stage(frame) -> str:
        code = frame.f_code
        if code.co_name in TALLY_FRAMES:
            return "tally"
        import linecache

        text = linecache.getline(code.co_filename, frame.f_lineno).strip()
        if "_envelopes(" in text:
            return "envelopes"
        if "_flux(" in text:
            return "Q"
        if re.search(r"np\.minimum\((ws\.)?dem", text):
            return "interior"
        if code.co_name == "_update_roads" or re.search(
            r"out=rho|out=diff|rho = rho|rho\.shape|ws\.faces|_update_roads\(", text
        ):
            return "update"
        return "couplings" if code.co_name in COUPLING_FRAMES else "other"

    def _charge(self):
        now = time.perf_counter()
        self.totals[self.label] += now - self.last
        return now

    def global_trace(self, frame, event, _arg):
        if not self.traced(frame.f_code):
            return None
        self._charge()
        self.stack.append(self.label)
        self.label = "other"
        self.last = time.perf_counter()
        return self.local_trace

    def local_trace(self, frame, event, _arg):
        self._charge()
        if event == "line":
            self.label = self.stage(frame)
        elif event == "return":
            self.label = self.stack.pop() if self.stack else "other"
        self.last = time.perf_counter()
        return self.local_trace

    def run(self, fn):
        self.last = time.perf_counter()
        sys.settrace(self.global_trace)
        try:
            fn()
        finally:
            sys.settrace(None)
            self._charge()


def adjoint_worker(tree: Path, setup: str) -> dict:
    """Cold set-up ``setup`` of ``ADJOINT_SETUPS`` in this fresh process: the
    adjoint cache call ``optimize`` makes, into an empty directory, and the
    evaluator made from what it returns."""
    sys.path.insert(0, str(tree / "src"))
    from tramopt.cli import cached_adjoint
    from tramopt.objectives import PolicyEvaluator

    sc = _scenario(tree, "diamond") if setup == "diamond" else _scenario(tree, "chain", int(setup[2:]))
    with tempfile.TemporaryDirectory() as cache:
        wall, cpu = time.perf_counter(), time.process_time()
        adjoint, _ = cached_adjoint(sc, Path(cache))
        PolicyEvaluator(sc, adjoint=adjoint)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def simulate_worker(tree: Path, argv: list[str]) -> dict:
    """One ``tramopt simulate`` call with ``argv`` in this fresh process."""
    sys.path.insert(0, str(tree / "src"))
    from tramopt.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        wall, cpu = time.perf_counter(), time.process_time()
        code = main(argv)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if code != 0:
        raise RuntimeError(f"simulate exited {code}: {argv}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def serve(tree: Path) -> None:
    """Set up every batch of ``BATCHES``, then answer ``score KEY`` with one
    timed scoring, ``stages KEY`` with one traced one and ``above KEY``
    with the batch's share of cells above the critical density, a JSON
    line each."""
    import functools

    sys.path.insert(0, str(tree / "src"))
    from tramopt.objectives import PolicyEvaluator

    evaluator = functools.cache(lambda scenario: PolicyEvaluator(_scenario(tree, scenario)))
    batches = functools.cache(lambda scenario, budget, seed: _poll_batches(evaluator(scenario), budget, seed))
    work = {}
    for name, sizes in BATCHES.items():
        searched, budget, seed, scored = SEARCHES[name]
        work.update({f"{name}/B={b}": (evaluator(scored), batches(searched, budget, seed)[b]) for b in sizes})
    print("ready", flush=True)
    for line in sys.stdin:
        kind, key = line.split()
        scorer, policies = work[key]
        if kind == "score":
            wall, cpu = time.perf_counter(), time.process_time()
            scorer.score(policies)
            reply = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
        elif kind == "above":
            reply = {"above_critical": _above_critical(scorer, policies)}
        else:
            clock = LineClock()
            clock.run(lambda: scorer.score(policies))
            reply = clock.totals
        print(json.dumps(reply), flush=True)


# -- main process ----------------------------------------------------------------


class Worker:
    """A ``serve`` process of one tree, asked one measurement at a time."""

    def __init__(self, tree: Path):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"worker on {tree} failed to start")

    def ask(self, kind: str, key: str) -> dict:
        self.proc.stdin.write(f"{kind} {key}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> Path:
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    return dest / "tree"


def _adjoint(tree: Path, setup: str) -> dict:
    done = subprocess.run([sys.executable, __file__, "--adjoint", str(tree), "--setup", setup],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _simulate(tree: Path, argv: list[str]) -> dict:
    done = subprocess.run([sys.executable, __file__, "--simulate", str(tree), "--argv", json.dumps(argv)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure_simulate(trees: dict[str, Path], runs: int, work: Path) -> dict:
    """Per ``SIMULATE_SETUPS`` and tree, a first untimed call and then
    ``runs`` alternated calls into one reused ``--out``; then one cold call
    per tree on ``SIMULATE_PEAK_ONLY``, its output removed after it."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import chain

    def argv(setup: str, t: str) -> list[str]:
        if setup == "diamond":
            path = ROOT / "scenarios" / "diamond.json"
        else:
            path = work / f"chain-{setup}.json"
            if not path.exists():
                path.write_text(json.dumps(chain.make_chain(int(setup[2:]), CHAIN_SEED)))
        n_roads = len(json.loads(path.read_text())["roads"])
        return ["simulate", "--scenario", str(path), "--policy", ",".join(["1.0"] * n_roads),
                "--out", str(work / t / setup / "out"), "--cache-dir", str(work / t / setup / "cache")]

    samples = {k: {t: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for t in trees} for k in SIMULATE_SETUPS}
    for k in SIMULATE_SETUPS:
        for t in trees:
            _simulate(trees[t], argv(k, t))
        for r in range(runs):
            for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                for key, value in _simulate(trees[t], argv(k, t)).items():
                    samples[k][t][key].append(value)
    peak = {}
    for t in trees:
        peak[t] = _simulate(trees[t], argv(SIMULATE_PEAK_ONLY, t))["peak_rss_mb"]
        shutil.rmtree(work / t / SIMULATE_PEAK_ONLY)
    return {"timed": samples, "peak_only": peak}


def _summary(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2], "n": len(samples)}


def _compared(p: list[float], c: list[float]) -> dict:
    """Paired times of the parent and the change, pair i taken together."""
    return {
        "parent": _summary(p),
        "change": _summary(c),
        "speedup_median_of_pairs": statistics.median(a / b for a, b in zip(p, c)),
        "change_wins": f"{sum(a > b for a, b in zip(p, c))}/{len(p)}",
    }


def _speeds(row: dict) -> str:
    """The wall and CPU columns of one printed row of times."""
    return "  ".join(
        f"{name} parent {row[clock]['parent']['median'] * 1e3:7.1f} ms change "
        f"{row[clock]['change']['median'] * 1e3:7.1f} ms  x{row[clock]['speedup_median_of_pairs']:.2f} "
        f"(wins {row[clock]['change_wins']})"
        for name, clock in (("wall", "wall_s"), ("cpu", "cpu_s"))
    )


def _whole_runs(runs: dict, trees) -> dict:
    """A row of whole-process runs: wall time's speed-up and wins as its
    headline, both clocks compared and the peak RSS of each tree."""
    row = {clock: _compared(runs["parent"][clock], runs["change"][clock]) for clock in ("wall_s", "cpu_s")}
    return {
        "speedup_median_of_pairs": row["wall_s"]["speedup_median_of_pairs"],
        "change_wins": row["wall_s"]["change_wins"],
        **row,
        "peak_rss_mb": {t: _summary(runs[t]["peak_rss_mb"]) for t in trees},
    }


def _whole_line(name: str, row: dict) -> str:
    rss = row["peak_rss_mb"]
    return (f"{name:17s} x{row['speedup_median_of_pairs']:.2f} wall (wins {row['change_wins']})  {_speeds(row)}  "
            f"peak MB parent {rss['parent']['median']:.1f} change {rss['change']['median']:.1f}")


def measure(trees: dict[str, Path], pairs: int, traced: int) -> tuple[dict, dict, dict | None]:
    """Each batch's share of cells above the critical density, from the
    change's tree, alternated scoring samples, then ``traced`` alternated
    traced runs per batch and tree, summarised as the median time of each
    stage (None if ``traced`` is 0)."""
    keys = [f"{name}/B={b}" for name, sizes in BATCHES.items() for b in sizes]
    samples = {t: {k: [] for k in keys} for t in trees}
    workers = {}
    try:
        for t, tree in trees.items():
            workers[t] = Worker(tree)
        above = {key: workers["change"].ask("above", key)["above_critical"] for key in keys}
        for r in range(pairs):
            for i, key in enumerate(keys):
                order = list(trees) if (r + i) % 2 == 0 else list(trees)[::-1]
                for t in order:
                    samples[t][key].append(workers[t].ask("score", key))
            print(f"pair {r + 1}/{pairs}", file=sys.stderr)
        runs = {t: {k: [] for k in keys} for t in trees}
        for r in range(traced):
            for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                for key in keys:
                    runs[t][key].append(workers[t].ask("stages", key))
        stages = {
            t: {k: {s: statistics.median(run[s] for run in v) for s in STAGES} for k, v in runs[t].items()}
            for t in trees
        } if traced else None
    finally:
        for w in workers.values():
            w.close()
    return above, samples, stages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=15, help="alternated scorings per batch and tree")
    parser.add_argument("--traced", type=int, default=3, help="traced scorings per batch and tree")
    parser.add_argument("--adjoint-runs", type=int, default=10,
                        help="cold set-ups per set-up and tree (default 10; at 3 the process-to-process "
                             "spread of a cold set-up read as 0.70-0.77x with no set-up code changed)")
    parser.add_argument("--simulate-runs", type=int, default=10,
                        help="alternated simulate pairs per set-up, after one untimed call per tree")
    parser.add_argument("--setup", choices=ADJOINT_SETUPS, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="the record to write, such as BENCH_12.json (required)")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--adjoint", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--simulate", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--argv", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.serve:
        serve(args.serve)
        return 0
    if args.adjoint:
        print(json.dumps(adjoint_worker(args.adjoint, args.setup)))
        return 0
    if args.simulate:
        print(json.dumps(simulate_worker(args.simulate, json.loads(args.argv))))
        return 0
    if args.out is None:
        parser.error("--out is required: name the record to write")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1: the scoring pairs are the record")
    if min(args.traced, args.adjoint_runs, args.simulate_runs) < 0:
        parser.error("--traced, --adjoint-runs and --simulate-runs take 0 (skip) or more")

    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _export(args.parent, Path(tmp)), "change": ROOT}
        above, samples, stages = measure(trees, args.pairs, args.traced)
        adjoint = {k: {t: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for t in trees} for k in ADJOINT_SETUPS}
        for k in ADJOINT_SETUPS:
            for r in range(args.adjoint_runs):
                for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    for key, value in _adjoint(trees[t], k).items():
                        adjoint[k][t][key].append(value)
        simulate = measure_simulate(trees, args.simulate_runs, Path(tmp) / "simulate") if args.simulate_runs else None

    result = {
        "script": "benchmarks/bench_kernel.py",
        "argv": sys.argv[1:],
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "git": {
            "parent": _git("rev-parse", args.parent),
            # the working tree: HEAD, marked when src/ has edits not committed
            "change": _git("rev-parse", "HEAD") + ("+uncommitted" if _git("status", "--porcelain", "--", "src") else ""),
        },
        "scoring": {},
    }
    for key in samples["change"]:
        result["scoring"][key] = {clock: _compared(
            [s[clock] for s in samples["parent"][key]], [s[clock] for s in samples["change"][key]]
        ) for clock in ("wall_s", "cpu_s")}
        result["scoring"][key]["above_critical"] = above[key]
    if stages is not None:
        result["stages_traced_ms"] = {t: {
            key: {s: round(1e3 * v, 2) for s, v in totals.items()} for key, totals in stages[t].items()
        } for t in trees}
    if args.adjoint_runs:
        result["adjoint_setup"] = {k: _whole_runs(runs, trees) for k, runs in adjoint.items()}
    if simulate is not None:
        result["simulate"] = {k: _whole_runs(runs, trees) for k, runs in simulate["timed"].items()}
        result["simulate"][SIMULATE_PEAK_ONLY] = {"peak_rss_mb": simulate["peak_only"]}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for key, row in result["scoring"].items():
        print(f"{key:17s} above critical {row['above_critical']:6.1%}  {_speeds(row)}")
    for k, row in result.get("adjoint_setup", {}).items():
        print(_whole_line(f"adjoint {k}", row))
    for k, row in result.get("simulate", {}).items():
        if k == SIMULATE_PEAK_ONLY:
            print(f"simulate {k:8s} peak MB parent {row['peak_rss_mb']['parent']:.1f} "
                  f"change {row['peak_rss_mb']['change']:.1f} (one cold call each)")
        else:
            print(_whole_line(f"simulate {k}", row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
