"""Layer bench of the traffic kernel, the adjoint set-up and ``simulate``, on two source trees.

    python3 benchmarks/bench_kernel.py --parent HEAD~1 --pairs 15 --out BENCH_N.json

It compares the working tree ("change") with a git revision ("parent", written
to a temporary directory with ``git archive``) on the same machine.  Each tree
runs in its own worker process, which imports ``tramopt`` from that tree's
``src/`` and sets everything up before anything is timed.

* Scoring: ``PolicyEvaluator.score`` on the batches the change's search
  scores, recorded by a ``score`` passed to its ``cli.search_front`` (the
  wiring ``tramopt optimize`` uses) in a process of its own and handed to
  both workers, so that both trees score the same policies, per
  ``SEARCHES``: on ``scenarios/diamond.json``
  (2d, budget 300, search seed 7), on the chain of 4 diamonds from
  ``perfbench/chain.py`` (3d, delta 0.5, budget 120, search seed 7), on
  the criterion-7 search (the diamond, 2d, budget 4000, search seed 0),
  whose fifth batch is timed, and on the chain's budget-2000 search
  (search seed 0), whose second batch, about 1,500 policies, is timed.
  A row is keyed by its batch's position in
  its search (``BATCHES``, 0 the seed batch), so a change that moves the
  search's path still times the batch at that position, and the row
  records the batch's size B.  The "first" row scores the seed batch's
  first policy alone.  The congested rows score the diamond search's
  batches 0 and 2 on a congested diamond (``CONGESTED``: every road's
  rho0 at 0.85 and the access inflow at 0.6), so that a change to the envelopes'
  masks is timed where most cells sit above the critical density, not
  only where most sit below it.  Each row also gives the mean share of
  cells above the critical density over the output steps of its scoring,
  read once from the change's tree (the densities are the same in both).
  The main process asks the two workers in turn for one timed scoring of a
  batch, alternating which goes first, ``--pairs`` times per batch, so that
  a slow spell of a shared host hits both sides of a pair.  Wall and CPU
  time are kept and both are reported; a speed-up is the median over pairs
  of the parent's time over the change's.  CPU time counts only the worker's own process, so it
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
* Warm set-up: perfbench's set-up from reading the scenario to a ready
  evaluator, with the adjoint cache warm, per ``WARM_SETUPS``: on
  ``scenarios/diamond.json`` (the set-up of perfbench's
  ``optimize-diamond``) and on the chain of k = 4 diamonds.  Each run is a
  fresh process that makes one untimed set-up, which fills the tree's cache
  on the first run and warms the imports, and then times one set-up layer
  by layer (``WARM_LAYERS``): ``load_scenario`` of the file's text,
  ``validate_scenario``, the ``cached_adjoint`` hit (a run whose cache file
  is written again fails) and ``PolicyEvaluator``, and after them
  ``rasterize_network`` alone, which ``validate_scenario`` runs.
  ``--warm-runs`` runs per set-up and tree, alternating which tree goes
  first, with the median of each layer and of the total reported; 0 skips
  them.
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
* Front: the hypervolume each tree's search reaches at a budget, per
  ``FRONT_SEARCHES``: the diamond (2d, delta 0 and 0.5, budgets 300, 1000
  and 2000) and the chain of 4 diamonds (3d, delta 0.5, budgets 120, 400,
  1000 and 2000), each by ``cli.search_front`` in the scoring workers, for search
  seeds 0 to ``--front-seeds`` - 1 (0 skips the section), alternating
  which tree goes first.  The hypervolume is that of the front's
  (-J_flow, J_poll) points, by perfbench's ``checks.hypervolume_2d``
  against perfbench's reference points (``FRONT_REFERENCE``), so a 3d
  front is scored by its projection.  A search is deterministic, so one
  run per seed and tree suffices.  Per row it reports both trees' medians
  and the seeds the change wins, ties and loses, with the archive size and
  the search's wall time as context (not a speed claim).  Then, per seed
  of each row of ``FRONT_MATCH``, the parent's searches up its ladder of
  budgets (the diamond's from 300 in steps of 50 to 2000, the chain's from
  120 doubling to 3840) find the first that reaches the change's
  hypervolume at the row's budget (300 or 120): the parent's evaluations
  to match the change's front, or "not reached" past the ladder's top.
  Last, per row with budgets 1000 and 2000, whether the change's median
  at 1000 reaches the parent's at 2000, ROADMAP item 3's target.
* End to end: ROADMAP's two end-to-end numbers, as whole processes in
  alternated pairs, the first tree of a pair alternating.  ``tramopt
  optimize`` at ``--jobs 1``, per ``E2E_OPTIMIZE``: on
  ``scenarios/diamond.json`` at budget 4000, seed 0, and on the chain of 4
  diamonds (3d, delta 0.5) at budget 2000, seed 0, ``--optimize-pairs``
  pairs each, each tree writing into one reused ``--out`` with its own
  ``--cache-dir`` warmed by a first, untimed call; the SHA-256 of every
  call's ``front.csv`` is kept.  Then the Tier-1 command (``TIER1``) in
  each tree's checkout, ``--tier1-pairs`` pairs, with pytest's summary
  line.  The wall time counts the interpreter's start and its imports,
  and the peak RSS is the process's own (``wait4``); 0 pairs skips a row.
* Import: a fresh interpreter that runs ``import tramopt.cli`` (``IMPORT``)
  in each tree's checkout, ``--import-runs`` runs per tree after one
  untimed run each, alternating which tree goes first; 0 skips the section.
  Its wall time counts the interpreter's start, numpy and ``tramopt``, and
  its peak RSS is the process's own, as in the end-to-end rows.  The row
  records whether the interpreters wrote bytecode: with
  ``PYTHONDONTWRITEBYTECODE`` set, a tree's own modules are compiled on
  every run.

Every peak RSS here is a child process's ``ru_maxrss``.  On Linux a child
started by ``subprocess`` (vfork and exec) reports at least its launcher's
peak RSS as its own, so the main process does not import numpy: its peak,
about 20 MB, stays below that of every child, which imports numpy.

Needs only the standard library and numpy.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
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
#: the warm set-ups, and the layers each is timed by: the four of a set-up,
#: their total and the raster map alone
WARM_SETUPS = ("diamond", "k=4")
WARM_LAYERS = ("load", "validate", "cache_hit", "evaluator", "total", "rasterize")
#: the simulate calls timed in pairs, and the one run once per tree for its peak
SIMULATE_SETUPS = ("diamond", "k=4")
SIMULATE_PEAK_ONLY = "k=16"
#: the batches timed per row group, by position in their search (0 is the
#: seed batch); "first" is the seed batch's first policy alone
BATCHES = {"diamond": ("first", 0, 2), "chain": (0, 1), "criterion-7": (4,), "congested": (0, 2),
           "chain-2000": (1,)}
#: per row group: the scenario searched, its budget and search seed, and
#: the scenario the search's batches are scored on
SEARCHES = {
    "diamond": ("diamond", 300, 7, "diamond"),
    "chain": ("chain", 120, 7, "chain"),
    "criterion-7": ("diamond", 4000, 0, "diamond"),
    "congested": ("diamond", 300, 7, "congested"),
    "chain-2000": ("chain", 2000, 0, "chain"),
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
#: the front section's searches: scenario, mode, delta and budgets
FRONT_SEARCHES = {
    "diamond/delta=0": ("diamond", "2d", 0.0, (300, 1000, 2000)),
    "diamond/delta=0.5": ("diamond", "2d", 0.5, (300, 1000, 2000)),
    "chain/delta=0.5": ("chain", "3d", 0.5, (120, 400, 1000, 2000)),
}
#: perfbench's reference points of the (-J_flow, J_poll) hypervolume
#: (``HV_REFERENCE`` in ``perfbench/run.py``)
FRONT_REFERENCE = {"diamond": (0.0, 0.3), "chain": (0.0, 0.6)}
#: per front row: the change's budget whose hypervolume the parent's
#: searches are run to match, and the parent's budgets tried, in order
FRONT_MATCH = {
    "diamond/delta=0": (300, range(300, 2001, 50)),
    "diamond/delta=0.5": (300, range(300, 2001, 50)),
    "chain/delta=0.5": (120, tuple(120 * 2**k for k in range(6))),
}
#: the end-to-end optimize calls by row, run from this checkout, so both trees read one
#: scenario file; "{chain}" is the chain of ``CHAIN_DIAMONDS`` diamonds, written on first use
E2E_OPTIMIZE = {
    "optimize": ["optimize", "--scenario", "scenarios/diamond.json", "--budget", "4000", "--seed", "0",
                 "--jobs", "1"],
    "optimize-chain": ["optimize", "--scenario", "{chain}", "--mode", "3d", "--delta", "0.5", "--budget", "2000",
                       "--seed", "0", "--jobs", "1"],
}
#: the Tier-1 command, run in a tree's checkout with its src/ on PYTHONPATH
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
#: the import row's command, run as TIER1 is
IMPORT = ["-c", "import tramopt.cli"]


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
    return load_scenario(json.dumps(_chain(diamonds)))


def _chain(diamonds: int) -> dict:
    """The scenario document of perfbench's chain of ``diamonds`` diamonds."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import chain

    return chain.make_chain(diamonds, CHAIN_SEED)


def _chain_file(work: Path, diamonds: int) -> Path:
    """The chain of ``diamonds`` diamonds as a scenario file in ``work``, written on first use."""
    path = work / f"chain-k={diamonds}.json"
    if not path.exists():
        work.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(_chain(diamonds)))
    return path


def _poll_batches(evaluator, budget: int, seed: int) -> list[list]:
    """The batches a seeded search scores, in order."""
    from tramopt.cli import search_front

    seen: list[list] = []

    def record(policies):
        seen.append(list(policies))
        return evaluator.score(policies)

    search_front(evaluator, budget, seed, score=record)
    return seen


def record_batches(tree: Path) -> dict[str, list]:
    """Every batch of ``BATCHES`` that ``tree``'s searches score, by row key."""
    import functools

    sys.path.insert(0, str(tree / "src"))
    from tramopt.objectives import PolicyEvaluator

    batches = functools.cache(
        lambda scenario, budget, seed: _poll_batches(PolicyEvaluator(_scenario(tree, scenario)), budget, seed))
    found = {}
    for name, positions in BATCHES.items():
        searched, budget, seed, _ = SEARCHES[name]
        scored = batches(searched, budget, seed)
        for at in positions:
            policies = scored[0][:1] if at == "first" else scored[at]
            found[f"{name}/batch={at}"] = [p.tolist() for p in policies]
    return found


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


def _front(evaluator, name: str, budget: int, seed: int) -> dict:
    """One search of ``evaluator``'s scenario: its front's hypervolume, its
    archive size and evaluations and its wall time."""
    import checks
    from tramopt.cli import search_front

    wall = time.perf_counter()
    entries, breakdowns, diagnostics = search_front(evaluator, budget, seed)
    wall = time.perf_counter() - wall
    points = [(-b.j_flow, b.j_poll) for b in breakdowns]
    return {"hypervolume": checks.hypervolume_2d(points, FRONT_REFERENCE[name]), "archive": len(entries),
            "evaluations": diagnostics["evaluations"], "wall_s": wall}


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


def warm_worker(tree: Path, scenario: Path, cache: Path) -> dict:
    """One warm set-up of ``scenario`` with the adjoint cache in ``cache``, in
    this fresh process, after an untimed one: the seconds of each layer of
    ``WARM_LAYERS``."""
    sys.path.insert(0, str(tree / "src"))
    from tramopt.cli import PolicyEvaluator, cached_adjoint, load_scenario, validate_scenario
    from tramopt.emission import rasterize_network

    sc = load_scenario(scenario.read_text())
    validate_scenario(sc)
    PolicyEvaluator(sc, adjoint=cached_adjoint(sc, cache)[0])
    seconds, marks = {}, [time.perf_counter()]

    def lap(layer: str) -> None:
        marks.append(time.perf_counter())
        seconds[layer] = marks[-1] - marks[-2]

    written = next(cache.glob("adjoint-*.bin")).stat().st_mtime_ns
    sc = load_scenario(scenario.read_text())
    lap("load")
    validate_scenario(sc)
    lap("validate")
    adjoint, path = cached_adjoint(sc, cache)
    lap("cache_hit")
    PolicyEvaluator(sc, adjoint=adjoint)
    lap("evaluator")
    seconds["total"] = marks[-1] - marks[0]
    if path.stat().st_mtime_ns != written:
        raise RuntimeError(f"the timed set-up of {scenario.name} missed the adjoint cache")
    start = time.perf_counter()
    rasterize_network(sc)
    seconds["rasterize"] = time.perf_counter() - start
    return seconds


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


def serve(tree: Path, batches: Path) -> None:
    """Set up the batches that ``record_batches`` wrote to ``batches``, then
    answer ``score KEY`` with one timed scoring, ``stages KEY`` with one
    traced one, ``above KEY`` with the batch's share of cells above the
    critical density and its size and ``front [ROW, SEED, BUDGET]`` with one search of
    ``FRONT_SEARCHES[ROW]``, a JSON line each."""
    import dataclasses
    import functools

    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    from tramopt.objectives import PolicyEvaluator

    evaluator = functools.cache(lambda scenario: PolicyEvaluator(_scenario(tree, scenario)))

    @functools.cache
    def front_evaluator(row):
        name, mode, delta, _ = FRONT_SEARCHES[row]
        return PolicyEvaluator(dataclasses.replace(_scenario(tree, name), mode=mode, delta=delta))

    work = {key: (evaluator(SEARCHES[key.split("/")[0]][3]), policies)
            for key, policies in json.loads(batches.read_text()).items()}
    print("ready", flush=True)
    for line in sys.stdin:
        kind, key = line.split(maxsplit=1)
        if kind == "front":
            row, seed, budget = json.loads(key)
            print(json.dumps(_front(front_evaluator(row), FRONT_SEARCHES[row][0], budget, seed)), flush=True)
            continue
        scorer, policies = work[key.strip()]
        if kind == "score":
            wall, cpu = time.perf_counter(), time.process_time()
            scorer.score(policies)
            reply = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
        elif kind == "above":
            reply = {"above_critical": _above_critical(scorer, policies), "batch_size": len(policies)}
        else:
            clock = LineClock()
            clock.run(lambda: scorer.score(policies))
            reply = clock.totals
        print(json.dumps(reply), flush=True)


# -- main process ----------------------------------------------------------------


class Worker:
    """A ``serve`` process of one tree, asked one measurement at a time."""

    def __init__(self, tree: Path, batches: Path):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(tree), "--batches", str(batches)],
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


def measure_warm(trees: dict[str, Path], runs: int, work: Path) -> dict:
    """Per ``WARM_SETUPS`` and tree, ``runs`` alternated fresh processes of
    ``warm_worker``, each tree with its own cache: the seconds of each layer."""
    samples = {k: {t: {layer: [] for layer in WARM_LAYERS} for t in trees} for k in WARM_SETUPS}
    for k in WARM_SETUPS:
        scenario = ROOT / "scenarios" / "diamond.json" if k == "diamond" else _chain_file(work, int(k[2:]))
        for r in range(runs):
            for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                argv = ["--warm", str(trees[t]), "--scenario", str(scenario), "--cache", str(work / t / k)]
                done = subprocess.run([sys.executable, __file__, *argv], check=True, capture_output=True, text=True)
                for layer, value in json.loads(done.stdout.strip().splitlines()[-1]).items():
                    samples[k][t][layer].append(value)
    return samples


def measure_simulate(trees: dict[str, Path], runs: int, work: Path) -> dict:
    """Per ``SIMULATE_SETUPS`` and tree, a first untimed call and then
    ``runs`` alternated calls into one reused ``--out``; then one cold call
    per tree on ``SIMULATE_PEAK_ONLY``, its output removed after it."""

    def argv(setup: str, t: str) -> list[str]:
        path = ROOT / "scenarios" / "diamond.json" if setup == "diamond" else _chain_file(work, int(setup[2:]))
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


def _timed(tree: Path, argv: list[str], cwd: Path) -> tuple[float, float, subprocess.CompletedProcess]:
    """The wall time and the peak RSS in MB of one fresh Python process on ``tree``'s ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        wall = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - wall
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        done = subprocess.CompletedProcess(proc.args, proc.returncode, out.read().decode(), err.read().decode())
    return wall, usage.ru_maxrss / 1024, done


def measure_end_to_end(trees: dict[str, Path], optimize_pairs: int, tier1_pairs: int, work: Path) -> dict:
    """Per row of ``E2E_OPTIMIZE``, ``optimize_pairs`` alternated pairs of
    its call, after one untimed call per tree, with each call's
    ``front.csv`` digest; then ``tier1_pairs`` alternated pairs of the
    Tier-1 command, with the last line pytest printed and its exit code."""

    def optimize(row: str, t: str) -> tuple[float, float, str]:
        out, scenario = work / t / row, _chain_file(work, CHAIN_DIAMONDS)
        argv = ["-m", "tramopt.cli", *(a.format(chain=scenario) for a in E2E_OPTIMIZE[row]),
                "--out", str(out / "out"), "--cache-dir", str(out / "cache")]
        wall, rss, done = _timed(trees[t], argv, ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"{row} on the {t} exited {done.returncode}: {done.stderr[-500:]}")
        return wall, rss, hashlib.sha256((out / "out" / "front.csv").read_bytes()).hexdigest()

    def tier1(t: str) -> tuple[float, float, dict]:
        wall, rss, done = _timed(trees[t], TIER1, trees[t])
        # the counts of pytest's last line, without its time
        summary = re.sub(r" in [0-9.]+s.*$", "", done.stdout.strip().splitlines()[-1])
        return wall, rss, {"exit": done.returncode, "summary": summary}

    def alternated(name: str, pairs: int, run) -> tuple[dict, dict, dict]:
        """Each tree's wall times, its peak RSS and every distinct result of
        its runs (one, if its runs agree)."""
        walls, rss, seen = {t: [] for t in trees}, {t: [] for t in trees}, {t: [] for t in trees}
        for r in range(pairs):
            for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                wall, peak, result = run(t)
                walls[t].append(wall)
                rss[t].append(peak)
                if result not in seen[t]:
                    seen[t].append(result)
            print(f"end-to-end {name} pair {r + 1}/{pairs}", file=sys.stderr)
        return _compared(walls["parent"], walls["change"]), {t: _summary(v) for t, v in rss.items()}, seen

    record = {}
    if optimize_pairs:
        for row, argv in E2E_OPTIMIZE.items():
            for t in trees:  # fills each tree's adjoint cache
                optimize(row, t)
            wall, rss, digests = alternated(row, optimize_pairs, lambda t, row=row: optimize(row, t))
            record[row] = {"command": "tramopt " + " ".join(argv), "wall_s": wall, "peak_rss_mb": rss,
                           "front_csv_sha256": digests}
    if tier1_pairs:
        wall, rss, results = alternated("tier1", tier1_pairs, tier1)
        record["tier1"] = {"command": "python " + " ".join(TIER1), "wall_s": wall, "peak_rss_mb": rss,
                           "results": results}
    return record


def measure_import(trees: dict[str, Path], runs: int) -> dict:
    """``runs`` alternated fresh interpreters per tree running ``IMPORT``,
    after one untimed run per tree: the wall times and peak RSS."""
    samples = {t: {"wall_s": [], "peak_rss_mb": []} for t in trees}
    for r in range(-1, runs):
        for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            wall, rss, done = _timed(trees[t], IMPORT, trees[t])
            if done.returncode != 0:
                raise RuntimeError(f"the import on the {t} exited {done.returncode}: {done.stderr[-500:]}")
            if r >= 0:
                samples[t]["wall_s"].append(wall)
                samples[t]["peak_rss_mb"].append(rss)
    return {
        "command": "python " + " ".join(IMPORT),
        "bytecode_written": not sys.flags.dont_write_bytecode,
        "wall_s": _compared(samples["parent"]["wall_s"], samples["change"]["wall_s"]),
        "peak_rss_mb": {t: _summary(v["peak_rss_mb"]) for t, v in samples.items()},
    }


def _end_to_end_lines(record: dict) -> list[str]:
    lines = []
    for name, row in record.items():
        wall = row["wall_s"]
        rss = row["peak_rss_mb"]
        line = (f"end-to-end {name:14s} x{wall['speedup_median_of_pairs']:.2f} wall (wins {wall['change_wins']})  "
                f"parent {wall['parent']['median']:.2f} s change {wall['change']['median']:.2f} s  "
                f"peak MB parent {rss['parent']['median']:.1f} change {rss['change']['median']:.1f}  ")
        if "front_csv_sha256" in row:
            digests = row["front_csv_sha256"]
            line += "front.csv " + "  ".join(f"{t} {' '.join(d[:12] for d in v)}" for t, v in digests.items())
        else:
            line += "  ".join(f"{t} {' | '.join(r['summary'] for r in v)}" for t, v in row["results"].items())
        lines.append(line)
    return lines


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


@contextlib.contextmanager
def _workers(trees: dict[str, Path], batches: Path):
    """A ``serve`` worker per tree, on the change's batches written to
    ``batches`` first, closed on exit."""
    subprocess.run([sys.executable, __file__, "--record", str(trees["change"]), "--batches", str(batches)],
                   check=True)
    workers = {}
    try:
        for t, tree in trees.items():
            workers[t] = Worker(tree, batches)
        yield workers
    finally:
        for w in workers.values():
            w.close()


def measure(workers: dict[str, Worker], pairs: int, traced: int) -> tuple[dict, dict, dict | None]:
    """Each batch's share of cells above the critical density and its size,
    from the change's tree, alternated scoring samples, then ``traced`` alternated
    traced runs per batch and tree, summarised as the median time of each
    stage (None if ``traced`` is 0)."""
    keys = [f"{name}/batch={at}" for name, positions in BATCHES.items() for at in positions]
    samples = {t: {k: [] for k in keys} for t in workers}
    above = {key: workers["change"].ask("above", key) for key in keys}
    for r in range(pairs):
        for i, key in enumerate(keys):
            order = list(workers) if (r + i) % 2 == 0 else list(workers)[::-1]
            for t in order:
                samples[t][key].append(workers[t].ask("score", key))
        print(f"pair {r + 1}/{pairs}", file=sys.stderr)
    runs = {t: {k: [] for k in keys} for t in workers}
    for r in range(traced):
        for t in (list(workers) if r % 2 == 0 else list(workers)[::-1]):
            for key in keys:
                runs[t][key].append(workers[t].ask("stages", key))
    stages = {
        t: {k: {s: statistics.median(run[s] for run in v) for s in STAGES} for k, v in runs[t].items()}
        for t in workers
    } if traced else None
    return above, samples, stages


def measure_front(workers: dict[str, Worker], seeds: int) -> tuple[dict, dict]:
    """Per ``FRONT_SEARCHES`` row, budget and search seed, one search per
    tree, alternating which goes first; then per seed of each row of
    ``FRONT_MATCH``, the parent's first budget on the row's ladder that
    reaches the change's hypervolume at the row's budget (None if none
    does)."""
    runs = {row: {b: {t: [] for t in workers} for b in budgets} for row, (*_, budgets) in FRONT_SEARCHES.items()}
    for seed in range(seeds):
        for i, (row, (*_, budgets)) in enumerate(FRONT_SEARCHES.items()):
            for b in budgets:
                for t in (list(workers) if (seed + i) % 2 == 0 else list(workers)[::-1]):
                    runs[row][b][t].append(workers[t].ask("front", json.dumps([row, seed, b])))
        print(f"front seed {seed + 1}/{seeds}", file=sys.stderr)
    match = {}
    for row, (budget, ladder) in FRONT_MATCH.items():
        match[row] = []
        for seed in range(seeds):
            target = runs[row][budget]["change"][seed]["hypervolume"]

            def parent(b):
                if b in runs[row]:  # a search is deterministic: reuse its run
                    return runs[row][b]["parent"][seed]["hypervolume"]
                return workers["parent"].ask("front", json.dumps([row, seed, b]))["hypervolume"]

            match[row].append(next((b for b in ladder if parent(b) >= target), None))
    return runs, match


def _front_rows(runs: dict, match: dict) -> dict:
    """The front section of the record: per row and budget, every seed's
    runs and their summary; the parent's budgets to match; item 3's target."""
    record = {}
    for row, by_budget in runs.items():
        record[row] = {}
        for b, trees in by_budget.items():
            hv = {t: [r["hypervolume"] for r in trees[t]] for t in trees}
            diffs = [c - p for p, c in zip(hv["parent"], hv["change"])]
            record[row][f"budget={b}"] = {
                "hypervolume_median": {t: statistics.median(v) for t, v in hv.items()},
                "change_wins_ties_losses": [sum(d > 0 for d in diffs), sum(d == 0 for d in diffs),
                                            sum(d < 0 for d in diffs)],
                "losses": [{"seed": s, "change_minus_parent": d} for s, d in enumerate(diffs) if d < 0],
                "archive_median": {t: statistics.median(r["archive"] for r in v) for t, v in trees.items()},
                "wall_s_median": {t: statistics.median(r["wall_s"] for r in v) for t, v in trees.items()},
                "runs": trees,
            }
        if row in match:
            budget, ladder = FRONT_MATCH[row]
            found = [b for b in match[row] if b is not None]
            # a seed the ladder does not reach counts as above its top
            median = statistics.median(math.inf if b is None else b for b in match[row])
            record[row][f"parent_budget_to_match_change_at_{budget}"] = {
                "ladder": list(ladder),
                "per_seed": match[row],
                "median": None if median == math.inf else median,
                "range": [min(found), max(found)] if found else None,
                "not_reached": len(match[row]) - len(found),
            }
        if {1000, 2000} <= set(by_budget):
            change, parent = (record[row][f"budget={b}"]["hypervolume_median"][t]
                              for b, t in ((1000, "change"), (2000, "parent")))
            record[row]["item_3_target"] = {"change_median_at_1000": change, "parent_median_at_2000": parent,
                                            "met": change >= parent}
    return record


def _front_lines(record: dict) -> list[str]:
    lines = []
    for row, rec in record.items():
        for key, r in rec.items():
            if key.startswith("budget="):
                hv, n, wall = r["hypervolume_median"], r["archive_median"], r["wall_s_median"]
                lines.append(f"front {row:17s} {key:11s} hypervolume parent {hv['parent']:.4f} change "
                             f"{hv['change']:.4f}  wins/ties/losses {'/'.join(map(str, r['change_wins_ties_losses']))}"
                             f"  archive {n['parent']:g}/{n['change']:g}  wall {wall['parent']:.2f}/"
                             f"{wall['change']:.2f} s")
        if row in FRONT_MATCH:
            budget, ladder = FRONT_MATCH[row]
            m = rec[f"parent_budget_to_match_change_at_{budget}"]
            per_seed = ", ".join("not reached" if b is None else str(b) for b in m["per_seed"])
            lines.append(f"front {row:17s} parent budget to match the change's {budget} (ladder {ladder[0]}-"
                         f"{ladder[-1]}): median {'not reached' if m['median'] is None else m['median']}, "
                         f"not reached by {m['not_reached']} of {len(m['per_seed'])}, per seed [{per_seed}]")
        if "item_3_target" in rec:
            t = rec["item_3_target"]
            lines.append(f"front {row:17s} item 3 target: change at 1000 {t['change_median_at_1000']:.4f} "
                         f"against parent at 2000 {t['parent_median_at_2000']:.4f}: {'met' if t['met'] else 'not met'}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=15, help="alternated scorings per batch and tree")
    parser.add_argument("--traced", type=int, default=3, help="traced scorings per batch and tree")
    parser.add_argument("--adjoint-runs", type=int, default=10,
                        help="cold set-ups per set-up and tree (default 10; at 3 the process-to-process "
                             "spread of a cold set-up read as 0.70-0.77x with no set-up code changed)")
    parser.add_argument("--warm-runs", type=int, default=10,
                        help="warm set-ups per set-up and tree, each in a fresh process (default 10; 0 skips)")
    parser.add_argument("--simulate-runs", type=int, default=10,
                        help="alternated simulate pairs per set-up, after one untimed call per tree")
    parser.add_argument("--front-seeds", type=int, default=10,
                        help="search seeds per front search and budget, from 0 (default 10; 0 skips)")
    parser.add_argument("--optimize-pairs", type=int, default=10,
                        help="alternated whole-process pairs of each end-to-end optimize call "
                             "(default 10, about 20 s a pair of both calls; 0 skips)")
    parser.add_argument("--tier1-pairs", type=int, default=3,
                        help="alternated pairs of the Tier-1 command (default 3, about 50 s a pair; 0 skips)")
    parser.add_argument("--import-runs", type=int, default=15,
                        help="alternated fresh interpreters per tree importing tramopt.cli (default 15; 0 skips)")
    parser.add_argument("--setup", choices=ADJOINT_SETUPS, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help="the record to write, such as BENCH_12.json (required)")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--record", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--batches", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--adjoint", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--simulate", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--argv", help=argparse.SUPPRESS)
    parser.add_argument("--warm", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--scenario", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--cache", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.serve:
        serve(args.serve, args.batches)
        return 0
    if args.record:
        args.batches.write_text(json.dumps(record_batches(args.record)))
        return 0
    if args.adjoint:
        print(json.dumps(adjoint_worker(args.adjoint, args.setup)))
        return 0
    if args.simulate:
        print(json.dumps(simulate_worker(args.simulate, json.loads(args.argv))))
        return 0
    if args.warm:
        print(json.dumps(warm_worker(args.warm, args.scenario, args.cache)))
        return 0
    if args.out is None:
        parser.error("--out is required: name the record to write")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1: the scoring pairs are the record")
    if min(args.traced, args.adjoint_runs, args.warm_runs, args.simulate_runs, args.front_seeds,
           args.optimize_pairs, args.tier1_pairs, args.import_runs) < 0:
        parser.error("--traced, --adjoint-runs, --warm-runs, --simulate-runs, --front-seeds, --optimize-pairs, "
                     "--tier1-pairs and --import-runs take 0 (skip) or more")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _export(args.parent, Path(tmp)), "change": ROOT}
        with _workers(trees, Path(tmp) / "batches.json") as workers:
            above, samples, stages = measure(workers, args.pairs, args.traced)
            front = measure_front(workers, args.front_seeds) if args.front_seeds else None
        adjoint = {k: {t: {"wall_s": [], "cpu_s": [], "peak_rss_mb": []} for t in trees} for k in ADJOINT_SETUPS}
        for k in ADJOINT_SETUPS:
            for r in range(args.adjoint_runs):
                for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    for key, value in _adjoint(trees[t], k).items():
                        adjoint[k][t][key].append(value)
        warm = measure_warm(trees, args.warm_runs, Path(tmp) / "warm") if args.warm_runs else None
        simulate = measure_simulate(trees, args.simulate_runs, Path(tmp) / "simulate") if args.simulate_runs else None
        end_to_end = measure_end_to_end(trees, args.optimize_pairs, args.tier1_pairs, Path(tmp) / "end-to-end")
        imports = measure_import(trees, args.import_runs) if args.import_runs else None

    result = {
        "script": "benchmarks/bench_kernel.py",
        "argv": sys.argv[1:],
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
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
        result["scoring"][key].update(above[key])
    if stages is not None:
        result["stages_traced_ms"] = {t: {
            key: {s: round(1e3 * v, 2) for s, v in totals.items()} for key, totals in stages[t].items()
        } for t in trees}
    if args.adjoint_runs:
        result["adjoint_setup"] = {k: _whole_runs(runs, trees) for k, runs in adjoint.items()}
    if warm is not None:
        result["warm_setup"] = {k: {layer: _compared(runs["parent"][layer], runs["change"][layer])
                                    for layer in WARM_LAYERS} for k, runs in warm.items()}
    if simulate is not None:
        result["simulate"] = {k: _whole_runs(runs, trees) for k, runs in simulate["timed"].items()}
        result["simulate"][SIMULATE_PEAK_ONLY] = {"peak_rss_mb": simulate["peak_only"]}
    if front is not None:
        result["front"] = _front_rows(*front)
    if end_to_end:
        result["end_to_end"] = end_to_end
    if imports is not None:
        result["import"] = imports
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for key, row in result["scoring"].items():
        print(f"{key:21s} B={row['batch_size']:<4d} above critical {row['above_critical']:6.1%}  {_speeds(row)}")
    for k, row in result.get("adjoint_setup", {}).items():
        print(_whole_line(f"adjoint {k}", row))
    for k, row in result.get("warm_setup", {}).items():
        print(f"warm set-up {k:8s} " + "  ".join(
            f"{layer} {r['parent']['median'] * 1e3:.3f}/{r['change']['median'] * 1e3:.3f} ms "
            f"x{r['speedup_median_of_pairs']:.2f} ({r['change_wins']})" for layer, r in row.items()))
    for k, row in result.get("simulate", {}).items():
        if k == SIMULATE_PEAK_ONLY:
            print(f"simulate {k:8s} peak MB parent {row['peak_rss_mb']['parent']:.1f} "
                  f"change {row['peak_rss_mb']['change']:.1f} (one cold call each)")
        else:
            print(_whole_line(f"simulate {k}", row))
    for line in _front_lines(result.get("front", {})) + _end_to_end_lines(end_to_end):
        print(line)
    if imports is not None:
        wall, rss = imports["wall_s"], imports["peak_rss_mb"]
        print(f"import tramopt.cli x{wall['speedup_median_of_pairs']:.2f} wall (wins {wall['change_wins']})  "
              f"parent {wall['parent']['median'] * 1e3:.0f} ms change {wall['change']['median'] * 1e3:.0f} ms  "
              f"peak MB parent {rss['parent']['median']:.1f} change {rss['change']['median']:.1f}  "
              f"bytecode written: {imports['bytecode_written']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
