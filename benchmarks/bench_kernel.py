"""Layer bench of the traffic kernel and the adjoint set-up, on two source trees.

    python3 benchmarks/bench_kernel.py --parent HEAD~1 --pairs 15 --out BENCH_4.json

It compares the working tree ("change") with a git revision ("parent", written
to a temporary directory with ``git archive``) on the same machine.  Each tree
runs in its own worker process, which imports ``tramopt`` from that tree's
``src/`` and sets everything up before anything is timed.

* Scoring: ``PolicyEvaluator.score`` on the batches the search scores,
  recorded by a ``score`` passed to ``cli.search_front`` (the wiring
  ``tramopt optimize`` uses) with search seed 7: on
  ``scenarios/diamond.json`` (2d, budget 300) and on the chain of 4 diamonds
  from ``perfbench/chain.py`` (3d, delta 0.5, budget 120).  B = 1 is the
  first seed point.  Both trees must have ``cli.search_front``.  The main
  process asks the two workers in turn for one timed scoring of a batch,
  alternating which goes first, ``--pairs`` times per batch, so that a slow
  spell of a shared host hits both sides of a pair.  Wall and CPU time are
  kept; a speed-up is the median over pairs of the parent's time over the
  change's.
* Stages: ``--traced`` traced scorings per batch and tree, alternated, with
  the median of each stage reported.  A line tracer charges the time of
  every line of the step, the road update, the march and the objective
  tally to a stage (``STAGES``) by the line's text, so the same rules read
  both trees.
  Tracing slows every line by about the same amount, so it inflates the
  stages made of many cheap lines (the couplings); compare a stage between
  the trees rather than with the untraced scoring time.
* Adjoint: the cold set-up that ``tramopt optimize`` runs, ``cli.cached_adjoint``
  into an empty directory and then ``PolicyEvaluator``, on the chains of
  ``ADJOINT_CHAINS`` diamonds (k = 1, 4 and 16 have n_grid 100, 180 and 560), each
  in a fresh process: its wall time and the process's peak RSS
  (``ru_maxrss``) after it, ``--adjoint-runs`` times per chain and tree,
  alternating which tree goes first.

Needs only the standard library and numpy.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCH_SEED = 7
CHAIN_SEED = 1
CHAIN_DIAMONDS = 4
#: diamonds per chain of the cold adjoint set-ups
ADJOINT_CHAINS = (1, 4, 16)
#: batch sizes timed per scenario; all but 1 occur as whole poll batches
BATCHES = {"diamond": (1, 26, 154), "chain": (34, 86)}
BUDGETS = {"diamond": 300, "chain": 120}
STAGES = ("envelopes", "interior", "couplings", "update", "Q", "tally", "other")
#: the kernel's functions whose lines are charged to stages: the step, the
#: road update it calls (absent from older trees, which update inline) and
#: the march
KERNEL_FRAMES = ("_godunov_step", "_update_roads", "_march")


# -- worker side: runs inside one tree ---------------------------------------


def _scenario(tree: Path, name: str, diamonds: int = CHAIN_DIAMONDS):
    import dataclasses

    from tramopt.network import load_scenario

    if name == "diamond":
        sc = load_scenario((tree / "scenarios" / "diamond.json").read_text())
        return dataclasses.replace(sc, mode="2d", delta=0.0)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import chain

    return load_scenario(json.dumps(chain.make_chain(diamonds, CHAIN_SEED)))


def _poll_batches(evaluator, budget: int) -> dict[int, list]:
    """The batches a seeded search scores, by size; B = 1 is the first policy."""
    from tramopt.cli import search_front

    seen: dict[int, list] = {}

    def record(policies):
        seen.setdefault(len(policies), list(policies))
        return evaluator.score(policies)

    search_front(evaluator, budget, SEARCH_SEED, score=record)
    first = next(iter(seen.values()))
    seen[1] = first[:1]
    return seen


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
        return code.co_name == "__call__" and code.co_filename.endswith("objectives.py")

    @staticmethod
    def stage(frame) -> str:
        code = frame.f_code
        if code.co_name == "__call__":
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
        return "couplings" if code.co_name == "_godunov_step" else "other"

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


def adjoint_worker(tree: Path, diamonds: int) -> dict:
    """Cold set-up of the chain of ``diamonds`` diamonds in this fresh process:
    the adjoint cache call ``optimize`` makes, into an empty directory, and
    the evaluator made from what it returns."""
    sys.path.insert(0, str(tree / "src"))
    from tramopt.cli import cached_adjoint
    from tramopt.objectives import PolicyEvaluator

    sc = _scenario(tree, "chain", diamonds)
    with tempfile.TemporaryDirectory() as cache:
        t = time.perf_counter()
        adjoint, _ = cached_adjoint(sc, Path(cache))
        PolicyEvaluator(sc, adjoint=adjoint)
        seconds = time.perf_counter() - t
    return {"setup_s": seconds, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def serve(tree: Path) -> None:
    """Set up every batch of ``BATCHES``, then answer ``score KEY`` with one
    timed scoring and ``stages KEY`` with one traced one, a JSON line each."""
    sys.path.insert(0, str(tree / "src"))
    from tramopt.objectives import PolicyEvaluator

    work = {}
    for name, sizes in BATCHES.items():
        sc = _scenario(tree, name)
        evaluator = PolicyEvaluator(sc)
        batches = _poll_batches(evaluator, BUDGETS[name])
        work.update({f"{name}/B={b}": (evaluator, batches[b]) for b in sizes})
    print("ready", flush=True)
    for line in sys.stdin:
        kind, key = line.split()
        evaluator, policies = work[key]
        if kind == "score":
            wall, cpu = time.perf_counter(), time.process_time()
            evaluator.score(policies)
            reply = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
        else:
            clock = LineClock()
            clock.run(lambda: evaluator.score(policies))
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


def _adjoint(tree: Path, diamonds: int) -> dict:
    done = subprocess.run([sys.executable, __file__, "--adjoint", str(tree), "--diamonds", str(diamonds)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": q[0], "q3": q[2], "n": len(samples)}


def measure(trees: dict[str, Path], pairs: int, traced: int) -> tuple[dict, dict]:
    """Alternated scoring samples, then ``traced`` alternated traced runs per
    batch and tree, summarised as the median time of each stage."""
    keys = [f"{name}/B={b}" for name, sizes in BATCHES.items() for b in sizes]
    samples = {t: {k: [] for k in keys} for t in trees}
    workers = {}
    try:
        for t, tree in trees.items():
            workers[t] = Worker(tree)
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
        }
    finally:
        for w in workers.values():
            w.close()
    return samples, stages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=15, help="alternated scorings per batch and tree")
    parser.add_argument("--traced", type=int, default=3, help="traced scorings per batch and tree")
    parser.add_argument("--adjoint-runs", type=int, default=3, help="cold set-ups per chain and tree")
    parser.add_argument("--diamonds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_4.json")
    parser.add_argument("--serve", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--adjoint", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.serve:
        serve(args.serve)
        return 0
    if args.adjoint:
        print(json.dumps(adjoint_worker(args.adjoint, args.diamonds)))
        return 0

    import numpy as np

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": _export(args.parent, Path(tmp)), "change": ROOT}
        samples, stages = measure(trees, args.pairs, args.traced)
        adjoint = {k: {t: {"setup_s": [], "peak_rss_mb": []} for t in trees} for k in ADJOINT_CHAINS}
        for k in ADJOINT_CHAINS:
            for r in range(args.adjoint_runs):
                for t in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                    for key, value in _adjoint(trees[t], k).items():
                        adjoint[k][t][key].append(value)

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
        "stages_traced_ms": {},
        "adjoint_chain": {},
    }
    for key in samples["change"]:
        row = {}
        for clock in ("wall_s", "cpu_s"):
            p = [s[clock] for s in samples["parent"][key]]
            c = [s[clock] for s in samples["change"][key]]
            row[clock] = {
                "parent": _summary(p),
                "change": _summary(c),
                "speedup_median_of_pairs": statistics.median(a / b for a, b in zip(p, c)),
                "change_wins": f"{sum(a > b for a, b in zip(p, c))}/{len(p)}",
            }
        result["scoring"][key] = row
    for t in trees:
        result["stages_traced_ms"][t] = {
            key: {s: round(1e3 * v, 2) for s, v in totals.items()} for key, totals in stages[t].items()
        }
    for k, runs in adjoint.items():
        result["adjoint_chain"][f"k={k}"] = {
            key: {t: _summary(runs[t][key]) for t in trees} for key in ("setup_s", "peak_rss_mb")
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for key, row in result["scoring"].items():
        w, c = row["wall_s"], row["cpu_s"]
        print(f"{key:14s} wall parent {w['parent']['median'] * 1e3:7.1f} ms change "
              f"{w['change']['median'] * 1e3:7.1f} ms  x{w['speedup_median_of_pairs']:.2f} "
              f"(wins {w['change_wins']})  cpu x{c['speedup_median_of_pairs']:.2f}")
    for k, rows in result["adjoint_chain"].items():
        for key, row in rows.items():
            print(f"adjoint {k:5s} {key:12s} parent {row['parent']['median']:8.2f}  change {row['change']['median']:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
