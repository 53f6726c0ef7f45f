"""Spans and counts recorded around ``tramopt``'s public functions, from outside.

A ``Tracer`` replaces module attributes with timing wrappers while it is
installed and puts the originals back when it is removed; nothing under
``src/`` changes.  The attributes are the names ``tramopt.cli`` and
``tramopt.objectives`` import and call through their module globals, plus
two ``PolicyEvaluator`` methods, so a wrapper sees exactly the calls the
commands make.  Spans are kept in memory with their parent span (the calls
are single-threaded) and turned into metrics when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time

MIB = 2**20


class Span:
    __slots__ = ("name", "index", "parent", "info", "start", "end", "paused")

    def __init__(self, name: str, index: int, parent: int):
        self.name = name
        self.index = index
        self.parent = parent
        self.info: dict = {}
        self.start = time.perf_counter()
        self.end = self.start
        self.paused = 0.0

    @property
    def duration(self) -> float:
        """Seconds of the call, less the host-speed probes that ran inside it."""
        return self.end - self.start - self.paused


class Tracer:
    """Records one span per call of each target while installed.

    ``targets`` lists ``(owner, attribute, span name)``.  Spans named in
    ``OBSERVERS`` also keep a few numbers read from the call's arguments
    and result.  With ``batches`` set, a search run without a ``map_fn``
    gets one that records each batch it evaluates as a ``moo.map`` span.
    """

    def __init__(self, targets, batches: bool = False):
        self.targets = targets
        self.batches = batches
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        span = Span(name, len(self.spans), self._stack[-1] if self._stack else -1)
        self._stack.append(span.index)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.batches and name == "moo.search" and kwargs.get("map_fn") is None and len(args) < 5:
                kwargs["map_fn"] = self._timed_map
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(span.info, args, result)
            return result

        return wrapper

    def _timed_map(self, fn, items):
        """``map`` for the search that records each batch as a span."""
        span = self._open("moo.map")
        try:
            span.info["batch"] = len(items)
            return [fn(x) for x in items]
        finally:
            self._close(span)

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, name in self.targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def search_targets(cli):
    """The one span the untraced runs need: time inside the search."""
    return [(cli, "pareto_search", "moo.search")]


def layer_targets(cli, objectives):
    evaluator = objectives.PolicyEvaluator
    return [
        (cli, "main", "cli.main"),
        (cli, "load_scenario", "network.load"),
        (cli, "validate_scenario", "network.validate"),
        (cli, "cached_adjoint", "cli.adjoint_cache"),
        (cli, "solve_adjoint", "dispersion.adjoint_solve"),
        (cli, "simulate_traffic", "traffic.simulate"),
        (cli, "rasterize_network", "emission.rasterize"),
        (cli, "emission_field", "emission.field"),
        (cli, "pareto_search", "moo.search"),
        (objectives, "simulate_traffic", "traffic.simulate"),
        (objectives, "solve_adjoint", "dispersion.adjoint_solve"),
        (objectives, "rasterize_network", "emission.rasterize"),
        (objectives, "cell_rates", "emission.field"),
        (evaluator, "__init__", "objectives.evaluator_init"),
        (evaluator, "components", "objectives.score"),
    ]


# -- observers: numbers read from a call's arguments and result -------------


def _observe_traffic(info, args, traj):
    scenario, policy = args[0], args[1]
    values = getattr(policy, "values", policy)
    # the scheme's CFL rule: each output step splits into ceil(dt / (ds / max v))
    n_sub = max(1, math.ceil(scenario.dt * max(values) / scenario.ds - 1e-12))
    info["substeps"] = scenario.n_time * n_sub
    info["junction_solves"] = scenario.n_time * n_sub * len(scenario.junctions)
    info["cell_updates"] = scenario.n_time * n_sub * scenario.n_roads * scenario.n_cells
    info["bytes"] = sum(
        getattr(traj, a).nbytes
        for a in ("times", "densities", "queues", "inflow", "outflow", "external_inflow")
    )


def _observe_adjoint(info, args, _result):
    sc = args[0]
    info["bytes"] = (sc.n_time + 1) * (sc.n_grid + 1) ** 2 * 8


def _observe_evaluator(info, args, _result):
    sc = args[1]
    info["bytes"] = (sc.n_time + 1) * sc.n_roads * sc.n_cells * 8


def _observe_search(info, _args, result):
    diagnostics = result[1]
    info["evaluations"] = diagnostics["evaluations"]
    info["iterations"] = diagnostics["iterations"]


OBSERVERS = {
    "traffic.simulate": _observe_traffic,
    "dispersion.adjoint_solve": _observe_adjoint,
    "objectives.evaluator_init": _observe_evaluator,
    "moo.search": _observe_search,
}


# -- metrics ---------------------------------------------------------------


def _median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from every span a traced run recorded.

    Times are medians per call of the named span; counts are per call where
    the count belongs to one call (a policy, a search, a command) and totals
    over the run's traced command calls otherwise.  Times are multiplied and
    rates divided by ``scale``, the host-speed factor of the run.
    """
    spans = tracer.spans
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)

    def dur(name):
        return [s.duration for s in tracer.named(name)]

    def kid_time(span, name=None):
        return sum(k.duration for k in kids.get(span.index, []) if name in (None, k.name))

    def under_main(span) -> Span | None:
        while span.parent >= 0:
            span = spans[span.parent]
        return span if span.name == "cli.main" else None

    traffic = tracer.named("traffic.simulate")
    scores = tracer.named("objectives.score")
    searches = tracer.named("moo.search")
    batches = [s.info["batch"] for s in tracer.named("moo.map")]
    mains = tracer.named("cli.main")
    caches = [s for s in tracer.named("cli.adjoint_cache") if under_main(s)]
    misses = sum(1 for s in caches if any(k.name == "dispersion.adjoint_solve" for k in kids.get(s.index, [])))
    search_time = sum(s.duration for s in searches)
    map_time = sum(s.duration for s in tracer.named("moo.map"))
    main_time = sum(s.duration for s in mains)
    main_kids = [kid_time(s) for s in mains]

    def rescoring(main):
        return [k for k in kids.get(main.index, []) if k.name == "objectives.score"]

    metrics = {
        "traffic.simulate_s": (_median(dur("traffic.simulate")), "s"),
        "traffic.substeps": (_median(s.info["substeps"] for s in traffic), "count"),
        "traffic.junction_solves": (_median(s.info["junction_solves"] for s in traffic), "count"),
        "traffic.cell_updates_per_s": (
            sum(s.info["cell_updates"] for s in traffic) / max(sum(s.duration for s in traffic), 1e-300), "1/s"),
        "traffic.history_mb": (max((s.info["bytes"] for s in traffic), default=0) / MIB, "MB"),
        "objectives.score_s": (_median(dur("objectives.score")), "s"),
        "objectives.score_self_s": (_median(s.duration - kid_time(s, "traffic.simulate") for s in scores), "s"),
        "objectives.evaluator_init_s": (_median(dur("objectives.evaluator_init")), "s"),
        "objectives.pairing_mb": (
            max((s.info["bytes"] for s in tracer.named("objectives.evaluator_init")), default=0) / MIB, "MB"),
        "dispersion.adjoint_solve_s": (_median(dur("dispersion.adjoint_solve")), "s"),
        "dispersion.adjoint_mb": (
            max((s.info["bytes"] for s in tracer.named("dispersion.adjoint_solve")), default=0) / MIB, "MB"),
        "emission.rasterize_s": (_median(dur("emission.rasterize")), "s"),
        "emission.field_s": (_median(dur("emission.field")), "s"),
        "network.load_s": (_median(dur("network.load")), "s"),
        "network.validate_s": (_median(dur("network.validate")), "s"),
        "moo.evaluations": (_median(s.info["evaluations"] for s in searches), "count"),
        "moo.iterations": (_median(s.info["iterations"] for s in searches), "count"),
        "moo.batch_size_median": (_median(batches), "count"),
        "moo.batch_size_max": (max(batches, default=0), "count"),
        "moo.bookkeeping_share": (100.0 * (search_time - map_time) / search_time if searches else 0.0, "%"),
        "cli.calls": (len(mains), "count"),
        "cli.adjoint_cache_hits": (len(caches) - misses, "count"),
        "cli.adjoint_cache_misses": (misses, "count"),
        "cli.adjoint_cache_s": (_median(s.duration for s in caches), "s"),
        "cli.rescore_s": (_median(sum(k.duration for k in rescoring(m)) for m in mains), "s"),
        "cli.rescored_policies": (_median(len(rescoring(m)) for m in mains), "count"),
        "cli.self_s": (_median(m.duration - t for m, t in zip(mains, main_kids)), "s"),
        "trace.span_coverage": (100.0 * sum(main_kids) / main_time if mains else 0.0, "%"),
    }
    for name, (value, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (value * scale, unit)
        elif unit == "1/s":
            metrics[name] = (value / scale, unit)
    return metrics
