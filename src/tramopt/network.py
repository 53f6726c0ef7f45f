"""Road network description, scenario files, and scenario validation.

A scenario bundles the network geometry (directed straight roads inside a
square control area), junction coupling parameters, access-road inflows,
dispersion and emission coefficients, and the discretization.  Scenarios
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

Point = tuple[float, float]

JUNCTION_KINDS = ("1to1", "1to2", "2to1")
OBJECTIVE_MODES = ("2d", "3d")

# endpoint coincidence tolerance used by graph-consistency checks
_GEOM_TOL = 1e-9
# Ceilings on the work one scenario may ask for, checked by load_scenario
# before any array is made: the Godunov cell updates of one policy at the
# box's upper speed limits, n_time * substeps * roads * cells, and the bytes
# of the emission field, one float64 grid level per output time,
# (n_time + 1) * (n_grid + 1)**2 * 8.  That is the payload of the
# emission.bin simulate writes (16 header bytes precede it) and the size of
# the forward and adjoint histories that the tests' oracles
# (tests/oracles.py) collect; no command holds the whole field.  The diamond
# needs 7.2e4 and 17 MiB, a chain of 16 diamonds 9.7e5 and 1.4 GiB.
MAX_CELL_UPDATES = 10**9
MAX_FIELD_BYTES = 4 * 2**30
# Also the kernel steps of one policy at the upper speed limits,
# n_time * substeps, each a pass of a Python loop (n_time also counts the
# adjoint's steps), and the bytes of one float64 (n_time + 1, roads, cells)
# array, the size of the adjoint's contraction and of each of the three
# such arrays simulate holds: the densities, the flow and the cell rates.
# The diamond and chains of up to 16 diamonds take 601 steps and 0.58 MB to
# 7.8 MB.
MAX_KERNEL_STEPS = 10**6
MAX_HISTORY_BYTES = 2**30
_SUBSTEPS = "substep(s) per output step of horizon / n_time at the roads' v_max"


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input."""


class PolicyError(ValueError):
    """Raised for speed-limit policies outside the feasible box."""


@dataclass(frozen=True)
class Road:
    """A directed straight road from ``tail`` to ``head`` with width and
    traffic parameters.

    The arc-length parameterization starts at the tail.  ``rho0`` holds one
    initial density per finite-volume cell.
    """

    id: int
    tail: Point
    head: Point
    width: float
    rho_max: float
    rho0: tuple[float, ...]
    v_min: float
    v_max: float

    @property
    def length(self) -> float:
        return math.hypot(self.head[0] - self.tail[0], self.head[1] - self.tail[1])


@dataclass(frozen=True)
class Junction:
    """Coupling node: one of the three closed-form kinds.

    ``alpha`` are the distribution rates onto the outgoing roads of a 1to2
    junction (ordered like ``outgoing``); ``beta`` are the priority rates of
    the incoming roads of a 2to1 junction (ordered like ``incoming``).
    """

    kind: str
    incoming: tuple[int, ...]
    outgoing: tuple[int, ...]
    alpha: tuple[float, ...] | None = None
    beta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class AccessBoundary:
    """External inflow onto a road, buffered by a point queue.

    ``inflow`` is either a constant rate or a per-time-step sequence of
    length ``n_time`` (value k applies on the interval [t_k, t_{k+1})).
    """

    road: int
    inflow: float | tuple[float, ...]
    queue0: float = 0.0


@dataclass(frozen=True)
class DispersionParams:
    mu: float
    kappa: float
    wind: tuple[float, float]
    phi0: float = 0.0


@dataclass(frozen=True)
class Scenario:
    horizon: float
    domain_side: float
    n_grid: int
    roads: tuple[Road, ...]
    junctions: tuple[Junction, ...]
    access: tuple[AccessBoundary, ...]
    exits: tuple[int, ...]
    dispersion: DispersionParams
    theta: float
    delta: float
    mode: str
    n_cells: int
    n_time: int

    @property
    def dt(self) -> float:
        return self.horizon / self.n_time

    @property
    def ds(self) -> float:
        return self.roads[0].length / self.n_cells

    @property
    def h(self) -> float:
        return self.domain_side / self.n_grid

    @property
    def area(self) -> float:
        return self.domain_side**2

    @property
    def n_roads(self) -> int:
        return len(self.roads)

    def road_index(self, road_id: int) -> int:
        for i, r in enumerate(self.roads):
            if r.id == road_id:
                return i
        raise ScenarioError(f"unknown road id {road_id}")

    def policy_bounds(self):
        """Lower/upper speed-limit bounds, ordered like ``roads``."""
        lower = tuple(r.v_min for r in self.roads)
        upper = tuple(r.v_max for r in self.roads)
        return lower, upper


def check_policies(policies, scenario: Scenario) -> np.ndarray:
    """A batch of speed-limit policies as a ``(B, roads)`` float array.

    This is the one check of the feasible set.  A row of the wrong length
    raises ``PolicyError``, and so does the first bad value in row-major
    order: not finite, above its road's v_max or below its v_min, tested in
    that order.  An empty batch gives a ``(0, roads)`` array.
    """
    n = scenario.n_roads
    try:
        v = np.asarray(policies, dtype=float).reshape(len(policies), n)
    except (TypeError, ValueError):  # rows of the wrong length, or entries that are not numbers
        for row in policies:
            if len(row) != n:
                raise PolicyError(f"policy has {len(row)} components, scenario has {n} roads") from None
        raise PolicyError("a policy holds an entry that is not a number") from None
    lower, upper = scenario.policy_bounds()
    bad = ~((v >= np.array(lower)) & (v <= np.array(upper)))
    if bad.any():
        b, j = divmod(int(np.argmax(bad)), n)
        x, road = float(v[b, j]), scenario.roads[j]
        if not math.isfinite(x):
            raise PolicyError(f"V_{road.id} = {x} is not a finite number")
        if x > road.v_max:
            raise PolicyError(f"V_{road.id} = {x} exceeds upper bound {road.v_max}")
        raise PolicyError(f"V_{road.id} = {x} falls below lower bound {road.v_min}")
    return v


# ---------------------------------------------------------------------------
# scenario file parsing


def _mapping(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected an object, got {value!r}")
    return value


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{context}: expected a list, got {value!r}")
    return value


def _require(mapping: Any, key: str, context: str) -> Any:
    if key not in _mapping(mapping, context):
        raise ScenarioError(f"{context}: missing field '{key}'")
    return mapping[key]


def _float(value: int | float) -> float:
    """``value`` as a float, inf past the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: expected a number, got {value!r}")
    x = _float(value)
    if not math.isfinite(x):
        raise ScenarioError(f"{context}: expected a finite number, got {value!r}")
    return x


def _count(value: Any, context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ScenarioError(f"{context}: must be a positive integer, got {value!r}")
    return value


def _road_ref(value: Any, road_ids: set[int], context: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value not in road_ids:
        raise ScenarioError(f"{context}: references unknown road {value!r}")
    return value


def _positive(value: Any, context: str) -> float:
    x = _number(value, context)
    if x <= 0.0:
        raise ScenarioError(f"{context}: must be > 0, got {x}")
    return x


def _nonnegative(value: Any, context: str) -> float:
    x = _number(value, context)
    if x < 0.0:
        raise ScenarioError(f"{context}: must be >= 0, got {x}")
    return x


def _point(value: Any, context: str) -> Point:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{context}: expected [x, y]")
    return (_number(value[0], context), _number(value[1], context))


def _parse_road(raw: dict, n_cells: int, context: str) -> Road:
    road_id = _require(raw, "id", context)
    if not isinstance(road_id, int) or isinstance(road_id, bool):
        raise ScenarioError(f"{context}: id must be an integer")
    start = _point(_require(raw, "start", context), f"{context}.start")
    end = _point(_require(raw, "end", context), f"{context}.end")
    width = _positive(_require(raw, "width", context), f"{context}.width")
    rho_max = _positive(_require(raw, "rho_max", context), f"{context}.rho_max")
    v_min = _positive(_require(raw, "v_min", context), f"{context}.v_min")
    v_max = _positive(_require(raw, "v_max", context), f"{context}.v_max")
    if v_min > v_max:
        raise ScenarioError(f"{context}: v_min {v_min} exceeds v_max {v_max}")

    raw_rho0 = _require(raw, "rho0", context)
    if isinstance(raw_rho0, (int, float)) and not isinstance(raw_rho0, bool):
        rho0 = (_number(raw_rho0, f"{context}.rho0"),) * n_cells
    elif isinstance(raw_rho0, list):
        if len(raw_rho0) != n_cells:
            raise ScenarioError(
                f"{context}.rho0: expected {n_cells} per-cell values, got {len(raw_rho0)}"
            )
        rho0 = tuple(_number(v, f"{context}.rho0[{i}]") for i, v in enumerate(raw_rho0))
    else:
        raise ScenarioError(f"{context}.rho0: expected a number or a list")
    for i, v in enumerate(rho0):
        if v < 0.0 or v > rho_max:
            raise ScenarioError(
                f"{context}.rho0[{i}]: {v} outside [0, rho_max={rho_max}]"
            )

    road = Road(
        id=road_id,
        tail=start,
        head=end,
        width=width,
        rho_max=rho_max,
        rho0=rho0,
        v_min=v_min,
        v_max=v_max,
    )
    if road.length <= 0.0:
        raise ScenarioError(f"{context}: zero-length road")
    return road


def _parse_junction(raw: dict, road_ids: set[int], context: str) -> Junction:
    kind = _require(raw, "kind", context)
    if kind not in JUNCTION_KINDS:
        raise ScenarioError(f"{context}: kind must be one of {JUNCTION_KINDS}")
    incoming = tuple(_list(_require(raw, "in", context), f"{context}.in"))
    outgoing = tuple(_list(_require(raw, "out", context), f"{context}.out"))
    arity = {"1to1": (1, 1), "1to2": (1, 2), "2to1": (2, 1)}[kind]
    if (len(incoming), len(outgoing)) != arity:
        raise ScenarioError(
            f"{context}: kind {kind} needs {arity[0]} incoming and {arity[1]} "
            f"outgoing roads, got {len(incoming)}/{len(outgoing)}"
        )
    for rid in (*incoming, *outgoing):
        _road_ref(rid, road_ids, context)

    rates = {}
    for name, owner, meaning in (("alpha", "1to2", "distribution"), ("beta", "2to1", "priority")):
        if kind != owner:
            continue
        given = _require(raw, name, context)
        if not isinstance(given, list) or len(given) != 2:
            raise ScenarioError(f"{context}.{name}: expected two rates")
        rates[name] = tuple(_number(x, f"{context}.{name}") for x in given)
        if not all(0.0 < x < 1.0 for x in rates[name]):
            raise ScenarioError(f"{context}.{name}: rates must lie in (0, 1)")
        if abs(sum(rates[name]) - 1.0) > 1e-12:
            raise ScenarioError(f"{context}.{name}: {meaning} rates must sum to 1")
    return Junction(kind=kind, incoming=incoming, outgoing=outgoing, **rates)


def load_scenario(config_text: str) -> Scenario:
    """Parse a JSON scenario description into a validated ``Scenario``.

    Structural problems (missing fields, bad references, rates not summing
    to one, out-of-range values, a road end attached twice) raise
    ``ScenarioError`` with field context;
    numerical adequacy (CFL, raster visibility) is reported separately by
    ``validate_scenario``.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ScenarioError(f"parse error: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: top level must be an object")

    horizon = _positive(_require(raw, "horizon", "scenario"), "horizon")

    domain = _require(raw, "domain", "scenario")
    side = _positive(_require(domain, "side", "domain"), "domain.side")
    n_grid = _count(_require(domain, "n_grid", "domain"), "domain.n_grid")

    disc = _require(raw, "discretization", "scenario")
    n_cells = _count(_require(disc, "n_cells", "discretization"), "discretization.n_cells")
    n_time = _count(_require(disc, "n_time", "discretization"), "discretization.n_time")

    roads_raw = _require(raw, "roads", "scenario")
    if not isinstance(roads_raw, list) or not roads_raw:
        raise ScenarioError("roads: expected a non-empty list")
    # at one substep per output step, before the roads' per-cell tuples exist
    _check_work(n_time, n_grid, n_cells, len(roads_raw), substeps=1)
    roads = tuple(
        _parse_road(r, n_cells, f"roads[{i}]") for i, r in enumerate(roads_raw)
    )
    road_ids = {r.id for r in roads}
    if len(road_ids) != len(roads):
        raise ScenarioError("roads: duplicate road ids")
    length0 = roads[0].length
    for r in roads:
        if abs(r.length - length0) > 1e-9:
            raise ScenarioError(
                f"roads: all roads must share one length (road {r.id} has "
                f"{r.length}, road {roads[0].id} has {length0})"
            )

    junctions = tuple(
        _parse_junction(j, road_ids, f"junctions[{i}]")
        for i, j in enumerate(_list(raw.get("junctions", []), "junctions"))
    )

    access = []
    for i, a in enumerate(_list(raw.get("access", []), "access")):
        ctx = f"access[{i}]"
        rid = _road_ref(_require(a, "road", ctx), road_ids, ctx)
        inflow_raw = _require(a, "inflow", ctx)
        if isinstance(inflow_raw, list):
            if len(inflow_raw) != n_time:
                raise ScenarioError(
                    f"{ctx}.inflow: series must have n_time={n_time} values"
                )
            inflow: float | tuple[float, ...] = tuple(
                _nonnegative(v, f"{ctx}.inflow[{k}]") for k, v in enumerate(inflow_raw)
            )
        else:
            inflow = _nonnegative(inflow_raw, f"{ctx}.inflow")
        queue0 = _nonnegative(a.get("queue0", 0.0), f"{ctx}.queue0")
        access.append(AccessBoundary(road=rid, inflow=inflow, queue0=queue0))

    exits = tuple(_road_ref(rid, road_ids, "exits") for rid in _list(raw.get("exits", []), "exits"))

    disp_raw = _require(raw, "dispersion", "scenario")
    wind = _point(_require(disp_raw, "wind", "dispersion"), "dispersion.wind")
    dispersion = DispersionParams(
        mu=_positive(_require(disp_raw, "mu", "dispersion"), "dispersion.mu"),
        kappa=_nonnegative(disp_raw.get("kappa", 0.0), "dispersion.kappa"),
        wind=wind,
        phi0=_nonnegative(disp_raw.get("phi0", 0.0), "dispersion.phi0"),
    )

    emission_raw = _require(raw, "emission", "scenario")
    theta = _nonnegative(_require(emission_raw, "theta", "emission"), "emission.theta")

    objectives_raw = _mapping(raw.get("objectives", {}), "objectives")
    delta = _nonnegative(objectives_raw.get("delta", 0.0), "objectives.delta")
    mode = objectives_raw.get("mode", "2d")
    if mode not in OBJECTIVE_MODES:
        raise ScenarioError(f"objectives.mode: must be one of {OBJECTIVE_MODES}")

    scenario = Scenario(
        horizon=horizon,
        domain_side=side,
        n_grid=n_grid,
        roads=roads,
        junctions=junctions,
        access=tuple(access),
        exits=exits,
        dispersion=dispersion,
        theta=theta,
        delta=delta,
        mode=mode,
        n_cells=n_cells,
        n_time=n_time,
    )
    for end, attached in _road_ends(scenario).items():
        for rid, attachments in attached.items():
            if len(attachments) > 1:
                raise ScenarioError(f"road {rid} {end} attached twice: {', '.join(attachments)}")
    _check_grid(scenario)
    from tramopt.traffic import _substep_counts  # the kernel's CFL rule; traffic imports this module

    with np.errstate(over="ignore", divide="ignore"):  # a CFL ratio past the float range is inf
        substeps = float(_substep_counts(np.array([scenario.policy_bounds()[1]]), scenario)[0])
    substeps = int(substeps) if math.isfinite(substeps) else math.inf
    _check_work(n_time, n_grid, n_cells, len(roads), substeps)
    return scenario


def _check_grid(scenario: Scenario) -> None:
    """Reject derived numbers the solvers meet past the float range: side**2,
    h**2, horizon * side**2 and per road the squared length, the bounding
    box in grid units and v_max * rho_max, which bounds the road's flux and
    capacity.  x * x leaves the range where x**2 does, without raising."""
    side, h = scenario.domain_side, scenario.h
    if not (side * side < math.inf and h * h > 0.0 and scenario.horizon * (side * side) > 0.0):
        raise ScenarioError(
            f"domain.side: {side} over n_grid {scenario.n_grid} with horizon {scenario.horizon} "
            "puts side**2, h**2 or horizon * side**2 past the float range"
        )
    for i, road in enumerate(scenario.roads):
        # the largest |coordinate| of the box, finite exactly when its four edges are
        reach = (max(map(abs, road.tail + road.head)) + road.width / 2.0) / h
        if not (road.length * road.length < math.inf and reach < math.inf):
            raise ScenarioError(
                f"roads[{i}]: start, end and width put the squared length or the bounding box "
                f"in grid units of {h} past the float range"
            )
        if not road.v_max * road.rho_max < math.inf:
            raise ScenarioError(
                f"roads[{i}]: road {road.id}'s v_max * rho_max = {road.v_max} * {road.rho_max} "
                "is past the float range"
            )


def _check_work(n_time: int, n_grid: int, n_cells: int, n_roads: int, substeps: float) -> None:
    # exact int counts (float inf where substeps is), formatted through _float
    field_bytes = (n_time + 1) * (n_grid + 1) ** 2 * 8
    if field_bytes > MAX_FIELD_BYTES:
        raise ScenarioError(
            f"discretization: the emission field of {_float(field_bytes):.3g} bytes exceeds the "
            f"ceiling of {MAX_FIELD_BYTES / 2**30:g} GiB"
        )
    updates = n_time * substeps * n_roads * n_cells
    if updates > MAX_CELL_UPDATES:
        raise ScenarioError(
            f"discretization: {_float(updates):.3g} cell updates per policy exceed "
            f"{MAX_CELL_UPDATES:.0e} ({_float(substeps):.6g} {_SUBSTEPS})"
        )
    steps = n_time * substeps
    if steps > MAX_KERNEL_STEPS:
        raise ScenarioError(
            f"discretization: {_float(steps):.3g} kernel steps per policy exceed "
            f"{MAX_KERNEL_STEPS:.0e} ({_float(substeps):.6g} {_SUBSTEPS})"
        )
    history_bytes = (n_time + 1) * n_roads * n_cells * 8
    if history_bytes > MAX_HISTORY_BYTES:
        raise ScenarioError(
            f"discretization: the density history of {_float(history_bytes):.3g} bytes exceeds "
            f"the ceiling of {MAX_HISTORY_BYTES / 2**30:g} GiB"
        )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CflReport:
    """Stability check for the explicit dispersion/adjoint stepping."""

    dt: float
    dt_bound: float
    advective_value: float
    advective_bound: float
    kappa_value: float
    kappa_bound: float

    @property
    def passed(self) -> bool:
        return (
            self.dt <= self.dt_bound
            and self.advective_value <= self.advective_bound
            and self.kappa_value <= self.kappa_bound
        )

    @property
    def finding(self) -> str:
        """What ``validate`` reports and the solvers raise when the check fails."""
        return (
            f"adjoint CFL violated: dt={self.dt:.6g} vs bound {self.dt_bound:.6g}, advective term "
            f"{self.advective_value:.6g} vs {self.advective_bound:.6g}, kappa term "
            f"{self.kappa_value:.6g} vs {self.kappa_bound:.6g}"
        )


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]
    cfl: CflReport

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Check numerical adequacy and graph consistency of a scenario.

    The report lists findings for: adjoint CFL violations, roads whose
    raster footprint contains fewer grid points than they have cells
    (invisible to the control-area grid), road ends attached to nothing and
    junctions whose road endpoints do not coincide.  An empty findings list
    means the scenario is usable.
    """
    from tramopt.dispersion import cfl_check_adjoint
    from tramopt.emission import rasterize_network

    findings: list[str] = []

    cfl = cfl_check_adjoint(scenario.h, scenario.dt, scenario.dispersion)
    if not cfl.passed:
        findings.append(cfl.finding)

    counts = rasterize_network(scenario).cover_counts(scenario.n_roads)
    for road, count in zip(scenario.roads, counts.tolist()):
        if count < scenario.n_cells:
            findings.append(
                f"road {road.id} invisible to grid: covers {count} grid points, "
                f"need >= {scenario.n_cells}"
            )

    findings.extend(_graph_findings(scenario))
    return ValidationReport(findings=tuple(findings), cfl=cfl)


def _road_ends(scenario: Scenario) -> dict[str, dict[int, list[str]]]:
    """What each road end is attached to: per end, "tail" or "head", per
    road id, the junctions, access boundary and exit that name it."""
    tails: dict[int, list[str]] = {r.id: [] for r in scenario.roads}
    heads: dict[int, list[str]] = {r.id: [] for r in scenario.roads}
    for i, j in enumerate(scenario.junctions):
        for rid in j.incoming:
            heads[rid].append(f"junction {i}")
        for rid in j.outgoing:
            tails[rid].append(f"junction {i}")
    for a in scenario.access:
        tails[a.road].append("access boundary")
    for rid in scenario.exits:
        heads[rid].append("exit")
    return {"tail": tails, "head": heads}


def _graph_findings(scenario: Scenario) -> list[str]:
    findings = []
    for end, attached in _road_ends(scenario).items():
        for rid, attachments in attached.items():
            if not attachments:
                findings.append(f"road {rid} {end} attached to nothing (flux 0 assumed)")

    # junction geometry: all meeting endpoints should coincide
    for i, j in enumerate(scenario.junctions):
        pts = [scenario.roads[scenario.road_index(rid)].head for rid in j.incoming]
        pts += [scenario.roads[scenario.road_index(rid)].tail for rid in j.outgoing]
        ref = pts[0]
        for p in pts[1:]:
            if math.hypot(p[0] - ref[0], p[1] - ref[1]) > _GEOM_TOL:
                findings.append(f"junction {i}: road endpoints do not coincide")
                break
    return findings
