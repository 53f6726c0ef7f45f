"""Road network description, scenario files, and scenario validation.

A scenario bundles the network geometry (directed polyline roads inside a
square control area), junction coupling parameters, access-road inflows,
dispersion and emission coefficients, and the discretization.  Scenarios
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

Point = tuple[float, float]

JUNCTION_KINDS = ("1to1", "1to2", "2to1")
OBJECTIVE_MODES = ("2d", "3d")

# endpoint coincidence tolerance used by graph-consistency checks
_GEOM_TOL = 1e-9


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario input."""


class PolicyError(ValueError):
    """Raised for speed-limit policies outside the feasible box."""


@dataclass(frozen=True)
class Road:
    """A directed road: straight polyline with width and traffic parameters.

    ``points`` lists the polyline vertices from tail to head; the arc-length
    parameterization starts at the tail.  ``rho0`` holds one initial density
    per finite-volume cell.
    """

    id: int
    points: tuple[Point, ...]
    width: float
    rho_max: float
    rho0: tuple[float, ...]
    v_min: float
    v_max: float

    @property
    def segment_lengths(self) -> tuple[float, ...]:
        return tuple(
            math.hypot(q[0] - p[0], q[1] - p[1])
            for p, q in zip(self.points[:-1], self.points[1:])
        )

    @property
    def length(self) -> float:
        return sum(self.segment_lengths)

    @property
    def tail(self) -> Point:
        return self.points[0]

    @property
    def head(self) -> Point:
        return self.points[-1]


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
    def road_length(self) -> float:
        return self.roads[0].length

    @property
    def ds(self) -> float:
        return self.road_length / self.n_cells

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


@dataclass(frozen=True)
class SpeedLimitPolicy:
    """One speed limit per road, ordered like ``Scenario.roads``."""

    values: tuple[float, ...]

    @classmethod
    def checked(cls, values: Sequence[float], scenario: Scenario) -> "SpeedLimitPolicy":
        values = tuple(float(v) for v in values)
        if len(values) != scenario.n_roads:
            raise PolicyError(
                f"policy has {len(values)} components, scenario has {scenario.n_roads} roads"
            )
        for v, road in zip(values, scenario.roads):
            if not math.isfinite(v):
                raise PolicyError(f"V_{road.id} = {v} is not a finite number")
            if v > road.v_max:
                raise PolicyError(f"V_{road.id} = {v} exceeds upper bound {road.v_max}")
            if v < road.v_min:
                raise PolicyError(f"V_{road.id} = {v} falls below lower bound {road.v_min}")
        return cls(values)


def point_on_road(road: Road, s: float) -> Point:
    """Map an arc-length parameter to a point on the road's polyline."""
    if s < 0.0 or s > road.length * (1.0 + 1e-12):
        raise ValueError(f"arc length {s} outside [0, {road.length}] on road {road.id}")
    remaining = s
    for (p, q), seg_len in zip(
        zip(road.points[:-1], road.points[1:]), road.segment_lengths
    ):
        if remaining <= seg_len or (p, q) == (road.points[-2], road.points[-1]):
            frac = remaining / seg_len
            return (p[0] + frac * (q[0] - p[0]), p[1] + frac * (q[1] - p[1]))
        remaining -= seg_len
    return road.head


# ---------------------------------------------------------------------------
# scenario file parsing


def _require(mapping: dict, key: str, context: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{context}: missing field '{key}'")
    return mapping[key]


def _number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: expected a number, got {value!r}")
    return float(value)


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
        rho0 = (float(raw_rho0),) * n_cells
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

    if math.hypot(end[0] - start[0], end[1] - start[1]) <= 0.0:
        raise ScenarioError(f"{context}: zero-length road")
    return Road(
        id=road_id,
        points=(start, end),
        width=width,
        rho_max=rho_max,
        rho0=rho0,
        v_min=v_min,
        v_max=v_max,
    )


def _parse_junction(raw: dict, road_ids: set[int], context: str) -> Junction:
    kind = _require(raw, "kind", context)
    if kind not in JUNCTION_KINDS:
        raise ScenarioError(f"{context}: kind must be one of {JUNCTION_KINDS}")
    incoming = tuple(_require(raw, "in", context))
    outgoing = tuple(_require(raw, "out", context))
    arity = {"1to1": (1, 1), "1to2": (1, 2), "2to1": (2, 1)}[kind]
    if (len(incoming), len(outgoing)) != arity:
        raise ScenarioError(
            f"{context}: kind {kind} needs {arity[0]} incoming and {arity[1]} "
            f"outgoing roads, got {len(incoming)}/{len(outgoing)}"
        )
    for rid in (*incoming, *outgoing):
        if rid not in road_ids:
            raise ScenarioError(f"{context}: references unknown road {rid}")

    alpha = beta = None
    if kind == "1to2":
        alpha_raw = _require(raw, "alpha", context)
        if not isinstance(alpha_raw, list) or len(alpha_raw) != 2:
            raise ScenarioError(f"{context}.alpha: expected two rates")
        alpha = tuple(_number(a, f"{context}.alpha") for a in alpha_raw)
        if not all(0.0 < a < 1.0 for a in alpha):
            raise ScenarioError(f"{context}.alpha: rates must lie in (0, 1)")
        if abs(sum(alpha) - 1.0) > 1e-12:
            raise ScenarioError(f"{context}: distribution rates must sum to 1")
    if kind == "2to1":
        beta_raw = _require(raw, "beta", context)
        if not isinstance(beta_raw, list) or len(beta_raw) != 2:
            raise ScenarioError(f"{context}.beta: expected two rates")
        beta = tuple(_number(b, f"{context}.beta") for b in beta_raw)
        if not all(0.0 < b < 1.0 for b in beta):
            raise ScenarioError(f"{context}.beta: rates must lie in (0, 1)")
        if abs(sum(beta) - 1.0) > 1e-12:
            raise ScenarioError(f"{context}: priority rates must sum to 1")
    return Junction(kind=kind, incoming=incoming, outgoing=outgoing, alpha=alpha, beta=beta)


def load_scenario(config_text: str) -> Scenario:
    """Parse a JSON scenario description into a validated ``Scenario``.

    Structural problems (missing fields, bad references, rates not summing
    to one, out-of-range values) raise ``ScenarioError`` with field context;
    numerical adequacy (CFL, raster visibility) is reported separately by
    ``validate_scenario``.
    """
    try:
        raw = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: top level must be an object")

    horizon = _positive(_require(raw, "horizon", "scenario"), "horizon")

    domain = _require(raw, "domain", "scenario")
    side = _positive(_require(domain, "side", "domain"), "domain.side")
    n_grid = _require(domain, "n_grid", "domain")
    if not isinstance(n_grid, int) or n_grid <= 0:
        raise ScenarioError("domain.n_grid: must be a positive integer")

    disc = _require(raw, "discretization", "scenario")
    n_cells = _require(disc, "n_cells", "discretization")
    n_time = _require(disc, "n_time", "discretization")
    for name, val in (("n_cells", n_cells), ("n_time", n_time)):
        if not isinstance(val, int) or val <= 0:
            raise ScenarioError(f"discretization.{name}: must be a positive integer")

    roads_raw = _require(raw, "roads", "scenario")
    if not isinstance(roads_raw, list) or not roads_raw:
        raise ScenarioError("roads: expected a non-empty list")
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
        for i, j in enumerate(raw.get("junctions", []))
    )

    access = []
    for i, a in enumerate(raw.get("access", [])):
        ctx = f"access[{i}]"
        rid = _require(a, "road", ctx)
        if rid not in road_ids:
            raise ScenarioError(f"{ctx}: references unknown road {rid}")
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

    exits = tuple(raw.get("exits", []))
    for rid in exits:
        if rid not in road_ids:
            raise ScenarioError(f"exits: references unknown road {rid}")

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

    objectives_raw = raw.get("objectives", {})
    delta = _nonnegative(objectives_raw.get("delta", 0.0), "objectives.delta")
    mode = objectives_raw.get("mode", "2d")
    if mode not in OBJECTIVE_MODES:
        raise ScenarioError(f"objectives.mode: must be one of {OBJECTIVE_MODES}")

    return Scenario(
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


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its JSON file form (load round-trips)."""
    doc = {
        "horizon": scenario.horizon,
        "domain": {"side": scenario.domain_side, "n_grid": scenario.n_grid},
        "discretization": {"n_cells": scenario.n_cells, "n_time": scenario.n_time},
        "roads": [
            {
                "id": r.id,
                "start": list(r.points[0]),
                "end": list(r.points[-1]),
                "width": r.width,
                "rho_max": r.rho_max,
                "rho0": list(r.rho0),
                "v_min": r.v_min,
                "v_max": r.v_max,
            }
            for r in scenario.roads
        ],
        "junctions": [
            {
                "kind": j.kind,
                "in": list(j.incoming),
                "out": list(j.outgoing),
                **({"alpha": list(j.alpha)} if j.alpha is not None else {}),
                **({"beta": list(j.beta)} if j.beta is not None else {}),
            }
            for j in scenario.junctions
        ],
        "access": [
            {
                "road": a.road,
                "inflow": list(a.inflow) if isinstance(a.inflow, tuple) else a.inflow,
                "queue0": a.queue0,
            }
            for a in scenario.access
        ],
        "exits": list(scenario.exits),
        "dispersion": {
            "mu": scenario.dispersion.mu,
            "kappa": scenario.dispersion.kappa,
            "wind": list(scenario.dispersion.wind),
            "phi0": scenario.dispersion.phi0,
        },
        "emission": {"theta": scenario.theta},
        "objectives": {"delta": scenario.delta, "mode": scenario.mode},
    }
    return json.dumps(doc, indent=2)


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


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[str, ...]
    cfl: CflReport
    road_cover_counts: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Check numerical adequacy and graph consistency of a scenario.

    The report lists findings for: adjoint CFL violations, roads whose
    raster footprint contains fewer grid points than they have cells
    (invisible to the control-area grid), and dangling or doubly-attached
    road endpoints.  An empty findings list means the scenario is usable.
    """
    from tramopt.dispersion import cfl_check_adjoint
    from tramopt.emission import rasterize_network

    findings: list[str] = []

    cfl = cfl_check_adjoint(scenario.h, scenario.dt, scenario.dispersion)
    if not cfl.passed:
        findings.append(
            "adjoint CFL violated: dt={:.6g} vs bound {:.6g}, advective term "
            "{:.6g} vs {:.6g}, kappa term {:.6g} vs {:.6g}".format(
                cfl.dt,
                cfl.dt_bound,
                cfl.advective_value,
                cfl.advective_bound,
                cfl.kappa_value,
                cfl.kappa_bound,
            )
        )

    raster = rasterize_network(scenario)
    cover_counts = {}
    for road in scenario.roads:
        count = raster.road_point_counts[scenario.road_index(road.id)]
        cover_counts[road.id] = int(count)
        if count < scenario.n_cells:
            findings.append(
                f"road {road.id} invisible to grid: covers {count} grid points, "
                f"need >= {scenario.n_cells}"
            )

    findings.extend(_graph_findings(scenario))
    return ValidationReport(
        findings=tuple(findings), cfl=cfl, road_cover_counts=cover_counts
    )


def _graph_findings(scenario: Scenario) -> list[str]:
    findings = []
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

    for rid, attachments in tails.items():
        if not attachments:
            findings.append(f"road {rid} tail attached to nothing (flux 0 assumed)")
        elif len(attachments) > 1:
            findings.append(f"road {rid} tail attached twice: {', '.join(attachments)}")
    for rid, attachments in heads.items():
        if not attachments:
            findings.append(f"road {rid} head attached to nothing (flux 0 assumed)")
        elif len(attachments) > 1:
            findings.append(f"road {rid} head attached twice: {', '.join(attachments)}")

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
