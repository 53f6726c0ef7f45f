"""Output checks for the benchmark, computed apart from ``tramopt``.

Each check reads what a command wrote and recomputes it from the scenario
file with this module's own formulas: the Greenshields flux, the objective
quadratures, a forward dispersion march, Pareto dominance and the 2D
hypervolume.  Nothing here imports ``tramopt``.  Every ``check_*`` function
returns a list of failures; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

MASS_TOL = 1e-10
JUNCTION_TOL = 1e-14
OBJECTIVE_RTOL = 1e-9
FORWARD_RTOL = 0.05
NORM_RTOL = 1e-14
EMISSION_MAGIC = b"TRMO"
EMISSION_HEADER = 16


class Facts:
    """The numbers a check needs, read straight from a scenario document."""

    def __init__(self, doc: dict):
        roads = doc["roads"]
        self.road_ids = [r["id"] for r in roads]
        self.rho_max = np.array([float(r["rho_max"]) for r in roads])
        self.v_min = np.array([float(r["v_min"]) for r in roads])
        self.v_max = np.array([float(r["v_max"]) for r in roads])
        self.n_cells = doc["discretization"]["n_cells"]
        self.n_time = doc["discretization"]["n_time"]
        self.horizon = float(doc["horizon"])
        self.dt = self.horizon / self.n_time
        (x0, y0), (x1, y1) = roads[0]["start"], roads[0]["end"]
        self.ds = math.hypot(x1 - x0, y1 - y0) / self.n_cells
        self.side = float(doc["domain"]["side"])
        self.n_grid = doc["domain"]["n_grid"]
        self.h = self.side / self.n_grid
        disp = doc["dispersion"]
        self.mu = float(disp["mu"])
        self.kappa = float(disp.get("kappa", 0.0))
        self.wind = (float(disp["wind"][0]), float(disp["wind"][1]))
        self.phi0 = float(disp.get("phi0", 0.0))
        self.index = {rid: e for e, rid in enumerate(self.road_ids)}
        self.junctions = [
            ([self.index[r] for r in j["in"]], [self.index[r] for r in j["out"]])
            for j in doc.get("junctions", [])
        ]
        self.access = [self.index[a["road"]] for a in doc.get("access", [])]
        series = []
        for a in doc.get("access", []):
            q = a["inflow"]
            series.append(np.asarray(q, float) if isinstance(q, list) else np.full(self.n_time, float(q)))
        self.inflow = np.array(series).reshape(len(series), self.n_time)
        self.exits = [self.index[r] for r in doc.get("exits", [])]


def greenshields(rho, v, rho_max):
    return v * rho * (1.0 - rho / rho_max)


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def dominated_pairs(points) -> list[tuple[int, int]]:
    """Every (i, j) with point i dominating point j, by plain pairwise comparison."""
    pts = [tuple(map(float, p)) for p in points]
    return [
        (i, j)
        for i, a in enumerate(pts)
        for j, b in enumerate(pts)
        if i != j and dominates(a, b)
    ]


def hypervolume_2d(points, reference) -> float:
    """Area dominated by a set of 2D points (minimised) up to ``reference``.

    A sweep in increasing first coordinate: each point adds the strip between
    its second coordinate and the lowest one seen so far.
    """
    rx, ry = reference
    inside = sorted((x, y) for x, y in points if x < rx and y < ry)
    area, lowest = 0.0, ry
    for x, y in inside:
        if y < lowest:
            area += (rx - x) * (lowest - y)
            lowest = y
    return area


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# simulate outputs


def read_objectives(out_dir: Path) -> dict[str, float]:
    with open(out_dir / "objectives.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"objectives.csv holds {len(rows)} rows, expected 1")
    return {k: float(v) for k, v in rows[0].items()}


def forward_j_diff(field: np.ndarray, f: Facts) -> float:
    """Average pollutant mass from an explicit forward march over ``field``.

    Five-point diffusion, first-order upwind advection and forward Euler,
    with clean air entering through the inflow edges and zero normal
    gradient on the outflow edges.  Slice k of ``field`` drives the step
    from t_k to t_k+1; the mass is summed with the right rectangle rule over
    grid points with both indices >= 1.
    """
    vx, vy = f.wind
    h, dt = f.h, f.dt
    phi = np.full(field.shape[1:], f.phi0)
    total = 0.0
    for k in range(f.n_time):
        ext = np.pad(phi, 1)
        # outflow edges reflect the inner neighbour; inflow edges stay 0
        if vx >= 0:
            ext[-1, 1:-1] = phi[-2, :]
        if vx <= 0:
            ext[0, 1:-1] = phi[1, :]
        if vy >= 0:
            ext[1:-1, -1] = phi[:, -2]
        if vy <= 0:
            ext[1:-1, 0] = phi[:, 1]
        east, west = ext[2:, 1:-1], ext[:-2, 1:-1]
        north, south = ext[1:-1, 2:], ext[1:-1, :-2]
        lap = (east + west + north + south - 4.0 * phi) / (h * h)
        adv_x = vx * (phi - west) if vx > 0 else vx * (east - phi)
        adv_y = vy * (phi - south) if vy > 0 else vy * (north - phi)
        phi = phi + dt * (f.mu * lap - (adv_x + adv_y) / h - f.kappa * phi + field[k])
        total += float(np.sum(phi[1:, 1:]))
    return dt * h * h / (f.horizon * f.side**2) * total


def check_emission_bin(path: Path, f: Facts, j_diff: float | None) -> list[str]:
    """Header, payload length, and (given ``j_diff``) the forward-march identity."""
    raw = path.read_bytes()
    if len(raw) < EMISSION_HEADER or raw[:4] != EMISSION_MAGIC:
        return [f"{path.name}: missing magic header"]
    version, n_grid, n_time = np.frombuffer(raw[4:EMISSION_HEADER], dtype="<u4")
    if (version, n_grid, n_time) != (1, f.n_grid, f.n_time):
        return [f"{path.name}: header says v{version}, n_grid {n_grid}, n_time {n_time}"]
    n1 = f.n_grid + 1
    expected = (f.n_time + 1) * n1 * n1 * 8
    payload = len(raw) - EMISSION_HEADER
    if payload != expected:
        return [f"{path.name}: payload {payload} bytes, expected {expected}"]
    if j_diff is None:
        return []
    field = np.frombuffer(raw, dtype="<f8", offset=EMISSION_HEADER).reshape(f.n_time + 1, n1, n1)
    forward = forward_j_diff(field, f)
    if not _close(forward, j_diff, FORWARD_RTOL):
        return [f"J_diff {j_diff!r} vs forward march {forward!r}: beyond {FORWARD_RTOL:.0%}"]
    return []


def check_simulate(out_dir: Path, f: Facts, policy, delta: float) -> list[str]:
    """Recompute balances and objectives from the CSVs ``simulate`` wrote."""
    fails: list[str] = []
    R, C, T = len(f.road_ids), f.n_cells, f.n_time
    v = np.asarray(policy, float)

    traj = np.loadtxt(out_dir / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    if traj.shape != ((T + 1) * R * C, 4):
        return [f"trajectory.csv: {traj.shape[0]} rows, expected {(T + 1) * R * C}"]
    traj = traj.reshape(T + 1, R, C, 4)
    if not (np.array_equal(traj[0, :, 0, 1], f.road_ids) and np.array_equal(traj[0, 0, :, 2], np.arange(1, C + 1))):
        fails.append("trajectory.csv: rows not ordered by time, road, cell")
    rho = traj[..., 3]
    if not (np.all(rho >= 0.0) and np.all(rho <= f.rho_max[None, :, None])):
        fails.append("trajectory.csv: density outside [0, rho_max]")

    queues = np.loadtxt(out_dir / "queues.csv", delimiter=",", skiprows=1, ndmin=2)
    n_access = len(f.access)
    if queues.shape != ((T + 1) * n_access, 3):
        return fails + [f"queues.csv: {queues.shape[0]} rows, expected {(T + 1) * n_access}"]
    ell = queues[:, 2].reshape(T + 1, n_access)

    with open(out_dir / "flows.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != T * R * 2 or [r[2] for r in rows[:2]] != ["in", "out"]:
        return fails + [f"flows.csv: {len(rows)} rows, expected {T * R * 2} (in, out per road)"]
    flux = np.array([float(r[3]) for r in rows]).reshape(T, R, 2)
    f_in, f_out = flux[..., 0], flux[..., 1]

    road_change = f.ds * np.sum(rho[1:] - rho[:-1], axis=(1, 2))
    queue_change = np.sum(ell[1:] - ell[:-1], axis=1)
    fed = np.sum(f.inflow, axis=0)
    drained = np.sum(f_out[:, f.exits], axis=1)
    mass = np.abs(road_change + queue_change - f.dt * (fed - drained))
    if mass.max() > MASS_TOL:
        k = int(mass.argmax())
        fails.append(f"mass balance off by {mass[k]:.3g} at step {k} (> {MASS_TOL:g})")

    for n, (ins, outs) in enumerate(f.junctions):
        gap = np.abs(f_out[:, ins].sum(axis=1) - f_in[:, outs].sum(axis=1)).max()
        if gap > JUNCTION_TOL:
            fails.append(f"junction {n}: flux balance off by {gap:.3g} (> {JUNCTION_TOL:g})")

    obj = read_objectives(out_dir)
    written = np.array([obj[f"v_{rid}"] for rid in f.road_ids])
    if not np.array_equal(written, v):
        fails.append(f"objectives.csv: policy {written.tolist()} is not {v.tolist()}")
    q = greenshields(rho[1:], v[None, :, None], f.rho_max[None, :, None])
    j_flow = f.dt * f.ds * float(np.sum(q))
    j_queue = f.dt / f.horizon * float(np.sum(ell[1:]))
    for name, mine in (("j_flow", j_flow), ("j_queue", j_queue)):
        if not _close(obj[name], mine, OBJECTIVE_RTOL) and abs(obj[name] - mine) > 1e-15:
            fails.append(f"{name} {obj[name]!r} vs recomputed {mine!r}")
    j_poll = obj["j_diff"] + delta * obj["j_queue"]
    if not _close(obj["j_poll"], j_poll, OBJECTIVE_RTOL):
        fails.append(f"j_poll {obj['j_poll']!r} is not j_diff + delta*j_queue = {j_poll!r}")

    fails += check_emission_bin(out_dir / "emission.bin", f, obj["j_diff"])
    return fails


# ---------------------------------------------------------------------------
# optimize outputs


def read_front(path: Path) -> tuple[list[str], list[dict[str, float]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [{k: float(v) for k, v in r.items()} for r in reader]
    return list(reader.fieldnames or []), rows


def front_objectives(row: dict[str, float], mode: str) -> tuple[float, ...]:
    """The minimised objective vector of a front row."""
    if mode == "2d":
        return (-row["j_flow"], row["j_poll"])
    return (-row["j_flow"], row["j_diff"], row["j_queue"])


def check_front(out_dir: Path, f: Facts, mode: str, delta: float, budget: int) -> list[str]:
    """Box, mutual nondominance, normalisation and budget of a written front."""
    fails: list[str] = []
    header, rows = read_front(out_dir / "front.csv")
    policy_cols = [f"v_{rid}" for rid in f.road_ids]
    norm_cols = ["j_flow_norm", "j_poll_norm"] if mode == "2d" else ["j_flow_norm", "j_diff_norm", "j_queue_norm"]
    if header != policy_cols + ["j_flow", "j_diff", "j_queue", "j_poll"] + norm_cols:
        return [f"front.csv: unexpected columns {header}"]
    if not rows:
        return ["front.csv: no rows"]

    for n, r in enumerate(rows):
        p = np.array([r[c] for c in policy_cols])
        if np.any(p < f.v_min) or np.any(p > f.v_max):
            fails.append(f"front.csv row {n}: policy outside the box")
        if not _close(r["j_poll"], r["j_diff"] + delta * r["j_queue"], OBJECTIVE_RTOL):
            fails.append(f"front.csv row {n}: j_poll is not j_diff + delta*j_queue")

    values = [front_objectives(r, mode) for r in rows]
    pairs = dominated_pairs(values)
    if pairs:
        i, j = pairs[0]
        fails.append(f"front.csv: row {i} dominates row {j} ({len(pairs)} dominated pairs)")

    diag = json.loads((out_dir / "diagnostics.json").read_text())
    ideal = [min(col) for col in zip(*values)]
    skip = set()
    if mode == "3d":
        normalized = abs(ideal[2]) >= 1e-12
        if diag.get("queue_axis_normalized") is not normalized:
            fails.append(f"diagnostics.json: queue_axis_normalized is not {normalized}")
        if not normalized:
            skip.add(2)
    for n, (r, val) in enumerate(zip(rows, values)):
        for axis, col in enumerate(norm_cols):
            want = val[axis] if axis in skip else val[axis] / ideal[axis]
            if not _close(r[col], want, NORM_RTOL):
                fails.append(f"front.csv row {n}: {col} {r[col]!r} is not value/ideal {want!r}")
    if diag.get("evaluations") != budget:
        fails.append(f"diagnostics.json: {diag.get('evaluations')} evaluations, budget {budget}")
    if diag.get("mode") != mode or diag.get("delta") != delta:
        fails.append(f"diagnostics.json: mode/delta {diag.get('mode')}/{diag.get('delta')}")
    return fails


def front_points(path: Path) -> list[tuple[float, float]]:
    """(-J_flow, J_poll) of every row of a front or objectives file."""
    _, rows = read_front(path)
    return [(-r["j_flow"], r["j_poll"]) for r in rows]
