import contextlib
import copy
import csv
import functools
import hashlib
import importlib.util
import io
import json
import operator
import os
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scenarios import diamond_doc, road, scenario_doc, write_doc

from tramopt import cli, objectives
from tramopt.cli import main
from tramopt.network import PolicyError, load_scenario
from tramopt.objectives import PolicyEvaluator
from tramopt.traffic import simulate_traffic


def run_cli(*argv):
    return main(list(argv))


def _command_argv(command, scenario, out):
    """The arguments of ``command`` run on the scenario file ``scenario``,
    writing into ``out``."""
    return {
        "validate": ["validate"],
        "simulate": ["simulate", "--policy=1,1,1,1,1,1", "--out", str(out)],
        "optimize": ["optimize", "--budget", "10", "--out", str(out)],
    }[command] + ["--scenario", str(scenario)]


#: the diamond with a coarse grid/horizon, so CLI runs stay quick
FAST = dict(horizon=1.0, discretization={"n_time": 150})


@pytest.fixture()
def fast_scenario_path(tmp_path):
    return write_doc(tmp_path / "fast.json", diamond_doc(**FAST))


def _csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer writes for the rows, each float as its repr."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


def _run_recording_warnings(*argv):
    """``run_cli`` with every warning raised in this process recorded, not shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, [str(w.message) for w in caught]


_OVERFLOW_ERROR = "error: j_diff = inf is not finite: the scenario overflows the objectives\n"


def _overflowing_scenario(tmp_path) -> Path:
    """The diamond with theta = 1e308: it loads and validates, but the
    emission rates, and so J_diff, overflow to inf."""
    doc = diamond_doc(horizon=0.5, discretization={"n_time": 100}, emission={"theta": 1e308})
    return write_doc(tmp_path / "overflow.json", doc)


#: the contraction of the fast diamond: (n_time+1, roads, cells)
_FAST_PAIRING_SHAPE = (151, 6, 20)


def _written(out: Path) -> dict[str, bytes]:
    """The bytes of each file in ``out`` by name; the manifest's without its
    two time stamps."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files["manifest.json"])
    del manifest["started"], manifest["finished"]
    files["manifest.json"] = json.dumps(manifest).encode()
    return files


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _cache_bytes(level0, pairing: np.ndarray, shape=None) -> bytes:
    """An adjoint cache file as ``cli.cached_adjoint``'s docstring lays it
    out: magic, version 1 and ``shape`` (default the pairing's) as uint32 LE,
    ``level0`` and the pairing, and the CRC-32 of all the bytes before it."""
    shape = pairing.shape if shape is None else shape
    body = b"TRMA" + np.array([1, *shape], dtype="<u4").tobytes() + np.append(level0, pairing).tobytes()
    return body + zlib.crc32(body).to_bytes(4, "little")


def _decoded(path: Path) -> dict[str, np.ndarray]:
    """The values of an adjoint cache file, shaped by its header."""
    data = path.read_bytes()
    shape = tuple(int(n) for n in np.frombuffer(data, dtype="<u4", count=3, offset=8))
    values = np.frombuffer(data[20:-4], dtype="<f8")
    return {"level0": values[0], "pairing": values[1:].reshape(shape)}


def _emission_field(path: Path, n_grid: int, n_time: int) -> np.ndarray:
    """The field in a ``simulate`` emission.bin, after checking its layout:
    exactly the 16 bytes magic ``TRMO``, then version 1, ``n_grid`` and
    ``n_time`` as uint32 LE, then (n_time+1)(n_grid+1)^2 float64 LE values."""
    data = path.read_bytes()
    shape = (n_time + 1, n_grid + 1, n_grid + 1)
    assert data[:16] == b"TRMO" + np.array([1, n_grid, n_time], dtype="<u4").tobytes()
    assert len(data) == 16 + 8 * (n_time + 1) * (n_grid + 1) ** 2
    return np.frombuffer(data, dtype="<f8", offset=16).reshape(shape)


def _cut(size):
    """Damage: keep the first ``size(length)`` bytes of the file."""
    def damage(path):
        data = path.read_bytes()
        path.write_bytes(data[:size(len(data))])
    return damage


def _flip(offset: int, bit: int):
    """Damage: flip one bit of the byte at ``offset``."""
    def damage(path):
        data = bytearray(path.read_bytes())
        data[offset] ^= 1 << bit
        path.write_bytes(bytes(data))
    return damage


def _recoded(edit):
    """Damage: the file written again, with its CRC, after ``edit`` changed
    its values."""
    def damage(path):
        values = _decoded(path)
        edit(values)
        path.write_bytes(_cache_bytes(values["level0"], values["pairing"]))
    return damage


def _nan_entry(values):
    values["pairing"] = values["pairing"].copy()
    values["pairing"][7, 2, 3] = np.nan


def _npz(path):
    """Damage: the earlier cache format, an npz of the two arrays, at the new name."""
    values = _decoded(path)
    with open(path, "wb") as fh:
        np.savez(fh, **values)


def _old_npz(path):
    """Not damage: the earlier cache file of the same key, next to it, with
    values that would change the objectives if it were read."""
    np.savez(path.with_suffix(".npz"), pairing=np.zeros(_FAST_PAIRING_SHAPE), level0=np.float64(0))


def _old_npy(path):
    """Not damage: the whole-history cache file of earlier versions, next to it."""
    np.save(path.with_suffix(".npy"), np.zeros((151, 61, 61)))


_CACHE_DAMAGE = {
    "truncate": _cut(lambda n: 1000),
    "truncate-header": _cut(lambda n: 10),
    "truncate-end": _cut(lambda n: n - 10),
    "npz": _npz,
    # the pairing read as (151, 20, 6): the same size, finite values, a sound CRC
    "shape": _recoded(lambda v: v.update(pairing=v["pairing"].reshape(151, 20, 6))),
    "dtype": _recoded(lambda v: v.update(level0=np.float32(v["level0"]),
                                         pairing=v["pairing"].astype(np.float32))),
    "nan": _recoded(_nan_entry),
    # the header's road count, 6 made 7
    "header-bit": _flip(12, 0),
    # the lowest mantissa bit of the pairing's [7, 2, 3]: still finite, so only the CRC fails
    "payload-bit": _flip(20 + 8 * (1 + int(np.ravel_multi_index((7, 2, 3), _FAST_PAIRING_SHAPE))), 0),
    # a header whose shape, 2**32 - 1 rows of 6 x 20 doubles (4 TiB), the
    # reader must refuse before allocating it
    "huge-shape": lambda path: path.write_bytes(_cache_bytes(0.0, np.zeros(120), shape=(2**32 - 1, 6, 20))),
    "old-npy": _old_npy,
    "old-npz": _old_npz,
}


class TestValidate:
    def test_valid_scenario_exits_zero(self, diamond_path, capsys):
        assert run_cli("validate", "--scenario", str(diamond_path)) == 0
        out = capsys.readouterr().out
        assert "CFL: pass" in out
        assert "0.008333" in out

    def test_cfl_violation_exits_one(self, tmp_path, capsys):
        bad = write_doc(tmp_path / "bad.json", diamond_doc(discretization={"n_time": 500}))  # dt = 0.01 > bound
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert "CFL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("command", "cache"),
        [("simulate", False), ("optimize", False), ("simulate", True), ("optimize", True)],
        ids=["simulate", "optimize", "simulate-cache-dir", "optimize-cache-dir"],
    )
    def test_adjoint_cfl_violation_exits_one(self, tmp_path, capsys, command, cache):
        # the commands run the adjoint march's CFL gate: one error line, no
        # traceback, and neither the output nor the cache directory is made
        bad = write_doc(tmp_path / "bad.json", diamond_doc(discretization={"n_time": 500}))  # dt = 0.01 > bound
        out, cache_dir = tmp_path / "out", tmp_path / "cache"
        extra = ["--cache-dir", str(cache_dir)] if cache else []
        assert run_cli(*_command_argv(command, bad, out), *extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: adjoint CFL violated: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists() and not cache_dir.exists()

    def test_missing_file_exits_two(self):
        assert run_cli("validate", "--scenario", "/nonexistent/file.json") == 2

    def test_schema_violation_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"horizon\": 1.0}")
        assert run_cli("validate", "--scenario", str(path)) == 2

    def test_work_past_ceiling_exits_two(self, tmp_path, capsys):
        # every v_max at 1e6 needs 166,390 substeps per output step
        doc = diamond_doc(lambda doc: [r.update(v_max=1e6) for r in doc["roads"]])
        path = write_doc(tmp_path / "fast_roads.json", doc)
        assert run_cli("validate", "--scenario", str(path)) == 2
        assert "cell updates per policy" in capsys.readouterr().err
        policy = ",".join(["1e6"] * 6)
        assert run_cli("simulate", "--scenario", str(path), f"--policy={policy}", "--out", str(tmp_path / "sim")) == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(
                roads=doc["roads"][:1], junctions=[], exits=[1], domain={"side": 3, "n_grid": 1},
                discretization={"n_cells": 1, "n_time": 10**8}), "kernel steps per policy"),
            (lambda doc: doc.update(discretization={"n_cells": 3000, "n_time": 50000}),
             "density history"),
        ],
        ids=["one-cell-n-time-1e8", "history-7.2-gb"],
    )
    def test_steps_or_history_past_ceiling_exit_two(self, tmp_path, capsys, change, message):
        # 10^8 kernel steps of one cell on one road; a 7.2 GB density history.
        # Neither is ever simulated: it would run for hours or allocate gigabytes.
        path = write_doc(tmp_path / "big.json", diamond_doc(change))
        assert run_cli("validate", "--scenario", str(path)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda doc: doc.update(horizon=1e308), "horizon / n_time"),
            (lambda doc: doc["roads"][2].update(v_max=1e308), "v_max"),
            (lambda doc: doc["domain"].update(side=1e308), "domain.side"),
            (lambda doc: doc["roads"][3].update(width=1e308), "roads[3]: start, end and width"),
            (lambda doc: doc["domain"].update(side=1e-308), "domain.side"),
            (lambda doc: doc["domain"].update(side=5e-324), "domain.side"),
            (lambda doc: doc.update(roads=[dict(doc["roads"][0], start=[1e308, 1.5], end=[1e308, 2.5])],
                                    junctions=[], exits=[1]), "roads[0]: start, end and width"),
            (lambda doc: doc.update(roads=[dict(doc["roads"][0], start=[-1e308, 1.5], end=[1e308, 1.5])],
                                    junctions=[], exits=[1]), "roads[0]: start, end and width"),
        ],
        ids=["horizon-1e308", "v-max-1e308", "side-1e308", "width-1e308", "side-1e-308", "side-5e-324",
             "road-at-x-1e308", "road-across-2e308"],
    )
    def test_numbers_past_the_float_range_exit_two(self, tmp_path, capsys, change, message):
        # each one overflows or underflows a derived number (a work count, the
        # area, h**2, a road's length or its box in grid units); all are
        # rejected at load, so nothing is allocated
        doc = diamond_doc(change)
        path = write_doc(tmp_path / "extreme.json", doc)
        policy = ",".join(["1"] * len(doc["roads"]))
        for argv in (["validate"], ["simulate", f"--policy={policy}", "--out", str(tmp_path / "sim")]):
            assert run_cli(*argv, "--scenario", str(path)) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and message in captured.err
            assert "Traceback" not in captured.err + captured.out

    def test_capacity_past_the_float_range_exits_two(self, tmp_path, capsys):
        # v_max * rho_max = 2 * 1e308 is inf: the road's capacity overflows
        # at v = 2, so the scenario is rejected at load, before any warning
        path = write_doc(tmp_path / "capacity.json", diamond_doc(lambda doc: doc["roads"][2].update(rho_max=1e308)))
        for argv in (["validate"], ["simulate", "--policy=1,1,2,1,1,1", "--out", str(tmp_path / "sim")]):
            code, caught = _run_recording_warnings(*argv, "--scenario", str(path))
            assert code == 2 and caught == []
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: roads[2]: road 3's v_max * rho_max = 2.0 * 1e+308 is past the float range"
            ]
            assert captured.out == ""

    def test_integer_past_the_digit_limit_exits_two(self, tmp_path, diamond_path, capsys):
        # json cannot turn a 5,000-digit literal into an int
        path = tmp_path / "digits.json"
        path.write_text(diamond_path.read_text().replace('"n_time": 601', '"n_time": ' + "1" * 5000))
        assert run_cli("validate", "--scenario", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: parse error: Exceeds the limit")

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc["junctions"].__setitem__(0, 5), "junctions[0]: expected an object"),
            (lambda doc: doc["junctions"][0].__setitem__("in", 5), "junctions[0].in: expected a list"),
            (lambda doc: doc["access"][0].__setitem__("road", [1]), "access[0]: references unknown road [1]"),
            (lambda doc: doc.__setitem__("horizon", float("nan")), "horizon: expected a finite number"),
            (lambda doc: doc["dispersion"].__setitem__("mu", float("inf")), "dispersion.mu: expected a finite number"),
            (lambda doc: doc["domain"].__setitem__("n_grid", True), "domain.n_grid: must be a positive integer"),
            (lambda doc: doc["roads"][0].__setitem__("width", "wide"), "roads[0].width: expected a number, got 'wide'"),
            (lambda doc: doc["roads"][0].__setitem__("rho_max", True), "roads[0].rho_max: expected a number, got True"),
            (lambda doc: [doc], "scenario: top level must be an object"),
            (lambda doc: doc.__setitem__("roads", []), "roads: expected a non-empty list"),
            (lambda doc: doc["roads"][1].__setitem__("id", 1), "roads: duplicate road ids"),
            (lambda doc: doc["roads"][0].__setitem__("id", 1.0), "roads[0]: id must be an integer"),
            (lambda doc: doc["roads"][0].__setitem__("start", [2.78]), "roads[0].start: expected [x, y]"),
            (lambda doc: doc["roads"][0].__setitem__("v_min", 3), "roads[0]: v_min 3.0 exceeds v_max 2.0"),
            (lambda doc: doc["roads"][0].__setitem__("rho0", "0.3"), "roads[0].rho0: expected a number or a list"),
            (lambda doc: doc["roads"][0].__setitem__("end", [2.78, 1.5]), "roads[0]: zero-length road"),
            (lambda doc: doc["junctions"][0].__setitem__("kind", "3to1"), "junctions[0]: kind must be one of"),
            (lambda doc: doc["junctions"][0].__setitem__("kind", "1to1"),
             "junctions[0]: kind 1to1 needs 1 incoming and 1 outgoing roads, got 1/2"),
            (lambda doc: doc["objectives"].__setitem__("mode", "4d"), "objectives.mode: must be one of"),
        ],
        ids=["junction-not-object", "in-not-list", "access-road-list", "horizon-nan", "mu-infinity", "n-grid-true",
             "width-string", "rho-max-true",
             "top-level-list", "no-roads", "duplicate-id", "float-id", "start-one-number", "v-min-above-v-max",
             "rho0-string", "zero-length", "unknown-kind", "kind-arity", "unknown-mode"],
    )
    def test_malformed_scenario_exits_two(self, tmp_path, capsys, damage, message):
        doc = diamond_doc()
        replaced = damage(doc)  # a damage that builds a new document returns it
        path = write_doc(tmp_path / "bad.json", doc if replaced is None else replaced)
        assert run_cli("validate", "--scenario", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "damage, code, line",
        [
            (lambda doc: doc.__setitem__("access", []), 1, "road 1 tail attached to nothing (flux 0 assumed)"),
            # a road end attached twice is no finding but a load error
            (lambda doc: doc["access"].append({"road": 2, "inflow": 0.1}), 2,
             "error: road 2 tail attached twice: junction 0, access boundary"),
            (lambda doc: doc["exits"].append(5), 2, "error: road 5 head attached twice: junction 3, exit"),
        ],
        ids=["tail-free", "tail-twice", "head-twice"],
    )
    def test_graph_finding_exits_one(self, tmp_path, capsys, damage, code, line):
        path = write_doc(tmp_path / "graph.json", diamond_doc(damage))
        assert run_cli("validate", "--scenario", str(path)) == code
        captured = capsys.readouterr()
        assert (captured.out if code == 1 else captured.err).splitlines()[0] == line

    @pytest.mark.parametrize("command", ["validate", "simulate", "optimize"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc["exits"].append(6), "road 6 head attached twice: exit, exit"),
            (lambda doc: doc["exits"].append(1), "road 1 head attached twice: junction 0, exit"),
            (lambda doc: doc["junctions"].append(doc["junctions"][1]),
             "road 5 tail attached twice: junction 1, junction 4"),
            (lambda doc: doc["junctions"].append({"kind": "1to1", "in": [6], "out": [4]}),
             "road 4 tail attached twice: junction 2, junction 4"),
        ],
        ids=["exit-twice", "access-road-as-exit", "junction-twice", "1to1-onto-a-fed-road"],
    )
    def test_road_end_attached_twice_exits_two(self, tmp_path, capsys, command, damage, message):
        # the kernel would let one of the two links win, so every command
        # refuses the scenario at load
        path = write_doc(tmp_path / "twice.json", diamond_doc(damage))
        assert run_cli(*_command_argv(command, path, tmp_path / "out")) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "simulate", "optimize"])
    def test_scenario_not_utf8_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{")  # a UTF-16 byte-order mark, then "{"
        assert run_cli(*_command_argv(command, path, tmp_path / "out")) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {path}: not UTF-8 text: ")
        assert captured.out == ""


class TestSimulate:
    def test_writes_outputs_and_prints_vector(self, fast_scenario_path, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        assert code == 0
        for name in ("trajectory.csv", "queues.csv", "flows.csv",
                     "emission.bin", "objectives.csv", "manifest.json"):
            assert (out / name).exists(), name
        printed = capsys.readouterr().out
        assert "objective_vector=" in printed
        assert "J_flow=" in printed

    def test_infeasible_policy_names_bound(self, fast_scenario_path, tmp_path, capsys):
        code = run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "3,1,1,1,1,1", "--out", str(tmp_path / "x"),
        )
        assert code == 1
        assert "V_1 = 3.0 exceeds upper bound 2" in capsys.readouterr().err

    def test_unparsable_policy_exits_one(self, fast_scenario_path, tmp_path, capsys):
        code = run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,x,1,1,1", "--out", str(tmp_path / "x"),
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: cannot parse policy '1,1,x,1,1,1'")
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("policy", ["nan,1,1,1,1,1", "1,1,inf,1,1,1", "1,1,1,1,1,-inf"])
    def test_non_finite_policy_exits_one(self, fast_scenario_path, tmp_path, capsys, policy):
        code = run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            f"--policy={policy}", "--out", str(tmp_path / "x"),
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: V_") and "is not a finite number" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("damage", list(_CACHE_DAMAGE))
    def test_damaged_adjoint_cache_recomputed(self, fast_scenario_path, tmp_path, capsys, damage):
        cache = tmp_path / "cache"

        def vector():
            code = run_cli(
                "simulate", "--scenario", str(fast_scenario_path), "--policy",
                "1.5,0.5,1,1,0.75,2", "--out", str(tmp_path / "sim"), "--cache-dir", str(cache),
            )
            lines = capsys.readouterr().out.splitlines()
            return code, [l for l in lines if l.startswith("objective_vector=")]

        cold = vector()
        (cached,) = cache.glob("adjoint-*.bin")
        cold_bytes = cached.read_bytes()
        _CACHE_DAMAGE[damage](cached)
        left = {p.name: p.read_bytes() for p in cache.iterdir() if p != cached}
        assert vector() == cold
        assert cold[0] == 0
        # the contraction is written again, to the same bytes, and any other file is left alone
        assert cached.read_bytes() == cold_bytes
        assert {p.name: p.read_bytes() for p in cache.iterdir() if p != cached} == left
        assert _decoded(cached)["pairing"].shape == _FAST_PAIRING_SHAPE

    def test_adjoint_cache_layout(self, fast_scenario_path, tmp_path):
        # the file is the layout cached_adjoint's docstring states, and a hit
        # returns the contraction it holds
        scenario = load_scenario(fast_scenario_path.read_text())
        fresh = objectives.contract_adjoint(scenario)
        cold, path = cli.cached_adjoint(scenario, tmp_path)
        assert path.name == f"adjoint-{cli._adjoint_cache_key(scenario)}.bin"
        assert path.read_bytes() == _cache_bytes(fresh.level0, fresh.pairing)
        warm, _ = cli.cached_adjoint(scenario, tmp_path)
        for got in (cold, warm):
            assert got.pairing.tobytes() == fresh.pairing.tobytes() and got.pairing.shape == _FAST_PAIRING_SHAPE
            assert np.float64(got.level0).tobytes() == np.float64(fresh.level0).tobytes()

    def test_adjoint_cache_size_checked_before_and_after_the_read(self, fast_scenario_path, tmp_path, monkeypatch):
        # a file of another size is a miss and is never read; a file that
        # changes size between the size check and the read, to one whose
        # header and CRC are sound, is a miss too
        scenario = load_scenario(fast_scenario_path.read_text())
        fresh, path = cli.cached_adjoint(scenario, tmp_path)
        cold = path.read_bytes()
        read, reads = Path.read_bytes, []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(p) or read(p))
        path.write_bytes(cold + bytes(8))
        cli.cached_adjoint(scenario, tmp_path)
        assert path not in reads and read(path) == cold
        short = _cache_bytes(fresh.level0, fresh.pairing[:-1], shape=_FAST_PAIRING_SHAPE)
        monkeypatch.setattr(Path, "read_bytes", lambda p: short if p == path else read(p))
        again, _ = cli.cached_adjoint(scenario, tmp_path)
        assert again.pairing.tobytes() == fresh.pairing.tobytes() and read(path) == cold

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_manifest_outputs_are_in_out(self, fast_scenario_path, tmp_path, command):
        # the cache in --cache-dir is named by its own key, not among the outputs
        out, cache = tmp_path / "out", tmp_path / "cache"
        assert run_cli(*_command_argv(command, fast_scenario_path, out), "--cache-dir", str(cache)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] and all((out / name).is_file() for name in manifest["outputs"])
        assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        (cached,) = cache.iterdir()
        assert Path(manifest["adjoint_cache"]) == cached

    def test_damaged_adjoint_cache_unlinked_before_the_rename(self, fast_scenario_path, tmp_path, monkeypatch):
        # the new contraction is written under this process's temporary name,
        # and the damaged file is gone when that is renamed to it
        cache = tmp_path / "cache"
        argv = ["simulate", "--scenario", str(fast_scenario_path), "--policy", "1,1,1,1,1,1",
                "--out", str(tmp_path / "sim"), "--cache-dir", str(cache)]
        assert run_cli(*argv) == 0
        (cached,) = cache.glob("adjoint-*.bin")
        cold_bytes = cached.read_bytes()
        _CACHE_DAMAGE["truncate"](cached)
        renames = []
        replace = os.replace
        monkeypatch.setattr(cli.os, "replace", lambda src, dst: (
            renames.append((Path(src).name, Path(dst).name, Path(dst).exists())), replace(src, dst)))
        assert run_cli(*argv) == 0
        assert (f"{cached.name}.{os.getpid()}.tmp", cached.name, False) in renames
        assert cached.read_bytes() == cold_bytes

    @pytest.mark.parametrize("change, new_file", [
        (("roads", 5, "width", 0.12), True),
        (("roads", 5, "end", [0.62, 0.7]), True),  # road 6 turned about its start, length 1
        (("discretization", "n_cells", 10), True),
        (("access", 0, "inflow", 0.2), False),
        (("roads", 0, "v_min", 0.3), False),
    ], ids=["width", "endpoint", "n_cells", "inflow", "speed-bound"])
    def test_cache_key_covers_the_raster(self, fast_scenario_path, tmp_path, capsys, change, new_file):
        # the contraction depends on each road's ends and width and on n_cells,
        # not on the traffic inputs
        *keys, value = change
        doc = diamond_doc(**FAST)
        functools.reduce(operator.getitem, keys[:-1], doc)[keys[-1]] = value
        changed = write_doc(tmp_path / "changed.json", doc)
        cache = tmp_path / "cache"

        def vector(path, cache_dir):
            code = run_cli(
                "simulate", "--scenario", str(path), "--policy", "1.5,0.5,1,1,0.75,2",
                "--out", str(tmp_path / "sim"), "--cache-dir", str(cache_dir),
            )
            assert code == 0
            return [l for l in capsys.readouterr().out.splitlines() if l.startswith("objective_vector=")]

        vector(fast_scenario_path, cache)
        assert vector(changed, cache) == vector(changed, tmp_path / "cold")
        assert len(list(cache.glob("adjoint-*.bin"))) == (2 if new_file else 1)

    def test_cache_key_names_the_transport_step(self, fast_scenario_path, tmp_path):
        # a contraction marched by the term-by-term step differs from the
        # five-weight stencil's in its last bits, so its file is not read
        scenario = load_scenario(fast_scenario_path.read_text())
        term_by_term_payload = {
            "side": scenario.domain_side,
            "n_grid": scenario.n_grid,
            "mu": scenario.dispersion.mu,
            "kappa": scenario.dispersion.kappa,
            "wind": list(scenario.dispersion.wind),
            "horizon": scenario.horizon,
            "n_time": scenario.n_time,
            "n_cells": scenario.n_cells,
            "roads": [[list(r.tail), list(r.head), r.width] for r in scenario.roads],
        }
        old_key = hashlib.sha256(json.dumps(term_by_term_payload, sort_keys=True).encode()).hexdigest()[:16]
        assert old_key != cli._adjoint_cache_key(scenario)
        fresh, path = cli.cached_adjoint(scenario, tmp_path)
        old = tmp_path / f"adjoint-{old_key}.bin"
        path.rename(old)
        _recoded(lambda v: v.update(pairing=v["pairing"] * (1.0 + 2.0**-50)))(old)
        old_bytes = old.read_bytes()
        again, again_path = cli.cached_adjoint(scenario, tmp_path)
        assert again_path == path
        assert again.pairing.tobytes() == fresh.pairing.tobytes()
        assert old.read_bytes() == old_bytes

    def test_cold_cache_never_holds_the_adjoint_history(self, diamond, tmp_path):
        # the history would be (n_time+1)(n_grid+1)^2 doubles, 17.9 MB on the diamond
        history_bytes = (diamond.n_time + 1) * (diamond.n_grid + 1) ** 2 * 8
        tracemalloc.start()
        try:
            cli.cached_adjoint(diamond, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < history_bytes / 4

    def test_objectives_recomputable_from_csv_bitwise(
        self, fast_scenario_path, tmp_path, capsys
    ):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1.5,0.5,1,1,0.75,2", "--out", str(out),
        )
        printed = capsys.readouterr().out
        vector_line = [l for l in printed.splitlines() if l.startswith("objective_vector=")][0]
        printed_vec = [float(x) for x in vector_line.split("=")[1].split(",")]

        scenario = load_scenario(fast_scenario_path.read_text())
        policy = [1.5, 0.5, 1, 1, 0.75, 2]

        # reconstruct the density history from the trajectory CSV
        densities = np.zeros((scenario.n_time + 1, 6, scenario.n_cells))
        times = np.arange(scenario.n_time + 1) * scenario.dt
        idx = {r.id: e for e, r in enumerate(scenario.roads)}
        with open(out / "trajectory.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                k = int(round(float(row["t"]) / scenario.dt))
                densities[k, idx[int(row["road"])], int(row["cell"]) - 1] = float(row["rho"])
        traj = simulate_traffic(scenario, policy)
        assert np.array_equal(densities, traj.densities)  # CSV round-trips exactly

        (cached,) = out.glob("adjoint-*.bin")
        contraction, path = cli.cached_adjoint(scenario, out)
        assert path == cached
        ev = PolicyEvaluator(scenario, adjoint=contraction)
        assert list(ev.components(policy).vector(scenario.mode)) == printed_vec

    def test_series_files_are_the_csv_writers_bytes(self, fast_scenario_path, tmp_path):
        # v_1 = 0.5 caps road 1 below the access inflow, so a queue builds
        out = tmp_path / "sim"
        policy = [0.5, 1.5, 1, 1, 0.75, 2]
        assert run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", ",".join(map(str, policy)), "--out", str(out),
        ) == 0
        scenario = load_scenario(fast_scenario_path.read_text())
        traj = simulate_traffic(scenario, policy)
        assert traj.queues.max() > 0
        road_ids = [r.id for r in scenario.roads]
        t = [float(x) for x in traj.times]
        expected = {
            "trajectory.csv": _csv_writer_bytes(
                ["t", "road", "cell", "rho"],
                ((t[k], rid, n + 1, float(traj.densities[k, e, n]))
                 for k in range(len(t)) for e, rid in enumerate(road_ids)
                 for n in range(scenario.n_cells)),
            ),
            "queues.csv": _csv_writer_bytes(
                ["t", "road", "queue"],
                ((t[k], rid, float(traj.queues[k, slot]))
                 for k in range(len(t)) for slot, rid in enumerate(traj.access_roads)),
            ),
            "flows.csv": _csv_writer_bytes(
                ["t", "road", "end", "flux"],
                ((t[k + 1], rid, end, float(rec[k, e]))
                 for k in range(scenario.n_time) for e, rid in enumerate(road_ids)
                 for end, rec in (("in", traj.inflow), ("out", traj.outflow))),
            ),
        }
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, name

        # and they read back to the trajectory exactly
        idx = {r.id: e for e, r in enumerate(scenario.roads)}
        inflow, outflow = np.full_like(traj.inflow, np.nan), np.full_like(traj.outflow, np.nan)
        with open(out / "flows.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                k = t.index(float(row["t"])) - 1
                rec = inflow if row["end"] == "in" else outflow
                rec[k, idx[int(row["road"])]] = float(row["flux"])
        queues = np.full_like(traj.queues, np.nan)
        slot = {rid: i for i, rid in enumerate(traj.access_roads)}
        with open(out / "queues.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                queues[t.index(float(row["t"])), slot[int(row["road"])]] = float(row["queue"])
        assert np.array_equal(inflow, traj.inflow) and np.array_equal(outflow, traj.outflow)
        assert np.array_equal(queues, traj.queues)

    def test_write_series_is_the_csv_writers_bytes(self, tmp_path):
        times = np.array([0.0, 0.1 + 0.2])
        keys = ["1,in", "1,out", "2,in"]
        values = np.array([[-0.0, 5e-324, 1e-5], [1 / 3, 2.0, 1e16]])
        path = tmp_path / "series.csv"
        cli._write_series(path, ["t", "road", "end", "flux"], times, keys, values)
        rows = [
            (float(t), *key.split(","), float(v))
            for t, row in zip(times, values) for key, v in zip(keys, row)
        ]
        assert path.read_bytes() == _csv_writer_bytes(["t", "road", "end", "flux"], rows)

    def test_overflowing_objectives_exit_one(self, tmp_path, capfd):
        # the error line is the only report: no numpy overflow warning before it
        path = _overflowing_scenario(tmp_path)
        out = tmp_path / "sim"
        code, warned = _run_recording_warnings(
            "simulate", "--scenario", str(path), "--policy", "1,1,1,1,1,1", "--out", str(out))
        captured = capfd.readouterr()
        assert code == 1
        assert "error: j_diff = inf is not finite" in captured.err
        assert captured.err == _OVERFLOW_ERROR
        assert warned == []
        assert "Traceback" not in captured.err + captured.out
        assert "J_diff" not in captured.out
        assert not any((out / name).exists() for name in (
            "trajectory.csv", "queues.csv", "flows.csv", "emission.bin", "objectives.csv"))

    def test_road_covering_no_grid_point_simulates(self, tmp_path, capsys):
        # h = 0.5 and a width-0.1 road centred between two grid lines: no grid
        # point is covered, so the raster and the emission field are empty
        doc = scenario_doc([road(1, [0.75, 0.25], [1.75, 0.25], rho0=0.4)], n_grid=6, n_time=100, phi0=0,
                           access=[{"road": 1, "inflow": 0.25}], exits=[1])
        path = write_doc(tmp_path / "invisible.json", doc)
        out = tmp_path / "sim"
        assert run_cli("simulate", "--scenario", str(path), "--policy", "1", "--out", str(out)) == 0
        assert not np.any(_emission_field(out / "emission.bin", 6, 100))
        assert "J_diff=0.0\n" in capsys.readouterr().out

    def test_emission_binary_round_trip(self, fast_scenario_path, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        scenario = load_scenario(fast_scenario_path.read_text())
        field = _emission_field(out / "emission.bin", scenario.n_grid, scenario.n_time)
        assert np.all(field >= 0.0)

    def test_manifest_hash_matches_input(self, fast_scenario_path, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(fast_scenario_path.read_bytes()).hexdigest()
        assert manifest["scenario_sha256"] == digest

    def test_simulate_never_holds_the_emission_field(self, fast_scenario_path, tmp_path):
        # the field is (n_time+1)(n_grid+1)^2 doubles, 4.5 MB on the fast diamond
        scenario = load_scenario(fast_scenario_path.read_text())
        field_bytes = (scenario.n_time + 1) * (scenario.n_grid + 1) ** 2 * 8
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--scenario", str(fast_scenario_path),
                           "--policy", "1,1,1,1,1,1", "--out", str(tmp_path / "sim"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < field_bytes / 4

    def test_rewritten_outputs_equal_a_fresh_run(self, diamond_path, fast_scenario_path, tmp_path):
        # the diamond's files are larger than the fast diamond's, so a file
        # rewritten in place without truncation would keep a stale tail
        cache = ["--cache-dir", str(tmp_path / "cache")]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for scenario, out in ((diamond_path, reused), (fast_scenario_path, reused), (fast_scenario_path, fresh)):
            code = run_cli("simulate", "--scenario", str(scenario), "--policy", "1.5,0.5,1,1,0.75,2",
                           "--out", str(out), *cache)
            assert code == 0
        assert _written(reused) == _written(fresh)

    def test_output_name_taken_by_a_directory_exits_two(self, fast_scenario_path, tmp_path, capsys):
        out = tmp_path / "sim"
        (out / "emission.bin").mkdir(parents=True)
        code = run_cli("simulate", "--scenario", str(fast_scenario_path),
                       "--policy", "1,1,1,1,1,1", "--out", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "emission.bin" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_manifest_renamed_from_this_process_temp_file(self, fast_scenario_path, tmp_path, monkeypatch):
        # another process's temporary manifest in the same directory is left alone
        out = tmp_path / "sim"
        out.mkdir()
        other = out / f"manifest.json.{os.getpid() + 1}.tmp"
        other.write_text("half written")
        renamed = []
        replace = os.replace
        monkeypatch.setattr(cli.os, "replace", lambda src, dst: (renamed.append(Path(src).name), replace(src, dst)))
        for _ in range(2):
            code = run_cli("simulate", "--scenario", str(fast_scenario_path),
                           "--policy", "1,1,1,1,1,1", "--out", str(out))
            assert code == 0
        assert renamed.count(f"manifest.json.{os.getpid()}.tmp") == 2
        assert other.read_text() == "half written"
        assert json.loads((out / "manifest.json").read_text())["command"] == "simulate"
        assert sorted(p.name for p in out.glob("manifest.json*")) == sorted(["manifest.json", other.name])


class TestOptimize:
    def test_front_files_written(self, fast_scenario_path, tmp_path):
        out = tmp_path / "opt"
        code = run_cli(
            "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
            "--budget", "60", "--seed", "3",
        )
        assert code == 0
        front = _csv_rows(out / "front.csv")
        assert front
        for col in ("v_1", "v_6", "j_flow", "j_diff", "j_queue", "j_poll",
                    "j_flow_norm", "j_poll_norm"):
            assert col in front[0]
        ranges = _csv_rows(out / "speed_limit_ranges.csv")
        assert len(ranges) == 6
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["evaluations"] <= 60

    def test_same_seed_byte_identical_fronts(self, fast_scenario_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
                "--budget", "60", "--seed", "11",
            )
            outs.append((out / "front.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rewritten_outputs_equal_a_fresh_run(self, fast_scenario_path, tmp_path):
        # the budget-60 front has more rows than the budget-30 one
        cache = ["--cache-dir", str(tmp_path / "cache")]
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for budget, out in (("60", reused), ("30", reused), ("30", fresh)):
            code = run_cli("optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
                           "--budget", budget, "--seed", "11", *cache)
            assert code == 0
        assert _written(reused) == _written(fresh)

    def test_two_jobs_write_the_same_front(self, fast_scenario_path, tmp_path):
        # in the scenario's 2d mode, and in 3d with a queue weight
        for case, objectives in enumerate([[], ["--mode", "3d", "--delta", "0.5"]]):
            fronts = []
            for jobs in ("1", "2"):
                out = tmp_path / f"case{case}-jobs{jobs}"
                code = run_cli(
                    "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
                    "--budget", "60", "--seed", "11", "--jobs", jobs, *objectives,
                )
                assert code == 0
                fronts.append((out / "front.csv").read_bytes())
            assert fronts[0] == fronts[1]

    def test_three_objective_mode_columns(self, fast_scenario_path, tmp_path):
        out = tmp_path / "opt3"
        run_cli(
            "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
            "--budget", "60", "--mode", "3d", "--delta", "0.5",
        )
        front = _csv_rows(out / "front.csv")
        assert "j_queue_norm" in front[0]

    def test_queue_axis_normalized_when_every_policy_queues(self, fast_scenario_path, tmp_path):
        # access inflow 0.6 exceeds the capacity 0.5 at v_max 2, so every
        # policy builds a queue and the ideal queue value is not zero
        path = write_doc(tmp_path / "queued.json", diamond_doc(lambda doc: doc["access"][0].update(inflow=0.6), **FAST))
        out = tmp_path / "opt3"
        code = run_cli(
            "optimize", "--scenario", str(path), "--out", str(out),
            "--mode", "3d", "--delta", "0.5", "--budget", "40", "--seed", "0",
        )
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["queue_axis_normalized"] is True
        ideal_queue = diag["ideal"][2]
        assert ideal_queue > 0.0
        front = _csv_rows(out / "front.csv")
        assert front
        for row in front:
            assert float(row["j_queue_norm"]) == float(row["j_queue"]) / ideal_queue

    def test_bad_budget_rejected(self, fast_scenario_path, tmp_path):
        code = run_cli(
            "optimize", "--scenario", str(fast_scenario_path),
            "--out", str(tmp_path / "x"), "--budget", "0",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "arg", ["--delta=nan", "--delta=inf", "--delta=-inf", "--delta=-0.5", "--jobs=0", "--jobs=-2", "--seed=-1"]
    )
    def test_bad_search_argument_exits_one(self, fast_scenario_path, tmp_path, capsys, arg):
        out = tmp_path / "x"
        code = run_cli(
            "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
            "--budget", "30", arg,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (out / "front.csv").exists()

    @pytest.mark.parametrize("cpus, jobs", [(2, "3"), (None, "2")])
    def test_jobs_above_the_cpu_count_exits_one(self, fast_scenario_path, tmp_path, capsys, monkeypatch,
                                                cpus, jobs):
        # refused before the evaluator or the pool is made; an unknown CPU
        # count counts as one
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", None)
        out = tmp_path / "x"
        code = run_cli("optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
                       "--budget", "30", "--jobs", jobs)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: jobs ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_zero_ideal_exits_one(self, tmp_path, capsys):
        # no traffic at all: every policy scores J_flow = J_poll = 0, so the
        # front's ideal is zero on both normalized axes
        def empty(doc):
            for r in doc["roads"]:
                r["rho0"] = 0
            for access in doc["access"]:
                access["inflow"] = 0

        path = write_doc(tmp_path / "empty.json", diamond_doc(empty, **FAST))
        assert run_cli("validate", "--scenario", str(path)) == 0
        code = run_cli(
            "optimize", "--scenario", str(path), "--out", str(tmp_path / "opt"), "--budget", "30",
        )
        assert code == 1
        assert "error: " in capsys.readouterr().err

    def test_overflowing_score_raises_without_a_warning(self, tmp_path):
        # the tally's errstate covers every step of the march it scores
        scenario = load_scenario(_overflowing_scenario(tmp_path).read_text())
        evaluator = PolicyEvaluator(scenario)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(PolicyError, match="j_diff = inf is not finite"):
                evaluator.score([[1.0] * 6, [2.0] * 6, [0.5] * 6])
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_objectives_exit_one(self, tmp_path, capfd, jobs):
        # capfd sees the spawned workers' stderr too: it must hold the error line only
        path = _overflowing_scenario(tmp_path)
        out = tmp_path / "opt"
        code, warned = _run_recording_warnings(
            "optimize", "--scenario", str(path), "--out", str(out), "--budget", "20", "--jobs", jobs,
        )
        captured = capfd.readouterr()
        assert code == 1
        assert "error: j_diff = inf is not finite" in captured.err
        assert captured.err == _OVERFLOW_ERROR
        assert warned == []
        assert "Traceback" not in captured.err + captured.out
        assert not (out / "front.csv").exists()

    def test_adjoint_cache_reused(self, fast_scenario_path, tmp_path):
        # a hit's pairing, a read-only view of the file's bytes, scores as the
        # fresh contraction does, in process and pickled to two workers
        cache = tmp_path / "cache"
        fronts, inodes = [], []
        for name, jobs in (("cold", "1"), ("warm", "1"), ("warm-jobs2", "2")):
            code = run_cli(
                "optimize", "--scenario", str(fast_scenario_path),
                "--out", str(tmp_path / name), "--budget", "30",
                "--cache-dir", str(cache), "--jobs", jobs,
            )
            assert code == 0
            fronts.append((tmp_path / name / "front.csv").read_bytes())
            (cached,) = cache.iterdir()
            inodes.append(cached.stat().st_ino)
        assert cached.name.startswith("adjoint-") and cached.suffix == ".bin"
        assert fronts[1] == fronts[0] and fronts[2] == fronts[0]
        assert inodes[1] == inodes[0] and inodes[2] == inodes[0]  # read, not written again


class TestExport:
    @pytest.fixture()
    def front_dir(self, fast_scenario_path, tmp_path):
        out = tmp_path / "opt"
        run_cli(
            "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
            "--budget", "60", "--seed", "5",
        )
        return out

    def test_diff_queue_coordinates(self, front_dir, tmp_path):
        out = tmp_path / "exp"
        code = run_cli(
            "export", "--front", str(front_dir / "front.csv"),
            "--coords", "diff-queue", "--out", str(out),
        )
        assert code == 0
        rows = _csv_rows(out / "front_diff-queue.csv")
        assert rows and set(rows[0]) == {"j_diff", "j_queue"}

    def test_flow_poll_recomputes_delta(self, front_dir, tmp_path):
        out = tmp_path / "exp"
        run_cli(
            "export", "--front", str(front_dir / "front.csv"),
            "--coords", "flow-poll", "--delta", "0.5", "--out", str(out),
        )
        original = _csv_rows(front_dir / "front.csv")
        exported = _csv_rows(out / "front_flow-poll.csv")
        for orig, exp in zip(original, exported):
            expected = float(orig["j_diff"]) + 0.5 * float(orig["j_queue"])
            assert float(exp["j_poll"]) == pytest.approx(expected, abs=1e-15)

    def test_empty_front_exits_zero(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("v_1,j_flow,j_diff,j_queue,j_poll\n")
        out = tmp_path / "exp"
        code = run_cli(
            "export", "--front", str(empty), "--coords", "flow-poll",
            "--out", str(out),
        )
        assert code == 0
        rows = _csv_rows(out / "front_flow-poll.csv")
        assert rows == []

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "-0.5"])
    def test_non_finite_delta_exits_one(self, tmp_path, capsys, delta):
        front = tmp_path / "front.csv"
        front.write_text("v_1,j_flow,j_diff,j_queue,j_poll\n1.0,0.5,0.1,0.2,0.1\n")
        out = tmp_path / "exp"
        code = run_cli(
            "export", "--front", str(front), "--coords", "flow-poll",
            f"--delta={delta}", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta ") and err.count("\n") == 1
        assert not (out / "front_flow-poll.csv").exists()

    def test_overflowing_poll_exits_one(self, tmp_path, capsys):
        # finite columns whose j_diff + delta*j_queue leaves the float range
        front = tmp_path / "front.csv"
        front.write_text("v_1,j_flow,j_diff,j_queue,j_poll\n1.0,0.5,0.1,0.2,0.1\n1.0,0.5,1e308,1e308,1e308\n")
        out = tmp_path / "exp"
        code = run_cli(
            "export", "--front", str(front), "--coords", "flow-poll", "--delta", "1", "--out", str(out),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {front}: row 2: j_poll") and "inf" in err and err.count("\n") == 1
        assert not out.exists()

    def test_missing_columns_exit_two(self, tmp_path, capsys):
        cases = {
            "other-columns": ("a,b\n1,2\n", "diff-queue", "missing columns"),
            "zero-bytes": ("", "flow-poll", "no header line"),
        }
        for name, (text, coords, message) in cases.items():
            broken = tmp_path / f"{name}.csv"
            broken.write_text(text)
            out = tmp_path / f"exp-{name}"
            code = run_cli("export", "--front", str(broken), "--coords", coords, "--out", str(out))
            assert code == 2, name
            err = capsys.readouterr().err
            assert err.startswith(f"error: {broken}: {message}") and err.count("\n") == 1, name
            assert not out.exists(), name

    @pytest.mark.parametrize(
        "data, coords, message",
        [
            (b"1.0,0.5,0.1,abc,0.1\n", "flow-poll", "row 2, column j_queue: not a finite number: 'abc'"),
            (b"1.0,0.5,0.1\n", "diff-queue", "row 2, column j_queue: not a finite number: None"),
            (b"1.0,0.5,\xff\xfe,0.2,0.1\n", "diff-queue", "not a CSV file of UTF-8 text"),
            (b"1.0,inf,nan,0.2,0.1\n", "flow-poll", "row 2, column j_flow: not a finite number: 'inf'"),
        ],
        ids=["not-a-number", "short-row", "not-utf8", "non-finite"],
    )
    def test_malformed_front_exits_two(self, tmp_path, capsys, data, coords, message):
        front = tmp_path / "front.csv"
        front.write_bytes(b"v_1,j_flow,j_diff,j_queue,j_poll\n1.0,0.5,0.1,0.2,0.1\n" + data)
        out = tmp_path / "exp"
        assert run_cli("export", "--front", str(front), "--coords", coords, "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {front}: {message}") and captured.err.count("\n") == 1
        assert not out.exists()


def test_benchmark_tracer_sees_one_search(fast_scenario_path, tmp_path):
    """Under perfbench's layer tracer, with batch spans on, ``optimize`` and
    ``simulate`` still run, the search is timed once with its budget, and
    each command's cold adjoint cache counts as a miss."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", Path(__file__).parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(spans.layer_targets(cli, objectives), batches=True)
    scenario = str(fast_scenario_path)
    with tracer.installed():
        codes = [
            cli.main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "opt"), "--budget", "30"]),
            cli.main(["simulate", "--scenario", scenario, "--policy", "1,1,1,1,1,1", "--out", str(tmp_path / "sim")]),
        ]
    assert codes == [0, 0]
    assert [s.info["evaluations"] for s in tracer.named("moo.search")] == [30]
    metrics = spans.layer_metrics(tracer)
    assert metrics["cli.adjoint_cache_misses"] == (2, "count")
    assert metrics["cli.adjoint_cache_hits"] == (0, "count")


# ---------------------------------------------------------------------------
# fuzzing: mutated scenarios and policy strings through every command but
# export.  Integers stay within [-2, 24] and floats within [-4, 4], or are
# non-finite, or are one of the extremes 1e308, -1e308, 1e-308, 5e-324 and
# 10**9.  An extreme is rejected at load, by a work ceiling or by the checks
# on derived numbers, or leaves the grid at 25 points a side, so no example
# allocates more than a few hundred KB or steps more than a few thousand
# substeps.


_FUZZ_BASE = diamond_doc(horizon=0.5, domain={"n_grid": 24}, discretization={"n_cells": 4, "n_time": 25})
_NUMBERS = st.one_of(
    st.integers(-2, 24),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, 1e-300, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from([1e308, -1e308, 1e-308, 5e-324, 10**9]),
)
_VALUES = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.text(max_size=3), st.lists(_NUMBERS, max_size=3), st.just({}),
)
_POLICY_VALUES = st.one_of(
    st.lists(st.floats(0.25, 2.0), min_size=6, max_size=6),
    st.lists(
        st.one_of(st.floats(0.0, 3.0), st.sampled_from([float("nan"), float("inf")])),
        max_size=7,
    ),
)
_POLICY_TEXT = st.one_of(_POLICY_VALUES.map(lambda v: ",".join(map(repr, v))), st.text(max_size=8))


def _paths(node, prefix=()):
    """The path of every key and list item in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_scenarios(draw):
    """The small diamond, valid as it is, with up to three values removed or
    replaced, a number most often by another number."""
    doc = copy.deepcopy(_FUZZ_BASE)
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        owner = functools.reduce(operator.getitem, path[:-1], doc)
        old = owner[path[-1]]
        numeric = isinstance(old, (int, float)) and not isinstance(old, bool)
        if draw(st.integers(0, 3)) == 0:
            del owner[path[-1]]
        else:
            owner[path[-1]] = draw(_NUMBERS if numeric and draw(st.booleans()) else _VALUES)
    return doc


@given(doc=_mutated_scenarios(), policy=_POLICY_TEXT)
def test_mutated_inputs_end_in_an_exit_code(doc, policy):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = write_doc(tmp / "scenario.json", doc)
        runs = [
            ["validate", "--scenario", str(path)],
            ["simulate", "--scenario", str(path), f"--policy={policy}", "--out", str(tmp / "sim")],
            ["optimize", "--scenario", str(path), "--budget", "6", "--out", str(tmp / "opt")],
        ]
        for argv in runs:
            assert run_cli(*argv) in (0, 1, 2), argv


# raw bytes: the scenario file as any bytes at all, and as the small
# diamond's JSON text with a few bytes flipped, deleted or inserted.  Half
# the edits fall on a digit, where they most often leave valid JSON.

_FUZZ_TEXT = json.dumps(_FUZZ_BASE).encode()
_FUZZ_DIGITS = [i for i, c in enumerate(_FUZZ_TEXT) if chr(c).isdigit()]


@st.composite
def _mutated_text(draw):
    data = bytearray(_FUZZ_TEXT)
    for _ in range(draw(st.integers(1, 3))):
        at = min(draw(st.one_of(st.integers(0, len(data) - 1), st.sampled_from(_FUZZ_DIGITS))), len(data) - 1)
        edit = draw(st.sampled_from(["flip", "delete", "insert"]))
        if edit == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "delete":
            del data[at]
        else:
            data.insert(at, draw(st.integers(0, 255)))
    return bytes(data)


# 25 examples are nearly all rejected as they load; of 200, which take
# about 2 s, 5 to 15 load and run every command
@settings(max_examples=200)
@given(data=st.one_of(st.binary(max_size=64), _mutated_text()))
def test_raw_bytes_end_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_bytes(data)
        for command in ("validate", "simulate", "optimize"):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                code = run_cli(*_command_argv(command, path, Path(tmp) / command))
            assert code in (0, 1, 2) and "Traceback" not in printed.getvalue(), (command, printed.getvalue())
