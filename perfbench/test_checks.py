"""The output checks accept real outputs and reject corrupted copies of them.

    python3 -m pytest perfbench/test_checks.py -q

Each corruption test starts from a copy of outputs ``tramopt`` wrote a
moment earlier, damages one file the way a bug might, and asserts that the
matching check reports it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIAMOND = ROOT / "scenarios" / "diamond.json"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tramopt.cli import main as cli_main  # noqa: E402

POLICY = [1.0, 1.5, 0.5, 2.0, 1.0, 2.0]
BUDGET = 40


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0


@pytest.fixture(scope="module")
def facts():
    return checks.Facts(json.loads(DIAMOND.read_text()))


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    base = tmp_path_factory.mktemp("outputs")
    cache = str(base / "cache")
    _run(["simulate", "--scenario", str(DIAMOND), "--out", str(base / "sim"),
          "--policy", ",".join(map(str, POLICY)), "--cache-dir", cache])
    _run(["optimize", "--scenario", str(DIAMOND), "--out", str(base / "opt"),
          "--budget", str(BUDGET), "--seed", "3", "--cache-dir", cache])
    return base


@pytest.fixture
def sim(written, tmp_path):
    return Path(shutil.copytree(written / "sim", tmp_path / "sim"))


@pytest.fixture
def opt(written, tmp_path):
    return Path(shutil.copytree(written / "opt", tmp_path / "opt"))


def test_simulate_outputs_pass(sim, facts):
    assert checks.check_simulate(sim, facts, POLICY, 0.0) == []


def test_changed_density_fails(sim, facts):
    path = sim / "trajectory.csv"
    lines = path.read_text().splitlines()
    n = len(lines) // 2
    t, road, cell, rho = lines[n].split(",")
    lines[n] = ",".join([t, road, cell, repr(float(rho) * 0.999)])
    path.write_text("\n".join(lines) + "\n")
    fails = checks.check_simulate(sim, facts, POLICY, 0.0)
    assert any("mass balance" in f for f in fails), fails
    assert any(f.startswith("j_flow") for f in fails), fails


def test_truncated_emission_fails(sim, facts):
    path = sim / "emission.bin"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 8])
    fails = checks.check_simulate(sim, facts, POLICY, 0.0)
    assert fails and "payload" in fails[0], fails


def test_scaled_emission_fails_forward_march(sim, facts):
    import numpy as np

    path = sim / "emission.bin"
    raw = path.read_bytes()
    field = np.frombuffer(raw, dtype="<f8", offset=checks.EMISSION_HEADER) * 1.1
    path.write_bytes(raw[: checks.EMISSION_HEADER] + field.astype("<f8").tobytes())
    fails = checks.check_simulate(sim, facts, POLICY, 0.0)
    assert any("forward march" in f for f in fails), fails


def test_front_passes(opt, facts):
    assert checks.check_front(opt, facts, "2d", 0.0, BUDGET) == []


def test_dominated_row_fails(opt, facts):
    path = opt / "front.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    # less flow and more pollution than row 0: dominated by it
    row["j_flow"] = repr(float(row["j_flow"]) * 0.9)
    row["j_diff"] = row["j_poll"] = repr(float(row["j_poll"]) * 1.1)
    lines.append(",".join(row[c] for c in header))
    path.write_text("\n".join(lines) + "\n")
    fails = checks.check_front(opt, facts, "2d", 0.0, BUDGET)
    assert any("dominates" in f for f in fails), fails


def test_wrong_budget_fails(opt, facts):
    assert any("evaluations" in f for f in checks.check_front(opt, facts, "2d", 0.0, BUDGET + 1))


def test_hypervolume_of_a_staircase():
    # two points and one they dominate: the union of two rectangles
    points = [(1.0, 3.0), (2.0, 1.0), (2.5, 3.5)]
    assert checks.hypervolume_2d(points, (4.0, 4.0)) == pytest.approx(3 * 1 + 2 * 2)
    assert checks.hypervolume_2d([(5.0, 1.0)], (4.0, 4.0)) == 0.0


def test_dominated_pairs():
    assert checks.dominated_pairs([(1, 1), (2, 2), (0, 3)]) == [(0, 1)]
    assert checks.dominated_pairs([(1, 2), (1, 2)]) == []
