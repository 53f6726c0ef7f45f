import csv
import hashlib
import json

import numpy as np
import pytest

from tramopt.cli import main, read_emission_bin
from tramopt.network import ScenarioError, load_scenario
from tramopt.objectives import PolicyEvaluator
from tramopt.traffic import simulate_traffic


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def fast_scenario_path(tmp_path, diamond_path):
    """Diamond with a coarse grid/horizon so CLI runs stay quick."""
    doc = json.loads(diamond_path.read_text())
    doc["horizon"] = 1.0
    doc["discretization"]["n_time"] = 150
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_valid_scenario_exits_zero(self, diamond_path, capsys):
        assert run_cli("validate", "--scenario", str(diamond_path)) == 0
        out = capsys.readouterr().out
        assert "CFL: pass" in out
        assert "0.008333" in out

    def test_cfl_violation_exits_one(self, tmp_path, diamond_path, capsys):
        doc = json.loads(diamond_path.read_text())
        doc["discretization"]["n_time"] = 500  # dt = 0.01 > bound
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(bad)) == 1
        assert "CFL" in capsys.readouterr().out

    def test_missing_file_exits_two(self):
        assert run_cli("validate", "--scenario", "/nonexistent/file.json") == 2

    def test_schema_violation_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"horizon\": 1.0}")
        assert run_cli("validate", "--scenario", str(path)) == 2

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda doc: doc["junctions"].__setitem__(0, 5), "junctions[0]: expected an object"),
            (lambda doc: doc["junctions"][0].__setitem__("in", 5), "junctions[0].in: expected a list"),
            (lambda doc: doc["access"][0].__setitem__("road", [1]), "access[0]: references unknown road [1]"),
            (lambda doc: doc.__setitem__("horizon", float("nan")), "horizon: expected a finite number"),
            (lambda doc: doc["dispersion"].__setitem__("mu", float("inf")), "dispersion.mu: expected a finite number"),
            (lambda doc: doc["domain"].__setitem__("n_grid", True), "domain.n_grid: must be a positive integer"),
        ],
        ids=["junction-not-object", "in-not-list", "access-road-list", "horizon-nan", "mu-infinity", "n-grid-true"],
    )
    def test_malformed_scenario_exits_two(self, tmp_path, diamond_path, capsys, damage, message):
        doc = json.loads(diamond_path.read_text())
        damage(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", "--scenario", str(path)) == 2
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("damage", ["truncate", "npz"])
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
        (cached,) = cache.glob("adjoint-*.npy")
        if damage == "truncate":
            with open(cached, "r+b") as fh:
                fh.truncate(1000)
        else:
            with open(cached, "wb") as fh:
                np.savez(fh, adjoint=np.zeros((151, 61, 61)))
        assert vector() == cold
        assert cold[0] == 0
        assert np.load(cached).shape == (151, 61, 61)

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

        adjoint = np.load(next(out.glob("adjoint-*.npy")))
        ev = PolicyEvaluator(scenario, adjoint=adjoint)
        assert list(ev.vector(policy)) == printed_vec

    def test_emission_binary_round_trip(self, fast_scenario_path, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        field = read_emission_bin(out / "emission.bin")
        scenario = load_scenario(fast_scenario_path.read_text())
        assert field.shape == (scenario.n_time + 1, 61, 61)
        assert np.all(field >= 0.0)

    @pytest.mark.parametrize("keep", [10, -8], ids=["short-header", "short-payload"])
    def test_truncated_emission_binary_rejected(self, fast_scenario_path, tmp_path, keep):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        path = out / "emission.bin"
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ScenarioError, match="truncated header" if keep > 0 else "payload of"):
            read_emission_bin(path)

    def test_manifest_hash_matches_input(self, fast_scenario_path, tmp_path):
        out = tmp_path / "sim"
        run_cli(
            "simulate", "--scenario", str(fast_scenario_path),
            "--policy", "1,1,1,1,1,1", "--out", str(out),
        )
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256(fast_scenario_path.read_bytes()).hexdigest()
        assert manifest["scenario_sha256"] == digest


class TestOptimize:
    def test_front_files_written(self, fast_scenario_path, tmp_path):
        out = tmp_path / "opt"
        code = run_cli(
            "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
            "--budget", "60", "--seed", "3",
        )
        assert code == 0
        front = list(csv.DictReader(open(out / "front.csv")))
        assert front
        for col in ("v_1", "v_6", "j_flow", "j_diff", "j_queue", "j_poll",
                    "j_flow_norm", "j_poll_norm"):
            assert col in front[0]
        ranges = list(csv.DictReader(open(out / "speed_limit_ranges.csv")))
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

    def test_two_jobs_write_the_same_front(self, fast_scenario_path, tmp_path):
        fronts = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            code = run_cli(
                "optimize", "--scenario", str(fast_scenario_path), "--out", str(out),
                "--budget", "60", "--seed", "11", "--jobs", jobs,
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
        front = list(csv.DictReader(open(out / "front.csv")))
        assert "j_queue_norm" in front[0]

    def test_bad_budget_rejected(self, fast_scenario_path, tmp_path):
        code = run_cli(
            "optimize", "--scenario", str(fast_scenario_path),
            "--out", str(tmp_path / "x"), "--budget", "0",
        )
        assert code == 1

    def test_adjoint_cache_reused(self, fast_scenario_path, tmp_path):
        cache = tmp_path / "cache"
        for name in ("a", "b"):
            run_cli(
                "optimize", "--scenario", str(fast_scenario_path),
                "--out", str(tmp_path / name), "--budget", "30",
                "--cache-dir", str(cache),
            )
        assert len(list(cache.glob("adjoint-*.npy"))) == 1


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
        rows = list(csv.DictReader(open(out / "front_diff-queue.csv")))
        assert rows and set(rows[0]) == {"j_diff", "j_queue"}

    def test_flow_poll_recomputes_delta(self, front_dir, tmp_path):
        out = tmp_path / "exp"
        run_cli(
            "export", "--front", str(front_dir / "front.csv"),
            "--coords", "flow-poll", "--delta", "0.5", "--out", str(out),
        )
        original = list(csv.DictReader(open(front_dir / "front.csv")))
        exported = list(csv.DictReader(open(out / "front_flow-poll.csv")))
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
        rows = list(csv.DictReader(open(out / "front_flow-poll.csv")))
        assert rows == []

    def test_missing_columns_exit_two(self, tmp_path):
        broken = tmp_path / "broken.csv"
        broken.write_text("a,b\n1,2\n")
        code = run_cli(
            "export", "--front", str(broken), "--coords", "diff-queue",
            "--out", str(tmp_path / "exp"),
        )
        assert code == 2
