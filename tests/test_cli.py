import json
import subprocess
import sys
from pathlib import Path

INSTANCES = Path(__file__).resolve().parents[1] / "src" / "delayed_sharing" / "instances"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "delayed_sharing.cli", *args],
        capture_output=True, text=True)


def test_solve_prints_cost_and_writes_solution(tmp_path):
    out = tmp_path / "sol.json"
    res = run_cli("solve", "--problem", str(INSTANCES / "i1.json"),
                  "--out", str(out))
    assert res.returncode == 0
    assert res.stdout.startswith("optimal_cost -1.32536689009")
    data = json.loads(out.read_text())
    assert data["kind"] == "belief_dp"
    assert data["node_count"] == 17
    assert len(data["stages"]) == 2


def test_solve_degenerate_single_state(tmp_path):
    # one state, one observation, two actions: the printed cost is the sum of
    # per-stage minima
    prob = {
        "K": 1, "T": 2, "n": 1, "x_size": 1, "y_size": [1], "u_size": [2],
        "x0_dist": [1.0],
        "trans": [[[[1.0], [1.0]]], [[[1.0], [1.0]]]],
        "obs": [[[[1.0]], [[1.0]]]],
        "cost": [[[4.0, 2.0]], [[7.0, 9.0]]],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    res = run_cli("solve", "--problem", str(path))
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "optimal_cost 9"


def test_solve_and_solve2_agree(tmp_path):
    a = run_cli("solve", "--problem", str(INSTANCES / "i2.json"))
    b = run_cli("solve2", "--problem", str(INSTANCES / "i2.json"))
    assert a.returncode == b.returncode == 0
    ca = float(a.stdout.splitlines()[0].split()[1])
    cb = float(b.stdout.splitlines()[0].split()[1])
    assert abs(ca - cb) <= 1e-9


def test_emitted_design_evaluates_to_cost(tmp_path):
    des = tmp_path / "des.json"
    res = run_cli("solve", "--problem", str(INSTANCES / "i1.json"),
                  "--emit-design", str(des))
    assert res.returncode == 0
    cost = res.stdout.splitlines()[0].split()[1]
    res2 = run_cli("evaluate", "--problem", str(INSTANCES / "i1.json"),
                   "--design", str(des))
    assert res2.returncode == 0
    assert res2.stdout.splitlines()[0] == f"expected_cost {cost}"


def test_simulate_deterministic_given_seed():
    args = ("simulate", "--problem", str(INSTANCES / "i1.json"),
            "--episodes", "500", "--seed", "9")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_oracle_on_io(tmp_path):
    out = tmp_path / "oracle.json"
    res = run_cli("oracle", "--problem", str(INSTANCES / "io.json"),
                  "--out", str(out))
    assert res.returncode == 0
    assert res.stdout.startswith("optimal_cost -0.594236377773")
    data = json.loads(out.read_text())
    assert data["design"]["kind"] == "extensional"


def test_oracle_budget_exit_code():
    res = run_cli("oracle", "--problem", str(INSTANCES / "i1.json"))
    assert res.returncode == 3


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    res = run_cli("solve", "--problem", str(bad))
    assert res.returncode == 2
    res2 = run_cli("solve", "--problem", str(tmp_path / "missing.json"))
    assert res2.returncode == 2


def test_boolean_size_exit_code(tmp_path):
    data = json.loads((INSTANCES / "io.json").read_text())
    data["n"] = True
    bad = tmp_path / "bool_n.json"
    bad.write_text(json.dumps(data))
    res = run_cli("solve", "--problem", str(bad))
    assert res.returncode == 2
    assert "n must be an integer" in res.stderr


def test_unknown_command_exit_code():
    res = run_cli("frobnicate", "--problem", "x")
    assert res.returncode == 2


def test_kurtaran_runs_on_i2():
    res = run_cli("kurtaran", "--problem", str(INSTANCES / "i2.json"),
                  "--seed", "4")
    assert res.returncode == 0
    assert "exhausted" in res.stdout or "WITNESS" in res.stdout


def test_probe_concavity_io():
    res = run_cli("probe-concavity", "--problem", str(INSTANCES / "io.json"),
                  "--samples", "5")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("passed True")


def test_verify_passes_and_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    args = ("verify", "--problem", str(INSTANCES / "io.json"),
            "--samples", "5", "--episodes", "2000", "--out")
    r1 = run_cli(*args, str(out1))
    r2 = run_cli(*args, str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.stdout.strip().endswith("verdict: PASS")


def test_outputs_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("solve", "--problem", str(INSTANCES / "io.json"), "--out", str(out1))
    r2 = run_cli("solve", "--problem", str(INSTANCES / "io.json"), "--out", str(out2))
    assert r1.stdout == r2.stdout
    assert out1.read_bytes() == out2.read_bytes()


def test_solve2_writes_theta_r_solution(tmp_path):
    from delayed_sharing import instances
    from delayed_sharing.second_form import reachable_graph2
    out = tmp_path / "sol2.json"
    res = run_cli("solve2", "--problem", str(INSTANCES / "ia.json"),
                  "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "theta_r_dp"
    assert data["node_count"] == reachable_graph2(instances.load("ia")).node_count
    for stage in data["stages"]:
        for node in stage["nodes"]:
            assert list(node) == ["id", "theta", "r", "J", "argmin_profile"]


def test_solve_node_keys(tmp_path):
    out = tmp_path / "sol.json"
    res = run_cli("solve", "--problem", str(INSTANCES / "i1.json"),
                  "--out", str(out))
    assert res.returncode == 0
    for stage in json.loads(out.read_text())["stages"]:
        for node in stage["nodes"]:
            assert list(node) == ["id", "belief", "J", "argmin_profile"]
