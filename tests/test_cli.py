import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from delayed_sharing import cli, evaluate, instances, minimize, verify
from delayed_sharing.errors import DomainError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import ExtensionalDesign
from delayed_sharing.model import serialize_problem

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


def test_negative_seed_is_an_input_error():
    res = run_cli("simulate", "--problem", str(INSTANCES / "io.json"),
                  "--seed", "-1")
    assert res.returncode == 2
    assert "seed must be an integer >= 0" in res.stderr
    assert "Traceback" not in res.stderr


def test_episodes_over_the_budget_exit_3():
    """simulate is refused before it allocates a total per episode, which
    at 10**10 episodes would need 80 GB."""
    res = run_cli("simulate", "--problem", str(INSTANCES / "io.json"),
                  "--episodes", "10000000000")
    assert res.returncode == 3
    assert res.stderr.startswith("budget exceeded: simulate asked for "
                                 "10000000000 episodes")
    assert "Traceback" not in res.stderr


def test_verify_sizes_its_episodes_before_any_solve(monkeypatch, capsys):
    """verify makes simulate's episode checks first: an oversize
    --episodes exits 3 with simulate's message, and no graph is built."""
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before it sized its episodes")

    monkeypatch.setattr(verify, "reachable_graph", no_solve)
    code = cli.main(["verify", "--problem", str(INSTANCES / "i2.json"),
                     "--episodes", "10000000000"])
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == ("budget exceeded: simulate asked for "
                                       "10000000000 episodes (budget 100000000)\n")


def test_verify_checks_its_samples_before_any_solve(monkeypatch):
    """verify_instance makes concavity_probe's samples check first: no
    samples is a DomainError with the probe's message, and no graph is
    built."""
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before it checked its samples")

    monkeypatch.setattr(verify, "reachable_graph", no_solve)
    spec = instances.load("i2")
    with pytest.raises(DomainError, match="^samples must be >= 1, got 0$"):
        verify.verify_instance(spec, samples=0, episodes=100, seed=1)


@pytest.mark.parametrize("command, value", [("probe-concavity", "0"),
                                            ("verify", "-3"),
                                            ("verify", "two")])
def test_samples_below_one_is_an_input_error(command, value, capsys):
    """A probe with no samples checks nothing, so it may not report a pass."""
    code = cli.main([command, "--problem", str(INSTANCES / "io.json"),
                     "--samples", value])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"samples must be an integer >= 1, got '{value}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, option, value", [
    ("solve", "--max-nodes", "-5"),
    ("solve2", "--max-nodes", "0"),
    ("evaluate", "--max-nodes", "0"),
    ("simulate", "--max-nodes", "-1"),
    ("kurtaran", "--max-nodes", "0"),
    ("evaluate", "--max-paths", "-1"),
    ("evaluate", "--max-paths", "0"),
    ("oracle", "--max-designs", "0"),
    ("oracle", "--max-designs", "-2"),
    ("simulate", "--episodes", "0"),
    ("verify", "--episodes", "0"),
    ("verify", "--episodes", "many"),
])
def test_budget_below_one_is_an_input_error(command, option, value, capsys,
                                            monkeypatch):
    """A budget or episode count below one is rejected while the options are
    parsed (exit 2), before any solve, enumeration or check runs; before,
    the budgets exited 3 once the work reached them, and verify ran every
    other check first."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the options were checked")
    monkeypatch.setattr(cli, "_load_spec", no_work)
    code = cli.main([command, "--problem", str(INSTANCES / "io.json"),
                     option, value])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{option[2:]} must be an integer >= 1, got '{value}'" in err
    assert "Traceback" not in err


def _io_design(entry=1, last_row=(1, 1)):
    """A well-formed design for io.json (u = (2, 1)) with one entry and one
    row of its own."""
    return {"kind": "extensional", "K": 2, "T": 2, "n": 1,
            "tables": [[[[0, 1]], [[1, 0], [0, 0], [0, entry], list(last_row)]],
                       [[[0]], [[0], [0], [0], [0]]]]}


@pytest.mark.parametrize("design", [
    [_io_design()],
    {key: v for key, v in _io_design().items() if key != "tables"},
    {**_io_design(), "tables": _io_design()["tables"][:1]},
    _io_design(last_row=(1,)),
    _io_design(entry="a"),
    _io_design(entry=1e30),
    _io_design(entry=1.5),
    _io_design(entry=True),
    _io_design(entry=2),
    _io_design(entry=-1),
], ids=["top-level-list", "no-tables", "one-controller", "ragged-rows",
        "string-entry", "huge-float-entry", "float-entry", "boolean-entry",
        "action-too-large", "negative-action"])
def test_malformed_design_is_an_input_error(design, tmp_path, capsys, monkeypatch):
    """A design file is input: every malformed shape exits 2 before the
    design is evaluated.  Before, these exited 1 with a Python exception
    (AttributeError, KeyError, IndexError, ValueError, OverflowError), or
    read 1.5 and true as action 1 and exited 0."""
    good = ExtensionalDesign.from_json(instances.load("io"), _io_design(entry=1))
    assert good.act(0, 2, 1, (2,)) == 1

    def no_work(*args, **kwargs):
        raise AssertionError("the design was evaluated")
    monkeypatch.setattr(cli.evaluate, "exact_cost", no_work)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    code = cli.main(["evaluate", "--problem", str(INSTANCES / "io.json"),
                     "--design", str(path)])
    assert code == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("input error: design")
    assert "Traceback" not in err


def test_path_budget_exit_code(capsys):
    """i2's optimal design has 1,024 paths."""
    code = cli.main(["evaluate", "--problem", str(INSTANCES / "i2.json"),
                     "--max-paths", "100"])
    assert code == cli.EXIT_BUDGET
    assert "budget exceeded: path enumeration exceeded 100 paths" in capsys.readouterr().err


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


def test_oracle_max_designs_limits_designs(tmp_path):
    # 2,097,152 designs, 243 paths each
    path = tmp_path / "prob.json"
    path.write_text(serialize_problem(random_instance(1, 2, 2, 3, (3,), (2,),
                                                      seed=1)))
    res = run_cli("oracle", "--problem", str(path), "--max-designs", "1000")
    assert res.returncode == 3
    assert "design space holds 2097152 designs (budget 1000)" in res.stderr


def test_oracle_raised_max_designs_keeps_the_optimum():
    """io's 1,024 designs fit the default budget; a design limit far above
    it (its evaluation budget 32 paths times that) must not change the
    answer."""
    io = str(INSTANCES / "io.json")
    default = run_cli("oracle", "--problem", io)
    raised = run_cli("oracle", "--problem", io, "--max-designs", "1000000000")
    assert default.returncode == raised.returncode == 0
    assert raised.stdout == default.stdout
    assert raised.stdout.startswith("optimal_cost -0.594236377773")


def test_behavior_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 1)
    assert cli.main(["solve", "--problem", str(INSTANCES / "io.json")]) == cli.EXIT_BUDGET
    assert "budget exceeded: branch table" in capsys.readouterr().err


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


def test_invalid_row_is_an_input_error(tmp_path):
    data = json.loads((INSTANCES / "io.json").read_text())
    data["trans"][0][0][0] = [0.9 * p for p in data["trans"][0][0][0]]
    bad = tmp_path / "short_row.json"
    bad.write_text(json.dumps(data))
    res = run_cli("solve", "--problem", str(bad))
    assert res.returncode == 2
    assert "input error: invalid problem: trans[" in res.stderr
    assert "row sums to" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_cost_is_an_input_error(value, tmp_path, capsys):
    """json writes and reads NaN and Infinity, so a non-finite cost gets
    past parsing; validation names the entry and solve exits 2."""
    data = json.loads((INSTANCES / "io.json").read_text())
    data["cost"][0][0][0] = value
    bad = tmp_path / "bad_cost.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["solve", "--problem", str(bad)]) == cli.EXIT_INPUT
    assert "cost[0][0][0]: cost must be finite" in capsys.readouterr().err


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


def test_verify_reports_a_failed_check(monkeypatch, capsys):
    """A simulate whose mean is off by 1.0 fails simulate.three_sigma and
    nothing else: the report is the passing one with that line and the
    verdict changed, and the verify command exits 1."""
    spec = instances.load("io")
    kwargs = dict(samples=2, episodes=2000, seed=7)
    passing = verify.verify_instance(spec, **kwargs)
    simulate = evaluate.simulate

    def off_by_one(*args):
        res = simulate(*args)
        return dataclasses.replace(res, mean=res.mean + 1.0)

    monkeypatch.setattr(evaluate, "simulate", off_by_one)
    failing = verify.verify_instance(spec, **kwargs)
    assert passing.passed and not failing.passed
    want, got = passing.report().splitlines(), failing.report().splitlines()
    diff = [i for i, (a, b) in enumerate(zip(want, got)) if a != b]
    assert len(got) == len(want) and len(diff) == 2
    assert want[diff[0]].startswith("[ok] simulate.three_sigma: ")
    assert got[diff[0]].startswith("[FAIL] simulate.three_sigma: ")
    assert (want[diff[1]], got[diff[1]]) == ("verdict: PASS", "verdict: FAIL")
    assert diff[1] == len(got) - 1
    assert cli.main(["verify", "--problem", str(INSTANCES / "io.json"),
                     "--samples", "2", "--episodes", "2000", "--seed", "7"]
                    ) == cli.EXIT_CHECK_FAILED
    assert capsys.readouterr().out == failing.report() + "\n"


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


# The options each subcommand reads besides --problem and --out; every other
# option is refused as an input error rather than silently ignored.
READS = {
    "solve": ("--max-nodes", "--emit-design"),
    "solve2": ("--max-nodes", "--emit-design"),
    "evaluate": ("--design", "--max-nodes", "--max-paths"),
    "simulate": ("--design", "--max-nodes", "--episodes", "--seed"),
    "oracle": ("--max-designs",),
    "verify": ("--samples", "--episodes", "--seed"),
    "kurtaran": ("--design", "--max-nodes", "--seed"),
    "probe-concavity": ("--samples", "--seed"),
}
OPTIONS = ("--seed", "--episodes", "--samples", "--max-nodes", "--max-designs",
           "--max-paths", "--design", "--emit-design")


@pytest.mark.parametrize("command,option", [
    (command, option) for command, reads in READS.items()
    for option in OPTIONS if option not in reads])
def test_subcommand_refuses_options_it_does_not_read(command, option, capsys):
    code = cli.main([command, "--problem", str(INSTANCES / "io.json"), option, "1"])
    assert code == cli.EXIT_INPUT
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", READS)
def test_subcommand_parses_the_options_it_reads(command):
    argv = [command, "--problem", "p.json", "--out", "o"]
    for option in READS[command]:
        argv += [option, "1"]
    args = cli.build_parser().parse_args(argv)
    for option in READS[command]:
        assert getattr(args, option[2:].replace("-", "_")) in (1, "1")
