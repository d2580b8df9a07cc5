"""Smoke test of the benchmark at toy size (io, i1 and a (2,2,1) instance).

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    result = run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    if trace:
        assert result["metrics"]["checks.failed"]["value"] == 0
    else:
        assert result["metrics"]["check_pass_rate"]["value"] == 1.0
