"""Byte-identity of the solver CLI output on the shipped instances.

golden_output.json holds the SHA-256 digest of the stdout, the --out
solution and the --emit-design table of `solve` and `solve2`, and of the
stdout and --out report of `probe-concavity --samples 5 --seed 7` and of
`simulate --episodes 5000 --seed 7`, of the stdout and --out of `evaluate`
and of `verify --samples 2 --episodes 2000` on every shipped instance, and of
`oracle` on io.  The probe report carries every sampled minimum slack as a
full-precision float, so it pins `value_at` to the last bit; the simulate
report does the same for the Monte Carlo mean and standard error, the
evaluate and oracle reports for the exact path sums, and the verify report
prints the conditional oracles' errors to 12 digits.  Speed work must leave
all of them unchanged.  When a change is meant to alter this output,
regenerate the digests with

    PYTHONPATH=src python tests/test_golden_output.py

and say in the change description why the output moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from delayed_sharing import cli, instances

INSTANCES = Path(__file__).resolve().parents[1] / "src" / "delayed_sharing" / "instances"
GOLDEN = Path(__file__).with_name("golden_output.json")
# Extra arguments per command, and the instances it runs on.
COMMANDS = {"solve": ((), instances.NAMES), "solve2": ((), instances.NAMES),
            "probe-concavity": (("--samples", "5", "--seed", "7"), instances.NAMES),
            "simulate": (("--episodes", "5000", "--seed", "7"), instances.NAMES),
            "evaluate": ((), instances.NAMES),
            "oracle": ((), ("io",)),
            "verify": (("--samples", "2", "--episodes", "2000"), instances.NAMES)}
RUNS = [(name, command) for command, (_, names) in COMMANDS.items()
        for name in names]
EMITS_DESIGN = ("solve", "solve2")


def digests(command: str, name: str) -> dict[str, str]:
    """Digests of one CLI run's stdout, --out file and, for the solvers, the
    --emit-design file."""
    with tempfile.TemporaryDirectory() as tmp:
        out, design = Path(tmp) / "out.json", Path(tmp) / "design.json"
        argv = [command, "--problem", str(INSTANCES / f"{name}.json"),
                "--out", str(out), *COMMANDS[command][0]]
        if command in EMITS_DESIGN:
            argv += ["--emit-design", str(design)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == cli.EXIT_OK
        blobs = {"stdout": buf.getvalue().encode("utf-8"), "out": out.read_bytes()}
        if command in EMITS_DESIGN:
            blobs["design"] = design.read_bytes()
    return {f"{command}/{name}/{kind}": hashlib.sha256(blob).hexdigest()
            for kind, blob in blobs.items()}


@pytest.mark.parametrize("name, command", RUNS)
def test_cli_output_matches_golden_digests(name, command):
    golden = json.loads(GOLDEN.read_text("utf-8"))
    for key, digest in digests(command, name).items():
        assert golden[key] == digest, key


if __name__ == "__main__":
    table = {}
    for name, command in RUNS:
        table.update(digests(command, name))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
