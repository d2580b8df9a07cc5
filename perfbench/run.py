#!/usr/bin/env python3
"""Benchmark of the delayed-sharing solvers: one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload belief_tree --seed 1 --seconds 22 --trace 0

Workloads, passes and metrics are defined in bench.py.  Load is a closed
loop in this one process and thread: passes over the workload's jobs run
back to back, and a new pass starts only while it is expected to end within
--seconds (at least one pass runs).  Times are medians over passes.

Times are corrected for the host's speed, sampled by a reference loop during
the passes (see bench.HostProbe); raw times stay in the spans.  With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, and the spans with
their self times go to perfbench/out/traces/.  Every pass checks its answers;
work counts and optimal costs must repeat exactly across passes and across
runs on the same seed of the same source (records in perfbench/out/records/).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 9

# Process start to package imported and instances built and normalized.
SETUP_SNIPPET = ("import sys; sys.path[:0] = sys.argv[1:3]; import bench; "
                 "bench.build(sys.argv[3], int(sys.argv[4]))")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"instance seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=22.0,
                   help="measuring time; passes that would overrun it are not started")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(workload: str, seed: int, reference_scale) -> float:
    """Median set-up time over fresh interpreters, each corrected for the
    host's speed sampled just before and after it."""
    cmd = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE),
           workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_scale(0.05)
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       timeout=60)
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before + reference_scale(0.05)) / 2)
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((SRC / "delayed_sharing").rglob("*.py"))
    files += sorted((SRC / "delayed_sharing").rglob("*.json"))
    files += sorted(HERE.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def repeat_failures(passes, record_path: Path) -> tuple[int, list[str]]:
    """Compare work counts and 12-digit optimal costs across the passes of
    this run and with earlier runs of the same source on the same seed."""
    first = {**passes[0].counts, **passes[0].costs}
    attempted, failures = 0, []
    for i, res in enumerate(passes[1:], start=1):
        attempted += 1
        now = {**res.counts, **res.costs}
        if now != first:
            failures.append(f"pass {i} differs from pass 0: "
                            f"{sorted(k for k in first if now.get(k) != first[k])}")
    earlier = json.loads(record_path.read_text()) if record_path.exists() else {}
    shared = sorted(set(earlier) & set(first))
    if shared:
        attempted += 1
        moved = [k for k in shared if earlier[k] != first[k]]
        if moved:
            failures.append(f"differs from an earlier run on this seed: {moved}")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps({**earlier, **first}, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    return attempted, failures


def write_trace(args, run_id: str, passes, self_s: list, metrics: dict) -> Path:
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "self_s": self_s,
        "metrics": metrics,
        "spans": [dict(s, run=run_id) for r in passes for s in r.spans],
    }
    path.write_text(json.dumps(doc, indent=1))
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "delayed_sharing" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}")
    # Pin the BLAS pool before numpy is first imported, here and in the
    # set-up interpreters: all load is one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.NAMES:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(bench.NAMES)}")
    setup_s = time_setup(args.workload, args.seed, bench.reference_scale)
    jobs = bench.build(args.workload, args.seed)
    baseline = None
    with bench.HostProbe() as probe:
        if args.trace:
            # Untraced reference pass for the tracing overhead.
            baseline = bench.run_pass(jobs, False, probe, "base.")
        passes = bench.run_passes(jobs, bool(args.trace), args.seconds, "p", probe)
    bench.finish(passes + ([baseline] if baseline else []), probe)

    attempted = sum(r.attempted for r in passes)
    failures = [f for r in passes for f in r.failures]
    record = OUT / "records" / (f"{args.workload}-seed{args.seed}-"
                                f"{source_digest()}.json")
    rep_attempted, rep_failures = repeat_failures(passes, record)
    attempted += rep_attempted
    failures += rep_failures

    for f in failures:
        print(f"FAILED {f}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} checks={attempted} failed={len(failures)} "
          f"check_fail_rate={len(failures) / attempted:g} "
          f"pass_walls_s={[round(r.wall, 3) for r in passes]} "
          f"raw_pass_walls_s={[round(r.raw_wall, 3) for r in passes]}")
    print("counts " + json.dumps(passes[0].counts, sort_keys=True))
    print("optimal_costs " + json.dumps(passes[0].costs, sort_keys=True))
    if args.trace:
        metrics = bench.per_layer(passes, baseline, attempted, len(failures))
        self_s = [bench.self_times(r.spans) for r in passes]
        path = write_trace(args, uuid.uuid4().hex[:12], passes, self_s, metrics)
        print(f"trace {path}")
    else:
        metrics = bench.end_to_end(passes, setup_s,
                                   (attempted - len(failures)) / attempted)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
