"""Command-line front end.

Subcommands: solve, solve2, evaluate, simulate, oracle, verify, kurtaran,
probe-concavity.  Numeric output uses 12 significant digits; identical
arguments and files produce byte-identical output.  Exit codes: 0 success or
all checks passing, 1 invariant failure, 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, evaluate, verify
from .coordinator import (DEFAULT_MAX_NODES, extract_design, reachable_graph,
                          solve_dp, solve_on_graph)
from .errors import (BudgetError, DelayedSharingError, DomainError,
                     InvalidProblemError, ParseError, PreconditionError,
                     SchemaError)
from .histories import ExtensionalDesign, constant_design, random_design
from .model import load_problem, normalize_problem
from .second_form import extract_design2, reachable_graph2

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_spec(args):
    path = Path(args.problem)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    return normalize_problem(load_problem(text))


def _load_design(spec, args):
    if args.design is None:
        _, policy = solve_dp(spec, max_nodes=args.max_nodes)
        return extract_design(spec, policy)
    try:
        data = json.loads(Path(args.design).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read design file {args.design}: {exc}") from exc
    return ExtensionalDesign.from_json(spec, data)


def _write(args, obj):
    if args.out:
        Path(args.out).write_text(json.dumps(obj, indent=1), encoding="utf-8")


def _node_json(node, vt) -> dict:
    out = {"id": node.node_id}
    if node.state is None:
        out["belief"] = node.pi.p.tolist()
    else:
        out["theta"] = node.state.theta.p.tolist()
        out["r"] = [[list(part) for part in rs.parts] for rs in node.state.r]
    out["J"] = vt.J[node.t][node.node_id]
    out["argmin_profile"] = vt.argmin[node.t][node.node_id]
    return out


def _solution(graph, vt) -> dict:
    stages = []
    for t in sorted(graph.stages):
        nodes = [_node_json(node, vt) for node in graph.stages[t]]
        edges = []
        for node in graph.stages[t]:
            for z, ztab in graph.expansions.get(node.node_id, {}).items():
                for rank, pz, child in zip(ztab.rank, ztab.pz, ztab.child):
                    edges.append({
                        "from": node.node_id, "z": z,
                        "assignment_key": [int(i) for i in
                                           np.unravel_index(rank, ztab.shape)],
                        "pz": float(pz), "to": int(child),
                    })
        stages.append({"t": t, "nodes": nodes, "edges": edges})
    return {
        "kind": f"{graph.kind}_dp",
        "optimal_cost": vt.optimal_cost,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "stages": stages,
    }


# Per solve command: the graph builder and the strategy extraction of its form.
_FORMS = {
    "solve": (reachable_graph, extract_design),
    "solve2": (reachable_graph2, extract_design2),
}


def _cmd_solve(args) -> int:
    build, extract = _FORMS[args.command]
    spec = _load_spec(args)
    graph = build(spec, max_nodes=args.max_nodes)
    vt, policy = solve_on_graph(graph)
    print(f"optimal_cost {_fmt(vt.optimal_cost)}")
    print(f"nodes {graph.node_count} edges {graph.edge_count}")
    _write(args, _solution(graph, vt))
    if args.emit_design:
        design = evaluate.materialize_design(spec, extract(spec, policy))
        Path(args.emit_design).write_text(json.dumps(design.to_json(), indent=1),
                                          encoding="utf-8")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    spec = _load_spec(args)
    design = _load_design(spec, args)
    res = evaluate.exact_cost(spec, design, max_paths=args.max_paths)
    print(f"expected_cost {_fmt(res.expected_cost)}")
    for t, c in enumerate(res.per_stage, start=1):
        print(f"stage {t} {_fmt(c)}")
    _write(args, {"expected_cost": res.expected_cost,
                  "per_stage": list(res.per_stage)})
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    design = _load_design(spec, args)
    res = evaluate.simulate(spec, design, args.episodes, args.seed)
    print(f"mean {_fmt(res.mean)}")
    print(f"std_error {_fmt(res.std_error)}")
    print(f"episodes {res.episodes} seed {res.seed}")
    _write(args, {"episodes": res.episodes, "mean": res.mean,
                  "std_error": res.std_error, "seed": res.seed})
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = _load_spec(args)
    best, design = evaluate.brute_force_optimum(spec, max_designs=args.max_designs)
    print(f"optimal_cost {_fmt(best)}")
    _write(args, {"optimal_cost": best, "design": design.to_json()})
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    result = verify.verify_instance(spec, samples=args.samples,
                                    episodes=args.episodes, seed=args.seed)
    report = result.report()
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_kurtaran(args) -> int:
    spec = _load_spec(args)
    designs = []
    if args.design is not None:
        designs.append(("file", _load_design(spec, args)))
    else:
        _, policy = solve_dp(spec, max_nodes=args.max_nodes)
        designs.append(("dp_optimal", extract_design(spec, policy)))
        designs.append(("constant", constant_design(spec)))
        for i in range(3):
            designs.append((f"random_{i}", random_design(spec, args.seed + i)))
    findings = []
    for name, design in designs:
        rep = analysis.kurtaran_witness_search(spec, design)
        if rep.witness is None:
            print(f"design {name}: exhausted histories={rep.histories} "
                  f"groups={rep.groups} comparisons={rep.comparisons}")
        else:
            w = rep.witness
            print(f"design {name}: WITNESS t={w.t} gap={_fmt(w.gap)}")
            finding = {
                "design": name, "t": w.t,
                "delta": list(w.delta), "delta_prime": list(w.delta_prime),
                "z": w.z_rank, "gap": w.gap,
                "phi": list(w.phi),
                "phi_next": list(w.phi_prime_1),
                "phi_next_prime": list(w.phi_prime_2),
            }
            findings.append(finding)
            print(json.dumps(finding, indent=1))
    _write(args, {"findings": findings})
    return EXIT_OK


def _cmd_probe_concavity(args) -> int:
    spec = _load_spec(args)
    rep = analysis.concavity_probe(spec, args.samples, args.seed)
    for t in sorted(rep.min_slack):
        print(f"t {t} min_slack {_fmt(rep.min_slack[t])}")
    print(f"passed {rep.passed}")
    _write(args, {"seed": rep.seed, "samples": rep.samples,
                  "min_slack": {str(t): v for t, v in rep.min_slack.items()},
                  "passed": rep.passed})
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def _at_least(low: int, name: str):
    """An option parser for integers >= low: numpy seeds its streams from
    non-negative integers; samples, episodes and budgets start at one."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {low}, got {text!r}")
        return value
    return parse


# Every option a subcommand may take besides --problem and --out.
_OPTIONS = {
    "--seed": dict(type=_at_least(0, "seed"), default=7,
                   help="seed for randomized steps (default 7)"),
    "--episodes": dict(type=_at_least(1, "episodes"), default=100_000,
                       help="Monte Carlo episodes (default 100000)"),
    "--samples": dict(type=_at_least(1, "samples"), default=20,
                      help="probe samples per stage (default 20)"),
    "--max-nodes": dict(type=_at_least(1, "max-nodes"), default=DEFAULT_MAX_NODES,
                        help="reachable-graph node budget"),
    "--max-designs": dict(type=_at_least(1, "max-designs"),
                          help="brute-force design budget; its evaluation "
                               "budget is this times the path bound (default: "
                               f"{evaluate.DEFAULT_ORACLE_BUDGET} evaluations)"),
    "--max-paths": dict(type=_at_least(1, "max-paths"), default=evaluate.DEFAULT_MAX_PATHS,
                        help="trajectory enumeration budget"),
    "--design": dict(help="stored design JSON (default: solve and extract)"),
    "--emit-design": dict(help="also write the extracted design as a table"),
}

# Per subcommand: handler, help and the options it reads.  Without --design,
# evaluate, simulate and kurtaran solve first, within --max-nodes.
_COMMANDS = {
    "solve": (_cmd_solve, "belief-form dynamic program", ("--max-nodes", "--emit-design")),
    "solve2": (_cmd_solve, "(Theta, r)-form dynamic program",
               ("--max-nodes", "--emit-design")),
    "evaluate": (_cmd_evaluate, "exact cost of a stored design",
                 ("--design", "--max-nodes", "--max-paths")),
    "simulate": (_cmd_simulate, "Monte Carlo estimate of a design",
                 ("--design", "--max-nodes", "--episodes", "--seed")),
    "oracle": (_cmd_oracle, "brute-force optimal design", ("--max-designs",)),
    "verify": (_cmd_verify, "full invariant suite", ("--samples", "--episodes", "--seed")),
    "kurtaran": (_cmd_kurtaran,
                 "search for update-consistency violations of the two-step-back statistic",
                 ("--design", "--max-nodes", "--seed")),
    "probe-concavity": (_cmd_probe_concavity, "sampled concavity check",
                        ("--samples", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayed-sharing",
        description="Exact solvers and probes for finite delayed-sharing "
                    "decentralized control problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--out", help="write machine-readable output here")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command][0](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, SchemaError, InvalidProblemError, DomainError,
            PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DelayedSharingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
