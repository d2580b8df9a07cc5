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

from . import analysis, evaluate, verify
from .coordinator import (DEFAULT_MAX_NODES, extract_design, reachable_graph,
                          solve_dp, solve_on_graph)
from .errors import (BudgetError, DelayedSharingError, DomainError,
                     InvalidProblemError, ParseError, PreconditionError,
                     SchemaError)
from .histories import ExtensionalDesign, constant_design, random_design
from .model import load_problem, normalize_problem, validate_problem
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
    raw = load_problem(text)
    violations = validate_problem(raw)
    if violations:
        raise InvalidProblemError(violations)
    return normalize_problem(raw)


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
            for ztab in graph.expansions.get(node.node_id, {}).values():
                for key, (pz, child) in sorted(ztab.entries.items()):
                    edges.append({
                        "from": node.node_id, "z": ztab.z_rank,
                        "assignment_key": list(key), "pz": pz, "to": child,
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
    if evaluate.design_count(spec) > args.max_designs:
        raise BudgetError(f"design space holds {evaluate.design_count(spec)} "
                          f"designs (budget {args.max_designs})")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayed-sharing",
        description="Exact solvers and probes for finite delayed-sharing "
                    "decentralized control problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, design_flag=False, emit=False):
        p.add_argument("--problem", required=True, help="problem JSON file")
        p.add_argument("--out", default=None, help="write machine-readable output here")
        p.add_argument("--seed", type=int, default=7, help="seed for randomized steps (default 7)")
        p.add_argument("--episodes", type=int, default=100_000,
                       help="Monte Carlo episodes (default 100000)")
        p.add_argument("--samples", type=int, default=20,
                       help="probe samples per stage (default 20)")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES,
                       help="reachable-graph node budget")
        p.add_argument("--max-designs", type=int, default=evaluate.DEFAULT_ORACLE_BUDGET,
                       help="brute-force design budget")
        p.add_argument("--max-paths", type=int, default=evaluate.DEFAULT_MAX_PATHS,
                       help="trajectory enumeration budget")
        if design_flag:
            p.add_argument("--design", default=None,
                           help="stored design JSON (default: solve and extract)")
        if emit:
            p.add_argument("--emit-design", default=None,
                           help="also write the extracted design as a table")

    common(sub.add_parser("solve", help="belief-form dynamic program"), emit=True)
    common(sub.add_parser("solve2", help="(Theta, r)-form dynamic program"), emit=True)
    common(sub.add_parser("evaluate", help="exact cost of a stored design"), design_flag=True)
    common(sub.add_parser("simulate", help="Monte Carlo estimate of a design"), design_flag=True)
    common(sub.add_parser("oracle", help="brute-force optimal design"))
    common(sub.add_parser("verify", help="full invariant suite"))
    common(sub.add_parser("kurtaran", help="search for update-consistency "
                                           "violations of the two-step-back statistic"),
           design_flag=True)
    common(sub.add_parser("probe-concavity", help="sampled concavity check"))
    return parser


_HANDLERS = {
    "solve": _cmd_solve,
    "solve2": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "kurtaran": _cmd_kurtaran,
    "probe-concavity": _cmd_probe_concavity,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
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
