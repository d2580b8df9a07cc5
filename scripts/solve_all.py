#!/usr/bin/env python3
"""Solve every shipped instance with both dynamic programs, cross-check
extraction, and print a summary table.  Exits 1 if the two optima, or an
optimum and the exact cost of its extracted design, differ by more than
verify.DP_TOL."""

import sys
import time

from delayed_sharing import evaluate, instances
from delayed_sharing.coordinator import extract_design, reachable_graph, solve_on_graph
from delayed_sharing.second_form import extract_design2, reachable_graph2
from delayed_sharing.verify import DP_TOL


def main():
    header = (f"{'instance':<10}{'cost (belief DP)':>20}{'cost ((Theta,r) DP)':>22}"
              f"{'nodes':>8}{'nodes2':>8}{'extract diff':>14}{'time':>8}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for name in instances.NAMES:
        spec = instances.load(name)
        t0 = time.monotonic()
        graph = reachable_graph(spec)
        vt, pol = solve_on_graph(graph)
        graph2 = reachable_graph2(spec)
        vt2, pol2 = solve_on_graph(graph2)
        e1 = evaluate.exact_cost(spec, extract_design(spec, pol)).expected_cost
        e2 = evaluate.exact_cost(spec, extract_design2(spec, pol2)).expected_cost
        elapsed = time.monotonic() - t0
        drift = max(abs(e1 - vt.optimal_cost), abs(e2 - vt2.optimal_cost))
        worst = max(worst, drift, abs(vt.optimal_cost - vt2.optimal_cost))
        print(f"{name:<10}{vt.optimal_cost:>20.12f}{vt2.optimal_cost:>22.12f}"
              f"{graph.node_count:>8}{graph2.node_count:>8}{drift:>14.2e}"
              f"{elapsed:>7.1f}s")
    return 0 if worst <= DP_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
