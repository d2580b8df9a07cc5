"""Deterministic invariant suite over one problem instance.

Runs every cross-check the solvers are contractually bound to: recursions
against primitive-path conditionals, the two dynamic programs against each
other and against extraction, branch probabilities summing to one, value
concavity, the linear-piece envelope, and a seeded Monte Carlo sanity bound.
Output is a list of fixed-format lines; two runs on the same instance produce
byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, evaluate
from .coordinator import (PiBelief, add_continuations, alpha_backup,
                          expected_stage_cost, extract_design, initial_belief,
                          reachable_graph, solve_on_graph, stage_blocks,
                          state_count, value_at, values_at)
from .errors import BudgetError
from .histories import common_obs_space, random_design
from .model import ProblemSpec, normalize_problem
from .second_form import (ThetaRState, extract_design2, h_map_block,
                          initial_state, r_update, reachable_graph2,
                          theta_update)

PI_TOL = 1e-12
DP_TOL = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.12g}"


@dataclass
class Verification:
    lines: list[str]
    passed: bool

    def report(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return "\n".join(self.lines + [f"verdict: {verdict}"])


def _pz_gap(spec: ProblemSpec, graph) -> float:
    """Worst |sum of branch probabilities - 1| over nodes and behaviors: the
    backup's continuation assembly on unit values, one batch per row block
    of each stage (coordinator.stage_blocks)."""
    ones = np.ones(graph.node_count)
    worst = 0.0
    for t in range(1, spec.T):
        for bs, blocks in stage_blocks(graph, t):
            subkeys: dict = {}
            for block in blocks:
                acc = np.zeros((len(block), *bs.shape))
                add_continuations(spec, bs, acc,
                                  [graph.expansions[node.node_id] for node in block],
                                  ones, subkeys)
                worst = max(worst, float(np.abs(acc - 1.0).max()))
    return worst


def replay_theta_r(spec: ProblemSpec, design, t: int,
                   delta: tuple[int, ...]) -> ThetaRState:
    state = initial_state(spec)
    for m in range(1, t):
        zr = 0 if m + 1 <= spec.n else delta[m - spec.n]
        z = common_obs_space(spec, m + 1)[zr]
        profile = analysis.design_profile(spec, design, m,
                                          delta[: max(0, m - spec.n)])
        state = ThetaRState(
            theta_update(spec, state.theta, z),
            tuple(r_update(spec, state.r[k], profile.gammas[k], z)
                  for k in range(spec.K)),
        )
    return state


def recursion_errors(spec: ProblemSpec, design) -> tuple[float, float, float, float]:
    """(belief recursion vs Bayes, theta recursion vs Bayes, h_map vs Bayes,
    cost collapse) max errors along every history reachable under design."""
    max_pi = max_th = max_h = max_cost = 0.0
    for t in range(1, spec.T + 1):
        dists = evaluate.conditional_state_dists(spec, design, t)
        xdists = evaluate.conditional_x_dists(spec, design, t)
        costs = evaluate.conditional_stage_costs(spec, design, t)
        deltas = sorted(dists)
        states = [replay_theta_r(spec, design, t, delta) for delta in deltas]
        for delta, state, image in zip(deltas, states, h_map_block(spec, states)):
            prob, vec = dists[delta]
            pi = analysis.replay_beliefs(spec, design, t, delta)
            max_pi = max(max_pi, float(np.abs(pi.p - vec).max()))
            max_th = max(max_th, float(np.abs(state.theta.p - xdists[delta]).max()))
            max_h = max(max_h, float(np.abs(image.p - vec).max()))
            profile = analysis.design_profile(spec, design, t, delta)
            max_cost = max(max_cost, abs(
                expected_stage_cost(spec, pi, profile) - costs[delta]))
    return max_pi, max_th, max_h, max_cost


def theta_independence_error(spec: ProblemSpec, designs) -> float:
    """Worst disagreement of the delayed-state conditional across designs at
    histories reachable under more than one of them."""
    worst = 0.0
    for t in range(1, spec.T + 1):
        dists = [evaluate.conditional_x_dists(spec, d, t) for d in designs]
        for i in range(len(dists)):
            for j in range(i + 1, len(dists)):
                for delta in set(dists[i]) & set(dists[j]):
                    worst = max(worst, float(
                        np.abs(dists[i][delta] - dists[j][delta]).max()))
    return worst


def verify_instance(spec: ProblemSpec, *, samples: int, episodes: int,
                    seed: int) -> Verification:
    spec = normalize_problem(spec)
    evaluate._check_episodes(episodes, seed)
    analysis._check_samples(samples)
    lines: list[str] = []
    failures = 0

    def check(name: str, ok: bool, detail: str):
        nonlocal failures
        mark = "ok" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"[{mark}] {name}: {detail}")

    graph = reachable_graph(spec)
    vt1, pol1 = solve_on_graph(graph)
    graph2 = reachable_graph2(spec)
    vt2, pol2 = solve_on_graph(graph2)
    lines.append(f"instance: K={spec.K} T={spec.T} n={spec.n} |X|={spec.x_size} "
                 f"|Y|={','.join(map(str, spec.y_size))} |U|={','.join(map(str, spec.u_size))}")
    lines.append(f"graph: nodes={graph.node_count} edges={graph.edge_count}; "
                 f"graph2: nodes={graph2.node_count} edges={graph2.edge_count}")

    norm_gap = max(
        float(np.abs(node.pi.p.sum() - 1.0).max())
        for nodes in graph.stages.values() for node in nodes)
    check("belief.normalization", norm_gap <= PI_TOL, f"max|sum-1|={_fmt(norm_gap)}")

    gap1 = _pz_gap(spec, graph)
    gap2 = _pz_gap(spec, graph2)
    check("branch.total_probability", max(gap1, gap2) <= PI_TOL,
          f"max|sum pz-1|={_fmt(max(gap1, gap2))}")

    dp_diff = abs(vt1.optimal_cost - vt2.optimal_cost)
    check("dp.cross_consistency", dp_diff <= DP_TOL,
          f"dp1={_fmt(vt1.optimal_cost)} dp2={_fmt(vt2.optimal_cost)} diff={_fmt(dp_diff)}")

    v_root = value_at(spec, 1, initial_belief(spec))
    check("dp.value_at_root", abs(v_root - vt1.optimal_cost) <= DP_TOL,
          f"diff={_fmt(abs(v_root - vt1.optimal_cost))}")

    des1 = extract_design(spec, pol1)
    des2 = extract_design2(spec, pol2)
    e1 = evaluate.exact_cost(spec, des1).expected_cost
    e2 = evaluate.exact_cost(spec, des2).expected_cost
    check("extract.belief_form", abs(e1 - vt1.optimal_cost) <= DP_TOL,
          f"diff={_fmt(abs(e1 - vt1.optimal_cost))}")
    check("extract.theta_r_form", abs(e2 - vt2.optimal_cost) <= DP_TOL,
          f"diff={_fmt(abs(e2 - vt2.optimal_cost))}")

    designs = [des1] + [random_design(spec, seed + 100 + i) for i in range(3)]
    max_pi = max_th = max_h = max_cost = 0.0
    for d in designs:
        a, b, c, e = recursion_errors(spec, d)
        max_pi, max_th = max(max_pi, a), max(max_th, b)
        max_h, max_cost = max(max_h, c), max(max_cost, e)
    check("bayes.belief_recursion", max_pi <= PI_TOL, f"max_err={_fmt(max_pi)}")
    check("bayes.theta_recursion", max_th <= PI_TOL, f"max_err={_fmt(max_th)}")
    check("bayes.h_map", max_h <= PI_TOL, f"max_err={_fmt(max_h)}")
    check("bayes.cost_collapse", max_cost <= PI_TOL, f"max_err={_fmt(max_cost)}")

    indep = theta_independence_error(spec, designs)
    check("theta.design_independence", indep <= PI_TOL, f"max_err={_fmt(indep)}")

    conc = analysis.concavity_probe(spec, samples, seed)
    worst_slack = min(conc.min_slack.values())
    check("value.concavity", conc.passed,
          f"min_slack={_fmt(worst_slack)} samples={samples} seed={seed}")

    try:
        aset = alpha_backup(spec)
        rng = np.random.default_rng([seed, 991])
        worst = 0.0
        for t in range(1, spec.T + 1):
            ps = [rng.dirichlet(np.ones(state_count(spec, t))) for _ in range(samples)]
            for p, v in zip(ps, values_at(spec, t, [PiBelief(t, p) for p in ps])):
                worst = max(worst, abs(aset.value(t, p) - v))
        check("value.alpha_envelope", worst <= DP_TOL, f"max_err={_fmt(worst)}")
    except BudgetError as exc:
        lines.append(f"[ok] value.alpha_envelope: skipped ({exc})")

    sim = evaluate.simulate(spec, des1, episodes, seed)
    bound = 3.0 * sim.std_error
    ok = abs(sim.mean - e1) <= bound or sim.std_error == 0.0
    check("simulate.three_sigma", ok,
          f"mean={_fmt(sim.mean)} exact={_fmt(e1)} 3se={_fmt(bound)}")

    if spec.n == 1:
        rep = analysis.check_one_step_factorization(spec, des1)
        check("delay1.factorization", rep.passed,
              f"product_err={_fmt(rep.max_product_error)} "
              f"independence_err={_fmt(rep.max_independence_error)} "
              f"histories={rep.histories_checked}")

    if analysis.projection_violation(spec) is None:
        rep = analysis.check_aicardi_degenerate(spec)
        check("fully_observed.degeneracy", rep.passed,
              f"offpoint={_fmt(rep.max_offpoint_mass)} "
              f"indexed={rep.structurally_indexed} nodes={rep.nodes_checked}")

    return Verification(lines, failures == 0)

