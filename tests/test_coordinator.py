import gc
import weakref

import numpy as np
import pytest

from helpers import (JointState, PrivateInfo, naive_value, primitive_joint,
                     private_rank, state_rank, state_unrank, update_mass)

from delayed_sharing import (_tables, analysis, coordinator, evaluate,
                             instances, minimize, second_form)
from delayed_sharing.coordinator import (PiBelief, alpha_backup, belief_update,
                                         expected_stage_cost, extract_design,
                                         initial_belief, reachable_graph,
                                         solve_dp, solve_on_graph, state_count,
                                         value_at)
from delayed_sharing.errors import (BudgetError, DomainError,
                                    UnreachableObservationError)
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (common_obs_rank, common_obs_space,
                                       gamma_profiles, profile_count,
                                       profile_unrank)
from delayed_sharing.model import ProblemSpec, normalize_problem

GOLDEN = {
    # frozen after the first runs cross-checked against the brute-force
    # oracle (io, i2-mini) and the (Theta, r) solver on all instances
    "io": {"cost": -0.594236377773162, "nodes": 5, "edges": 4},
    "i1": {"cost": -1.325366890093742, "nodes": 17, "edges": 16},
    "i2": {"cost": -1.4055655543728511, "nodes": 273, "edges": 1040},
    "ia": {"cost": -1.8735436596912434, "nodes": 33, "edges": 552},
}


# -- initial belief -----------------------------------------------------------

def test_initial_belief_single_state():
    spec = normalize_problem(random_instance(2, 2, 1, 1, (2, 2), (2, 2), seed=5))
    pi = initial_belief(spec)
    cube = pi.p.reshape(1, 2, 2)
    expect = np.outer(spec.obs[0][0][0], spec.obs[1][0][0])
    assert np.allclose(cube[0], expect, atol=1e-15)


def test_initial_belief_deterministic_obs_support():
    spec = normalize_problem(random_instance(2, 2, 1, 3, (3, 3), (2, 2),
                                             seed=5, deterministic=True))
    pi = initial_belief(spec)
    cube = pi.p.reshape(3, 3, 3)
    support_x = {x for x, _, _ in zip(*np.nonzero(cube > 0))}
    assert support_x <= set(np.nonzero(spec.x0_dist > 0)[0])


def test_initial_belief_matches_primitive_enumeration(i1_spec):
    pi = initial_belief(i1_spec)
    joint = primitive_joint(i1_spec, 1)
    cube = pi.p.reshape(2, 2, 2)
    for (x0, ys), prob in joint.items():
        assert cube[x0][ys] == pytest.approx(prob, abs=1e-15)
    assert pi.p.sum() == pytest.approx(1.0, abs=1e-12)


# -- one-step law -------------------------------------------------------------

def _step_law(spec, t, s, profile):
    """{(next state rank, symbol rank): mass} of one step from a point mass
    on s under a profile."""
    rank = state_rank(spec, s)
    p = np.zeros(state_count(spec, t))
    p[rank] = 1.0
    out = {}
    for z in common_obs_space(spec, t + 1):
        zr = common_obs_rank(spec, z)
        m, pz = update_mass(spec, t, p, profile, zr, [rank])
        if pz > 0.0:
            for s2 in np.nonzero(m > 0.0)[0]:
                out[(int(s2), zr)] = float(m[s2])
    return out


def test_joint_step_single_support_point():
    spec = normalize_problem(random_instance(2, 2, 1, 1, (1, 1), (2, 2),
                                             seed=0, deterministic=True))
    profile = profile_unrank(spec, 1, 0)
    s = JointState(1, 0, (0, 0))
    out = _step_law(spec, 1, s, profile)
    assert len(out) == 1
    ((_, _), p), = out.items()
    assert p == pytest.approx(1.0, abs=1e-12)


def test_joint_step_delay_one_symbol(i1_spec):
    # the symbol emitted while stepping carries the current observations and
    # the actions being taken
    spec = i1_spec
    profile = profile_unrank(spec, 1, profile_count(spec, 1) - 1)  # all-ones
    s = JointState(1, 0, (1, 0))
    out = _step_law(spec, 1, s, profile)
    z_ranks = {zr for (_, zr) in out}
    assert len(z_ranks) == 1
    z = common_obs_space(spec, 2)[z_ranks.pop()]
    assert z.y == (1, 0)
    assert z.u == (1, 1)


def test_joint_step_matches_primitive_paths(i1_spec):
    spec = i1_spec
    profile = profile_unrank(spec, 1, 5)
    s = JointState(1, 1, (0, 1))
    out = _step_law(spec, 1, s, profile)
    # direct: a = profile actions; X_1 ~ trans; Y_2 ~ obs
    a = (profile.gammas[0].table[0], profile.gammas[1].table[1])
    ai = spec.encode_action(a)
    total = 0.0
    for x1 in range(2):
        for y1 in range(2):
            for y2 in range(2):
                w = (spec.trans[0][1, ai, x1] * spec.obs[0][1][x1, y1]
                     * spec.obs[1][1][x1, y2])
                total += w
                nxt = JointState(2, x1, (y1, y2))
                got = out.get((state_rank(spec, nxt),
                               next(zr for (_, zr) in out)), 0.0)
                assert got == pytest.approx(w, abs=1e-14)
    assert total == pytest.approx(1.0, abs=1e-12)


# -- belief update ------------------------------------------------------------

def test_belief_update_null_symbol_is_prediction(i2_spec):
    spec = i2_spec
    pi = initial_belief(spec)
    profile = profile_unrank(spec, 1, 7)
    z = common_obs_space(spec, 2)[0]
    assert z.is_null
    pi2, pz = belief_update(spec, pi, profile, z)
    assert pz == pytest.approx(1.0, abs=1e-12)
    assert pi2.p.sum() == pytest.approx(1.0, abs=1e-12)


def test_belief_update_unreachable_symbol(i1_spec):
    spec = i1_spec
    p = np.zeros(state_count(spec, 1))
    p[state_rank(spec, JointState(1, 0, (0, 0)))] = 1.0
    pi = PiBelief(1, p)
    profile = profile_unrank(spec, 1, 0)     # all actions 0
    # a symbol whose action components disagree with the profile
    bad = next(z for z in common_obs_space(spec, 2)
               if z.y == (0, 0) and z.u == (1, 1))
    with pytest.raises(UnreachableObservationError):
        belief_update(spec, pi, profile, bad)


def test_belief_update_matches_direct_bayes(i1_spec):
    # against conditioning the full primitive joint, for all 16 symbols
    spec = i1_spec
    pi = initial_belief(spec)
    profile = profile_unrank(spec, 1, 9)
    checked = 0
    for z in common_obs_space(spec, 2):
        try:
            pi2, pz = belief_update(spec, pi, profile, z)
        except UnreachableObservationError:
            continue
        checked += 1
        direct = np.zeros(state_count(spec, 2))
        total = 0.0
        for x0 in range(2):
            for y1a in range(2):
                for y1b in range(2):
                    w0 = (spec.x0_dist[x0] * spec.obs[0][0][x0, y1a]
                          * spec.obs[1][0][x0, y1b])
                    a = (profile.gammas[0].table[y1a], profile.gammas[1].table[y1b])
                    if (y1a, y1b) != z.y or a != z.u:
                        continue
                    ai = spec.encode_action(a)
                    for x1 in range(2):
                        for y2a in range(2):
                            for y2b in range(2):
                                w = (w0 * spec.trans[0][x0, ai, x1]
                                     * spec.obs[0][1][x1, y2a]
                                     * spec.obs[1][1][x1, y2b])
                                direct[state_rank(spec, JointState(2, x1, (y2a, y2b)))] += w
                                total += w
        assert pz == pytest.approx(total, abs=1e-14)
        assert np.abs(pi2.p - direct / total).max() <= 1e-12
    assert checked == 4    # one live action pair per observation pair


# -- stage cost ---------------------------------------------------------------

def test_stage_cost_constant():
    spec = random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=8)
    const = ProblemSpec(
        K=spec.K, T=spec.T, n=spec.n, x_size=spec.x_size,
        y_size=spec.y_size, u_size=spec.u_size, x0_dist=np.array(spec.x0_dist),
        trans=np.array(spec.trans), obs=tuple(np.array(o) for o in spec.obs),
        cost=np.full_like(spec.cost, 2.5))
    const = normalize_problem(const)
    pi = initial_belief(const)
    for rank in (0, 3, 9):
        profile = profile_unrank(const, 1, rank)
        assert expected_stage_cost(const, pi, profile) == pytest.approx(2.5, abs=1e-12)


def test_stage_cost_point_mass_deterministic():
    spec = normalize_problem(random_instance(2, 2, 1, 3, (2, 2), (2, 2),
                                             seed=9, deterministic=True))
    p = np.zeros(state_count(spec, 1))
    s = JointState(1, 2, (1, 0))
    p[state_rank(spec, s)] = 1.0
    profile = profile_unrank(spec, 1, 6)
    a = (profile.gammas[0].table[1], profile.gammas[1].table[0])
    ai = spec.encode_action(a)
    x_next = int(np.argmax(spec.trans[0][2, ai]))
    assert expected_stage_cost(spec, PiBelief(1, p), profile) == pytest.approx(
        spec.cost[0][x_next, ai], abs=1e-12)


def test_stage_cost_matches_primitive_expectation(i1_spec):
    spec = i1_spec
    pi = initial_belief(spec)
    profile = profile_unrank(spec, 1, 5)
    joint = primitive_joint(spec, 1)
    expect = 0.0
    for (x0, ys), prob in joint.items():
        a = tuple(profile.gammas[k].table[ys[k]] for k in range(2))
        ai = spec.encode_action(a)
        for x1 in range(2):
            expect += prob * spec.trans[0][x0, ai, x1] * spec.cost[0][x1, ai]
    assert expected_stage_cost(spec, pi, profile) == pytest.approx(expect, abs=1e-12)


# -- reachable graph ----------------------------------------------------------

def test_graph_single_node_horizon_one():
    spec = random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=3)
    graph = reachable_graph(spec)
    assert graph.node_count == 1
    assert graph.edge_count == 0


def test_graph_single_state_still_branches():
    spec = random_instance(2, 2, 1, 1, (2, 2), (2, 2), seed=3)
    graph = reachable_graph(spec)
    for t in (1, 2):
        assert len(graph.stages[t]) >= 1


def test_graph_golden_counts(solved):
    for name, want in GOLDEN.items():
        graph = solved[name]["graph"]
        assert graph.node_count == want["nodes"], name
        assert graph.edge_count == want["edges"], name


def test_graph_node_budget(i2_spec):
    with pytest.raises(BudgetError):
        reachable_graph(i2_spec, max_nodes=10)


# The exact node-budget messages.  "edges so far" counts the branches of
# every node whose expansion finished before the budget was hit, so a build
# that records expansions late (per block of nodes) would report fewer.  On
# i2, 100 nodes are exceeded while the fifth stage-2 node expands: the root's
# 16 branches plus 4 x 16.
@pytest.mark.parametrize("build,name", [
    (reachable_graph, "reachable-belief"),
    (second_form.reachable_graph2, "reachable (Theta, r)")])
@pytest.mark.parametrize("max_nodes,edges", [(10, 0), (20, 16), (100, 80)])
def test_graph_node_budget_message(i2_spec, build, name, max_nodes, edges):
    with pytest.raises(BudgetError) as err:
        build(i2_spec, max_nodes=max_nodes)
    assert str(err.value) == (f"{name} graph exceeded {max_nodes} nodes "
                              f"(edges so far: {edges})")


# -- dynamic program ----------------------------------------------------------

def test_solve_dp_horizon_one_reduces_to_stage_min():
    spec = normalize_problem(random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=4))
    vt, _ = solve_dp(spec)
    pi = initial_belief(spec)
    direct = min(expected_stage_cost(spec, pi, g) for g in gamma_profiles(spec, 1))
    assert vt.optimal_cost == pytest.approx(direct, abs=1e-12)


def test_solve_dp_zero_cost():
    base = random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=4)
    spec = normalize_problem(ProblemSpec(
        K=base.K, T=base.T, n=base.n, x_size=base.x_size,
        y_size=base.y_size, u_size=base.u_size, x0_dist=np.array(base.x0_dist),
        trans=np.array(base.trans), obs=tuple(np.array(o) for o in base.obs),
        cost=np.zeros_like(base.cost)))
    vt, pol = solve_dp(spec)
    assert vt.optimal_cost == 0.0
    for t, per_node in vt.argmin.items():
        assert all(rank == 0 for rank in per_node.values())


def test_solve_dp_golden_costs(solved):
    for name, want in GOLDEN.items():
        assert solved[name]["vt"].optimal_cost == pytest.approx(
            want["cost"], abs=1e-12), name


def test_solve_dp_matches_naive_recursion(i1_spec, io_spec):
    for spec in (i1_spec, io_spec):
        vt, _ = solve_dp(spec)
        assert vt.optimal_cost == pytest.approx(
            naive_value(spec, 1, initial_belief(spec)), abs=1e-12)


def test_solve_dp_deterministic(i1_spec):
    vt1, pol1 = solve_dp(i1_spec)
    vt2, pol2 = solve_dp(i1_spec)
    assert vt1.J == vt2.J
    assert pol1.assignments == pol2.assignments


# -- extraction ---------------------------------------------------------------

def test_extract_horizon_one_is_root_profile():
    spec = normalize_problem(random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=6))
    vt, pol = solve_dp(spec)
    design = extract_design(spec, pol)
    profile = profile_unrank(spec, 1, pol.profile_rank(1, 0))
    for k in range(2):
        for lam in range(2):
            assert design.act(k, 1, lam, ()) == profile.gammas[k].table[lam]


def test_extract_replay_matches_simulation(solved, monkeypatch):
    # on-policy episodes of the tabulated design are reproduced
    # action-for-action by act
    monkeypatch.setattr(evaluate, "DEFAULT_MAX_PATHS", 10_000)
    entry = solved["i2"]
    spec, pol = entry["spec"], entry["pol"]
    design = extract_design(spec, pol)
    flat = evaluate.materialize_design(spec, extract_design(spec, pol))
    checked = 0
    for rec in evaluate.iter_paths(spec, flat):
        for t in range(1, spec.T + 1):
            delta = rec.zs[: max(0, t - spec.n)]
            lo = max(1, t - spec.n + 1)
            for k in range(spec.K):
                lam = private_rank(spec, PrivateInfo(
                    k, t, rec.ys[k][lo - 1: t], rec.us[k][lo - 1: t - 1]))
                assert design.act(k, t, lam, delta) == rec.us[k][t - 1]
        checked += 1
        if checked >= 64:
            break
    assert checked >= 64


def test_extract_exact_cost_equals_value(solved):
    for name in ("io", "i1"):
        entry = solved[name]
        design = extract_design(entry["spec"], entry["pol"])
        got = evaluate.exact_cost(entry["spec"], design).expected_cost
        assert got == pytest.approx(entry["vt"].optimal_cost, abs=1e-9)


# -- value function -----------------------------------------------------------

def test_value_at_reachable_nodes_matches_table(solved):
    for name in ("io", "i1", "i2"):
        entry = solved[name]
        spec, graph, vt = entry["spec"], entry["graph"], entry["vt"]
        for t, nodes in graph.stages.items():
            for node in nodes[:5]:
                got = value_at(spec, t, node.pi)
                assert got == pytest.approx(vt.J[t][node.node_id], abs=1e-9)


def test_value_at_terminal_is_stage_min(i1_spec):
    spec = i1_spec
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(state_count(spec, 2)))
    pi = PiBelief(2, p)
    direct = min(expected_stage_cost(spec, pi, g) for g in gamma_profiles(spec, 2))
    assert value_at(spec, 2, pi) == pytest.approx(direct, abs=1e-12)


def test_value_at_matches_naive_on_random_beliefs(i1_spec):
    rng = np.random.default_rng(12)
    for t in (1, 2):
        for _ in range(3):
            p = rng.dirichlet(np.ones(state_count(i1_spec, t)))
            pi = PiBelief(t, p)
            assert value_at(i1_spec, t, pi) == pytest.approx(
                naive_value(i1_spec, t, pi), abs=1e-12)


def test_value_at_rejects_a_belief_of_another_stage_or_length(i1_spec):
    p = np.full(state_count(i1_spec, 2), 1.0 / state_count(i1_spec, 2))
    with pytest.raises(DomainError):
        value_at(i1_spec, 1, PiBelief(2, p))
    with pytest.raises(DomainError):
        value_at(i1_spec, 2, PiBelief(2, p[:-1]))
    with pytest.raises(DomainError):
        value_at(i1_spec, 2, PiBelief(2, np.zeros_like(p)))


@pytest.mark.parametrize("entry", [np.nan, -0.5, np.inf, -np.inf])
def test_values_at_rejects_a_negative_or_non_finite_entry(monkeypatch, i1_spec, entry):
    """Checked before any graph is built, next to a valid belief."""
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was built")
    monkeypatch.setattr(coordinator, "_root_values", no_graph)
    n = state_count(i1_spec, 1)
    good, bad = np.full(n, 1.0 / n), np.full(n, 1.0 / n)
    bad[0] = entry
    with pytest.raises(DomainError, match="negative or non-finite entry"):
        coordinator.values_at(i1_spec, 1, [PiBelief(1, good), PiBelief(1, bad)])


def test_value_at_has_the_graph_node_budget(monkeypatch, i2_spec):
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_NODES", 3)
    with pytest.raises(BudgetError) as err:
        value_at(i2_spec, 1, initial_belief(i2_spec))
    assert str(err.value) == ("reachable-belief graph exceeded 3 nodes "
                              "(edges so far: 0)")


# -- behavior budget ----------------------------------------------------------
# Each check reads minimize.DEFAULT_MAX_JOINT_BEHAVIORS when it runs.

@pytest.mark.parametrize("build", [reachable_graph, second_form.reachable_graph2])
def test_branch_table_has_the_behavior_budget(monkeypatch, i2_spec, build):
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 1)
    with pytest.raises(BudgetError, match="branch table at t=1"):
        build(i2_spec)


def test_behavior_space_has_the_behavior_budget(monkeypatch, i2_spec):
    graph = reachable_graph(i2_spec)
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 1)
    with pytest.raises(BudgetError, match="profile minimization at t=3"):
        solve_on_graph(graph)


def test_terminal_batch_has_the_behavior_budget(monkeypatch, i2_spec):
    # A stage-3 i2 row spans 2**8 behaviors of controller 0 times 8 windows
    # times 2 actions of controller 1: 4,096 entries, over 64 * 63.  At 64 the
    # batch fits and the 256 behaviors of controller 0 do not.
    p = np.full(state_count(i2_spec, 3), 1.0 / state_count(i2_spec, 3))
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 63)
    with pytest.raises(BudgetError, match="terminal minimization batch"):
        value_at(i2_spec, 3, PiBelief(3, p))
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 64)
    with pytest.raises(BudgetError, match="needs 256 joint behaviors"):
        value_at(i2_spec, 3, PiBelief(3, p))
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 256)
    assert np.isfinite(value_at(i2_spec, 3, PiBelief(3, p)))


# -- linear pieces ------------------------------------------------------------

def test_alpha_horizon_one_counts_profiles():
    spec = normalize_problem(random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=2))
    assert len(coordinator._stage_alpha_vectors(spec, 1)) == profile_count(spec, 1)


def test_alpha_zero_cost_gives_zero_vectors():
    base = random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=2)
    spec = normalize_problem(ProblemSpec(
        K=base.K, T=base.T, n=base.n, x_size=base.x_size,
        y_size=base.y_size, u_size=base.u_size, x0_dist=np.array(base.x0_dist),
        trans=np.array(base.trans), obs=tuple(np.array(o) for o in base.obs),
        cost=np.zeros_like(base.cost)))
    aset = alpha_backup(spec)
    for t, vecs in aset.vectors.items():
        assert np.abs(vecs).max() == 0.0


def test_alpha_envelope_matches_value(i1_spec):
    aset = alpha_backup(i1_spec)
    rng = np.random.default_rng(3)
    for t in (1, 2):
        for _ in range(25):
            p = rng.dirichlet(np.ones(state_count(i1_spec, t)))
            assert aset.value(t, p) == pytest.approx(
                value_at(i1_spec, t, PiBelief(t, p)), abs=1e-9)


def test_alpha_budget_error(i2_spec, monkeypatch):
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_ALPHA_VECTORS", 1000)
    with pytest.raises(BudgetError, match=r"\(budget 1000\)"):
        alpha_backup(i2_spec)


# -- state rank codec ---------------------------------------------------------

def test_state_rank_bijection(i2_spec):
    for t in (1, 2, 3):
        for rank in range(state_count(i2_spec, t)):
            s = state_unrank(i2_spec, t, rank)
            assert state_rank(i2_spec, s) == rank


# -- per-spec caches ----------------------------------------------------------

def test_per_spec_tables_die_with_their_spec():
    """The stage tables and the h_map index maps are cached weakly on the
    spec; nothing in them may refer back to it, or no spec would ever die."""
    refs = []
    for name in ("io", "i2"):
        spec = instances.load(name)
        _, policy = solve_dp(spec)
        _, policy2 = second_form.solve_dp2(spec)
        design = extract_design(spec, policy)
        evaluate.materialize_design(spec, second_form.extract_design2(spec, policy2))
        evaluate.simulate(spec, design, 20, 7)
        analysis.concavity_probe(spec, 1, 7)
        refs += [weakref.ref(spec), weakref.ref(_tables.tables(spec)),
                 weakref.ref(second_form._hmap_tables(spec))]
        del spec, policy, policy2, design
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
