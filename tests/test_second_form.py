import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unittest import mock

from delayed_sharing import _tables, evaluate
from delayed_sharing.analysis import design_profile
from delayed_sharing.coordinator import (DEFAULT_MAX_NODES, build_graph,
                                         extract_design)
from delayed_sharing.errors import DomainError, UnreachableObservationError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (CommonObs, PartialFunction,
                                       common_obs_space, private_count,
                                       profile_unrank, random_design)
from delayed_sharing.model import ProblemSpec, normalize_problem
from delayed_sharing.second_form import (RSuffix, Theta, ThetaRState,
                                         _aged_parts, extract_design2, h_map,
                                         h_map_block, initial_state, r_update,
                                         reachable_graph2, solve_dp2,
                                         theta_update)
from delayed_sharing.verify import replay_theta_r
from helpers import (PrivateInfo, embedded_profile, h_map_reference,
                     make_i2_mini, part_domain_count, private_rank,
                     suffix_from_prescriptions, support_sets)


def uniform_identity_spec():
    """Uniform observation rows and identity transitions: sharing reveals
    nothing and the state never moves."""
    x = 2
    T, n = 3, 2
    trans = np.zeros((T, x, 4, x))
    trans[:, 0, :, 0] = 1.0
    trans[:, 1, :, 1] = 1.0
    obs = np.full((T, x, 2), 0.5)
    return normalize_problem(ProblemSpec(
        K=2, T=T, n=n, x_size=x, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array([0.3, 0.7]), trans=trans,
        obs=(obs.copy(), obs.copy()),
        cost=np.zeros((T, x, 4))))


# -- theta update -------------------------------------------------------------

def test_theta_update_null_is_identity(i2_spec):
    th = initial_state(i2_spec).theta
    z = common_obs_space(i2_spec, 2)[0]
    th2 = theta_update(i2_spec, th, z)
    assert th2.t == 2
    assert np.array_equal(th2.p, th.p)


def test_theta_update_uninformative_and_static():
    spec = uniform_identity_spec()
    th = Theta(2, np.array([0.3, 0.7]))
    for z in common_obs_space(spec, 3):
        th2 = theta_update(spec, th, z)
        assert np.abs(th2.p - th.p).max() <= 1e-12


def test_theta_update_deterministic_obs_pins_state(ia_spec):
    spec = ia_spec
    th = Theta(2, np.array(spec.x0_dist))
    z = None
    # choose shared observations identifying x0 = 3 -> coords (1, 1)
    for cand in common_obs_space(spec, 3):
        if cand.y == (1, 1) and cand.u == (0, 0):
            z = cand
            break
    th2 = theta_update(spec, th, z)
    # posterior pinned x0=3, prediction is the deterministic successor row
    expect = spec.trans[0][3, spec.encode_action((0, 0))]
    assert np.abs(th2.p - expect).max() <= 1e-12


def test_theta_update_unreachable():
    spec = uniform_identity_spec()
    th = Theta(2, np.array([1.0, 0.0]))
    base = np.array(spec.obs[0])
    base[0, 0] = [0.0, 1.0]     # state 0 never emits observation 0 at stage 1
    spec2 = normalize_problem(ProblemSpec(
        K=2, T=3, n=2, x_size=2, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array(spec.x0_dist), trans=np.array(spec.trans),
        obs=(base, np.array(spec.obs[1])), cost=np.array(spec.cost)))
    bad = next(z for z in common_obs_space(spec2, 3) if z.y == (0, 0))
    with pytest.raises(UnreachableObservationError):
        theta_update(spec2, Theta(2, np.array([1.0, 0.0])), bad)


def test_theta_matches_conditional_oracle(i2_spec, solved):
    spec = i2_spec
    design = random_design(spec, 21)
    for t in (1, 2, 3):
        oracle = evaluate.conditional_x_dists(spec, design.act, t)
        for delta, vec in oracle.items():
            state = replay_theta_r(spec, design, t, delta)
            assert np.abs(state.theta.p - vec).max() <= 1e-12


# -- suffix update ------------------------------------------------------------

def test_r_empty_under_delay_one(i1_spec):
    spec = i1_spec
    state = initial_state(spec)
    assert all(rs.parts == () for rs in state.r)
    gamma = profile_unrank(spec, 1, 3).gammas[0]
    z = common_obs_space(spec, 2)[5]
    rs2 = r_update(spec, state.r[0], gamma, z)
    assert rs2.parts == ()
    assert rs2.t == 2


def test_r_update_delay_two_single_curried_part(i2_spec):
    spec = i2_spec
    # t=2 suffix holds the raw first prescription; stepping to t=3 curries
    # the second prescription at the newly shared pair
    g1 = PartialFunction(0, 1, (0, 1))
    z_null = common_obs_space(spec, 2)[0]
    rs2 = r_update(spec, initial_state(spec).r[0], g1, z_null)
    assert rs2.parts == ((0, 1),)
    g2 = PartialFunction(0, 2, tuple(i % 2 for i in range(8)))
    z = next(z for z in common_obs_space(spec, 3)
             if z.y == (1, 0) and z.u == (1, 1))
    rs3 = r_update(spec, rs2, g2, z)
    assert len(rs3.parts) == 1
    table = rs3.parts[0]
    assert len(table) == 2
    # entries are the prescription at (y1=1, y2, u1=1)
    for y2 in range(2):
        full_rank = private_rank(spec, PrivateInfo(0, 2, (1, y2), (1,)))
        assert table[y2] == g2.table[full_rank]


def test_r_update_constant_prescription_stays_constant(i2_spec):
    spec = i2_spec
    g2 = PartialFunction(0, 2, (1,) * 8)
    rs2 = RSuffix(0, 2, ((0, 0),))
    z = common_obs_space(spec, 3)[3]
    rs3 = r_update(spec, rs2, g2, z)
    assert rs3.parts[0] == (1, 1)


def test_r_update_mismatched_prescription(i2_spec):
    with pytest.raises(DomainError):
        r_update(i2_spec, RSuffix(0, 2, ((0, 0),)),
                 PartialFunction(1, 2, (0,) * 8),
                 common_obs_space(i2_spec, 3)[0])


@pytest.mark.parametrize("n, rs, null", [
    (2, RSuffix(0, 1, ()), False),          # concrete symbol before sharing
    (3, RSuffix(0, 2, ((0, 1),)), False),   # the same at delay 3
    (2, RSuffix(0, 2, ((0, 1),)), True),    # null symbol after sharing starts
    (1, RSuffix(0, 1, ()), True),           # the same at delay 1
])
def test_r_update_rejects_a_symbol_of_the_wrong_kind(n, rs, null):
    """Like theta_update, the suffix update takes the null symbol exactly
    while nothing is shared; before, a concrete symbol there failed with a
    TypeError inside the currying, and a null one after was accepted."""
    spec = normalize_problem(random_instance(2, 4, n, 2, (2, 2), (2, 2), 5))
    z = CommonObs(rs.t + 1, None, None) if null else common_obs_space(spec, n + 1)[0]
    gamma = PartialFunction(0, rs.t, (0, 1) * (private_count(spec, 0, rs.t) // 2))
    with pytest.raises(DomainError, match=f"symbol at time {rs.t + 1}"):
        r_update(spec, rs, gamma, z)
    with pytest.raises(DomainError, match=f"symbol at time {rs.t + 1}"):
        _aged_parts(spec, rs, z)


def test_suffix_recursion_matches_definition(i2_spec):
    """Composing updates along a history equals building the suffix directly
    from the prescriptions with shared arguments substituted."""
    spec = i2_spec
    design = random_design(spec, 33)
    for t in (2, 3):
        oracle = evaluate.conditional_x_dists(spec, design.act, t)
        for delta in oracle:
            state = replay_theta_r(spec, design, t, delta)
            gammas = {
                m: design_profile(spec, design, m,
                                  delta[: max(0, m - spec.n)]).gammas[0]
                for m in range(1, t)
            }
            shared_y = {}
            shared_u = {}
            for j, zr in enumerate(delta):
                z = common_obs_space(spec, spec.n + 1 + j)[zr]
                shared_y[j + 1] = z.y[0]
                shared_u[j + 1] = z.u[0]
            direct = suffix_from_prescriptions(spec, 0, t, gammas,
                                               shared_y, shared_u)
            assert direct.parts == state.r[0].parts


# -- reconstruction map -------------------------------------------------------

def test_h_map_delay_one_factorizes(i1_spec):
    spec = i1_spec
    theta = Theta(2, np.array([0.25, 0.75]))
    state = ThetaRState(theta, tuple(RSuffix(k, 2, ()) for k in range(2)))
    pi = h_map(spec, state)
    cube = pi.p.reshape(2, 2, 2)
    for x in range(2):
        for ya in range(2):
            for yb in range(2):
                want = theta.p[x] * spec.obs[0][1][x, ya] * spec.obs[1][1][x, yb]
                assert cube[x, ya, yb] == pytest.approx(want, abs=1e-14)


def test_h_map_single_state():
    spec = normalize_problem(random_instance(2, 3, 2, 1, (2, 2), (2, 2), seed=14))
    state = replay_theta_r(spec, random_design(spec, 1), 3, (0,))
    pi = h_map(spec, state)
    assert pi.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert pi.p.reshape(1, 8, 8).shape == (1, 8, 8)


def _random_theta_r(K, n, X, t, seed, zero_share, count=1):
    """count (Theta, r) states at time t of a K-controller, delay-n instance
    over X states, drawn directly: kernels with about zero_share of their
    entries zeroed (every row kept a distribution), and per state a random
    Theta (as sparse as the kernels) and random part tables of the right
    arity."""
    rng = np.random.default_rng(seed)
    base = random_instance(K, n + 1, n, X, (2,) * K, (2,) * K, seed)

    def sparsify(a):
        a = np.array(a)
        a[rng.random(a.shape) < zero_share] = 0.0
        a[..., 0] += a.sum(axis=-1) == 0.0
        return a / a.sum(axis=-1, keepdims=True)

    spec = normalize_problem(dataclasses.replace(
        base, trans=sparsify(base.trans),
        obs=tuple(sparsify(o) for o in base.obs)))
    lo = max(1, t - n + 1)
    states = []
    for _ in range(count):
        theta = sparsify(rng.random(X))
        r = tuple(RSuffix(k, t, tuple(
            tuple(int(v) for v in rng.integers(0, 2, part_domain_count(spec, k, t, m)))
            for m in range(lo, t))) for k in range(K))
        states.append(ThetaRState(Theta(t, theta), r))
    return spec, states


@settings(max_examples=80, deadline=None)
@given(K=st.sampled_from((2, 3)), n=st.sampled_from((1, 2, 3)),
       X=st.sampled_from((2, 3)), t_back=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16), zero_share=st.sampled_from((0.0, 0.3, 0.6)))
@example(K=2, n=3, X=3, t_back=1, seed=3, zero_share=0.3)
def test_h_map_equals_dict_loop_reference(K, n, X, t_back, seed, zero_share):
    """The array h_map is the same floating-point sum as the dict loop,
    including at delay 3 over three states, where cells reached in an order
    other than ascending state must still sum in the loop's order."""
    t = max(1, n + 1 - t_back)
    spec, (state,) = _random_theta_r(K, n, X, t, seed, zero_share)
    assert np.array_equal(h_map(spec, state).p, h_map_reference(spec, state).p)


@settings(max_examples=60, deadline=None)
@given(K=st.sampled_from((2, 3)), n=st.sampled_from((1, 2, 3)),
       X=st.sampled_from((2, 3)), t_back=st.integers(0, 3),
       seed=st.integers(0, 2 ** 16), zero_share=st.sampled_from((0.0, 0.3, 0.6)),
       count=st.integers(2, 5))
@example(K=2, n=3, X=3, t_back=1, seed=3, zero_share=0.3, count=3)
def test_h_map_block_rows_equal_the_reference(K, n, X, t_back, seed, zero_share,
                                             count):
    """Several states in one h_map_block call, with mixed Theta supports and
    sparse kernels: every row is byte for byte the dict loop on its state
    alone, so stacking states on the node axis never regroups a sum."""
    t = max(1, n + 1 - t_back)
    spec, states = _random_theta_r(K, n, X, t, seed, zero_share, count)
    pis = h_map_block(spec, states)
    assert len(pis) == count
    for pi, state in zip(pis, states):
        assert pi.t == t
        assert pi.p.tobytes() == h_map_reference(spec, state).p.tobytes()


def test_h_map_equals_dict_loop_reference_on_graph_nodes(solved):
    for name, entry in solved.items():
        spec = entry["spec"]
        for node in entry["graph2"].by_id:
            assert np.array_equal(node.pi.p, h_map_reference(spec, node.state).p), name


def test_h_map_equals_recursive_belief_everywhere(i2_spec, solved):
    spec = i2_spec
    from delayed_sharing.analysis import replay_beliefs
    design = extract_design(spec, solved["i2"]["pol"])
    for t in (1, 2, 3):
        dists = evaluate.conditional_state_dists(spec, design.act, t)
        for delta in dists:
            pi_rec = replay_beliefs(spec, design, t, delta)
            state = replay_theta_r(spec, design, t, delta)
            assert np.abs(h_map(spec, state).p - pi_rec.p).max() <= 1e-12


# -- graph and dynamic program ------------------------------------------------

def test_graph2_delay_one_nodes_are_theta_only(i1_spec):
    graph2 = reachable_graph2(i1_spec)
    for nodes in graph2.stages.values():
        for node in nodes:
            assert all(rs.parts == () for rs in node.state.r)


def test_graph2_horizon_one_single_node():
    spec = random_instance(2, 1, 2, 2, (2, 2), (2, 2), seed=4)
    graph2 = reachable_graph2(spec)
    assert graph2.node_count == 1


def state_key(state: ThetaRState) -> tuple:
    """The dedup key reachable_graph2 gives a (Theta, r) state."""
    return (state.t, state.theta.key, tuple(rs.parts for rs in state.r))


def _per_edge_graph2(spec):
    """The (Theta, r) graph with every edge's successor built from scratch:
    the zero-filled profile, theta_update and one r_update per controller."""
    def base_of(node):
        if spec.n == 1:
            return node.support
        return tuple(tuple(range(private_count(spec, k, node.t)))
                     for k in range(spec.K))

    def children(block, z, visible, rows, ranks, M, pz):
        shapes = [(spec.u_size[k],) * len(visible[k]) for k in range(spec.K)]
        flat = np.unravel_index(ranks, [spec.u_size[k] ** len(visible[k])
                                        for k in range(spec.K)])
        states = []
        for i, j in enumerate(rows):
            node = block[j]
            digits = [[int(d) for d in np.unravel_index(flat[k][i], shapes[k])]
                      for k in range(spec.K)]
            rep = embedded_profile(spec, node.t, visible, digits)
            states.append(ThetaRState(
                theta_update(spec, node.state.theta, z),
                tuple(r_update(spec, node.state.r[k], rep.gammas[k], z)
                      for k in range(spec.K))))
        return [state_key(state) for state in states], states.__getitem__

    return build_graph(spec, "theta_r", 1, [initial_state(spec)],
                       lambda t, states: [h_map(spec, state) for state in states],
                       base_of, lambda t: children,
                       max_nodes=DEFAULT_MAX_NODES)


# Delay 1 (the key is the child Theta's head id alone; det_n1 merges
# branches).  Delay 3 (two suffix parts, so r_update reads the old suffix),
# one controller that acts and one that observes: the head memo must be kept
# per (node, symbol), not per parent Theta.  A three-action controller
# (base-3 digits, at delay 2 and 3) and three controllers check the digit
# order of the newest suffix part.
_SECOND_FORM_CASES = {
    "det_n1": (2, 4, 1, 2, (2, 2), (2, 2), 5, True),
    "det_n2": (2, 4, 2, 2, (2, 2), (2, 2), 5, True),
    "delay3": (2, 4, 3, 2, (1, 2), (2, 1), 73, False),
    "det_n3": (2, 5, 3, 2, (1, 2), (2, 1), 73, True),
    "u3_det": (2, 4, 2, 2, (2, 1), (3, 2), 11, True),
    "u3_n3": (2, 4, 3, 2, (1, 2), (3, 1), 11, False),
    "k3": (3, 4, 2, 2, (2, 1, 1), (2, 1, 2), 11, False),
}


def _case_spec(name, solved):
    if name in _SECOND_FORM_CASES:
        *shape, seed, det = _SECOND_FORM_CASES[name]
        return normalize_problem(random_instance(*shape, seed, deterministic=det))
    return solved[name]["spec"]


@pytest.mark.parametrize("name", ["io", "i1", "i2", "ia", *_SECOND_FORM_CASES])
def test_per_node_successor_gives_the_per_edge_graph(name, solved):
    """reachable_graph2's successor rule against one from-scratch successor
    per edge, for one node per block, an odd block cap and the default: node
    ids, state keys, belief bytes and branch tables.  Every node has its
    support when made, and a node never expanded (stage T) keeps it as its
    relevant sets."""
    spec = _case_spec(name, solved)
    want = _per_edge_graph2(spec)
    for entries in (1, 999, _tables._BLOCK_ENTRIES):
        with mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
            got = reachable_graph2(spec)
        for node in got.by_id:
            assert node.support == support_sets(spec, node.t, node.pi.p)
            if node.t == spec.T:
                assert node.relevant == node.support
        assert got.node_count == want.node_count
        for a, b in zip(got.by_id, want.by_id):
            assert (a.node_id, a.t) == (b.node_id, b.t)
            assert state_key(a.state) == state_key(b.state)
            assert a.state.theta.p.tobytes() == b.state.theta.p.tobytes()
            assert a.pi.p.tobytes() == b.pi.p.tobytes()
            ga, gb = got.expansions[a.node_id], want.expansions[b.node_id]
            assert list(ga) == list(gb)
            for zr, ztab in ga.items():
                other = gb[zr]
                assert ztab.visible == other.visible
                assert ztab.shape == other.shape
                for col in ("rank", "pz", "child"):
                    assert getattr(ztab, col).tobytes() == getattr(other, col).tobytes()


@pytest.mark.parametrize("name", ["i2", "ia", *(
    name for name, case in _SECOND_FORM_CASES.items() if case[2] >= 2)])
def test_branch_tables_of_a_stage_share_one_shape(name, solved):
    """At delay 2 or more every branch table of a (Theta, r) stage has one
    shape: its visible sets are the realizations consistent with the symbol,
    equally many under every symbol.  That makes reachable_graph2's key,
    head id times the stage's assignment count plus the assignment rank,
    one-to-one on (head, rank)."""
    spec = _case_spec(name, solved)
    assert spec.n >= 2
    graph = reachable_graph2(spec)
    shapes = {t: {ztab.shape for node in nodes
                  for ztab in graph.expansions[node.node_id].values()}
              for t, nodes in graph.stages.items() if t < spec.T}
    assert all(len(per) == 1 for per in shapes.values()), shapes


def test_graph2_golden_counts(solved):
    want = {"io": (5, 4), "i1": (17, 16), "i2": (273, 1040), "ia": (81, 1040)}
    for name, (nodes, edges) in want.items():
        graph2 = solved[name]["graph2"]
        assert (graph2.node_count, graph2.edge_count) == (nodes, edges), name


def test_solve_dp2_zero_cost():
    base = random_instance(2, 3, 2, 2, (2, 2), (2, 2), seed=4)
    spec = normalize_problem(ProblemSpec(
        K=base.K, T=base.T, n=base.n, x_size=base.x_size,
        y_size=base.y_size, u_size=base.u_size, x0_dist=np.array(base.x0_dist),
        trans=np.array(base.trans), obs=tuple(np.array(o) for o in base.obs),
        cost=np.zeros_like(base.cost)))
    vt2, _ = solve_dp2(spec)
    assert vt2.optimal_cost == 0.0


def test_solve_dp2_matches_dp1_on_all_instances(solved):
    for name, entry in solved.items():
        diff = abs(entry["vt"].optimal_cost - entry["vt2"].optimal_cost)
        assert diff <= 1e-9, name


def test_solve_dp2_matches_brute_force_on_delay_two_mini():
    spec = normalize_problem(make_i2_mini())
    vt2, _ = solve_dp2(spec)
    best, _ = evaluate.brute_force_optimum(spec)
    assert vt2.optimal_cost == pytest.approx(best, abs=1e-9)


# -- extraction ---------------------------------------------------------------

def test_extract2_horizon_one_is_root_profile():
    spec = normalize_problem(random_instance(2, 1, 2, 2, (2, 2), (2, 2), seed=6))
    vt2, pol2 = solve_dp2(spec)
    design = extract_design2(spec, pol2)
    profile = profile_unrank(spec, 1, pol2.profile_rank(1, 0))
    for k in range(2):
        for lam in range(2):
            assert design.act(k, 1, lam, ()) == profile.gammas[k].table[lam]


def test_extract2_exact_cost_equals_value(solved):
    for name in ("i2", "ia"):
        entry = solved[name]
        design = extract_design2(entry["spec"], entry["pol2"])
        got = evaluate.exact_cost(entry["spec"], design).expected_cost
        assert got == pytest.approx(entry["vt2"].optimal_cost, abs=1e-9)


def test_extract2_wrong_policy_kind(solved):
    with pytest.raises(DomainError):
        extract_design2(solved["i1"]["spec"], solved["i1"]["pol"])


def test_deep_delay_recursion_matches_oracle():
    """Delay 3 over four stages: suffixes hold two parts and currying fixes
    coordinates one shared stage at a time.  The recursion must still match
    exhaustive conditioning at every reachable history."""
    spec = normalize_problem(random_instance(1, 4, 3, 2, (2,), (2,), seed=71))
    design = random_design(spec, 72)
    for t in (2, 3, 4):
        oracle_x = evaluate.conditional_x_dists(spec, design.act, t)
        oracle_s = evaluate.conditional_state_dists(spec, design.act, t)
        for delta in oracle_x:
            state = replay_theta_r(spec, design, t, delta)
            assert np.abs(state.theta.p - oracle_x[delta]).max() <= 1e-12
            _, vec = oracle_s[delta]
            assert np.abs(h_map(spec, state).p - vec).max() <= 1e-12


def test_deep_delay_dp_cross_consistency():
    spec = normalize_problem(random_instance(1, 4, 3, 2, (1,), (2,), seed=73))
    from delayed_sharing.coordinator import solve_dp
    vt, _ = solve_dp(spec)
    vt2, _ = solve_dp2(spec)
    assert abs(vt.optimal_cost - vt2.optimal_cost) <= 1e-9


# -- delayed separation -------------------------------------------------------

def test_state_depends_only_on_recent_prescriptions(i2_spec):
    """The information state at t is a function of the shared data and the
    prescriptions from the last n-1 stages alone: two designs agreeing on
    those produce identical states at shared histories."""
    spec = i2_spec
    d1 = random_design(spec, 101)
    d2 = evaluate.materialize_design(spec, d1)
    # flip one stage-1 entry: the designs differ before the suffix window
    # (stage 1 < t-n+1 = 2) yet share the histories avoiding that input
    d2.tables[0][0][0, 0] = (d2.tables[0][0][0, 0] + 1) % spec.u_size[0]
    o1 = evaluate.conditional_x_dists(spec, d1.act, 3)
    o2 = evaluate.conditional_x_dists(spec, d2.act, 3)
    shared = set(o1) & set(o2)
    assert shared and set(o1) != set(o2)
    for delta in shared:
        s1 = replay_theta_r(spec, d1, 3, delta)
        s2 = replay_theta_r(spec, d2, 3, delta)
        assert np.abs(s1.theta.p - s2.theta.p).max() <= 1e-12
        assert all(a.parts == b.parts for a, b in zip(s1.r, s2.r))
