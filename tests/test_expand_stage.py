"""The batched branch expansion and the single-profile routes (belief
update, the dense symbol maps of alpha_backup) against a per-profile
reference, the stage totals against an ordered-sum loop, and the terminal
minimization fold against a reduction along the action axis.  All must
agree bit for bit: batching and folds change how the work is scheduled,
never the arithmetic."""

import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing import _tables, coordinator, instances, minimize
from delayed_sharing._tables import stacked_support_sets, tables
from delayed_sharing.coordinator import PiBelief, belief_update
from delayed_sharing.errors import BudgetError, UnreachableObservationError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (GammaProfile, PartialFunction,
                                       common_obs_rank, common_obs_space)
from delayed_sharing.model import normalize_problem
from helpers import (embedded_profile, ordered_totals_reference, support_sets,
                     update_mass)


def _consistent(spec, t, z):
    """Realizations whose aged-out coordinates match z, straight from the
    window tables (not through the solver's per-symbol cache)."""
    stt = tables(spec).stage[t]
    out = []
    for k in range(spec.K):
        good = stt.y_aged[k] == z.y[k]
        if spec.n >= 2:
            good = good & (stt.u_aged[k] == z.u[k])
        out.append(tuple(int(i) for i in np.nonzero(good)[0]))
    return tuple(out)


def _reference_expand(spec, t, p, base):
    """One update_mass call per assignment on the visible sets (the base
    sets, or under a concrete symbol the base realizations consistent with
    it), with the zero-filled representative profile: the loop
    _expand_nodes batches."""
    stt = tables(spec).stage[t]
    out = {}
    for z in common_obs_space(spec, t + 1):
        zr = common_obs_rank(spec, z)
        if z.is_null:
            visible = base
            cand = np.nonzero(p > 0.0)[0]
        else:
            cons = _consistent(spec, t, z)
            mask = p > 0.0
            for k in range(spec.K):
                mask &= np.isin(stt.lam_of_s[k], cons[k])
            if not mask.any():
                continue
            visible = tuple(tuple(l for l in cons[k] if l in base[k])
                            for k in range(spec.K))
            cand = np.nonzero(mask)[0]
        entries = {}
        axes = [itertools.product(range(spec.u_size[k]), repeat=len(visible[k]))
                for k in range(spec.K)]
        for digits in itertools.product(*axes):
            rep = embedded_profile(spec, t, visible, digits)
            m, pz = update_mass(spec, t, p, rep, zr, cand)
            if pz <= 0.0:
                continue
            key = []
            for k in range(spec.K):
                r = 0
                for d in digits[k]:
                    r = r * spec.u_size[k] + d
                key.append(r)
            entries[tuple(key)] = (pz, m / pz, digits)
        if entries:
            out[zr] = (visible, entries)
    return out


def _base_sets(spec, t, p, rule):
    if rule == "support":            # belief form and value_at
        return support_sets(spec, t, p)
    # "consistent": the (Theta, r) form at delay >= 2, where every
    # realization consistent with the symbol is visible
    return tuple(tuple(range(L)) for L in tables(spec).stage[t].L)


def expand_one(spec, t, p, base, child_fn):
    """The branch tables of one information state: a one-row block of
    _expand_nodes, with child_fn(z, visible, key, m, pz) -> child id called
    per branch, key holding the per-controller assignment ranks (ZTable's
    ranking), m the unnormalized next-belief mass and pz the probability."""
    def children(z, visible, rows, ranks, M, pz):
        shape = tuple(spec.u_size[k] ** len(visible[k]) for k in range(spec.K))
        keys = zip(*(a.tolist() for a in np.unravel_index(ranks, shape)))
        return [child_fn(z, visible, key, m, q)
                for key, m, q in zip(keys, M, pz.tolist())]
    return coordinator._expand_nodes(spec, t, p[None], [base], children)[0][0]


def _belief(spec, t, rng, sparsity):
    stt = tables(spec).stage[t]
    p = rng.uniform(0.0, 1.0, stt.state_count)
    p[rng.uniform(size=stt.state_count) < sparsity] = 0.0
    if not p.any():
        p[int(rng.integers(stt.state_count))] = 1.0
    return p / p.sum()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2]), deterministic=st.booleans(),
       rule=st.sampled_from(["support", "consistent"]),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_batched_expansion_matches_per_assignment_loop(
        seed, K, n, deterministic, rule, sparsity):
    spec = normalize_problem(random_instance(
        K, n + 1, n, 2, (2,) * K, (2,) * K, seed=seed,
        deterministic=deterministic))
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, spec.T))
    p = _belief(spec, t, rng, sparsity)
    base = _base_sets(spec, t, p, rule)

    calls, child_fn = _recorder(spec)
    got = expand_one(spec, t, p, base, child_fn)
    _assert_same_expansion(spec, got, calls,
                           _reference_expand(spec, t, p, base))


def _recorder(spec):
    """A child_fn that records its arguments and returns the call index."""
    calls = []

    def child_fn(z, visible, key, m, pz):
        calls.append((common_obs_rank(spec, z), visible, key, m / pz, pz))
        return len(calls) - 1
    return calls, child_fn


def _assert_same_expansion(spec, got, calls, want):
    assert list(got) == list(want)
    order = []
    for zr, ztab in got.items():
        visible, entries = want[zr]
        assert ztab.visible == visible
        assert ztab.shape == tuple(spec.u_size[k] ** len(visible[k])
                                   for k in range(spec.K))
        assert ztab.rank.dtype == ztab.child.dtype == np.int64
        assert ztab.pz.dtype == np.float64
        assert ztab.rank.size == ztab.pz.size == ztab.child.size
        keys = [tuple(int(i) for i in np.unravel_index(r, ztab.shape))
                for r in ztab.rank]
        assert keys == list(entries)            # ascending rank, no repeats
        for key, pz, idx in zip(keys, ztab.pz, ztab.child):
            ref_pz, ref_child, ref_digits = entries[key]
            c_zr, c_visible, c_key, child, c_pz = calls[idx]
            assert pz == ref_pz == c_pz
            assert c_zr == zr and c_visible == visible and c_key == key
            assert np.array_equal(child, ref_child)
            order.append(int(idx))
    assert order == list(range(len(calls)))     # child_fn in table order


@pytest.mark.parametrize("K,n", [(2, 2), (3, 1)])
def test_row_chunks_match_one_gather(monkeypatch, K, n):
    """With a one-entry gather budget every assignment is its own chunk;
    the result must not depend on where the chunks split."""
    spec = normalize_problem(random_instance(
        K, n + 1, n, 2, (2,) * K, (2,) * K, seed=11))
    rng = np.random.default_rng(11)
    t = spec.T - 1
    p = _belief(spec, t, rng, 0.5)
    base = _base_sets(spec, t, p, "consistent")
    monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", 1)
    calls, child_fn = _recorder(spec)
    got = expand_one(spec, t, p, base, child_fn)
    assert got
    _assert_same_expansion(spec, got, calls,
                           _reference_expand(spec, t, p, base))


# -- stage-batched graph build against one expansion per node ----------------

# One node per block (and per gather); an odd cap that splits stages and
# groups unevenly; the default.
BLOCK_ENTRIES = (1, 999, _tables._BLOCK_ENTRIES)
KEY_ROWS = {"grid": coordinator.quantize_rows, "exact": np.ascontiguousarray}


def _per_node_graph(spec, root, key_rows, rule,
                    max_nodes=coordinator.DEFAULT_MAX_NODES):
    """The graph that one expand_one per node builds, node after node,
    inserting each branch's child as its child_fn call comes: the per-node
    reference of build_graph's stage blocks.  Returns the beliefs in node-id
    order and each expanded node's branch tables.  A new key past max_nodes
    raises the node-budget error, whose edges are those of every node
    expanded before."""
    beliefs, index, stages, tabs = [], {}, {t: [] for t in range(1, spec.T + 1)}, {}

    def insert(pi):
        key = (pi.t, key_rows(pi.p).tobytes())
        if key not in index:
            if len(beliefs) == max_nodes:
                edges = sum(z.rank.size for per in tabs.values() for z in per.values())
                raise BudgetError(f"reachable-belief graph exceeded {max_nodes} "
                                  f"nodes (edges so far: {edges})")
            index[key] = len(beliefs)
            beliefs.append(pi)
            stages[pi.t].append(index[key])
        return index[key]

    insert(root)
    for t in range(root.t, spec.T):
        for i in list(stages[t]):
            p = beliefs[i].p
            tabs[i] = expand_one(
                spec, t, p, _base_sets(spec, t, p, rule),
                lambda z, visible, key, m, pz: insert(PiBelief(t + 1, m / pz)))
    return beliefs, tabs


def _stage_batched_graph(spec, root, key_rows, rule,
                         max_nodes=coordinator.DEFAULT_MAX_NODES,
                         successor_rule=None):
    return coordinator.build_graph(
        spec, "belief", root.t, [root.p],
        pi_of=lambda t, rows: [PiBelief(t, p) for p in rows],
        base_of=lambda node: _base_sets(spec, node.t, node.pi.p, rule),
        successor_rule=successor_rule or coordinator.belief_successors(key_rows),
        max_nodes=max_nodes)


def _assert_same_graph(graph, beliefs, tabs):
    """The per-node graph's node ids, beliefs and branch tables; every node
    has its support when made, and a node never expanded (stage T) keeps
    it as its relevant sets."""
    spec = graph.spec
    assert graph.node_count == len(beliefs)
    for node, pi in zip(graph.by_id, beliefs):
        assert node.t == pi.t
        assert node.pi.p.tobytes() == pi.p.tobytes()
        assert node.support == support_sets(spec, node.t, node.pi.p)
        if node.t == spec.T:
            assert node.relevant == node.support
    assert [n.node_id for t in sorted(graph.stages) for n in graph.stages[t]] == \
        list(range(len(beliefs)))
    for node_id, want in tabs.items():
        got = graph.expansions[node_id]
        assert list(got) == list(want)
        for zr, ztab in got.items():
            other = want[zr]
            assert (ztab.visible, ztab.shape) == (other.visible, other.shape)
            for name in ("rank", "pz", "child"):
                a, b = getattr(ztab, name), getattr(other, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _tree_spec(K, n, seed, deterministic):
    """Two to three stages of branching.  At delay 3 one controller acts
    and another observes, so full-window assignments stay small."""
    if n == 3:
        y, u = (1,) + (2,) * (K - 1), (2,) + (1,) * (K - 1)
    else:
        y, u = (2, 2, 1)[:K], (2, 1, 2)[:K] if K == 3 else (2, 2)
    return normalize_problem(random_instance(
        K, n + 1 if n >= 2 else 3, n, 2, y, u, seed=seed,
        deterministic=deterministic))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2, 3]), deterministic=st.booleans(),
       rule=st.sampled_from(["support", "consistent"]),
       keys=st.sampled_from(sorted(KEY_ROWS)),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_stage_blocks_match_per_node_expansion(seed, K, n, deterministic, rule,
                                               keys, sparsity):
    """build_graph on a sparse random root (so a stage mixes supports, and
    groups split) against one expand_one per node, for every block size:
    the same node ids, belief bytes and branch tables.  Exact keys, as in
    values_at, make each new node's belief a read-only view of its key."""
    spec = _tree_spec(K, n, seed, deterministic)
    root = PiBelief(1, _belief(spec, 1, np.random.default_rng(seed), sparsity))
    beliefs, tabs = _per_node_graph(spec, root, KEY_ROWS[keys], rule)
    exact = keys == "exact"
    for entries in BLOCK_ENTRIES:
        with mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
            graph = _stage_batched_graph(
                spec, root, KEY_ROWS[keys], rule,
                successor_rule=coordinator.belief_successors(
                    KEY_ROWS[keys], belief_is_key=exact))
        _assert_same_graph(graph, beliefs, tabs)
        for node in graph.by_id[1:]:
            assert isinstance(node.pi.p.base, bytes) == exact
            assert not node.pi.p.flags.writeable


def _logged(spec, successor_rule, log):
    """successor_rule, logging each batch as (stage, block number (its first
    node id), keys, each branch's per-node order (block row, symbol rank,
    assignment rank))."""
    def rule_at(t):
        children = successor_rule(t)

        def spy(block, z, visible, rows, ranks, M, pz):
            keys, state_of = children(block, z, visible, rows, ranks, M, pz)
            zr = common_obs_rank(spec, z)
            log.append((t, block[0].node_id, keys,
                        [(j, zr, r) for j, r in zip(rows, ranks.tolist())]))
            return keys, state_of
        return spy
    return rule_at


def _dedup_cases(log):
    """The dedup cases the logged batches reach: a key repeated within a
    batch, a key indexed by an earlier block of its stage, and a key new to
    the graph whose smallest order comes in a later batch of its block than
    the key's first."""
    cases, known, block = set(), {}, None
    for t, number, keys, orders in log:
        if number != block:     # earlier blocks of the stage indexed their keys
            block, first, indexed = number, {}, set(known.setdefault(t, set()))
        if len(set(keys)) < len(keys):
            cases.add("repeated")
        for key, order in zip(keys, orders):
            if key in indexed:
                cases.add("indexed")
            elif order < first.get(key, order):
                cases.add("later")
        for key, order in zip(keys, orders):
            first[key] = min(first.get(key, order), order)
        known[t].update(keys)
    return cases


def test_dedup_order_matches_per_node_expansion():
    """A coarse key (beliefs rounded to quarters) merges distinct beliefs,
    so each node must keep the belief of its key's first branch in per-node
    order.  With 300-entry blocks (four nodes) the batches reach every
    dedup case (a key repeated within a batch, a key indexed by an earlier
    block, a key whose smallest order comes in a later batch); every block
    size must give the per-node graph's node ids, stage lists and beliefs,
    and every node budget its error and edge count."""
    spec = normalize_problem(random_instance(2, 4, 1, 2, (2, 2), (2, 2), 5))
    root = coordinator.initial_belief(spec)
    coarse = lambda P: np.round(P * 4)
    beliefs, tabs = _per_node_graph(spec, root, coarse, "support")
    for entries in (*BLOCK_ENTRIES, 300):
        log = []
        with mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
            graph = _stage_batched_graph(
                spec, root, coarse, "support",
                successor_rule=_logged(spec, coordinator.belief_successors(coarse), log))
            _assert_same_graph(graph, beliefs, tabs)
            if entries == 300:
                assert _dedup_cases(log) == {"repeated", "indexed", "later"}
            for max_nodes in range(1, len(beliefs)):
                with pytest.raises(BudgetError) as want:
                    _per_node_graph(spec, root, coarse, "support", max_nodes)
                with pytest.raises(BudgetError) as got:
                    _stage_batched_graph(spec, root, coarse, "support", max_nodes)
                assert str(got.value) == str(want.value)


def _spanning_groups(log):
    """Batches of two or more block rows whose rows already came in an
    earlier batch of the same block and symbol: a group spanning two or
    more assignment chunks (a row is in one group per symbol)."""
    seen, count = {}, 0
    for t, number, _, orders in log:
        rows = {j for j, _, _ in orders}
        earlier = seen.setdefault((t, number, orders[0][1]), [])
        count += len(rows) >= 2 and any(rows & other for other in earlier)
        earlier.append(rows)
    return count


def test_groups_spanning_chunks_match_per_node_expansion(monkeypatch):
    """At 2,048 entries a block of this delay-2 tree holds two stage-2
    nodes, and a group of both gets its assignments in several chunks, so
    its branches come chunk by chunk and are put member by member.  Each
    node's tables are slices of its group's arrays and must be the per-node
    expansion's: ranks strictly ascending, and every child id >= 0 once its
    block is done.  Every node budget must give the per-node error text."""
    spec = _tree_spec(2, 2, 0, False)
    root = coordinator.initial_belief(spec)
    key_rows = coordinator.quantize_rows
    beliefs, tabs = _per_node_graph(spec, root, key_rows, "support")
    real = coordinator._expand_block

    def checked(graph, block, *args):
        real(graph, block, *args)
        for node in block:
            for ztab in graph.expansions[node.node_id].values():
                assert (np.diff(ztab.rank) > 0).all() and (ztab.child >= 0).all()

    monkeypatch.setattr(coordinator, "_expand_block", checked)
    monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", 2048)
    log = []
    graph = _stage_batched_graph(
        spec, root, key_rows, "support",
        successor_rule=_logged(spec, coordinator.belief_successors(key_rows), log))
    assert _spanning_groups(log) > 0
    _assert_same_graph(graph, beliefs, tabs)
    shared = sum(a.child.base is b.child.base
                 for i, j in zip(graph.stages[2], graph.stages[2][1:])
                 for z, a in graph.expansions[i.node_id].items()
                 for b in [graph.expansions[j.node_id].get(z)] if b is not None)
    assert shared > 0
    for max_nodes in (1, 2, 9, 17, 18, 40, 100, 200, 272):
        with pytest.raises(BudgetError) as want:
            _per_node_graph(spec, root, key_rows, "support", max_nodes)
        with pytest.raises(BudgetError) as got:
            _stage_batched_graph(spec, root, key_rows, "support", max_nodes)
        assert str(got.value) == str(want.value)


def _kept_per_row(spec, t, cand, actions, z_rank):
    """Kept triples of each assignment row of one _branch_masses call."""
    starts, lens, _, zr, _ = tables(spec).stage[t].step_arrays(spec)
    s_len = lens[cand, actions]
    flat = coordinator._block_triples(starts[cand, actions].reshape(-1),
                                      s_len.reshape(-1))
    row_of = np.repeat(np.arange(len(actions)), s_len.sum(axis=1))
    return np.bincount(row_of[zr[flat] == z_rank], minlength=len(actions))


@pytest.mark.parametrize("name", ["i2", "ia", "tree"])
@pytest.mark.parametrize("entries", BLOCK_ENTRIES)
def test_reachable_graphs_match_per_node_expansion(monkeypatch, name, entries):
    """The shipped graphs with mixed supports (i2, ia), and a generic tree
    whose stage-2 gathers serve groups of several nodes with rows of at
    least 9 kept weights, where a reduction over the 2-D weight block (as
    opposed to one .sum() per row slice) can change the last bits."""
    if name == "tree":
        spec = normalize_problem(random_instance(2, 3, 1, 2, (2, 2), (2, 2), 17))
    else:
        spec = normalize_problem(instances.load(name))
    beliefs, tabs = _per_node_graph(spec, coordinator.initial_belief(spec),
                                    coordinator.quantize_rows, "support")
    calls = []
    real = coordinator._branch_masses

    def spy(steps, cand, mass, actions, z_rank, next_count):
        if len(mass) >= 2 and actions.shape[0]:
            t = next(t for t, stt in tables(spec).stage.items()
                     if stt._step_arrays is steps)
            calls.append(int(_kept_per_row(spec, t, cand, actions, z_rank).max()))
        return real(steps, cand, mass, actions, z_rank, next_count)

    monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(coordinator, "_branch_masses", spy)
    _assert_same_graph(coordinator.reachable_graph(spec), beliefs, tabs)
    if name == "tree" and entries != 1:
        assert max(calls) >= 9


# -- _branch_masses against one single-profile update per pair ---------------

def _kernel_spec(K, n, x_size, kernel, seed):
    """A random instance with many one-step triples per (state, action)
    ("generic"), one ("deterministic"), or one under joint action 0 and many
    under the others ("mixed"), so that the assignments of one block keep
    different numbers of triples."""
    y, u = ((3,), (2,)) if K == 1 else ((2, 2), (2, 2))
    gen = random_instance(K, n + 1, n, x_size, y, u, seed)
    det = random_instance(K, n + 1, n, x_size, y, u, seed, deterministic=True)
    if kernel != "mixed":
        return normalize_problem(gen if kernel == "generic" else det)
    trans = gen.trans.copy()
    trans[:, :, 0] = det.trans[:, :, 0]
    return normalize_problem(dataclasses.replace(gen, trans=trans))


def _check_branch_masses(spec, t, rng, nodes, layout, share, assignments):
    """One _branch_masses call per shared symbol on a block of `nodes`
    beliefs, positive on a random share of the stage's states, passed as a
    C- or F-ordered mass block, under random profiles.  Every (node,
    assignment) pair's pz and mass must be the bytes of its update_mass
    call.  Returns, per call, each assignment's kept triples (its segment
    length)."""
    stt = tables(spec).stage[t]
    cand = np.flatnonzero(rng.uniform(size=stt.state_count) < share)
    if cand.size == 0:
        cand = np.array([int(rng.integers(stt.state_count))])
    P = np.zeros((nodes, stt.state_count))
    P[:, cand] = rng.uniform(0.05, 1.0, (nodes, cand.size))
    P /= P.sum(axis=1, keepdims=True)
    mass = (np.asfortranarray if layout == "F" else np.ascontiguousarray)(P[:, cand])
    profiles = [GammaProfile(t, tuple(
        PartialFunction(k, t, tuple(rng.integers(0, spec.u_size[k], stt.L[k]).tolist()))
        for k in range(spec.K))) for _ in range(assignments)]
    actions = np.stack([coordinator._joint_actions(spec, stt, g)[cand] for g in profiles])
    steps, next_count = stt.step_arrays(spec), tables(spec).stage[t + 1].state_count
    lengths = []
    for zr in (common_obs_rank(spec, z) for z in common_obs_space(spec, t + 1)):
        m, pz = coordinator._branch_masses(steps, cand, mass, actions, zr, next_count)
        for j, p in enumerate(P):
            for i, profile in enumerate(profiles):
                want_m, want_pz = update_mass(spec, t, p, profile, zr, cand)
                assert pz[j, i].tobytes() == np.float64(want_pz).tobytes()
                assert m[j, i].tobytes() == want_m.tobytes()
        lengths.append(_kept_per_row(spec, t, cand, actions, zr).tolist())
    return lengths


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([1, 2]),
       n=st.sampled_from([1, 2]), x_size=st.integers(1, 4),
       kernel=st.sampled_from(["generic", "deterministic", "mixed"]),
       nodes=st.integers(1, 7), layout=st.sampled_from(["C", "F"]),
       share=st.sampled_from([0.3, 0.6, 1.0]), assignments=st.integers(1, 6))
def test_branch_masses_match_update_mass_bytes(seed, K, n, x_size, kernel, nodes,
                                               layout, share, assignments):
    """pz is summed per group of equal segment length by one last-axis sum;
    each must be the bytes of the 1-D .sum() of its own weights, whatever
    the block's size, the mass layout and the mix of segment lengths."""
    spec = _kernel_spec(K, n, x_size, kernel, seed)
    rng = np.random.default_rng(seed)
    _check_branch_masses(spec, int(rng.integers(1, spec.T)), rng, nodes, layout,
                         share, assignments)


def test_branch_masses_cases_cover_segment_lengths():
    """Fixed cases of the test above that reach segment lengths 1 to 9 (below
    and past the 8-term unrolling of numpy's pairwise sum) and past its
    128-term blocks, and calls that mix several nonzero lengths."""
    cases = [  # (K, n, x_size, kernel, seed, t, nodes, layout, share, assignments)
        (2, 2, 2, "deterministic", 5, 2, 7, "F", 0.6, 3),
        (1, 2, 4, "deterministic", 4, 2, 4, "C", 0.6, 2),
        (1, 2, 4, "deterministic", 3, 2, 1, "F", 0.6, 2),
        (1, 2, 4, "mixed", 3, 2, 5, "C", 1.0, 4),
    ]
    seen, mixed = set(), 0
    for K, n, x_size, kernel, seed, t, nodes, layout, share, rows in cases:
        spec = _kernel_spec(K, n, x_size, kernel, seed)
        for lengths in _check_branch_masses(spec, t, np.random.default_rng(seed),
                                            nodes, layout, share, rows):
            seen.update(lengths)
            mixed += len(set(lengths) - {0}) >= 2
    assert set(range(1, 10)) <= seen
    assert max(seen) > 128
    assert mixed


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2]), deterministic=st.booleans(),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_stage_totals_match_ordered_sum_reference(
        seed, K, n, deterministic, sparsity):
    """Stage totals of one belief, and of stacks of 1, 2 and 7 beliefs, are
    row by row the bytes of the ordered Python-float sums on that row
    alone."""
    spec = normalize_problem(random_instance(
        K, n + 1, n, 2, (2,) * K, (2,) * K, seed=seed,
        deterministic=deterministic))
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, spec.T + 1))
    p = _belief(spec, t, rng, sparsity)
    # at most 3 realizations per controller keeps the behavior count small;
    # uneven counts give the controllers unequal behavior axes
    restricted = tuple(lams[:int(rng.integers(1, 4))]
                       for lams in support_sets(spec, t, p))
    bs = minimize.behavior_space(spec, t, restricted)

    want = ordered_totals_reference(spec, t, p, restricted)
    got = minimize.stage_totals(spec, t, p[None], bs)
    assert got.shape == (1, *want.shape)
    assert got[0].tobytes() == want.tobytes()
    for rows in (1, 2, 7):
        P = np.stack([p] + [_belief(spec, t, rng, sparsity)
                            for _ in range(rows - 1)])
        got = minimize.stage_totals(spec, t, P, bs)
        assert got.shape == (rows, *bs.shape)
        for row, q in zip(got, P):
            assert (row.tobytes()
                    == ordered_totals_reference(spec, t, q, restricted).tobytes())


@pytest.mark.parametrize("K", [2, 3])
def test_behavior_space_shares_read_only_digit_tables(K):
    spec = normalize_problem(random_instance(K, 2, 1, 2, (2,) * K, (3,) + (2,) * (K - 1),
                                             seed=5))
    t = 2
    p = _belief(spec, t, np.random.default_rng(5), 0.0)
    restricted = tuple(lams[:3] for lams in support_sets(spec, t, p))
    bs = minimize.behavior_space(spec, t, restricted)
    again = minimize.behavior_space(spec, t, restricted)
    for k in range(spec.K):
        u, m = spec.u_size[k], len(restricted[k])
        want = np.array(list(itertools.product(range(u), repeat=m)),
                        dtype=np.int64).reshape(u ** m, m)
        assert np.array_equal(bs.mats[k], want)
        assert again.mats[k] is bs.mats[k]
        with pytest.raises(ValueError):
            bs.mats[k][...] = 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2]), deterministic=st.booleans(),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]))
def test_single_profile_routes_match_reference(seed, K, n, deterministic, sparsity):
    """belief_update and the dense per-symbol maps of alpha_backup against
    update_mass, with ==.  A third controller observes
    a single symbol, which keeps the per-state reference maps small."""
    spec = normalize_problem(random_instance(
        K, n + 1, n, 2, (2, 2, 1)[:K], (2,) * K, seed=seed,
        deterministic=deterministic))
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, spec.T))
    stt = tables(spec).stage[t]
    count = stt.state_count
    profile = GammaProfile(t, tuple(
        PartialFunction(k, t, tuple(int(a) for a in
                                    rng.integers(0, spec.u_size[k], stt.L[k])))
        for k in range(spec.K)))
    p = _belief(spec, t, rng, sparsity)
    cand = np.nonzero(p > 0.0)[0]
    symbols = [common_obs_rank(spec, z) for z in common_obs_space(spec, t + 1)]
    maps = coordinator._symbol_maps(spec, t, profile)
    assert list(maps) == symbols
    for z, zr in zip(common_obs_space(spec, t + 1), symbols):
        m, pz = update_mass(spec, t, p, profile, zr, cand)
        if pz > 0.0:
            got, got_pz = belief_update(spec, PiBelief(t, p), profile, z)
            assert got_pz == pz
            assert got.p.tobytes() == (m / pz).tobytes()
        else:
            with pytest.raises(UnreachableObservationError):
                belief_update(spec, PiBelief(t, p), profile, z)
        want = np.zeros((count, tables(spec).stage[t + 1].state_count))
        for s in range(count):
            e = np.zeros(count)
            e[s] = 1.0
            row, row_pz = update_mass(spec, t, e, profile, zr, np.array([s]))
            if row_pz > 0.0:
                want[s] = row
        assert maps[zr].tobytes() == want.tobytes()


def _terminal_spec(name):
    if name == "k3":       # three controllers, the last with three actions
        return normalize_problem(random_instance(3, 2, 1, 2, (2, 2, 2), (2, 2, 3),
                                                 seed=4))
    return normalize_problem(instances.load(name))


@pytest.mark.parametrize("name", ["i2", "ia", "k3"])
def test_terminal_fold_matches_axis_min(monkeypatch, name):
    """_last_stage_values folds np.minimum over the last action axis; the
    result must be the bytes of .min(axis=-1) on the same behavior sums,
    then a sum over the last realization axis of a C-contiguous copy.  The
    beliefs are grouped by the first K-1 controllers' supports, first seen
    first, and each group of these few rows is one behavior_sums call."""
    spec = _terminal_spec(name)
    rng = np.random.default_rng(9)
    P = np.stack([_belief(spec, spec.T, rng, sparsity)
                  for sparsity in (0.0, 0.0, 0.5, 0.5, 0.9, 0.9)])
    groups = {}
    for i, support in enumerate(stacked_support_sets(spec, spec.T, P)):
        groups.setdefault(support[:-1], []).append(i)
    outputs = []
    real = minimize.behavior_sums

    def spy(*args):
        outputs.append(real(*args))
        return outputs[-1]

    monkeypatch.setattr(minimize, "behavior_sums", spy)
    got = coordinator._last_stage_values(spec, P)
    assert len(outputs) == len(groups)
    want = np.empty(len(P))
    for (support, rows), cur in zip(groups.items(), outputs):
        assert cur.shape[1:spec.K] == tuple(
            spec.u_size[k] ** len(support[k]) for k in range(spec.K - 1))
        want[rows] = np.ascontiguousarray(cur.min(axis=-1)).sum(axis=-1).reshape(
            len(cur), -1).min(axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["i2", "k3"])
def test_terminal_row_blocks_match_one_block(monkeypatch, name):
    """_last_stage_values minimizes a large batch in row blocks; every block
    size gives the bytes of the whole batch in one block."""
    spec = _terminal_spec(name)
    rng = np.random.default_rng(11)
    P = np.stack([_belief(spec, spec.T, rng, sparsity)
                  for sparsity in (0.0, 0.5, 0.9) * 7])
    monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", 1 << 40)
    whole = coordinator._last_stage_values(spec, P)
    for entries in (1, 3 * 4096, 5 * 96):
        monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", entries)
        got = coordinator._last_stage_values(spec, P)
        assert got.tobytes() == whole.tobytes()
