"""The stage-batched backup against one backup per node.  Grouping nodes by
relevant sets, stacking their beliefs in row blocks and taking one argmin
per block change how the work is scheduled, never the arithmetic: values
must agree bit for bit and minimizing profile ranks exactly, for every row
block size.  The stage totals and the terminal minimization of a stack of
beliefs must give every row the bytes of the one-row call on it, and the
terminal, which enumerates behaviors on supports only, the bytes of a full
enumeration."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delayed_sharing import _tables, instances, minimize
from delayed_sharing._tables import stacked_support_sets, tables
from delayed_sharing.coordinator import (DEFAULT_MAX_NODES, PiBelief,
                                         _belief_graph, _last_stage_values,
                                         belief_successors, initial_belief,
                                         quantize_rows, reachable_graph,
                                         solve_on_graph, stage_blocks)
from delayed_sharing.generate import random_instance
from delayed_sharing.model import normalize_problem
from delayed_sharing.second_form import reachable_graph2
from helpers import (backup_node_reference, last_stage_values_reference,
                     support_sets)

BUILD = {"belief": reachable_graph, "theta_r": reachable_graph2}
# One row per block; an odd cap that leaves partial last blocks; the default.
BLOCK_ENTRIES = (1, 999, _tables._BLOCK_ENTRIES)
# Observation and action counts per controller of shapes where a one-row
# contraction can take another summation path than a stack: one controller,
# a controller with one observation, a controller with one action.
THIN = {"k1": ((2,), (2,)), "y1": ((1, 2), (2, 2)), "u1": ((2, 2), (2, 1))}


def _reference_sweep(graph):
    """Per stage, node id -> (value, rank) from one backup per node."""
    spec = graph.spec
    values = np.zeros(graph.node_count)
    out = {}
    for t in range(spec.T, 0, -1):
        out[t] = {}
        for node in graph.stages[t]:
            out[t][node.node_id] = backup_node_reference(
                spec, t, node.pi.p, node.relevant,
                graph.expansions.get(node.node_id), values)
            values[node.node_id] = out[t][node.node_id][0]
    return out


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2]), deterministic=st.booleans(),
       form=st.sampled_from(["belief", "theta_r"]), u3=st.booleans())
def test_stage_backup_matches_per_node_reference(seed, K, n, deterministic, form, u3):
    """Three stages, so the middle stage both reads and feeds continuations;
    a third controller observes a single symbol, which keeps K=3 graphs near
    a thousand nodes.  With u3, the first controller has three actions."""
    y = (2, 2, 1)[:K] if K == 3 else (2, 2)
    u = (3 if u3 else 2,) + (2,) * (K - 1)
    _check_stage_backup(normalize_problem(random_instance(
        K, 3, n, 2, y, u, seed=seed, deterministic=deterministic)), form)


@pytest.mark.parametrize("y, u", [((2, 2), (2, 2)), ((2, 1), (3, 2)), ((2, 1), (2, 3))])
@pytest.mark.parametrize("form", list(BUILD))
def test_stage_backup_matches_per_node_reference_on_gapped_visible_sets(form, y, u):
    """At delay 2 a symbol's visible sets have gaps in rank (realizations 0
    and 2 of the support 0, 2, 4, 6, say).  Each expanded node's relevant
    sets are widened over those gaps, so such a visible set sits at
    non-adjacent positions of its relevant set (the first and the third of
    0, 1, 2, 4, 5, 6), with positive mass on both, where its subkeys are
    not those of any run of the relevant set; one controller may have three
    actions."""
    spec = normalize_problem(random_instance(2, 3, 2, 2, y, u, seed=0))
    assert _check_stage_backup(spec, form, widen=True) > 0


@pytest.mark.parametrize("shape", list(THIN))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), deterministic=st.booleans(),
       form=st.sampled_from(["belief", "theta_r"]))
def test_stage_backup_matches_per_node_reference_on_thin_shapes(
        shape, seed, deterministic, form):
    """Delay 2, so the last two stages each hold several nodes that share
    relevant sets and stack into one row block."""
    y, u = THIN[shape]
    _check_stage_backup(normalize_problem(random_instance(
        len(y), 3, 2, 2, y, u, seed=seed, deterministic=deterministic)), form)


def _check_stage_backup(spec, form, widen=False):
    """Compare the sweeps; return how many (node, symbol, controller)
    visible sets sit at non-adjacent positions of the relevant set with
    positive mass on two or more of their realizations.  widen adds to each
    expanded node's relevant sets every realization inside the span of one
    of its visible sets (a superset of the support and visible sets is a
    valid relevant set)."""
    graph = BUILD[form](spec)
    gapped = 0
    for node_id, expansion in graph.expansions.items():
        if not expansion:
            continue
        node = graph.by_id[node_id]
        if widen:
            node.relevant = tuple(
                tuple(sorted(set(relevant).union(*(
                    range(ztab.visible[k][0], ztab.visible[k][-1] + 1)
                    for ztab in expansion.values() if ztab.visible[k]))))
                for k, relevant in enumerate(node.relevant))
        for ztab in expansion.values():
            for k, visible in enumerate(ztab.visible):
                at = [node.relevant[k].index(lam) for lam in visible]
                gapped += (len(set(visible) & set(node.support[k])) >= 2
                           and at != list(range(at[0], at[0] + len(at))))
    _check_sweeps(graph)
    return gapped


def _check_sweeps(graph):
    """Every block size's sweep against one backup per node; return per
    block size _mixed_blocks of its row blocks."""
    spec = graph.spec
    leaves = graph.stages[spec.T]
    sweeps, mixed = [], {}
    for entries in (BLOCK_ENTRIES[-1], *BLOCK_ENTRIES[:-1]):
        with mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
            sweeps.append(solve_on_graph(graph)[0])
            mixed[entries] = _mixed_blocks(graph)
    # build_graph read every leaf's support from stacked rows
    for node in leaves:
        assert node.support == support_sets(spec, spec.T, node.pi.p)
    want = _reference_sweep(graph)
    for vt in sweeps:
        assert list(vt.J) == list(vt.argmin) == list(want)
        for t, per_node in want.items():
            assert list(vt.J[t]) == list(vt.argmin[t]) == list(per_node)
            assert (np.array(list(vt.J[t].values())).tobytes()
                    == np.array([v for v, _ in per_node.values()]).tobytes())
            assert list(vt.argmin[t].values()) == [r for _, r in per_node.values()]
    return mixed


# Costs as drawn, all +0.0, all -0.0, or each entry drawn from +0.0, -0.0,
# as drawn and minus its magnitude.
COSTS = ("drawn", "+0.0", "-0.0", "signed")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([2, 3]), n=st.sampled_from([1, 2]),
       deterministic=st.booleans(), costs=st.sampled_from(COSTS))
@example(seed=0, K=3, n=2, deterministic=False, costs="signed")
def test_batched_continuations_match_per_node_reference(seed, K, n, deterministic,
                                                        costs):
    """The continuation batches (one per symbol and visible sets of a row
    block) against one backup per node, on a belief graph rooted at the
    initial belief and three sparse stage-1 beliefs.  Each stage's nodes
    get the union of its relevant sets (a superset of a node's support and
    visible sets is a valid relevant set), so a stage is one group whose
    row blocks mix supports: nodes with different symbol sets
    (zero-probability symbols pruned) and, at delay 2, a symbol with two
    visible patterns, which the example reaches in one block.  At K = 3
    the first controller has three actions; costs may be signed."""
    y, u = ((1, 2, 1), (3, 2, 2)) if K == 3 else ((2, 2), (2, 2))
    rng = np.random.default_rng(seed)
    spec = _with_costs(normalize_problem(random_instance(
        K, 3, n, 2, y, u, seed=seed, deterministic=deterministic)), rng, costs)
    roots = [PiBelief(1, p) for p in _sparse_beliefs(spec, 1, rng, 4)]
    roots[0] = initial_belief(spec)
    graph = _belief_graph(spec, roots, belief_successors(quantize_rows),
                          max_nodes=DEFAULT_MAX_NODES)
    for t in range(1, spec.T):
        union = tuple(tuple(sorted(set().union(*(node.relevant[k]
                                                 for node in graph.stages[t]))))
                      for k in range(K))
        for node in graph.stages[t]:
            node.relevant = union
    mixed = _check_sweeps(graph)
    if (seed, K, n, deterministic, costs) == (0, 3, 2, False, "signed"):
        assert mixed[_tables._BLOCK_ENTRIES] == (True, True)


def _mixed_blocks(graph):
    """Whether some row block of the stage backup holds nodes with different
    symbol sets, and whether one holds a symbol with two visible patterns."""
    symbols = patterns = False
    for t in range(1, graph.spec.T):
        for _, blocks in stage_blocks(graph, t):
            for block in blocks:
                pers = [graph.expansions[node.node_id] for node in block]
                symbols |= len({tuple(per) for per in pers}) > 1
                seen = {}
                for per in pers:
                    for zr, ztab in per.items():
                        seen.setdefault(zr, set()).add(ztab.visible)
                patterns |= any(len(v) > 1 for v in seen.values())
    return symbols, patterns


def _with_costs(spec, rng, costs):
    c = np.array(spec.cost)
    if costs == "+0.0":
        c[...] = 0.0
    elif costs == "-0.0":
        c[...] = -0.0
    elif costs == "signed":
        c = np.choose(rng.integers(0, 4, c.shape),
                      [np.zeros_like(c), np.full_like(c, -0.0), c, -np.abs(c)])
    return normalize_problem(dataclasses.replace(spec, cost=c))


def _sparse_beliefs(spec, t, rng, count):
    """count stage-t beliefs: the first with full support, the others with
    a random nonempty subset of each controller's realizations kept and,
    for some, single joint states zeroed as well."""
    stt = tables(spec).stage[t]
    P = rng.dirichlet(np.ones(stt.state_count), size=count)
    for p, sparsity in zip(P[1:], (0.0, 0.5, 0.9) * count):
        cube = p.reshape(stt.shape)
        for k, size in enumerate(stt.L):
            drop = rng.uniform(size=size) < 0.5
            drop[rng.integers(size)] = False
            np.moveaxis(cube, k + 1, 0)[drop] = 0.0
        drop = rng.uniform(size=p.size) < sparsity
        if (p * ~drop).any():
            p[drop] = 0.0
        p /= p.sum()
    return P


@pytest.mark.parametrize("name", ["io", "i1", "i2", "ia"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), costs=st.sampled_from(COSTS))
def test_terminal_values_equal_full_enumeration(name, seed, costs):
    """Each terminal value, float.hex for float.hex, is the full
    enumeration's (helpers.last_stage_values_reference): over every
    realization, zero-mass ones included, on sparse and full-support
    beliefs and with signed-zero and negative costs."""
    _check_terminal(normalize_problem(instances.load(name)), seed, costs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.integers(1, 3), n=st.sampled_from([1, 2]),
       y=st.tuples(*[st.integers(1, 3)] * 3), u=st.tuples(*[st.integers(1, 3)] * 3),
       costs=st.sampled_from(COSTS))
@example(seed=2, K=2, n=1, y=(2, 1, 1), u=(2, 3, 1), costs="signed")
def test_terminal_values_equal_full_enumeration_on_random_shapes(seed, K, n, y, u, costs):
    """The example's second belief has one supported realization of two for
    controller 0: a cost product over that one realization rounds one value
    1 ulp away from the product over both."""
    spec = normalize_problem(random_instance(K, n + 1, n, 2, y[:K], u[:K], seed=seed))
    L = tables(spec).stage[spec.T].L
    assume(math.prod(spec.u_size[k] ** L[k] * L[k] for k in range(K - 1))
           * L[-1] * spec.u_size[-1] <= 1 << 12)
    _check_terminal(spec, seed, costs)


def _check_terminal(spec, seed, costs):
    rng = np.random.default_rng(seed)
    spec = _with_costs(spec, rng, costs)
    P = _sparse_beliefs(spec, spec.T, rng, 4)
    got = _last_stage_values(spec, P)
    for value, p in zip(got.tolist(), P):
        assert value.hex() == last_stage_values_reference(spec, p).hex()


def _thin_stack(shape):
    """A stage-3 instance of a thin shape (delay 2) and 25 Dirichlet beliefs."""
    y, u = THIN[shape]
    spec = normalize_problem(random_instance(len(y), 3, 2, 2, y, u, seed=5))
    count = tables(spec).stage[spec.T].state_count
    return spec, np.random.default_rng(5).dirichlet(np.ones(count), size=25)


@pytest.mark.parametrize("shape", list(THIN))
def test_stage_totals_rows_equal_one_row_calls(shape):
    """Every realization restricted; with one single-observation controller
    (y1) a contraction that depends on the row count gave 24 of 25 rows
    other bytes than their one-row calls."""
    spec, P = _thin_stack(shape)
    t = spec.T
    bs = minimize.behavior_space(spec, t, tuple(
        tuple(range(count)) for count in tables(spec).stage[t].L))
    block = minimize.stage_totals(spec, t, P, bs)
    assert block.shape == (len(P), *bs.shape)
    for row, p in zip(block, P):
        assert row.tobytes() == minimize.stage_totals(spec, t, p[None], bs)[0].tobytes()


@pytest.mark.parametrize("shape", list(THIN))
def test_terminal_rows_equal_one_row_calls(shape):
    spec, P = _thin_stack(shape)
    block = _last_stage_values(spec, P)
    for value, p in zip(block, P):
        assert value.tobytes() == _last_stage_values(spec, p[None])[0].tobytes()


def test_stacked_supports_match_marginal_mass():
    """Stacked supports are, row by row, the realizations whose marginal
    mass (a sum over the other coordinates) is positive (support_sets)."""
    spec = normalize_problem(random_instance(3, 2, 1, 3, (2, 3, 1), (2, 2, 2),
                                             seed=3))
    t = spec.T
    stt = tables(spec).stage[t]
    rng = np.random.default_rng(3)
    P = rng.uniform(size=(40, stt.state_count))
    for i, sparsity in enumerate(np.linspace(0.0, 0.98, len(P))):
        P[i, rng.uniform(size=stt.state_count) < sparsity] = 0.0
    P[-1] = 0.0
    P[-1, 5] = 1e-300
    got = stacked_support_sets(spec, t, P)
    assert len(got) == len(P)
    for row, sets in zip(P, got):
        assert sets == support_sets(spec, t, row)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.integers(1, 3), n=st.sampled_from([1, 2]),
       y=st.tuples(*[st.integers(1, 3)] * 3), u=st.tuples(*[st.integers(1, 3)] * 3),
       sparsity=st.sampled_from([0.0, 0.5, 0.9]), entries=st.sampled_from(BLOCK_ENTRIES))
def test_stacked_rows_equal_one_row_calls_on_random_shapes(seed, K, n, y, u, sparsity,
                                                           entries):
    """Random observation and action counts, 1 included: a stack's
    terminal values (in chunks and row blocks of every size) and stage
    totals over random restricted sets give every row the bytes of its
    one-row call at the default block size."""
    spec = normalize_problem(random_instance(K, n + 1, n, 2, y[:K], u[:K], seed=seed))
    rng = np.random.default_rng(seed)
    stages = tables(spec).stage
    assume(stages[spec.T].state_count <= 4096)
    L = stages[spec.T].L
    joint = math.prod(spec.u_size[k] ** L[k] for k in range(K - 1))
    if joint * L[-1] * spec.u_size[-1] <= 1 << 14:
        P = rng.dirichlet(np.ones(stages[spec.T].state_count), size=9)
        P[rng.uniform(size=P.shape) < sparsity] = 0.0
        P[:, 0] += 1e-3     # keep every row positive
        with mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
            block = _last_stage_values(spec, P)
        for value, p in zip(block, P):
            assert value.tobytes() == _last_stage_values(spec, p[None])[0].tobytes()
    t = int(rng.integers(1, spec.T + 1))
    restricted = tuple(
        tuple(sorted(rng.choice(count, size=int(rng.integers(1, min(count, 4) + 1)),
                                replace=False).tolist()))
        for count in stages[t].L)
    assume(math.prod(spec.u_size[k] ** len(r) for k, r in enumerate(restricted)) <= 1 << 12)
    bs = minimize.behavior_space(spec, t, restricted)
    P = rng.dirichlet(np.ones(stages[t].state_count), size=7)
    block = minimize.stage_totals(spec, t, P, bs)
    for row, p in zip(block, P):
        assert row.tobytes() == minimize.stage_totals(spec, t, p[None], bs)[0].tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "strided", "permuted"])
def test_last_axis_sum_is_numpy_sum(layout):
    """minimize.last_axis_sum replays numpy's pairwise order, so it gives
    the bytes of .sum(axis=-1) at every length, on a contiguous or strided
    last axis, with mixed magnitudes and signed zeros."""
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        x = rng.standard_normal((3, 2, n)) * np.exp(rng.uniform(-30.0, 30.0, (3, 2, n)))
        x[0, 0] = -0.0
        x[0, 1, : n // 2] = -0.0
        a = {"contiguous": x,
             "strided": np.repeat(x, 3, axis=-1)[..., ::3],
             "permuted": np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2),
             }[layout]
        assert minimize.last_axis_sum(a).tobytes() == a.sum(axis=-1).tobytes(), n
