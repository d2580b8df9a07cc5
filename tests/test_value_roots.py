"""values_at against one value_at per root and against the graph whose
stage-T beliefs are nodes.  A graph of several roots shares its nodes
across their subtrees and stacks their rows; node values depend only on
their own beliefs and every stacked row keeps the bytes of its one-row
call, so each root's value must be the bytes of its one-root call, for
every bound on the roots per graph.  values_at holds stage T as leaf rows,
not nodes; its values must be the bytes of the leaf-node graph's
(root_values_reference), and its node-budget errors those of that graph.
A stacked graph that passes a budget is valued again one root per graph,
so each root gets its one-root value or error."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import root_values_reference

from delayed_sharing import _tables, analysis, coordinator, instances, minimize
from delayed_sharing.coordinator import PiBelief, state_count, value_at, values_at
from delayed_sharing.errors import BudgetError
from delayed_sharing.generate import random_instance
from delayed_sharing.model import normalize_problem

# (K, T, n, X, y sizes, u sizes): one controller, and controllers with one
# observation or one action, next to the shipped instances.
RANDOM = {
    "k1": (1, 3, 1, 2, (2,), (2,)),
    "y1": (2, 3, 1, 2, (1, 2), (2, 2)),
    "u1": (2, 3, 2, 2, (2, 2), (2, 1)),
    "k3": (3, 3, 1, 2, (2, 2, 1), (2, 1, 2)),
}


def _spec(case, seed):
    if case in RANDOM:
        return normalize_problem(random_instance(*RANDOM[case], seed=seed))
    return normalize_problem(instances.load(case))


def _beliefs(spec, t, rng, count, sparsity):
    """count beliefs, some with zero entries; every third repeats an
    earlier one (the same PiBelief, or its bytes in a new one)."""
    size = state_count(spec, t)
    out = []
    for i in range(count):
        if i % 3 == 2:
            pi = out[int(rng.integers(i))]
            out.append(pi if i % 2 else PiBelief(t, pi.p.copy()))
            continue
        p = rng.uniform(0.0, 1.0, size)
        p[rng.uniform(size=size) < sparsity] = 0.0
        if not p.any():
            p[int(rng.integers(size))] = 1.0
        out.append(PiBelief(t, p / p.sum()))
    return out


def _hex(values):
    return [float(v).hex() for v in values]


def _counting(calls):
    """coordinator._root_values, recording each graph's root count."""
    real = coordinator._root_values

    def spy(spec, t, roots):
        calls.append(len(roots))
        return real(spec, t, roots)
    return spy


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from([*instances.NAMES, *RANDOM]),
       seed=st.integers(0, 10_000), stage=st.sampled_from(["first", "last", "any"]),
       count=st.integers(1, 5), sparsity=st.sampled_from([0.0, 0.5, 0.9]),
       bound=st.sampled_from([1, 2, 5]))
def test_values_at_is_one_value_at_per_root(case, seed, stage, count, sparsity, bound):
    spec = _spec(case, seed)
    rng = np.random.default_rng(seed)
    t = {"first": 1, "last": spec.T}.get(stage) or int(rng.integers(1, spec.T + 1))
    pis = _beliefs(spec, t, rng, count, sparsity)
    want = _hex(value_at(spec, t, pi) for pi in pis)
    calls = []
    with mock.patch.object(coordinator, "DEFAULT_MAX_VALUE_ROOTS", bound), \
            mock.patch.object(coordinator, "_root_values", _counting(calls)):
        assert _hex(values_at(spec, t, pis)) == want
    assert calls == [min(bound, count - lo) for lo in range(0, count, bound)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from([*instances.NAMES, *RANDOM]),
       seed=st.integers(0, 10_000), stage=st.sampled_from(["first", "middle", "last"]),
       count=st.integers(1, 7), sparsity=st.sampled_from([0.0, 0.5, 0.9]),
       bound=st.integers(1, 4), entries=st.sampled_from([_tables._BLOCK_ENTRIES, 512]))
@example(case="i2", seed=0, stage="first", count=4, sparsity=0.0, bound=3, entries=512)
@example(case="ia", seed=1, stage="middle", count=3, sparsity=0.5, bound=2, entries=512)
def test_values_at_matches_the_leaf_node_reference(case, seed, stage, count,
                                                   sparsity, bound, entries):
    """Each graph of values_at, whose stage-T beliefs are leaf rows, gives
    its roots the bytes of the same graph with stage-T nodes, also when
    512 entries expand stage T-1 in several blocks."""
    spec = _spec(case, seed)
    rng = np.random.default_rng(seed)
    t = {"first": 1, "middle": (1 + spec.T) // 2, "last": spec.T}[stage]
    pis = _beliefs(spec, t, rng, count, sparsity)
    want = _hex(v for lo in range(0, count, bound)
                for v in root_values_reference(spec, t, pis[lo:lo + bound]))
    with mock.patch.object(coordinator, "DEFAULT_MAX_VALUE_ROOTS", bound), \
            mock.patch.object(_tables, "_BLOCK_ENTRIES", entries):
        assert _hex(values_at(spec, t, pis)) == want


def _stage_one_draws(spec, count, seed):
    rng = np.random.default_rng(seed)
    return [PiBelief(1, rng.dirichlet(np.ones(state_count(spec, 1)))) for _ in range(count)]


@pytest.mark.parametrize("entries", [_tables._BLOCK_ENTRIES, 2048])
def test_the_node_budget_counts_the_leaves(monkeypatch, i2_spec, entries):
    """A stage-1 i2 root whose graph has 497 nodes: its stage-T leaves
    count against the node budget as nodes, and the budget error is the one
    of the graph whose leaves are nodes, with every block size (2048 entries
    expand stage T-1 in several blocks)."""
    a = _stage_one_draws(i2_spec, 1, 1)[0]
    monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_NODES", 497)
    assert value_at(i2_spec, 1, a).hex() == "-0x1.3b76165bfd1f6p+0"
    for budget, edges in ((496, 976), (400, 784)):
        monkeypatch.setattr(coordinator, "DEFAULT_MAX_NODES", budget)
        with pytest.raises(BudgetError) as err:
            value_at(i2_spec, 1, a)
        assert str(err.value) == (f"reachable-belief graph exceeded {budget} "
                                  f"nodes (edges so far: {edges})")


def test_concavity_probe_values_a_stage_in_graphs_of_the_root_bound(monkeypatch, i2_spec):
    """The probe hands a stage's 3 * samples beliefs to values_at, which
    builds graphs of DEFAULT_MAX_VALUE_ROOTS roots."""
    calls = _root_calls(monkeypatch)
    assert analysis.concavity_probe(i2_spec, 3, 7).passed
    bound = coordinator.DEFAULT_MAX_VALUE_ROOTS
    assert calls == [min(bound, 9 - lo) for lo in range(0, 9, bound)] * i2_spec.T


def _graph_size(spec, pi):
    return coordinator._belief_graph(
        spec, [pi], coordinator.belief_successors(np.ascontiguousarray, belief_is_key=True),
        max_nodes=coordinator.DEFAULT_MAX_NODES).node_count


def _root_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(coordinator, "_root_values", _counting(calls))
    return calls


def test_a_pair_over_the_node_budget_is_valued_one_root_per_graph(monkeypatch, i2_spec):
    """Two stage-1 i2 beliefs whose graphs fit the budget alone but not
    together get their one-root values; a root whose own graph does not fit
    gets its one-root error, before or after the other root."""
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_VALUE_ROOTS", 2)
    a, b = _stage_one_draws(i2_spec, 2, 1)
    sizes = [_graph_size(i2_spec, pi) for pi in (a, b)]
    assert sizes == [497, 433]
    want = _hex(value_at(i2_spec, 1, pi) for pi in (a, b))
    calls = _root_calls(monkeypatch)
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_NODES", 497)
    assert _hex(values_at(i2_spec, 1, [a, b])) == want
    assert calls == [2, 1, 1]

    monkeypatch.setattr(coordinator, "DEFAULT_MAX_NODES", 433)
    with pytest.raises(BudgetError) as alone:
        value_at(i2_spec, 1, a)
    for pair in ([a, b], [b, a]):
        with pytest.raises(BudgetError) as stacked:
            values_at(i2_spec, 1, pair)
        assert str(stacked.value) == str(alone.value)


def test_a_pair_over_the_terminal_batch_is_valued_one_root_per_graph(monkeypatch, ia_spec):
    """A dense stage-1 ia belief has 160 leaves of 4,096 terminal entries
    each: under a joint-behavior budget of 10,240, one root's batch
    (655,360 entries) fits 10,240 * 64 and a pair's does not; one less and
    no root fits."""
    monkeypatch.setattr(coordinator, "DEFAULT_MAX_VALUE_ROOTS", 2)
    pis = _stage_one_draws(ia_spec, 3, 2)
    want = _hex(value_at(ia_spec, 1, pi) for pi in pis)
    calls = _root_calls(monkeypatch)
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 10_240)
    assert _hex(values_at(ia_spec, 1, pis)) == want
    assert calls == [2, 1, 1, 1]
    monkeypatch.setattr(minimize, "DEFAULT_MAX_JOINT_BEHAVIORS", 10_239)
    with pytest.raises(BudgetError) as alone:
        value_at(ia_spec, 1, pis[0])
    with pytest.raises(BudgetError) as stacked:
        values_at(ia_spec, 1, pis)
    assert str(stacked.value) == str(alone.value) == (
        "terminal minimization batch too large at T=3")
