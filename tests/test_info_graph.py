"""Both dynamic programs run on one information-graph type; the realizations
a backup enumerates behaviors over must cover each node's support, the
reference branch lookup (helpers.child_reference) answers as the reference
single-profile update does, and the stage-T leaves count against the node
budget as nodes."""

import numpy as np
import pytest

from delayed_sharing import _tables, instances
from delayed_sharing.coordinator import InfoGraph, reachable_graph
from delayed_sharing.errors import BudgetError, OffDesignHistoryError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import profile_unrank
from delayed_sharing.model import normalize_problem
from delayed_sharing.second_form import reachable_graph2
from helpers import child_reference, embedded_profile, update_mass


def test_relevant_covers_support(solved):
    for name in instances.NAMES:
        graph, graph2 = solved[name]["graph"], solved[name]["graph2"]
        assert isinstance(graph, InfoGraph) and graph.kind == "belief"
        assert isinstance(graph2, InfoGraph) and graph2.kind == "theta_r"
        for node in graph.by_id:
            assert node.state is None
            assert node.relevant == node.support
        for node in graph2.by_id:
            assert node.state is not None
            for rel, sup in zip(node.relevant, node.support):
                assert set(sup) <= set(rel)
                assert list(rel) == sorted(set(rel))


def _lookup_cases(graph):
    """(node, symbol, embedded profile) for every flat rank in the range of
    every stored branch table."""
    spec = graph.spec
    for node in graph.by_id:
        for zr, ztab in graph.expansions[node.node_id].items():
            for rank in range(int(np.prod(ztab.shape))):
                per_k = np.unravel_index(rank, ztab.shape)
                digits = [np.unravel_index(per_k[k], (spec.u_size[k],) * len(vis))
                          for k, vis in enumerate(ztab.visible)]
                yield node, zr, embedded_profile(
                    spec, node.t, ztab.visible,
                    [[int(d) for d in ds] for ds in digits])


@pytest.mark.parametrize("form", ["graph", "graph2"])
@pytest.mark.parametrize("name", instances.NAMES)
def test_child_lookup_matches_reference_update(solved, name, form):
    """child_reference answers every assignment in each table's range: the
    branch probability of the reference update (==) where it is positive,
    OffDesignHistoryError exactly where it is zero."""
    graph = solved[name][form]
    spec = graph.spec
    lookups = misses = 0
    for node, zr, profile in _lookup_cases(graph):
        lookups += 1
        _, want = update_mass(spec, node.t, node.pi.p, profile, zr,
                              np.nonzero(node.pi.p > 0.0)[0])
        if want > 0.0:
            child, pz = child_reference(graph, node.node_id, profile, zr)
            assert pz == want
            assert child in graph.stage_ids(node.t + 1)
        else:
            misses += 1
            with pytest.raises(OffDesignHistoryError,
                               match="off every positive-probability branch"):
                child_reference(graph, node.node_id, profile, zr)
    assert lookups - misses == graph.edge_count
    assert lookups == sum(int(np.prod(ztab.shape))
                          for per in graph.expansions.values()
                          for ztab in per.values())
    if name in ("io", "i1"):
        # one stored branch per table; the misses fall below it in some
        # tables and above it in others, so both sides of the search miss
        ztabs = [ztab for per in graph.expansions.values() for ztab in per.values()]
        assert all(ztab.rank.size == 1 for ztab in ztabs)
        assert any(ztab.rank[0] > 0 for ztab in ztabs)
        assert any(ztab.rank[0] < np.prod(ztab.shape) - 1 for ztab in ztabs)


def test_child_lookup_unreachable_symbol(solved):
    graph = solved["i2"]["graph"]
    profile = profile_unrank(graph.spec, 1, 0)
    missing = max(graph.expansions[0]) + 1
    with pytest.raises(OffDesignHistoryError, match="unreachable from node 0"):
        child_reference(graph, 0, profile, missing)


# Node budgets inside stage T per (instance, form): budget -> "edges so far"
# of the error, at the first leaf id, one more, the middle of the leaves and
# one leaf short.  Random instances: (K, T, n, X, y sizes, u sizes, seed,
# deterministic kernels).
BUDGET_CASES = {
    "tree": (2, 4, 1, 2, (2, 2), (2, 2), 1, False),
    "det_n2": (2, 4, 2, 2, (2, 2), (2, 2), 5, True),
    "k3_u3": (3, 3, 1, 2, (1, 2, 1), (3, 2, 2), 4, False),
}
STAGE_T_BUDGETS = {
    ("i2", "belief"): {17: 16, 18: 16, 145: 272, 272: 656},
    ("i2", "theta_r"): {17: 16, 18: 16, 145: 272, 272: 656},
    ("ia", "belief"): {17: 16, 18: 16, 25: 16, 32: 64},
    ("ia", "theta_r"): {17: 16, 18: 16, 49: 16, 80: 80},
    ("tree", "belief"): {273: 272, 274: 272, 2321: 2320, 4368: 4352},
    ("tree", "theta_r"): {273: 272, 274: 272, 2321: 2320, 4368: 4352},
    ("det_n2", "belief"): {13: 20, 14: 20, 17: 48, 20: 48},
    ("det_n2", "theta_r"): {49: 272, 50: 272, 65: 688, 80: 688},
    ("k3_u3", "belief"): {25: 24, 26: 24, 313: 312, 600: 576},
    ("k3_u3", "theta_r"): {25: 24, 26: 24, 313: 312, 600: 576},
}
NAMES = {"belief": "reachable-belief", "theta_r": "reachable (Theta, r)"}


@pytest.mark.parametrize("case, form", list(STAGE_T_BUDGETS))
def test_node_budget_inside_stage_T(monkeypatch, case, form):
    """Leaves count against max_nodes in solver graphs of both forms: a
    budget that runs out among the leaves raises the recorded error text,
    edges so far included, at two block sizes, and the budget of the whole
    graph builds it."""
    if case in BUDGET_CASES:
        *shape, seed, det = BUDGET_CASES[case]
        spec = normalize_problem(random_instance(*shape, seed, deterministic=det))
    else:
        spec = normalize_problem(instances.load(case))
    build = {"belief": reachable_graph, "theta_r": reachable_graph2}[form]
    for entries in (999, _tables._BLOCK_ENTRIES):
        monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", entries)
        graph = build(spec)
        leaves = graph.stage_ids(spec.T)
        for budget, edges in STAGE_T_BUDGETS[case, form].items():
            assert leaves.start <= budget < leaves.stop
            with pytest.raises(BudgetError) as err:
                build(spec, max_nodes=budget)
            assert str(err.value) == (f"{NAMES[form]} graph exceeded {budget} "
                                      f"nodes (edges so far: {edges})")
        assert build(spec, max_nodes=graph.node_count).node_count == graph.node_count
