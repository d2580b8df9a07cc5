"""Both dynamic programs run on one information-graph type; the realizations
a backup enumerates behaviors over must cover each node's support, and the
reference branch lookup (helpers.child_reference) answers as the reference
single-profile update does."""

import numpy as np
import pytest

from delayed_sharing import instances
from delayed_sharing.coordinator import InfoGraph
from delayed_sharing.errors import OffDesignHistoryError
from delayed_sharing.histories import profile_unrank
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
            assert graph.by_id[child].t == node.t + 1
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
