"""Both dynamic programs run on one information-graph type; the realizations
a backup enumerates behaviors over must cover each node's support."""

from delayed_sharing import instances
from delayed_sharing.coordinator import InfoGraph


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
