"""Extracted designs decode each node's profile once and remember rejected
shared histories; acting must stay equal to an uncached replay."""

import random

import numpy as np
import pytest

from delayed_sharing import evaluate, histories
from delayed_sharing.coordinator import extract_design
from delayed_sharing.errors import DomainError, OffDesignHistoryError
from delayed_sharing.histories import profile_unrank
from delayed_sharing.second_form import extract_design2

FORMS = {"belief": (extract_design, "pol"), "theta_r": (extract_design2, "pol2")}


def _cold(entry, form):
    extract, key = FORMS[form]
    return extract(entry["spec"], entry[key])


def _deltas(spec, t):
    radix = histories.common_obs_count(spec, spec.n + 1) if spec.T > spec.n else 1
    length = histories.delta_length(spec, t)
    return [tuple(int(d) for d in np.unravel_index(row, (radix,) * length))
            for row in range(histories.delta_count(spec, t))]


def _reference_act(spec, pol, k, t, lam, delta):
    """Uncached replay from the root: graph.child with a freshly decoded
    profile at every step; 0 where the policy rejects the history."""
    node = 0
    try:
        for m in range(2, t + 1):
            z_rank = 0 if m <= spec.n else delta[m - spec.n - 1]
            parent = profile_unrank(spec, m - 1, pol.profile_rank(m - 1, node))
            node, _ = pol.graph.child(node, parent, z_rank)
    except OffDesignHistoryError:
        return 0
    return profile_unrank(spec, t, pol.profile_rank(t, node)).gammas[k].table[lam]


def _entries(spec):
    return [(k, t, row, delta, lam)
            for t in range(1, spec.T + 1)
            for row, delta in enumerate(_deltas(spec, t))
            for k in range(spec.K)
            for lam in range(histories.private_count(spec, k, t))]


def _first_off_design(design, spec):
    for t in range(2, spec.T + 1):
        for delta in _deltas(spec, t):
            try:
                design.act(0, t, 0, delta)
            except OffDesignHistoryError:
                return t, delta
    raise AssertionError("every shared history is on the design")


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", ["i1", "i2"])
def test_off_design_history_raises_every_time(solved, monkeypatch, name, form):
    entry = solved[name]
    spec = entry["spec"]
    t, delta = _first_off_design(_cold(entry, form), spec)

    design = _cold(entry, form)
    graph = design.policy.graph
    calls = []
    child = graph.child
    monkeypatch.setattr(graph, "child",
                        lambda *a: calls.append(a) or child(*a))
    with pytest.raises(OffDesignHistoryError):
        design.act(0, t, 0, delta)
    replays = len(calls)
    assert replays >= 1
    for k in range(spec.K):
        for lam in range(histories.private_count(spec, k, t)):
            with pytest.raises(OffDesignHistoryError):
                design.act(k, t, lam, delta)
    # later calls answer from the recorded verdict, without another replay
    assert len(calls) == replays
    # a wrong-length history is rejected on every call, before the cache
    for _ in range(2):
        with pytest.raises(OffDesignHistoryError):
            design.act(0, t, 0, delta + (0,))

    flat = evaluate.materialize_design(spec, _cold(entry, form))
    row = histories.delta_rank(spec, t, delta)
    for k in range(spec.K):
        assert not flat.tables[k][t - 1][row].any()


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", ["i2", "ia"])
def test_materialized_tables_match_uncached_replay(solved, name, form):
    entry = solved[name]
    spec = entry["spec"]
    pol = entry[FORMS[form][1]]
    order = _entries(spec)
    random.Random(f"{name}-{form}").shuffle(order)
    want = [[np.zeros((histories.delta_count(spec, t),
                       histories.private_count(spec, k, t)), dtype=np.int64)
             for t in range(1, spec.T + 1)] for k in range(spec.K)]
    for k, t, row, delta, lam in order:
        want[k][t - 1][row, lam] = _reference_act(spec, pol, k, t, lam, delta)

    flat = evaluate.materialize_design(spec, _cold(entry, form))
    for k in range(spec.K):
        for t in range(1, spec.T + 1):
            assert np.array_equal(flat.tables[k][t - 1], want[k][t - 1])

    # a cold design filled in shuffled order acts the same way
    design = _cold(entry, form)
    for k, t, row, delta, lam in order:
        try:
            got = design.act(k, t, lam, delta)
        except OffDesignHistoryError:
            got = 0
        assert got == want[k][t - 1][row, lam]


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", ["i1", "i2"])
def test_simulate_extracted_equals_materialized(solved, name, form):
    entry = solved[name]
    spec = entry["spec"]
    flat = evaluate.materialize_design(spec, _cold(entry, form))
    a = evaluate.simulate(spec, _cold(entry, form), 2_000, seed=11)
    b = evaluate.simulate(spec, flat, 2_000, seed=11)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


@pytest.mark.parametrize("form", sorted(FORMS))
def test_time_outside_horizon_is_a_domain_error(solved, form):
    entry = solved["i1"]
    spec = entry["spec"]
    design = _cold(entry, form)
    for t in (0, -1, spec.T + 1):
        delta = (0,) * histories.delta_length(spec, max(t, 1))
        # checked before the length check and the cache, on every call
        for _ in range(2):
            with pytest.raises(DomainError):
                design.act(0, t, 0, delta)
            with pytest.raises(DomainError):
                design.act(0, t, 0, ())
    assert design._cache == {}
