"""Extracted designs walk one successor row per reached node from the root;
a rejected history raises on every call, and acting must equal a
per-history replay through the reference child lookup over the whole
domain, out-of-range arguments included."""

import collections
import itertools
import random

import numpy as np
import pytest

from delayed_sharing import evaluate, histories
from delayed_sharing.coordinator import extract_design, reachable_graph, solve_on_graph
from delayed_sharing.errors import DomainError, OffDesignHistoryError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import profile_unrank
from delayed_sharing.second_form import extract_design2, reachable_graph2, solve_on_graph2
from helpers import child_reference

FORMS = {"belief": (extract_design, "pol"), "theta_r": (extract_design2, "pol2")}


def _cold(entry, form):
    extract, key = FORMS[form]
    return extract(entry["spec"], entry[key])


def _radix(spec):
    return histories.common_obs_count(spec, spec.n + 1) if spec.T > spec.n else 1


def _deltas(spec, t):
    length = histories.delta_length(spec, t)
    return [tuple(int(d) for d in np.unravel_index(row, (_radix(spec),) * length))
            for row in range(histories.delta_count(spec, t))]


def _replay(spec, pol, t, delta):
    """The node of a shared history by an uncached replay from the root:
    child_reference with a freshly decoded profile at every step.  The
    exception type act must raise where the history is not on the policy."""
    if not 1 <= t <= spec.T:
        return DomainError
    if len(delta) != histories.delta_length(spec, t):
        return OffDesignHistoryError
    node = 0
    try:
        for m in range(2, t + 1):
            z_rank = 0 if m <= spec.n else delta[m - spec.n - 1]
            parent = profile_unrank(spec, m - 1, pol.profile_rank(m - 1, node))
            node, _ = child_reference(pol.graph, node, parent, z_rank)
    except OffDesignHistoryError:
        return OffDesignHistoryError
    return node


def _reference_act(spec, pol, k, t, lam, delta):
    """act's answer by replay; 0 where the policy rejects the history."""
    node = _replay(spec, pol, t, delta)
    if node is OffDesignHistoryError:
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
def test_off_design_history_raises_every_time(solved, name, form):
    entry = solved[name]
    spec = entry["spec"]
    t, delta = _first_off_design(_cold(entry, form), spec)

    design = _cold(entry, form)
    for _ in range(2):
        for k in range(spec.K):
            for lam in range(histories.private_count(spec, k, t)):
                with pytest.raises(OffDesignHistoryError):
                    design.act(k, t, lam, delta)
        # a wrong-length history is rejected on every call too
        with pytest.raises(OffDesignHistoryError):
            design.act(0, t, 0, delta + (0,))

    # the rejections leave the design tabulating as a cold one does
    flat = evaluate.materialize_design(spec, design)
    cold = evaluate.materialize_design(spec, _cold(entry, form))
    row = histories.delta_rank(spec, t, delta)
    for k in range(spec.K):
        assert not flat.tables[k][t - 1][row].any()
        for got, want in zip(flat.tables[k], cold.tables[k]):
            assert np.array_equal(got, want)


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


class _CountingDesign:
    """Forwards act to a design, counting calls and rejections per
    (k, t, shared history)."""

    def __init__(self, design):
        self.design = design
        self.calls = collections.Counter()
        self.raised = collections.Counter()

    def act(self, k, t, lam, delta):
        self.calls[(k, t, delta)] += 1
        try:
            return self.design.act(k, t, lam, delta)
        except OffDesignHistoryError:
            self.raised[(k, t, delta)] += 1
            raise


@pytest.mark.parametrize("form", sorted(FORMS))
def test_materialize_asks_a_rejected_row_once(solved, form):
    """A rejection ends its row: materialize_design calls act once per
    rejected (k, t, shared history) and once per entry of every other row,
    and the table equals one filled entry by entry."""
    entry = solved["i2"]
    spec = entry["spec"]
    want = [[np.zeros((histories.delta_count(spec, t),
                       histories.private_count(spec, k, t)), dtype=np.int64)
             for t in range(1, spec.T + 1)] for k in range(spec.K)]
    rejected = set()
    design = _cold(entry, form)
    for k, t, row, delta, lam in _entries(spec):
        try:
            want[k][t - 1][row, lam] = design.act(k, t, lam, delta)
        except OffDesignHistoryError:
            rejected.add((k, t, delta))
    assert rejected

    counting = _CountingDesign(_cold(entry, form))
    flat = evaluate.materialize_design(spec, counting)
    assert set(counting.raised) == rejected
    assert set(counting.raised.values()) == {1}
    for (k, t, delta), calls in counting.calls.items():
        expect = 1 if (k, t, delta) in rejected else histories.private_count(spec, k, t)
        assert calls == expect
    for k in range(spec.K):
        for t in range(1, spec.T + 1):
            assert np.array_equal(flat.tables[k][t - 1], want[k][t - 1])


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
        # checked before the length check, on every call
        for _ in range(2):
            with pytest.raises(DomainError):
                design.act(0, t, 0, delta)
            with pytest.raises(DomainError):
                design.act(0, t, 0, ())
    flat = evaluate.materialize_design(spec, design)
    cold = evaluate.materialize_design(spec, _cold(entry, form))
    for k in range(spec.K):
        for got, want in zip(flat.tables[k], cold.tables[k]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["extracted", "extensional"])
def test_act_rejects_out_of_range_indices(solved, kind):
    """A controller or private rank outside the tables is a DomainError on
    both design types, not another entry by negative indexing or a bare
    IndexError."""
    entry = solved["i2"]
    spec = entry["spec"]
    extracted = extract_design(spec, entry["pol"])
    design = (extracted if kind == "extracted"
              else evaluate.materialize_design(spec, extracted))
    for t in range(1, spec.T + 1):
        delta = next(d for d in _deltas(spec, t) if _outcome(
            lambda: extracted.act(0, t, 0, d)) is not OffDesignHistoryError)
        cols = [histories.private_count(spec, k, t) for k in range(spec.K)]
        for k, lam in ((-1, 0), (spec.K, 0), (0, -1), (0, cols[0]), (1, cols[1])):
            with pytest.raises(DomainError):
                design.act(k, t, lam, delta)
        assert design.act(0, t, cols[0] - 1, delta) in range(spec.u_size[0])
    for t in (0, spec.T + 1):
        with pytest.raises(DomainError):
            design.act(0, t, 0, (0,) * histories.delta_length(spec, t))


def _outcome(fn):
    try:
        return fn()
    except (DomainError, OffDesignHistoryError) as exc:
        return type(exc)


def _domain(spec):
    """(t, shared histories, (k, lam) pairs) over t in [0, T+1]: every
    shared history over the symbols [-1, radix] at the right length, plus
    one a symbol longer and one shorter; k in [-1, K]; lam from -1 to one
    past the largest private rank."""
    symbols = range(-1, _radix(spec) + 1)
    for t in range(spec.T + 2):
        length = histories.delta_length(spec, t)
        deltas = list(itertools.product(symbols, repeat=length))
        deltas += [(0,) * (length + 1)] + ([(0,) * (length - 1)] if length else [])
        cols = (max(histories.private_count(spec, k, t) for k in range(spec.K))
                if 1 <= t <= spec.T else 1)
        yield t, deltas, list(itertools.product(range(-1, spec.K + 1),
                                                range(-1, cols + 1)))


RANDOM_CASES = {
    "n1": ((2, 3, 1, 2, (2, 2), (2, 2)), 5, False),
    "n1-det": ((2, 4, 1, 2, (2, 2), (2, 2)), 2, True),
    "n2": ((2, 3, 2, 2, (2, 2), (2, 1)), 3, False),
    "n2-det": ((2, 4, 2, 2, (2, 2), (2, 1)), 3, True),
    "n3": ((2, 4, 3, 2, (1, 2), (2, 1)), 4, False),
    "n3-det": ((2, 4, 3, 2, (1, 2), (2, 1)), 4, True),
}


def _solved_random(case):
    shape, seed, deterministic = RANDOM_CASES[case]
    spec = random_instance(*shape, seed=seed, deterministic=deterministic)
    return {"spec": spec,
            "pol": solve_on_graph(reachable_graph(spec))[1],
            "pol2": solve_on_graph2(reachable_graph2(spec))[1]}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", ["io", "i1", "i2", "ia", *RANDOM_CASES])
def test_successor_walk_matches_per_history_replay(solved, name, form):
    """act (one cold design, asked in domain order) gives the replayed
    node's action or the replay's exception type at every argument.  A
    controller or private rank out of range is a DomainError on an
    on-design history; an off-design history raises OffDesignHistoryError
    whatever k and lam are."""
    entry = solved[name] if name in solved else _solved_random(name)
    spec = entry["spec"]
    pol = entry[FORMS[form][1]]
    design = _cold(entry, form)
    on = off = 0
    for t, deltas, pairs in _domain(spec):
        for delta in deltas:
            node = _replay(spec, pol, t, delta)
            gammas = (None if isinstance(node, type) else
                      profile_unrank(spec, t, pol.profile_rank(t, node)).gammas)
            on += gammas is not None
            # rejected by the policy itself, not by length or symbol range
            off += node is OffDesignHistoryError and len(delta) == len(
                deltas[0]) and all(0 <= z < _radix(spec) for z in delta)
            for k, lam in pairs:
                if gammas is None:
                    want = node
                elif 0 <= k < spec.K and 0 <= lam < len(gammas[k].table):
                    want = gammas[k].table[lam]
                else:
                    want = DomainError
                got = _outcome(lambda: design.act(k, t, lam, delta))
                assert got == want, (k, t, lam, delta)
    assert on and off
