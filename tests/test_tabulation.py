"""Designs as whole stage tables: materialize_design reads an extracted
design's tables off its on-design rows and copies an extensional design's,
and both must equal, byte for byte, the per-entry fill through act."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from delayed_sharing import evaluate, generate, histories
from delayed_sharing.coordinator import (ExtractedDesign, extract_design,
                                         reachable_graph, solve_on_graph)
from delayed_sharing.errors import BudgetError
from delayed_sharing.histories import CoordinatorPolicy, random_design
from delayed_sharing.model import normalize_problem
from delayed_sharing.second_form import extract_design2, reachable_graph2
from helpers import ActOnly, small_instance

FORMS = {"belief": (reachable_graph, extract_design),
         "theta_r": (reachable_graph2, extract_design2)}


def _assert_same_tables(got, want):
    assert len(got.tables) == len(want.tables)
    for per_got, per_want in zip(got.tables, want.tables):
        assert len(per_got) == len(per_want)
        for a, b in zip(per_got, per_want):
            assert (a.shape, a.dtype) == (b.shape, b.dtype)
            assert a.tobytes() == b.tobytes()


def _check(spec, make):
    """make() builds a fresh design.  Its tables equal the per-entry fill
    through act; they are fresh, so writing into them changes neither the
    design's answers nor a later tabulation."""
    design = make()
    flat = evaluate.materialize_design(spec, design)
    want = evaluate.materialize_design(spec, ActOnly(make()))
    _assert_same_tables(flat, want)
    for per_k in flat.tables:
        for tab in per_k:
            tab += 1
    _assert_same_tables(evaluate.materialize_design(spec, ActOnly(design)), want)
    _assert_same_tables(evaluate.materialize_design(spec, design), want)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, 2, 3]), T=st.integers(1, 4),
       kernels=st.sampled_from(["generic", "deterministic"]),
       form=st.sampled_from(sorted(FORMS)))
@example(seed=0, K=1, n=1, T=4, kernels="generic", form="belief")
def test_tables_equal_the_per_entry_fill(seed, K, n, T, kernels, form):
    """Both forms' extracted designs and a random extensional design, on
    instances with n below, at and above T.  The explicit example has
    shared histories of three symbols of four values each, so the per-entry
    fill's row order is pinned.  A (Theta, r) draw whose graph the size
    cap cannot bound (small_instance raises) is rejected."""
    try:
        spec = small_instance(seed, K, n, T, kernels, theta_r=form == "theta_r")
    except ValueError:
        assume(False)
    build, extract = FORMS[form]
    policy = solve_on_graph(build(spec))[1]
    _check(spec, lambda: extract(spec, policy))
    _check(spec, lambda: random_design(spec, seed))


def test_small_instance_bounds_both_forms():
    """small_instance(1, 2, 3, 4, "generic") built a (Theta, r) graph of
    16,393 nodes (52.9 s to solve) under a cap that counted only paths and
    belief-form joint states.  Asked for that form it now raises; it still
    draws the same instance for the belief form, whose graph has 521 nodes.
    Every instance drawn for the (Theta, r) form keeps that graph small."""
    with pytest.raises(ValueError, match="r-suffix tuples"):
        small_instance(1, 2, 3, 4, "generic", theta_r=True)
    assert reachable_graph(small_instance(1, 2, 3, 4, "generic")).node_count == 521
    for seed, K, n, T in itertools.product(range(3), (1, 2, 3), (1, 2, 3), (2, 4)):
        try:
            spec = small_instance(seed, K, n, T, "generic", theta_r=True)
        except ValueError:
            assert n == 3
            continue
        reachable_graph2(spec, max_nodes=1_000)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("name", ["io", "i1", "i2", "ia"])
def test_shipped_tables_equal_the_per_entry_fill(solved, name, form):
    entry = solved[name]
    spec = entry["spec"]
    policy = entry["pol" if form == "belief" else "pol2"]
    _check(spec, lambda: FORMS[form][1](spec, policy))


class _NoGraph:
    """A policy graph that fails on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"graph.{name} read before the budget check")


def _unsolved(spec):
    return ExtractedDesign(spec, CoordinatorPolicy({}, _NoGraph()))


def test_budget_is_checked_before_tables(solved, monkeypatch):
    spec = solved["i1"]["spec"]
    design = extract_design(spec, solved["i1"]["pol"])
    total = sum(tab.size for per_k in evaluate.materialize_design(spec, design).tables
                for tab in per_k)
    monkeypatch.setattr(evaluate, "DEFAULT_MAX_DESIGN_ENTRIES", 1)
    with pytest.raises(BudgetError, match=r"design table needs \d+ entries \(budget 1\)"):
        evaluate.materialize_design(spec, _unsolved(spec))
    monkeypatch.setattr(evaluate, "DEFAULT_MAX_DESIGN_ENTRIES", total)
    evaluate.materialize_design(spec, design)
    monkeypatch.setattr(evaluate, "DEFAULT_MAX_DESIGN_ENTRIES", total - 1)
    with pytest.raises(BudgetError, match=f"needs {total} entries"):
        evaluate.materialize_design(spec, _unsolved(spec))


def test_budget_refuses_a_size_that_would_not_fit():
    """T = 40 at delay 1 with 16 shared symbols: 16**39 shared histories at
    the last stage.  The refusal allocates nothing of that size."""
    spec = normalize_problem(generate.random_instance(2, 40, 1, 2, (2, 2), (2, 2), seed=3))
    entries = sum(histories.delta_count(spec, t) * histories.private_count(spec, k, t)
                  for k in range(spec.K) for t in range(1, spec.T + 1))
    assert entries > 16 ** 39
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"needs {entries} entries"):
            evaluate.materialize_design(spec, _unsolved(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
