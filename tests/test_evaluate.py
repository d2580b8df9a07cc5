import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing import evaluate
from delayed_sharing.coordinator import (expected_stage_cost, extract_design,
                                         initial_belief, reachable_graph,
                                         solve_on_graph)
from delayed_sharing.errors import BudgetError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (ExtensionalDesign, constant_design,
                                       gamma_profiles, random_design)
from delayed_sharing.model import ProblemSpec, normalize_problem
from helpers import (ORACLE_SHAPES, PrivateInfo, conditional_phi_reference,
                     conditional_stage_costs_reference,
                     conditional_state_dists_reference,
                     conditional_x_dists_reference,
                     enumerate_designs_reference, exact_cost_reference,
                     iter_paths_reference, make_i2_mini, private_rank,
                     small_instance)


def constant_cost_spec(c, T=1):
    base = random_instance(2, T, 1, 2, (2, 2), (2, 2), seed=17)
    return normalize_problem(ProblemSpec(
        K=2, T=T, n=1, x_size=2, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array(base.x0_dist), trans=np.array(base.trans),
        obs=tuple(np.array(o) for o in base.obs),
        cost=np.full_like(base.cost, c)))


def test_exact_cost_constant():
    spec = constant_cost_spec(3.25)
    res = evaluate.exact_cost(spec, constant_design(spec))
    assert res.expected_cost == pytest.approx(3.25, abs=1e-12)
    assert res.per_stage == (pytest.approx(3.25, abs=1e-12),)


def test_exact_cost_fully_deterministic_single_trajectory():
    spec = normalize_problem(random_instance(
        2, 3, 1, 1, (1, 1), (2, 2), seed=5, deterministic=True))
    design = random_design(spec, 9)
    recs = list(evaluate.iter_paths(spec, design.act))
    assert len(recs) == 1
    res = evaluate.exact_cost(spec, design)
    want = sum(
        spec.cost[t - 1][0, spec.encode_action(
            tuple(recs[0].us[k][t - 1] for k in range(2)))]
        for t in range(1, 4))
    assert res.expected_cost == pytest.approx(want, abs=1e-12)


def test_exact_cost_per_stage_sums(i1_spec):
    design = random_design(i1_spec, 2)
    res = evaluate.exact_cost(i1_spec, design)
    assert res.expected_cost == pytest.approx(sum(res.per_stage), abs=1e-12)


def test_simulate_deterministic_instance_zero_error():
    spec = normalize_problem(random_instance(
        2, 2, 1, 1, (1, 1), (2, 2), seed=5, deterministic=True))
    design = random_design(spec, 1)
    sim = evaluate.simulate(spec, design, 50, seed=4)
    exact = evaluate.exact_cost(spec, design).expected_cost
    assert sim.mean == pytest.approx(exact, abs=1e-12)
    assert sim.std_error == 0.0


def test_simulate_same_seed_identical(i1_spec):
    design = random_design(i1_spec, 3)
    a = evaluate.simulate(i1_spec, design, 500, seed=11)
    b = evaluate.simulate(i1_spec, design, 500, seed=11)
    assert a == b


def test_simulate_three_sigma(i1_spec):
    design = random_design(i1_spec, 3)
    sim = evaluate.simulate(i1_spec, design, 20_000, seed=12)
    exact = evaluate.exact_cost(i1_spec, design).expected_cost
    assert abs(sim.mean - exact) <= 3 * sim.std_error


# -- design enumeration -------------------------------------------------------

def test_design_count_horizon_one():
    spec = random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=1)
    assert evaluate.design_count(spec) == 16
    assert sum(1 for _ in evaluate.enumerate_designs(spec)) == 16


def test_design_count_io(io_spec):
    assert evaluate.design_count(io_spec) == 1024


def test_design_count_unshared_delay_two():
    spec = random_instance(2, 2, 2, 2, (2, 2), (2, 2), seed=1)
    # shared horizon is empty at both stages
    assert evaluate.design_count(spec) == (4 ** 2) * (2 ** 8) ** 2


def test_enumerate_designs_budget(monkeypatch):
    spec = random_instance(2, 2, 2, 2, (2, 2), (2, 2), seed=1)
    monkeypatch.setattr(evaluate, "DEFAULT_ORACLE_BUDGET", 1000)
    with pytest.raises(BudgetError, match=str(evaluate.design_count(spec))):
        list(evaluate.enumerate_designs(spec))


def test_enumerate_designs_reads_the_default_budget_at_call_time(io_spec, monkeypatch):
    monkeypatch.setattr(evaluate, "DEFAULT_ORACLE_BUDGET", 10)
    with pytest.raises(BudgetError,
                       match=re.escape("design space holds 1024 designs (budget 10)")):
        next(evaluate.enumerate_designs(io_spec))


def test_enumerate_first_design_is_all_zero(io_spec):
    first = next(iter(evaluate.enumerate_designs(io_spec)))
    for k in range(2):
        for t in (1, 2):
            assert (first.tables[k][t - 1] == 0).all()


# -- brute force --------------------------------------------------------------

def test_brute_force_zero_cost_returns_first_design():
    spec = constant_cost_spec(0.0)
    best, design = evaluate.brute_force_optimum(spec)
    assert best == 0.0
    for k in range(2):
        assert (design.tables[k][0] == 0).all()


def test_brute_force_horizon_one_matches_stage_min():
    spec = normalize_problem(random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=23))
    best, _ = evaluate.brute_force_optimum(spec)
    pi = initial_belief(spec)
    want = min(expected_stage_cost(spec, pi, g) for g in gamma_profiles(spec, 1))
    assert best == pytest.approx(want, abs=1e-12)


def test_brute_force_budget(io_spec, monkeypatch):
    """io has 1,024 designs of at most 32 paths: a budget of 2,000 admits
    the designs and refuses their evaluations."""
    monkeypatch.setattr(evaluate, "DEFAULT_ORACLE_BUDGET", 2_000)
    with pytest.raises(BudgetError, match=re.escape(
            "oracle needs 1024 designs x 32 paths = 32768 evaluations (budget 2000)")):
        evaluate.brute_force_optimum(io_spec)


def test_brute_force_refuses_design_indices_past_int64(i1_spec):
    """i1 holds 2**68 designs: a budget above that admits them, and the
    oracle refuses before it decodes a design index it cannot hold."""
    with pytest.raises(BudgetError, match=re.escape(
            f"design space holds {2 ** 68} designs, past int64 design indices")):
        evaluate.brute_force_optimum(i1_spec, max_designs=2 ** 70)


def test_path_budget(solved, monkeypatch):
    """i2's optimal design has 1,024 paths: exact_cost's max_paths of 1,024
    admits them and 1,023 is refused.  The path view and the four
    conditionals read DEFAULT_MAX_PATHS at call time: each admits the rows
    it builds (counted by the recursive reference) and is refused at one
    less."""
    spec = solved["i2"]["spec"]
    design = extract_design(spec, solved["i2"]["pol"])
    evaluate.exact_cost(spec, design, max_paths=1024)
    with pytest.raises(BudgetError, match="path enumeration exceeded 1023 paths"):
        evaluate.exact_cost(spec, design, max_paths=1023)
    T = spec.T
    readers = [  # (reader, t_max and final-step flag of the table it builds)
        (lambda: list(evaluate.iter_paths(spec, design.act)), T, True),
        (lambda: evaluate.conditional_state_dists(spec, design.act, T), T, False),
        (lambda: evaluate.conditional_x_dists(spec, design.act, T), T, False),
        (lambda: evaluate.conditional_stage_costs(spec, design.act, T), T, True),
        (lambda: evaluate.conditional_phi(spec, design.act, T), T - 1, True)]
    for read, t_max, final in readers:
        rows = sum(1 for _ in iter_paths_reference(spec, design.act, t_max=t_max,
                                                   include_final_step=final))
        monkeypatch.setattr(evaluate, "DEFAULT_MAX_PATHS", rows)
        read()
        monkeypatch.setattr(evaluate, "DEFAULT_MAX_PATHS", rows - 1)
        with pytest.raises(BudgetError,
                           match=f"path enumeration exceeded {rows - 1} paths"):
            read()


# -- the block oracle ---------------------------------------------------------

ORACLE_FAMILIES = ["io", "i2_mini", "oracle_shapes-generic",
                   "oracle_shapes-deterministic", "small-generic",
                   "small-deterministic", "small-zero_entries"]


def _oracle_family(io_spec, family):
    """The instances of one family the block oracle is checked on: io, the
    delay-2 mini instance, ORACLE_SHAPES at seeds 55, 1 and 2, and
    small_instance's kernels at seeds 0-2 wherever the designs number at
    most 1,024."""
    if family == "io":
        return [io_spec]
    if family == "i2_mini":
        return [make_i2_mini()]
    kind, kernels = family.split("-")
    if kind == "oracle_shapes":
        return [random_instance(*shape, seed=seed,
                                deterministic=kernels == "deterministic")
                for shape in ORACLE_SHAPES for seed in (55, 1, 2)]
    specs = [small_instance(seed, K, n, T, kernels) for seed, K, n, T
             in itertools.product(range(3), (1, 2, 3), (1, 2), (2, 3))]
    return [spec for spec in specs if evaluate.design_count(spec) <= 1024]


@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_block_costs_equal_exact_cost(io_spec, family):
    """Every design's cost over the outcome table, all designs in one
    block, is its exact_cost, bit for bit."""
    specs = _oracle_family(io_spec, family)
    assert len(specs) >= (1 if family in ("io", "i2_mini") else 15)
    for spec in specs:
        spec = normalize_problem(spec)
        layout = evaluate._digit_layout(spec)
        count = evaluate.design_count(spec)
        costs = evaluate._block_costs(
            spec, evaluate._outcome_table(spec),
            layout, evaluate._design_digits(layout, 0, count)).tolist()
        assert len(costs) == count
        for cost, design in zip(costs, evaluate.enumerate_designs(spec)):
            assert cost.hex() == evaluate.exact_cost(spec, design).expected_cost.hex()


@pytest.mark.parametrize("name", ["io", "horizon_one", "unit_action", "delay_two"])
def test_enumerate_designs_matches_the_product_reference(io_spec, name):
    spec = {"io": io_spec,
            "horizon_one": random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=1),
            "unit_action": random_instance(2, 2, 1, 3, (1, 2), (1, 2), seed=1),
            "delay_two": make_i2_mini()}[name]
    got = [d.tables for d in evaluate.enumerate_designs(spec)]
    want = list(enumerate_designs_reference(spec))
    assert len(got) == len(want) == evaluate.design_count(spec)
    for g, w in zip(got, want):
        for gk, wk in zip(g, w):
            for a, b in zip(gk, wk):
                assert a.dtype == b.dtype == np.int64
                assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_brute_force_is_the_same_at_every_block_size(io_spec, monkeypatch, block):
    """Ties inside a block go to its first design and across blocks to the
    earlier block: zero cost ties every design, and the deterministic
    instance ties many."""
    specs = [io_spec, constant_cost_spec(0.0),
             random_instance(2, 2, 1, 2, (2, 1), (2, 1), seed=1, deterministic=True)]
    want = [evaluate.brute_force_optimum(spec) for spec in specs]
    monkeypatch.setattr(evaluate, "_ORACLE_BLOCK", block)
    for spec, (best, design) in zip(specs, want):
        got, got_design = evaluate.brute_force_optimum(spec)
        assert got.hex() == best.hex()
        assert got_design.to_json() == design.to_json()


def test_brute_force_matches_both_dps(io_spec, solved):
    best, _ = evaluate.brute_force_optimum(io_spec)
    assert abs(best - solved["io"]["vt"].optimal_cost) <= 1e-9
    assert abs(best - solved["io"]["vt2"].optimal_cost) <= 1e-9


# -- materialization ----------------------------------------------------------

def test_materialize_design_round_trip(solved):
    from delayed_sharing.coordinator import extract_design
    entry = solved["i1"]
    spec = entry["spec"]
    design = extract_design(spec, entry["pol"])
    flat = evaluate.materialize_design(spec, design)
    a = evaluate.exact_cost(spec, design).expected_cost
    b = evaluate.exact_cost(spec, flat).expected_cost
    assert a == pytest.approx(b, abs=1e-12)
    again = ExtensionalDesign.from_json(spec, flat.to_json())
    assert all(np.array_equal(x, y)
               for px, py in zip(flat.tables, again.tables)
               for x, y in zip(px, py))


# -- private-window ranks of the path sums ------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_rank_matches_private_rank(n):
    """Every observation and action sequence through t <= 4, with y and u
    radices that differ within and across controllers: one row per
    sequence, the other controller's observations and actions held at 0."""
    spec = normalize_problem(random_instance(2, 4, n, 2, (2, 3), (3, 2), seed=n))
    for k in range(spec.K):
        y_stride = spec.y_size[1] if k == 0 else 1
        u_stride = spec.u_size[1] if k == 0 else 1
        for t in range(1, spec.T + 1):
            lo = max(1, t - n + 1)
            seqs = [(ys, us)
                    for ys in itertools.product(range(spec.y_size[k]), repeat=t)
                    for us in itertools.product(range(spec.u_size[k]), repeat=t - 1)]
            ys = np.array([y for y, _ in seqs], dtype=np.int32).reshape(len(seqs), t)
            us = np.array([u for _, u in seqs], dtype=np.int32).reshape(len(seqs), t - 1)
            got = evaluate._window_ranks(spec, t, ys * y_stride, us * u_stride)[k]
            want = [private_rank(spec, PrivateInfo(k, t, y[lo - 1:], u[lo - 1:]))
                    for y, u in seqs]
            assert got.tolist() == want
            # int64 copies on a leading axis of 9,000 rows (the block
            # oracle's layout), past the 8,192 entries where numpy 2.4's
            # unravel_index miscounts a last axis of length 1
            stack = (9000 // len(seqs) + 1, 1, 1)
            big = evaluate._window_ranks(
                spec, t, np.tile(ys * y_stride, stack).astype(np.int64),
                np.tile(us * u_stride, stack).astype(np.int64))[k]
            assert big.shape == stack[:1] + got.shape
            assert (big == got).all()


# -- the path table against the recursive generator and per-path loops ------

def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, 2, 3]), T=st.integers(1, 4),
       kernels=st.sampled_from(["generic", "deterministic", "zero_entries"]),
       kind=st.sampled_from(["random", "extracted"]))
def test_path_table_matches_the_recursion(seed, K, n, T, kernels, kind):
    """iter_paths, exact_cost and the four conditional readers against the
    recursive generator and the per-path loops of tests/helpers.py: same
    rows in the same order, same keys in the same order, same bits.  The
    instance is helpers.small_instance's, which keeps the solves for
    extracted designs short.  A random design is passed whole, so its
    actions are gathered from its tables; the references ask act."""
    spec = small_instance(seed, K, n, T, kernels)
    T = spec.T
    if kind == "random":
        design = random_design(spec, seed)
    else:
        design = extract_design(spec, solve_on_graph(reachable_graph(spec))[1])

    got, want = evaluate.exact_cost(spec, design), exact_cost_reference(spec, design)
    assert _bits(got.expected_cost) == _bits(want.expected_cost)
    assert _bits(got.per_stage) == _bits(want.per_stage)
    for t_max in range(1, T + 1):
        got = list(evaluate.iter_paths(spec, design, t_max=t_max))
        want = list(iter_paths_reference(spec, design.act, t_max=t_max))
        assert got == want
        assert _bits([r.weight for r in got]) == _bits([r.weight for r in want])
    for t in range(1, T + 1):
        got = evaluate.conditional_state_dists(spec, design, t)
        want = conditional_state_dists_reference(spec, design.act, t)
        assert list(got) == list(want)
        for delta, (prob, vec) in want.items():
            assert _bits(got[delta][0]) == _bits(prob)
            assert _bits(got[delta][1]) == _bits(vec)
        got = evaluate.conditional_x_dists(spec, design, t)
        want = conditional_x_dists_reference(spec, design.act, t)
        assert list(got) == list(want)
        assert all(_bits(got[d]) == _bits(v) for d, v in want.items())
        got = evaluate.conditional_stage_costs(spec, design, t)
        want = conditional_stage_costs_reference(spec, design.act, t)
        assert list(got) == list(want)
        assert all(type(got[d]) is float and _bits(got[d]) == _bits(v)
                   for d, v in want.items())
    for t in range(2, T + 2):
        got = evaluate.conditional_phi(spec, design, t)
        want = conditional_phi_reference(spec, design.act, t)
        assert list(got) == list(want)
        assert all(_bits(got[d]) == _bits(v) for d, v in want.items())
