import itertools

import numpy as np
import pytest

from delayed_sharing import evaluate
from delayed_sharing.coordinator import expected_stage_cost, initial_belief
from delayed_sharing.errors import BudgetError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (ExtensionalDesign, PrivateInfo,
                                       constant_design, gamma_profiles,
                                       private_rank, random_design)
from delayed_sharing.model import ProblemSpec, normalize_problem


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


def test_enumerate_designs_budget():
    spec = random_instance(2, 2, 2, 2, (2, 2), (2, 2), seed=1)
    with pytest.raises(BudgetError, match=str(evaluate.design_count(spec))):
        list(evaluate.enumerate_designs(spec, max_designs=1000))


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


def test_brute_force_budget(io_spec):
    with pytest.raises(BudgetError):
        evaluate.brute_force_optimum(io_spec, budget=100)


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
    radices that differ within and across controllers."""
    spec = normalize_problem(random_instance(2, 4, n, 2, (2, 3), (3, 2), seed=n))
    for k in range(spec.K):
        for t in range(1, spec.T + 1):
            lo = max(1, t - n + 1)
            for ys in itertools.product(range(spec.y_size[k]), repeat=t):
                for us in itertools.product(range(spec.u_size[k]), repeat=t - 1):
                    info = PrivateInfo(k, t, ys[lo - 1:], us[lo - 1:])
                    assert (evaluate._window_rank(spec, k, t, ys, us)
                            == private_rank(spec, info))
