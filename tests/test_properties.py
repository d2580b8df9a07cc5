"""Randomized cross-validation: the grouped solver against the plain
recursion, the brute-force oracle, and the grouping invariant itself."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ORACLE_SHAPES, naive_value

from delayed_sharing import evaluate
from delayed_sharing.coordinator import (belief_update, initial_belief,
                                         solve_dp)
from delayed_sharing.errors import UnreachableObservationError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (common_obs_space, profile_unrank,
                                       profile_count)
from delayed_sharing.model import normalize_problem
from delayed_sharing.second_form import solve_dp2
from delayed_sharing.verify import DP_TOL
from delayed_sharing._tables import tables

SHAPES = [
    # (K, T, n, x, y, u) kept small enough for the naive recursion
    (2, 2, 1, 2, (2, 2), (2, 2)),
    (2, 2, 1, 3, (2, 1), (1, 2)),
    (2, 2, 2, 2, (2, 1), (2, 1)),
    (1, 3, 1, 2, (2,), (2,)),
    (1, 2, 2, 2, (2,), (2,)),
    (2, 2, 3, 2, (2, 2), (2, 1)),     # delay beyond horizon: nothing shared
    (3, 2, 1, 2, (2, 1, 2), (2, 1, 1)),
]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("seed", [0, 1])
def test_solver_matches_naive_recursion(shape, seed):
    K, T, n, x, y, u = shape
    spec = normalize_problem(random_instance(K, T, n, x, y, u, seed=100 + seed))
    vt, _ = solve_dp(spec)
    vt2, _ = solve_dp2(spec)
    want = naive_value(spec, 1, initial_belief(spec))
    assert vt.optimal_cost == pytest.approx(want, abs=1e-10)
    assert vt2.optimal_cost == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_solver_matches_brute_force(shape):
    K, T, n, x, y, u = shape
    spec = normalize_problem(random_instance(K, T, n, x, y, u, seed=55))
    assert evaluate.design_count(spec) <= 100_000
    best, _ = evaluate.brute_force_optimum(spec)
    vt, _ = solve_dp(spec)
    vt2, _ = solve_dp2(spec)
    assert vt.optimal_cost == pytest.approx(best, abs=1e-9)
    assert vt2.optimal_cost == pytest.approx(best, abs=1e-9)
    assert vt.optimal_cost <= best + 1e-12     # never above the oracle


@pytest.mark.parametrize("x_size", [2, 3])
@pytest.mark.parametrize("seed", [5, 6])
def test_brute_force_where_both_controllers_choose(x_size, seed):
    """Both controllers have two actions and two observations at each of
    two stages, delay 2: 2**20 designs.  Both dynamic programs reach the
    oracle's optimum, and neither undercuts it."""
    spec = normalize_problem(random_instance(2, 2, 2, x_size, (2, 2), (2, 2),
                                             seed=seed, deterministic=True))
    assert evaluate.design_count(spec) == 2 ** 20
    best, _ = evaluate.brute_force_optimum(spec, max_designs=2 ** 20)
    for vt, _ in (solve_dp(spec), solve_dp2(spec)):
        assert abs(vt.optimal_cost - best) <= DP_TOL
        assert vt.optimal_cost >= best - 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 2))
def test_branch_ignores_invisible_assignments(seed, n):
    """The grouping invariant: the update depends on a profile only through
    its actions on realizations consistent with the emitted symbol."""
    rng = np.random.default_rng(seed)
    spec = normalize_problem(random_instance(2, 3, n, 2, (2, 2), (2, 2),
                                             seed=seed))
    t = 2 if n == 2 else 1
    pi = initial_belief(spec)
    if t == 2:
        profile = profile_unrank(spec, 1, int(rng.integers(profile_count(spec, 1))))
        z = common_obs_space(spec, 2)[0]
        pi, _ = belief_update(spec, pi, profile, z)
    for z in common_obs_space(spec, t + 1):
        if z.is_null:
            continue
        cons = tables(spec).stage[t].consistency(spec, z)[0]
        a = profile_unrank(spec, t, int(rng.integers(profile_count(spec, t))))
        # overwrite b to agree with a exactly on consistent realizations
        b_tables = []
        for k in range(spec.K):
            table = list(rng.integers(0, spec.u_size[k],
                                      len(a.gammas[k].table)))
            for lam in cons[k]:
                table[lam] = a.gammas[k].table[lam]
            b_tables.append(tuple(int(v) for v in table))
        from delayed_sharing.histories import GammaProfile, PartialFunction
        b = GammaProfile(t, tuple(PartialFunction(k, t, b_tables[k])
                                  for k in range(spec.K)))
        try:
            pa, za = belief_update(spec, pi, a, z)
        except UnreachableObservationError:
            pa, za = None, None
        try:
            pb, zb = belief_update(spec, pi, b, z)
        except UnreachableObservationError:
            pb, zb = None, None
        if pa is None:
            assert pb is None
        else:
            assert za == pytest.approx(zb, abs=0)
            assert np.array_equal(pa.p, pb.p)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_belief_updates_normalize(seed):
    spec = normalize_problem(random_instance(2, 3, 2, 2, (2, 2), (2, 2),
                                             seed=seed))
    pi = initial_belief(spec)
    rng = np.random.default_rng(seed)
    for t in range(1, spec.T):
        profile = profile_unrank(spec, t, int(rng.integers(profile_count(spec, t))))
        total = 0.0
        nxt = None
        for z in common_obs_space(spec, t + 1):
            try:
                cand, pz = belief_update(spec, pi, profile, z)
            except UnreachableObservationError:
                continue
            total += pz
            assert abs(cand.p.sum() - 1.0) <= 1e-12
            if nxt is None:
                nxt = cand
        assert total == pytest.approx(1.0, abs=1e-12)
        pi = nxt
