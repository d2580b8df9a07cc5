import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing.errors import DomainError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (CommonObs, common_obs_count,
                                       common_obs_rank, common_obs_space,
                                       delta_count, delta_rank, gamma_profiles,
                                       private_count, profile_count,
                                       profile_unrank, random_design)
from helpers import private_rank, private_space, private_unrank, profile_rank


def spec_of(K=2, T=3, n=2, x=2, y=(2, 2), u=(2, 2), seed=0):
    return random_instance(K, T, n, x, y, u, seed=seed)


# -- private information ----------------------------------------------------

def test_private_space_delay_one_is_observation_alphabet():
    spec = spec_of(n=1, y=(3, 2))
    for t in (1, 2, 3):
        assert len(private_space(spec, 0, t)) == 3
        assert len(private_space(spec, 1, t)) == 2


def test_private_space_clipped_first_stage():
    spec = spec_of(n=2, y=(2, 2))
    assert len(private_space(spec, 0, 1)) == 2


def test_private_space_full_window():
    spec = spec_of(n=2, y=(2, 2), u=(2, 2))
    assert len(private_space(spec, 0, 3)) == 2 * 2 * 2


def test_private_rank_bijection():
    spec = spec_of(n=2, y=(2, 3), u=(3, 2))
    for k in (0, 1):
        for t in (1, 2, 3):
            space = private_space(spec, k, t)
            assert len(space) == private_count(spec, k, t)
            for rank, info in enumerate(space):
                assert private_rank(spec, info) == rank
                assert private_unrank(spec, k, t, rank) == info


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4), t=st.integers(1, 4),
       y=st.integers(1, 3), u=st.integers(1, 3))
def test_private_count_closed_form(n, t, y, u):
    spec = spec_of(K=1, T=4, n=n, y=(y,), u=(u,))
    assert len(private_space(spec, 0, t)) == private_count(spec, 0, t)


# -- common observations ----------------------------------------------------

def test_common_obs_null_until_shared():
    spec = spec_of(n=2)
    space = common_obs_space(spec, 2)
    assert len(space) == 1 and space[0].is_null


def test_common_obs_count_binary():
    spec = spec_of(n=1, T=2)
    assert common_obs_count(spec, 2) == 16


def test_common_obs_contains_first_stage_tuples():
    spec = spec_of(n=2, T=3)
    space = common_obs_space(spec, 3)
    assert len(space) == 16
    assert space[0] == CommonObs(3, (0, 0), (0, 0))
    assert space[-1] == CommonObs(3, (1, 1), (1, 1))
    for rank, z in enumerate(space):
        assert common_obs_rank(spec, z) == rank


def test_common_obs_domain():
    spec = spec_of(T=3)
    with pytest.raises(DomainError):
        common_obs_space(spec, 1)
    with pytest.raises(DomainError):
        common_obs_space(spec, 4)


# -- profiles ----------------------------------------------------------------

def test_profile_count_examples():
    spec = spec_of(n=1, T=2)
    assert profile_count(spec, 1) == 16
    one = spec_of(n=1, u=(1, 1))
    assert profile_count(one, 1) == 1
    deep = spec_of(n=2, T=3)
    assert profile_count(deep, 3) == (2 ** 8) ** 2


def test_gamma_profiles_rank_order():
    spec = spec_of(n=1, T=2)
    profiles = list(gamma_profiles(spec, 1))
    assert len(profiles) == 16
    for rank, profile in enumerate(profiles):
        assert profile_rank(spec, profile) == rank
        assert profile_unrank(spec, 1, rank) == profile


def test_apply_profile_matches_oracle_design(solved):
    # the solved policy's first-stage prescription, applied by table lookup,
    # agrees with the brute-force optimal design of the same instance
    from delayed_sharing import evaluate
    entry = solved["io"]
    spec, vt, pol = entry["spec"], entry["vt"], entry["pol"]
    best, oracle_design = evaluate.brute_force_optimum(spec)
    profile = profile_unrank(spec, 1, pol.profile_rank(1, 0))
    for lam0 in range(2):
        assert profile.gammas[0].table[lam0] == oracle_design.act(0, 1, lam0, ())
        assert profile.gammas[1].table[0] == oracle_design.act(1, 1, 0, ())


def test_delta_count():
    spec = spec_of(n=2, T=3)
    assert delta_count(spec, 2) == 1
    assert delta_count(spec, 3) == 16


def test_delta_rank_rejects_out_of_range_symbols():
    """(0, 19) would alias (1, 3) at radix 16; no symbol outside [0, radix)
    gets a rank, so an extensional design cannot answer for it."""
    spec = spec_of(n=1, T=3, seed=5)
    assert common_obs_count(spec, 2) == 16
    assert delta_rank(spec, 3, (1, 3)) == 19
    design = random_design(spec, 0)
    for delta in ((0, 19), (0, 16), (16, 0), (-1, 3), (1, -1)):
        with pytest.raises(DomainError, match=r"outside \[0, 16\)"):
            delta_rank(spec, 3, delta)
        with pytest.raises(DomainError, match=r"outside \[0, 16\)"):
            design.act(0, 3, 0, delta)
    assert design.act(0, 3, 0, (1, 3)) == design.tables[0][2][19, 0]


@settings(max_examples=50, deadline=None)
@given(y1=st.integers(1, 2), y2=st.integers(1, 2),
       u1=st.integers(1, 2), u2=st.integers(1, 2),
       n=st.integers(1, 3), t=st.integers(1, 3))
def test_profile_count_closed_form(y1, y2, u1, u2, n, t):
    spec = spec_of(T=3, n=n, y=(y1, y2), u=(u1, u2))
    expected = 1
    for k in range(2):
        expected *= spec.u_size[k] ** private_count(spec, k, t)
    assert profile_count(spec, t) == expected
    if expected <= 512:
        assert sum(1 for _ in gamma_profiles(spec, t)) == expected
