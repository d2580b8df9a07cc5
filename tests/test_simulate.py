"""The block-vectorized Monte Carlo estimate against the per-episode loop in
tests/helpers.py.  Both draw episode i's stream, default_rng([seed, i]): the
loop asks numpy for it episode by episode, simulate computes a block's
streams at once in evaluate._episode_uniforms, which is checked here against
numpy bit for bit.  Both add stage costs in the same order, so the results
must be equal bit for bit (dataclass ==), on either side of the block
boundary, for any Design and for seeds of one or more 32-bit words."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing import evaluate
from delayed_sharing.coordinator import (extract_design, reachable_graph,
                                         solve_on_graph)
from delayed_sharing.errors import BudgetError, DomainError, OffDesignHistoryError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import random_design
from delayed_sharing.model import normalize_problem
from delayed_sharing.second_form import extract_design2, reachable_graph2
from helpers import simulate_reference

FORMS = {"belief": (reachable_graph, extract_design),
         "theta_r": (reachable_graph2, extract_design2)}


def _two_designs(spec, kind, seed):
    """Two equal designs of one kind that share no cache."""
    if kind == "random":
        return random_design(spec, seed), random_design(spec, seed)
    build, extract = FORMS[kind]
    _, policy = solve_on_graph(build(spec))
    return extract(spec, policy), extract(spec, policy)


# Simulate seeds of one, two and three 32-bit words
SIM_SEEDS = st.one_of(st.integers(0, 10_000), st.integers(2**32 - 8, 2**32 + 8),
                      st.integers(2**64, 2**64 + 10_000))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), sim_seed=SIM_SEEDS, K=st.sampled_from([2, 3]),
       n=st.sampled_from([1, 2]), deterministic=st.booleans(),
       kind=st.sampled_from(["belief", "theta_r", "random"]),
       block=st.sampled_from([1, 2, 5]), extra=st.sampled_from([-1, 0, 1]))
def test_simulate_matches_per_episode_loop(seed, sim_seed, K, n, deterministic,
                                           kind, block, extra):
    """Episode counts 1, block-1, block and block+1 for small block sizes.
    A third controller observes one symbol, which keeps its solve small."""
    spec = normalize_problem(random_instance(
        K, n + 1, n, 2, (2, 2, 1)[:K], (2,) * K, seed=seed,
        deterministic=deterministic))
    episodes = max(1, block + extra)
    design, fresh = _two_designs(spec, kind, seed)
    with mock.patch.object(evaluate, "_SIM_BLOCK", block):
        got = evaluate.simulate(spec, design, episodes, sim_seed)
    assert got == simulate_reference(spec, fresh, episodes, sim_seed)


@pytest.mark.parametrize("kind", ["belief", "random"])
def test_simulate_matches_per_episode_loop_across_a_full_block(i2_spec, kind):
    design, fresh = _two_designs(i2_spec, kind, 5)
    episodes = evaluate._SIM_BLOCK + 1
    got = evaluate.simulate(i2_spec, design, episodes, 9)
    assert got == simulate_reference(i2_spec, fresh, episodes, 9)


# Seeds of 1, 1, 1, 2, 3, 4 and 5 entropy words: the 4- and 5-word seeds run
# SeedSequence's loop over words beyond its pool of 4.  numpy's own integers
# are seeds too.
STREAM_SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 + 1,
                np.int64(7), np.uint64(2**64 - 1)]


@pytest.mark.parametrize("count", [1, 1 + 3 * (3 + 1)])    # 1 + T(K+1), T = K = 3
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_episode_uniforms_are_numpys_per_episode_streams(seed, count):
    """Each lane against numpy's own default_rng([seed, i]), compared as
    bits, alone and inside a block that straddles 4096."""
    indices = [0, 1, 4095, 4096, 2**31, 2**32 - 1, evaluate.DEFAULT_MAX_EPISODES - 1]
    for i in indices:
        want = np.random.default_rng([seed, i]).random(count)
        got = evaluate._episode_uniforms(seed, i, i + 1, count)
        assert got.shape == (1, count)
        assert got[0].view(np.uint64).tolist() == want.view(np.uint64).tolist(), i
    want = np.stack([np.random.default_rng([seed, i]).random(count)
                     for i in range(4090, 4100)])
    got = evaluate._episode_uniforms(seed, 4090, 4100, count)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_draw_is_a_clipped_right_searchsorted_per_row():
    """Uniforms that hit a cdf entry exactly, on rows with repeated entries
    (zero-probability outcomes) and a last entry 1 ulp short of 1."""
    rows = np.array([[0.25, 0.25, 0.75, 1.0],
                     [0.0, 0.5, 0.5, 1.0],
                     [0.125, 0.375, 0.625, np.nextafter(1.0, 0.0)]])
    for u in sorted({0.0, 0.3, 0.999, *rows.reshape(-1).tolist()}):
        want = [min(int(np.searchsorted(row, u, side="right")), len(row) - 1)
                for row in rows]
        got = evaluate._draw(rows, np.full(len(rows), u))
        assert got.tolist() == want, u


class _Scripted:
    """Plays action 0 except where told: `actions` maps (k, t) to the action
    to return, `off_design_at` is a time whose every history it rejects."""

    def __init__(self, actions=None, off_design_at=None):
        self.actions = actions or {}
        self.off_design_at = off_design_at
        self.calls = 0

    def act(self, k, t, lam_rank, delta):
        self.calls += 1
        if t == self.off_design_at:
            raise OffDesignHistoryError(f"history {delta} at t={t}")
        return self.actions.get((k, t), 0)


@pytest.mark.parametrize("action", [-1, 2])
def test_simulate_rejects_an_action_out_of_range(i1_spec, action):
    design = _Scripted({(1, i1_spec.T): action})
    with pytest.raises(DomainError,
                       match=f"action {action} out of range for controller 1"):
        evaluate.simulate(i1_spec, design, 10, seed=3)


def test_simulate_propagates_off_design_histories(i1_spec):
    with pytest.raises(OffDesignHistoryError):
        evaluate.simulate(i1_spec, _Scripted(off_design_at=2), 10, seed=3)


def test_simulate_rejects_a_negative_seed_before_any_work(i1_spec):
    design = _Scripted()
    with pytest.raises(DomainError, match="seed"):
        evaluate.simulate(i1_spec, design, 10, seed=-1)
    assert design.calls == 0


def test_simulate_refuses_episodes_over_the_budget_before_any_work(
        i1_spec, monkeypatch):
    """The budget is read at call time: it is itself admitted, one more
    episode is refused before the design is asked anything."""
    monkeypatch.setattr(evaluate, "DEFAULT_MAX_EPISODES", 3)
    assert evaluate.simulate(i1_spec, _Scripted(), 3, seed=3).episodes == 3
    design = _Scripted()
    with pytest.raises(BudgetError, match="4 episodes"):
        evaluate.simulate(i1_spec, design, 4, seed=3)
    assert design.calls == 0
