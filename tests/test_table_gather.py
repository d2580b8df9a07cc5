"""The path table gathers an extensional design's actions from its tables.
Every result must equal, byte for byte, the one through act: exact costs,
path rows, conditionals, the brute-force optimum with its design, simulated
means, and the DomainError an out-of-range action raises."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delayed_sharing import evaluate, histories
from delayed_sharing.errors import DomainError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import ExtensionalDesign, random_design
from delayed_sharing.model import ProblemSpec, normalize_problem
from helpers import ActOnly, small_instance


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _outcome(call):
    """call()'s result, or the message of the DomainError it raises."""
    try:
        return call()
    except DomainError as exc:
        return f"DomainError: {exc}"


def _readers(spec, design):
    """Everything the path table feeds, as comparable values (float bits,
    dict keys in order, path rows)."""
    cost = evaluate.exact_cost(spec, design)
    out = [_bits(cost.expected_cost), _bits(cost.per_stage),
           list(evaluate.iter_paths(spec, design))]
    for t in range(1, spec.T + 1):
        dists = evaluate.conditional_state_dists(spec, design, t)
        out.append([(d, _bits(p), _bits(v)) for d, (p, v) in dists.items()])
        out.append([(d, _bits(v)) for d, v in
                    evaluate.conditional_x_dists(spec, design, t).items()])
        out.append([(d, _bits(v)) for d, v in
                    evaluate.conditional_stage_costs(spec, design, t).items()])
        if t >= 2:
            out.append([(d, _bits(v)) for d, v in
                        evaluate.conditional_phi(spec, design, t).items()])
    sim = evaluate.simulate(spec, design, 300, seed=5)
    out.append((_bits(sim.mean), _bits(sim.std_error)))
    return out


def _spoil(spec, design, seed):
    """design with two entries of one stage table set to two different
    out-of-range actions (one negative when the draw says so)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(spec.K))
    tab = design.tables[k][int(rng.integers(spec.T))]
    for bad in (spec.u_size[k] + int(rng.integers(3)),
                -1 if rng.random() < 0.3 else spec.u_size[k] + 3):
        tab[tuple(int(rng.integers(n)) for n in tab.shape)] = bad
    return design


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), K=st.sampled_from([1, 2, 3]),
       n=st.sampled_from([1, 2, 3]), T=st.integers(1, 4),
       kernels=st.sampled_from(["generic", "deterministic", "zero_entries"]),
       spoiled=st.booleans())
def test_gather_equals_act(seed, K, n, T, kernels, spoiled):
    spec = small_instance(seed, K, n, T, kernels)
    design = random_design(spec, seed)
    if spoiled:
        design = _spoil(spec, design, seed)
    got = _outcome(lambda: _readers(spec, design))
    want = _outcome(lambda: _readers(spec, ActOnly(design)))
    assert got == want


def test_first_bad_action_in_history_order():
    """Two different out-of-range actions at t = 1, where the path rows
    meet private rank 1 first (state 0 shows observation 1): both paths
    name the action at private rank 0, the first in (shared history,
    private rank) order, for exact_cost, a conditional and simulate."""
    base = random_instance(1, 2, 1, 2, (2,), (2,), seed=4)
    obs = np.array(base.obs[0])
    obs[0] = [[0.0, 1.0], [1.0, 0.0]]
    spec = normalize_problem(ProblemSpec(
        K=1, T=2, n=1, x_size=2, y_size=(2,), u_size=(2,),
        x0_dist=np.array([0.5, 0.5]), trans=np.array(base.trans),
        obs=(obs,), cost=np.array(base.cost)))
    first_path = next(evaluate.iter_paths(spec, random_design(spec, 1)))
    assert first_path.ys[0][0] == 1
    design = random_design(spec, 1)
    design.tables[0][0][0] = [7, 5]
    calls = [lambda d: evaluate.exact_cost(spec, d),
             lambda d: evaluate.conditional_stage_costs(spec, d, 1),
             lambda d: evaluate.simulate(spec, d, 50, seed=2)]
    for call in calls:
        for d in (design, ActOnly(design)):
            with pytest.raises(DomainError,
                               match=r"^action 7 out of range for controller 0$"):
                call(d)


def _brute_force_by_act(spec):
    """brute_force_optimum's minimum, each design asked through act."""
    best = best_design = None
    for design in evaluate.enumerate_designs(spec):
        value = evaluate.exact_cost(spec, ActOnly(design)).expected_cost
        if best is None or value < best:
            best, best_design = value, design
    return best, best_design


def _zero_cost_spec():
    base = random_instance(2, 1, 1, 2, (2, 2), (2, 2), seed=17)
    return normalize_problem(ProblemSpec(
        K=2, T=1, n=1, x_size=2, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array(base.x0_dist), trans=np.array(base.trans),
        obs=tuple(np.array(o) for o in base.obs),
        cost=np.zeros_like(base.cost)))


@pytest.mark.parametrize("case", ["io", "ties"])
def test_brute_force_equals_act(io_spec, case):
    """The optimum and its design; with zero cost every design ties
    exactly, and the first enumerated one (all zeros) is returned."""
    spec = io_spec if case == "io" else _zero_cost_spec()
    best, design = evaluate.brute_force_optimum(spec)
    want, want_design = _brute_force_by_act(spec)
    assert _bits(best) == _bits(want)
    assert isinstance(design, ExtensionalDesign)
    assert design.to_json() == want_design.to_json()
    if case == "ties":
        assert not any(tab.any() for per_k in design.tables for tab in per_k)
        assert design.tables[0][0].shape == (histories.delta_count(spec, 1),
                                             histories.private_count(spec, 0, 1))
