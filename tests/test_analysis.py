import dataclasses
import json
import re

import numpy as np
import pytest

from delayed_sharing import cli
from delayed_sharing.analysis import (KurtaranWitness, check_aicardi_degenerate,
                                      check_one_step_factorization,
                                      concavity_probe,
                                      kurtaran_witness_search,
                                      kurtaran_random_search,
                                      verify_kurtaran_witness)
from delayed_sharing.coordinator import PiBelief, extract_design, state_count, value_at
from delayed_sharing.errors import DomainError, PreconditionError
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import random_design
from delayed_sharing.model import (ProblemSpec, load_problem, normalize_problem,
                                   serialize_problem)
from helpers import private_space


# -- delay-1 factorization ------------------------------------------------------

def test_factorization_requires_delay_one(i2_spec):
    with pytest.raises(PreconditionError):
        check_one_step_factorization(i2_spec, random_design(i2_spec, 1))


def test_factorization_deterministic_obs():
    spec = normalize_problem(random_instance(
        2, 2, 1, 2, (2, 2), (2, 2), seed=31, deterministic=True))
    rep = check_one_step_factorization(spec, random_design(spec, 2))
    assert rep.passed


def test_factorization_uninformative_obs():
    base = random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=32)
    obs = np.full((2, 2, 2), 0.5)
    spec = normalize_problem(ProblemSpec(
        K=2, T=2, n=1, x_size=2, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array(base.x0_dist), trans=np.array(base.trans),
        obs=(obs.copy(), obs.copy()), cost=np.array(base.cost)))
    rep = check_one_step_factorization(spec, random_design(spec, 2))
    assert rep.passed


def test_factorization_on_solved_instances(solved):
    for name in ("io", "i1"):
        entry = solved[name]
        design = extract_design(entry["spec"], entry["pol"])
        rep = check_one_step_factorization(entry["spec"], design)
        assert rep.passed
        assert rep.max_product_error <= 1e-12
        assert rep.max_independence_error <= 1e-12
        assert rep.overlap_checked >= 1


# -- fully-observed degeneracy ---------------------------------------------------

def test_aicardi_requires_projections(i2_spec):
    with pytest.raises(PreconditionError, match="do not multiply to x_size=2"):
        check_aicardi_degenerate(i2_spec)


def test_aicardi_requires_exact_projection_rows(ia_spec):
    """ia with one observation row of controller 1 made uninformative: the
    factors still multiply to x_size, and the row is named."""
    obs = [np.array(o) for o in ia_spec.obs]
    obs[1][1, 2] = 0.5
    spec = dataclasses.replace(ia_spec, obs=tuple(obs), renormalized=False)
    with pytest.raises(PreconditionError,
                       match=re.escape("obs[1][1][2] is not the coordinate projection")):
        check_aicardi_degenerate(spec)


def test_aicardi_degenerate_passes(ia_spec):
    rep = check_aicardi_degenerate(ia_spec)
    assert rep.passed
    assert rep.max_offpoint_mass <= 1e-12
    assert rep.structurally_indexed
    assert abs(rep.dp1_cost - rep.dp2_cost) <= 1e-9


def test_aicardi_early_theta_is_prior(ia_spec):
    from delayed_sharing.second_form import reachable_graph2
    graph2 = reachable_graph2(ia_spec)
    for t in (1, 2):      # t <= n: nothing shared, prior retained
        for node in graph2.stages[t]:
            assert np.abs(node.state.theta.p - ia_spec.x0_dist).max() <= 1e-12


# -- two-step-back statistic -----------------------------------------------------

def test_kurtaran_requires_delay_two(i1_spec):
    with pytest.raises(PreconditionError):
        kurtaran_witness_search(i1_spec, random_design(i1_spec, 1))


def test_kurtaran_structural_exhaustion_small_horizon():
    # T=2, n=2: a single (empty) shared history exists, no pairs to compare
    spec = normalize_problem(random_instance(2, 2, 2, 2, (2, 2), (2, 2), seed=41))
    rep = kurtaran_witness_search(spec, random_design(spec, 1))
    assert rep.exhausted
    assert rep.histories == {}      # no stage has both a statistic and a successor


def test_kurtaran_i2_runs_to_completion(i2_spec, solved):
    design = extract_design(i2_spec, solved["i2"]["pol"])
    rep = kurtaran_witness_search(i2_spec, design)
    assert rep.exhausted
    assert rep.histories == {2: 1}


def _collision_instance():
    """Stage-1 observations carry no information, so shared histories
    differing only there have equal two-step-back statistics."""
    base = random_instance(2, 4, 2, 2, (2, 2), (2, 2), seed=99)
    obs = [np.array(o) for o in base.obs]
    for k in range(2):
        obs[k][0, :, :] = 0.5
    return normalize_problem(ProblemSpec(
        K=2, T=4, n=2, x_size=2, y_size=(2, 2), u_size=(2, 2),
        x0_dist=np.array(base.x0_dist), trans=np.array(base.trans),
        obs=tuple(obs), cost=np.array(base.cost)))


def _witness_design(spec):
    """A history-dependent design on the collision instance whose later
    prescriptions split statistic-equal histories."""
    design = random_design(spec, 5)
    for k in range(2):
        design.tables[k][0][:, :] = 0
        for lam, info in enumerate(private_space(spec, k, 2)):
            design.tables[k][1][:, lam] = info.y_seq[-1]
    return design


def test_kurtaran_witness_found_and_reverified():
    """A history-dependent design whose later prescriptions split statistic-
    equal histories: the statistic admits no self-contained update here."""
    spec = _collision_instance()
    design = _witness_design(spec)
    rep = kurtaran_witness_search(spec, design)
    assert rep.witness is not None
    w = rep.witness
    assert w.gap > 1e-6
    assert np.abs(np.array(w.phi) - np.array(w.phi)).max() <= 1e-12
    assert verify_kurtaran_witness(spec, design, w)


def test_kurtaran_cli_reports_the_witness_of_a_design_file(tmp_path, capsys):
    """kurtaran --design searches the stored design alone; its one finding
    re-verifies from scratch on the instance read back from the file."""
    problem, design_file, out = (tmp_path / name for name in
                                 ("collision.json", "design.json", "out.json"))
    problem.write_text(serialize_problem(_collision_instance()))
    spec = normalize_problem(load_problem(problem.read_text()))
    design = _witness_design(spec)
    design_file.write_text(json.dumps(design.to_json()))
    assert cli.main(["kurtaran", "--problem", str(problem), "--design",
                     str(design_file), "--out", str(out)]) == cli.EXIT_OK
    assert "design file: WITNESS t=" in capsys.readouterr().out
    findings = json.loads(out.read_text())["findings"]
    assert len(findings) == 1 and findings[0]["design"] == "file"
    f = findings[0]
    witness = KurtaranWitness(
        f["t"], tuple(f["delta"]), tuple(f["delta_prime"]), f["z"],
        tuple(f["phi"]), tuple(f["phi_next"]), tuple(f["phi_next_prime"]), f["gap"])
    assert verify_kurtaran_witness(spec, design, witness)


def test_kurtaran_open_loop_design_exhausts_with_comparisons():
    """On the collision instance, prescriptions that ignore both the shared
    data and the uninformative first stage keep statistics and their
    successors together: comparisons happen, no witness appears."""
    spec = _collision_instance()
    design = random_design(spec, 5)
    for k in range(2):
        design.tables[k][0][:, :] = 0
        for lam, info in enumerate(private_space(spec, k, 2)):
            design.tables[k][1][:, lam] = info.y_seq[-1]
        for t in (3, 4):
            for lam in range(design.tables[k][t - 1].shape[1]):
                design.tables[k][t - 1][:, lam] = design.tables[k][t - 1][0, lam]
    rep = kurtaran_witness_search(spec, design)
    assert rep.exhausted
    assert rep.comparisons >= 1


def test_kurtaran_random_search_protocol():
    reports = kurtaran_random_search(10, seed=3)
    assert len(reports) == 10
    for rep in reports:
        assert rep.exhausted or rep.witness.gap > 1e-6


# -- concavity -------------------------------------------------------------------

def test_concavity_edge_cases(i1_spec):
    spec = i1_spec
    rng = np.random.default_rng(2)
    for t in (1, 2):
        dim = state_count(spec, t)
        p1 = rng.dirichlet(np.ones(dim))
        p2 = rng.dirichlet(np.ones(dim))
        v1 = value_at(spec, t, PiBelief(t, p1))
        v2 = value_at(spec, t, PiBelief(t, p2))
        # lambda in {0, 1} and equal endpoints give exact equality
        assert value_at(spec, t, PiBelief(t, p1.copy())) == v1
        mix_same = value_at(spec, t, PiBelief(t, 0.5 * p1 + 0.5 * p1))
        assert mix_same == pytest.approx(v1, abs=1e-12)
        assert v2 == pytest.approx(
            value_at(spec, t, PiBelief(t, 0.0 * p1 + 1.0 * p2)), abs=1e-12)


def test_concavity_probe_reports(i1_spec):
    rep = concavity_probe(i1_spec, 20, seed=7)
    assert rep.passed
    assert set(rep.min_slack) == {1, 2}
    with pytest.raises(DomainError, match="samples must be >= 1"):
        concavity_probe(i1_spec, 0, seed=7)
    assert min(rep.min_slack.values()) >= -1e-9


def test_concavity_probe_rejects_a_negative_seed_before_any_work(monkeypatch, i1_spec):
    def no_draw(*args, **kwargs):
        raise AssertionError("the probe drew samples")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
        concavity_probe(i1_spec, 2, -1)
