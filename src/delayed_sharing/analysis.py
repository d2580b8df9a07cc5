"""Executable probes of the structural claims: value-function concavity,
the delay-1 factorization and design-independence, the fully-observed
special case, and the search for update-consistency violations of the
two-step-back statistic (state from two steps back plus last actions).

All probes are deterministic given (instance, design, seed) and report
honestly: absence of a violation is a valid outcome, never an assertion
that none exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import evaluate, generate
from ._tables import tables
from .coordinator import (PiBelief, belief_update, initial_belief, solve_dp,
                          solve_on_graph, values_at)
from .errors import DomainError, PreconditionError
from .histories import (Design, GammaProfile, PartialFunction,
                        common_obs_count, common_obs_space, private_count,
                        random_design)
from .model import ProblemSpec, normalize_problem
from .second_form import reachable_graph2

PHI_MATCH_TOL = 1e-12     # equal-statistic bucketing
PHI_GAP_TOL = 1e-6        # a violation must clear this, far above bucket noise
CONCAVITY_TOL = 1e-9      # value-of-mixture slack
EXACT_TOL = 1e-12         # factorization and point-mass errors


# ---------------------------------------------------------------------------
# Concavity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcavityReport:
    seed: int
    samples: int
    min_slack: dict[int, float]      # per stage
    passed: bool


def _check_samples(samples: int) -> None:
    """concavity_probe's check on its sample count, which
    verify.verify_instance also makes before any other work."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")


def concavity_probe(spec: ProblemSpec, samples: int, seed: int) -> ConcavityReport:
    """Sample mixture triples per stage and check the value of the mixture
    is never below the mixture of values (minus tolerance).  A stage's
    triples are drawn first, then their beliefs (p1, p2, mixture, sample
    after sample) are valued by one values_at call.  Fewer than one sample
    or a negative seed is a DomainError, raised before any work."""
    _check_samples(samples)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    spec = normalize_problem(spec)
    min_slack: dict[int, float] = {}
    for t in range(1, spec.T + 1):
        dim = tables(spec).stage[t].state_count
        rng = np.random.default_rng([seed, t])
        lams, beliefs = [], []
        for _ in range(samples):
            p1 = rng.dirichlet(np.ones(dim))
            p2 = rng.dirichlet(np.ones(dim))
            lam = float(rng.random())
            lams.append(lam)
            beliefs += [PiBelief(t, p) for p in (p1, p2, lam * p1 + (1.0 - lam) * p2)]
        values = values_at(spec, t, beliefs)
        worst = np.inf
        for i, lam in enumerate(lams):
            v1, v2, vm = values[3 * i:3 * i + 3]
            worst = min(worst, vm - (lam * v1 + (1.0 - lam) * v2))
        min_slack[t] = float(worst)
    return ConcavityReport(seed, samples,
                           min_slack, all(s >= -CONCAVITY_TOL for s in min_slack.values()))


# ---------------------------------------------------------------------------
# Delay-1 factorization and design independence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationReport:
    histories_checked: int
    overlap_checked: int
    max_product_error: float
    max_independence_error: float
    passed: bool


def design_profile(spec: ProblemSpec, design: Design, t: int,
                   delta: tuple[int, ...]) -> GammaProfile:
    """The prescription profile a design induces at one shared history."""
    gammas = []
    for k in range(spec.K):
        table = tuple(design.act(k, t, lam, delta)
                      for lam in range(private_count(spec, k, t)))
        gammas.append(PartialFunction(k, t, table))
    return GammaProfile(t, tuple(gammas))


def replay_beliefs(spec: ProblemSpec, design: Design, t: int,
                   delta: tuple[int, ...]) -> PiBelief:
    """The belief-form information state at one shared history, computed by
    the recursion with the design's own prescriptions in force."""
    spec = normalize_problem(spec)
    pi = initial_belief(spec)
    for m in range(1, t):
        sub = delta[: max(0, m + 1 - spec.n)]
        z_rank = 0 if m + 1 <= spec.n else sub[-1]
        z = common_obs_space(spec, m + 1)[z_rank]
        profile = design_profile(spec, design, m, delta[: max(0, m - spec.n)])
        pi, _ = belief_update(spec, pi, profile, z)
    return pi


def _flipped_design(spec: ProblemSpec, design: Design) -> Design:
    """A design differing from the base at a single first-stage entry; used
    to test that shared-history conditionals do not depend on the design.
    The base is materialized first so the variant stays total off-policy."""
    flipped = evaluate.materialize_design(spec, design)
    table = flipped.tables[0][0]
    table[0, 0] = (table[0, 0] + 1) % spec.u_size[0]
    return flipped


def check_one_step_factorization(spec: ProblemSpec,
                                 design: Design) -> FactorizationReport:
    """Under delay 1, at every reachable shared history: (a) the belief-form
    information state factorizes into the observation likelihoods times the
    previous-state conditional, and (b) that conditional is identical under a
    second design (the first with one first-stage entry flipped) wherever
    both designs reach the history."""
    spec = normalize_problem(spec)
    if spec.n != 1:
        raise PreconditionError(f"factorization probe needs delay 1, got n={spec.n}")
    design2 = _flipped_design(spec, design)
    checked = 0
    overlap = 0
    max_prod = 0.0
    max_indep = 0.0
    for t in range(1, spec.T + 1):
        st = tables(spec).stage[t]
        x_dist_1 = evaluate.conditional_x_dists(spec, design, t)
        x_dist_2 = evaluate.conditional_x_dists(spec, design2, t)
        for delta in sorted(x_dist_1):
            checked += 1
            pi = replay_beliefs(spec, design, t, delta)
            cube = pi.p.reshape(st.shape)
            expect = np.array(x_dist_1[delta])
            for k in range(spec.K):
                expect = expect[..., None] * spec.obs[k][t - 1][
                    (slice(None),) + (None,) * k + (slice(None),)]
            max_prod = max(max_prod, float(np.abs(cube - expect).max()))
            if delta in x_dist_2:
                overlap += 1
                max_indep = max(max_indep, float(
                    np.abs(x_dist_1[delta] - x_dist_2[delta]).max()))
    return FactorizationReport(checked, overlap, max_prod, max_indep,
                               max_prod <= EXACT_TOL and max_indep <= EXACT_TOL)


# ---------------------------------------------------------------------------
# Fully-observed coupled subsystems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AicardiReport:
    nodes_checked: int
    max_offpoint_mass: float         # worst 1 - max entry of Theta, t > n
    structurally_indexed: bool       # (delayed state, suffix) identifies nodes
    dp1_cost: float
    dp2_cost: float
    passed: bool


def projection_violation(spec: ProblemSpec) -> str | None:
    """Why the instance is not a product state whose per-controller factors
    are the observation alphabets spec.y_size, observed by every controller
    as an exact projection of its own coordinate; None when it is."""
    if int(np.prod(spec.y_size)) != spec.x_size:
        return f"factors {spec.y_size} do not multiply to x_size={spec.x_size}"

    def coord(x: int, k: int) -> int:
        for j in range(spec.K - 1, k, -1):
            x //= spec.y_size[j]
        return x % spec.y_size[k]

    for k in range(spec.K):
        for t in range(spec.T):
            for x in range(spec.x_size):
                row = np.zeros(spec.y_size[k])
                row[coord(x, k)] = 1.0
                if not np.array_equal(spec.obs[k][t, x], row):
                    return f"obs[{k}][{t}][{x}] is not the coordinate projection"
    return None


def check_aicardi_degenerate(spec: ProblemSpec) -> AicardiReport:
    """On a product-state instance where every controller's observation is an
    exact projection of its subsystem coordinate (projection_violation):
    past the delay, the delayed-state belief is a point mass at every
    reachable node, the node set is indexed by (delayed state, suffixes),
    and both dynamic programs agree on the optimal cost."""
    spec = normalize_problem(spec)
    violation = projection_violation(spec)
    if violation is not None:
        raise PreconditionError(violation)

    graph2 = reachable_graph2(spec)
    worst = 0.0
    nodes_checked = 0
    structural = True
    for t in range(spec.n + 1, spec.T + 1):
        seen: set[tuple] = set()
        states = (graph2.leaf_states if t == spec.T
                  else [node.state for node in graph2.stages[t]])
        for state in states:
            nodes_checked += 1
            theta = state.theta.p
            worst = max(worst, float(1.0 - theta.max()))
            key = (int(np.argmax(theta)), tuple(rs.parts for rs in state.r))
            if key in seen:
                structural = False
            seen.add(key)
    vt1, _ = solve_dp(spec)
    vt2, _ = solve_on_graph(graph2)
    passed = (worst <= EXACT_TOL and structural
              and abs(vt1.optimal_cost - vt2.optimal_cost) <= 1e-9)
    return AicardiReport(nodes_checked, worst, structural,
                         vt1.optimal_cost, vt2.optimal_cost, passed)


# ---------------------------------------------------------------------------
# Update-consistency search for the two-step-back statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KurtaranWitness:
    """Two shared histories carrying the same two-step-back statistic whose
    statistics diverge after one further shared symbol."""

    t: int
    delta: tuple[int, ...]
    delta_prime: tuple[int, ...]
    z_rank: int
    phi: tuple[float, ...]
    phi_prime_1: tuple[float, ...]      # successor statistic from delta
    phi_prime_2: tuple[float, ...]      # successor statistic from delta_prime
    gap: float


@dataclass(frozen=True)
class KurtaranReport:
    histories: dict[int, int]        # per t, reachable shared histories
    groups: int                      # statistic-equal groups with >= 2 members
    comparisons: int
    witness: KurtaranWitness | None

    @property
    def exhausted(self) -> bool:
        return self.witness is None


def _phi_direct(spec: ProblemSpec, design: Design, t: int,
                delta: tuple[int, ...]) -> np.ndarray:
    """Recompute the two-step-back statistic at one shared history from
    scratch, filtering trajectories explicitly (independent of the grouped
    accumulation used by the search)."""
    A = spec.action_count
    vec = np.zeros(spec.x_size * A)
    for rec in evaluate.iter_paths(spec, design, t_max=t - 1):
        if rec.zs[: max(0, t - spec.n)] != delta:
            continue
        a = spec.encode_action(tuple(rec.us[k][t - 2] for k in range(spec.K)))
        vec[rec.xs[t - 2] * A + a] += rec.weight
    total = vec.sum()
    if total <= 0.0:
        raise PreconditionError(f"history {delta} has probability zero at t={t}")
    return vec / total


def verify_kurtaran_witness(spec: ProblemSpec, design: Design,
                            witness: KurtaranWitness) -> bool:
    """Re-verify a witness from scratch: statistics match within 1e-12 and
    the successor gap clears 1e-6."""
    spec = normalize_problem(spec)
    phi_a = _phi_direct(spec, design, witness.t, witness.delta)
    phi_b = _phi_direct(spec, design, witness.t, witness.delta_prime)
    if float(np.abs(phi_a - phi_b).max()) > PHI_MATCH_TOL:
        return False
    nxt_a = _phi_direct(spec, design, witness.t + 1,
                        witness.delta + (witness.z_rank,))
    nxt_b = _phi_direct(spec, design, witness.t + 1,
                        witness.delta_prime + (witness.z_rank,))
    return float(np.abs(nxt_a - nxt_b).max()) > PHI_GAP_TOL


def kurtaran_witness_search(spec: ProblemSpec, design: Design
                            ) -> KurtaranReport:
    """Search every pair of reachable shared histories with matching
    two-step-back statistics for a successor divergence.

    Deterministic: histories are scanned in rank order and the first witness
    (if any) is returned, re-verified from scratch.  Exhaustion is a valid
    outcome and is reported as such.
    """
    spec = normalize_problem(spec)
    if spec.n != 2 or spec.K != 2:
        raise PreconditionError(
            f"the two-step-back probe is defined for n=2, K=2 "
            f"(got n={spec.n}, K={spec.K})")
    histories_per_t: dict[int, int] = {}
    groups = 0
    comparisons = 0
    witness = None
    for t in range(2, spec.T):
        phis = evaluate.conditional_phi(spec, design, t)
        histories_per_t[t] = len(phis)
        nxt = evaluate.conditional_phi(spec, design, t + 1)
        buckets: dict[bytes, list[tuple[int, ...]]] = {}
        for delta in sorted(phis):
            key = np.round(phis[delta] / PHI_MATCH_TOL).astype(np.int64).tobytes()
            buckets.setdefault(key, []).append(delta)
        for key in sorted(buckets):
            group = buckets[key]
            if len(group) < 2:
                continue
            groups += 1
            for da, db in itertools.combinations(group, 2):
                if float(np.abs(phis[da] - phis[db]).max()) > PHI_MATCH_TOL:
                    continue          # bucket collision, not a true match
                for zr in range(common_obs_count(spec, t + 1)):
                    ka, kb = da + (zr,), db + (zr,)
                    if ka not in nxt or kb not in nxt:
                        continue
                    comparisons += 1
                    gap = float(np.abs(nxt[ka] - nxt[kb]).max())
                    if gap > PHI_GAP_TOL:
                        witness = KurtaranWitness(
                            t, da, db, zr,
                            tuple(float(v) for v in phis[da]),
                            tuple(float(v) for v in nxt[ka]),
                            tuple(float(v) for v in nxt[kb]),
                            gap)
                        if not verify_kurtaran_witness(spec, design, witness):
                            raise AssertionError(
                                "witness failed independent re-verification")
                        return KurtaranReport(histories_per_t, groups,
                                              comparisons, witness)
    return KurtaranReport(histories_per_t, groups, comparisons, None)


def kurtaran_random_search(count: int, seed: int) -> list[KurtaranReport]:
    """The randomized protocol: seeded random binary (instance, design)
    pairs at delay 2 and horizon 4, each searched to completion."""
    reports = []
    for i in range(count):
        spec = normalize_problem(generate.random_instance(
            2, 4, 2, 2, (2, 2), (2, 2), seed=(seed * 1000 + i)))
        design = random_design(spec, seed * 2000 + i)
        reports.append(kurtaran_witness_search(spec, design))
    return reports
