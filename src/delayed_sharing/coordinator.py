"""Belief-form information state: the shared-data conditional over the joint
state (previous plant state plus every controller's private window), its
strategy-independent update, the collapsed stage cost, strategy extraction,
and the piecewise-linear value-function machinery.  Also the information-graph
core both dynamic programs run on: one graph type, one forward closure
(build_graph), one backward sweep (solve_on_graph) and one continuation
assembly (add_continuation); each form supplies only its information state,
dedup key, belief-form image, visibility rule and successor.

The joint state at time t is S_t = (X_{t-1}, private windows of all
controllers); the coordinator's belief over it, conditioned on shared data
and past prescriptions, updates through a fixed Bayes map that does not
depend on how prescriptions are chosen.  The dynamic program minimizes over
prescription profiles at every reachable belief.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import histories, minimize
from ._tables import support_sets, tables
from .errors import (BudgetError, DomainError, OffDesignHistoryError,
                     UnreachableObservationError)
from .histories import (CommonObs, CoordinatorPolicy, GammaProfile,
                        common_obs_rank, common_obs_space, profile_count,
                        profile_unrank)
from .model import ProblemSpec, normalize_problem

DEFAULT_MAX_NODES = 200_000

# Beliefs are deduplicated on a 1e-9 grid: quantized keys merge anything
# within half a grid step, which absorbs float noise while leaving genuinely
# distinct desk-scale beliefs apart.
_DEDUP_SCALE = 1e9


@dataclass(frozen=True)
class JointState:
    """One realization of (previous plant state, all private windows)."""

    t: int
    x_prev: int
    lam: tuple[int, ...]      # per-controller private ranks


def state_count(spec: ProblemSpec, t: int) -> int:
    return tables(spec).stage[t].state_count


def state_rank(spec: ProblemSpec, s: JointState) -> int:
    return tables(spec).stage[s.t].state_rank(s.x_prev, s.lam)


def state_unrank(spec: ProblemSpec, t: int, rank: int) -> JointState:
    st = tables(spec).stage[t]
    if not 0 <= rank < st.state_count:
        raise DomainError(f"state rank {rank} out of range at t={t}")
    return JointState(t, int(st.x_of_s[rank]),
                      tuple(int(st.lam_of_s[k][rank]) for k in range(spec.K)))


@dataclass(frozen=True, eq=False)
class PiBelief:
    """Probability vector over the joint-state ranks at one time."""

    t: int
    p: np.ndarray

    def __post_init__(self):
        self.p.flags.writeable = False


def quantize_key(p: np.ndarray) -> bytes:
    return np.round(p * _DEDUP_SCALE).astype(np.int64).tobytes()


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def initial_belief(spec: ProblemSpec) -> PiBelief:
    """The time-1 belief: nothing is shared yet, so this is the unconditional
    joint distribution of the initial state and the first observations."""
    spec = normalize_problem(spec)
    sub_x = "x"
    operands = [spec.x0_dist]
    out = ""
    for k in range(spec.K):
        letter = minimize._LETTERS[26 + k]        # uppercase, clear of "x"
        operands.append(spec.obs[k][0])
        sub_x += f",x{letter}"
        out += letter
    p = np.einsum(f"{sub_x}->x{out}", *operands).reshape(-1)
    return PiBelief(1, p)


def _update_mass(spec: ProblemSpec, t: int, p: np.ndarray,
                 profile: GammaProfile, z_rank: int,
                 candidates: np.ndarray) -> tuple[np.ndarray, float]:
    """Unnormalized next-belief mass and total branch probability.

    Gathers, over candidate support states, the precomputed one-step triples
    under each state's assigned action, keeps those emitting the requested
    symbol, and scatter-adds into the next state space.  Candidates merely
    prune the scan; the emitted-symbol filter is what selects the branch.
    """
    st = tables(spec).stage[t]
    nxt = tables(spec).stage[t + 1]
    starts, lens, dst, zr, w = st.step_arrays(spec)
    m = np.zeros(nxt.state_count)
    cand = np.asarray(candidates, dtype=np.int64)
    if cand.size == 0:
        return m, 0.0
    mass = p[cand]
    live = mass > 0.0
    cand, mass = cand[live], mass[live]
    if cand.size == 0:
        return m, 0.0
    a_vec = np.zeros(cand.size, dtype=np.int64)
    for k in range(spec.K):
        table = np.asarray(profile.gammas[k].table, dtype=np.int64)
        a_vec = a_vec * spec.u_size[k] + table[st.lam_of_s[k][cand]]
    s_start = starts[cand, a_vec]
    s_len = lens[cand, a_vec]
    total = int(s_len.sum())
    if total == 0:
        return m, 0.0
    flat = np.repeat(s_start, s_len) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(s_len) - s_len, s_len))
    keep = zr[flat] == z_rank
    flat = flat[keep]
    weights = w[flat] * np.repeat(mass, s_len)[keep]
    np.add.at(m, dst[flat], weights)
    return m, float(weights.sum())


def joint_step_kernel(spec: ProblemSpec, t: int, s: JointState,
                      profile: GammaProfile) -> dict[tuple[int, int], float]:
    """One-step law of (next joint state, emitted shared symbol) from s under
    a profile.  The shared symbol is read off s and the profile's actions, so
    it has a single support point.  Keys are (next state rank, symbol rank)."""
    spec = normalize_problem(spec)
    if not 1 <= t <= spec.T - 1:
        raise DomainError(f"full step undefined at t={t} (horizon {spec.T})")
    rank = state_rank(spec, s)
    p = np.zeros(state_count(spec, t))
    p[rank] = 1.0
    out: dict[tuple[int, int], float] = {}
    for z in common_obs_space(spec, t + 1):
        zr = common_obs_rank(spec, z)
        m, pz = _update_mass(spec, t, p, profile, zr, np.array([rank]))
        if pz > 0.0:
            for s2 in np.nonzero(m > 0.0)[0]:
                out[(int(s2), zr)] = float(m[s2])
    return out


def belief_update(spec: ProblemSpec, pi: PiBelief, profile: GammaProfile,
                  z: CommonObs) -> tuple[PiBelief, float]:
    """Bayes update of the belief given the profile in force and the newly
    shared symbol.  Raises UnreachableObservationError when the symbol has
    probability zero; a belief is never fabricated."""
    spec = normalize_problem(spec)
    t = pi.t
    if not 1 <= t <= spec.T - 1:
        raise DomainError(f"no update past the horizon (t={t}, T={spec.T})")
    zr = common_obs_rank(spec, z)
    cand = np.nonzero(pi.p > 0.0)[0]
    m, pz = _update_mass(spec, t, pi.p, profile, zr, cand)
    if pz <= 0.0:
        raise UnreachableObservationError(
            f"shared symbol rank {zr} has probability zero at t={t}")
    return PiBelief(t + 1, m / pz), pz


def expected_stage_cost(spec: ProblemSpec, pi: PiBelief,
                        profile: GammaProfile) -> float:
    """Collapsed stage cost: the expectation of the stage cost over the
    belief, with the post-transition state already summed out."""
    spec = normalize_problem(spec)
    st = tables(spec).stage[pi.t]
    a_vec = np.zeros(st.state_count, dtype=np.int64)
    for k in range(spec.K):
        table = np.asarray(profile.gammas[k].table, dtype=np.int64)
        a_vec = a_vec * spec.u_size[k] + table[st.lam_of_s[k]]
    return float(np.dot(pi.p, st.q[st.x_of_s, a_vec]))


# ---------------------------------------------------------------------------
# Information-state graph (shared by both dynamic programs)
# ---------------------------------------------------------------------------

@dataclass
class ZTable:
    """Branches for one shared symbol out of one node: the private
    realizations whose assigned actions identify the branch, and a table
    mapping each per-controller assignment key to (pz, child)."""

    z_rank: int
    visible: tuple[tuple[int, ...], ...]
    entries: dict[tuple[int, ...], tuple[float, int]]


@dataclass
class InfoNode:
    """One node of an information-state graph.

    pi is the node's belief-form image: the belief itself, or the h_map
    reconstruction of a (Theta, r) state, which is then kept in state (None
    in the belief form).  relevant holds, per controller, the realizations
    whose assigned actions the backup must distinguish: the support plus
    every visible set of the node's branches.
    """

    node_id: int
    t: int
    pi: PiBelief
    support: tuple[tuple[int, ...], ...]
    relevant: tuple[tuple[int, ...], ...]
    state: Any


@dataclass
class InfoGraph:
    """Forward closure of an information state under every profile choice and
    every positive-probability shared symbol, deduplicated per stage on the
    form's key.  kind is "belief" or "theta_r"."""

    spec: ProblemSpec
    kind: str
    stages: dict[int, list[InfoNode]]
    expansions: dict[int, dict[int, ZTable]]
    by_id: list[InfoNode]
    index: dict[tuple, int]

    @property
    def node_count(self) -> int:
        return len(self.by_id)

    @property
    def edge_count(self) -> int:
        return sum(len(zt.entries) for per in self.expansions.values()
                   for zt in per.values())

    def subkey(self, node_id: int, profile: GammaProfile, z_rank: int) -> tuple[int, ...]:
        ztab = self.expansions[node_id].get(z_rank)
        if ztab is None:
            raise OffDesignHistoryError(
                f"symbol rank {z_rank} unreachable from node {node_id}")
        key = []
        for k in range(self.spec.K):
            r = 0
            for lam in ztab.visible[k]:
                r = r * self.spec.u_size[k] + profile.gammas[k].table[lam]
            key.append(r)
        return tuple(key)

    def child(self, node_id: int, profile: GammaProfile, z_rank: int) -> tuple[int, float]:
        ztab = self.expansions[node_id].get(z_rank)
        key = self.subkey(node_id, profile, z_rank)
        hit = ztab.entries.get(key)
        if hit is None:
            raise OffDesignHistoryError(
                f"profile/symbol pair off every positive-probability branch "
                f"of node {node_id} (z rank {z_rank})")
        pz, child = hit
        return child, pz


# Most entries one batched gather in expand_stage holds at a time (assignment
# rows times gathered triples, or rows times next states); larger branch
# tables are gathered in row chunks, so memory stays flat in the table size.
_GATHER_ENTRIES = 1 << 16


def _key_digits(key: int, radix: int, width: int) -> tuple[int, ...]:
    """The width base-radix digits of a branch key, first most significant."""
    out = []
    for _ in range(width):
        key, d = divmod(key, radix)
        out.append(d)
    return tuple(reversed(out))


def _branch_masses(steps, cand: np.ndarray, mass: np.ndarray,
                   actions: np.ndarray, z_rank: int, next_count: int
                   ) -> tuple[np.ndarray, list[float]]:
    """Unnormalized next-belief mass and branch probability of a batch of
    assignments: row i of `actions` is the joint action each candidate state
    takes under assignment i.

    Row by row this is _update_mass: the same triples, filtered on the same
    symbol, multiplied and scattered in the same element order, and each
    row's probability is .sum() over that row's own contiguous slice of
    weights.  Results are therefore bit-identical to one _update_mass call
    per assignment.
    """
    starts, lens, dst, zr, w = steps
    rows = actions.shape[0]
    m = np.zeros((rows, next_count))
    s_start = starts[cand, actions].reshape(-1)
    s_len = lens[cand, actions].reshape(-1)
    total = int(s_len.sum())
    if total == 0:
        return m, [0.0] * rows
    flat = np.repeat(s_start, s_len) + (
        np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(s_len) - s_len, s_len))
    keep = zr[flat] == z_rank
    flat = flat[keep]
    weights = w[flat] * np.repeat(np.tile(mass, rows), s_len)[keep]
    row_of = np.repeat(np.arange(rows), s_len.reshape(rows, -1).sum(axis=1))[keep]
    np.add.at(m, (row_of, dst[flat]), weights)
    bounds = np.searchsorted(row_of, np.arange(rows + 1)).tolist()
    return m, [float(weights[bounds[i]:bounds[i + 1]].sum())
               for i in range(rows)]


def expand_stage(spec: ProblemSpec, t: int, p: np.ndarray,
                 visible_for, child_fn,
                 max_joint: int) -> dict[int, ZTable]:
    """Shared expansion of one information state over all shared symbols.

    visible_for(z, consistent) -> per-controller realization sets whose
    assigned actions distinguish branches; child_fn(z, zr, digits, m, pz) ->
    stored child payload.

    Per shared symbol, the live candidates are the positive-mass states
    consistent with it (a per-symbol mask cached on the stage tables).  All
    per-controller assignments on the visible sets are expanded in one
    batched gather: the joint action of each (assignment, candidate) pair is
    read off the assignment ranks by place value (realizations outside the
    visible sets take action 0, as in the zero-filled completion), the step
    triples of all pairs are gathered and filtered on the symbol, and their
    weights are scattered into an (assignments x next states) mass array.

    Invariant: each branch probability is .sum() over that assignment's own
    contiguous slice of weights, in the element order of a single-profile
    update, so branch probabilities and child beliefs are bit-identical to
    one _update_mass call per assignment with the zero-filled profile.  A
    sequential reduction (np.bincount, np.add.reduceat) would break this.

    Zero-probability branches are pruned (their value is irrelevant to the
    objective).  child_fn is called in itertools.product order of the
    assignments, controller 0 most significant, so node ids and table
    entries follow that order.
    """
    st = tables(spec).stage[t]
    next_count = tables(spec).stage[t + 1].state_count
    steps = st.step_arrays(spec)
    lens = steps[1]
    positive = p > 0.0
    out: dict[int, ZTable] = {}
    for z in common_obs_space(spec, t + 1):
        zr = common_obs_rank(spec, z)
        if z.is_null:
            cons, live = None, positive
        else:
            cons, consistent = st.consistency(spec, z)
            live = positive & consistent
        cand = np.nonzero(live)[0]
        if cand.size == 0:
            continue
        visible = visible_for(z, cons)
        counts = tuple(spec.u_size[k] ** len(visible[k]) for k in range(spec.K))
        combos = math.prod(counts)
        if combos > max_joint:
            raise BudgetError(f"branch table at t={t} needs {combos} entries "
                              f"(budget {max_joint})")
        # Controller k's assignment r gives the i-th visible realization the
        # base-u digit r // u**(V-1-i) % u.  Realizations outside the visible
        # set get place value u**V, whose digit is 0 for every r < u**V.
        places = []
        for k in range(spec.K):
            u, v = spec.u_size[k], len(visible[k])
            place = np.full(st.L[k], u ** v, dtype=np.int64)
            place[list(visible[k])] = u ** np.arange(v - 1, -1, -1, dtype=np.int64)
            places.append(place[st.lam_of_s[k][cand]])
        mass = p[cand]
        row_cost = max(next_count, cand.size * int(lens[cand].max()), 1)
        chunk = max(1, _GATHER_ENTRIES // row_cost)
        entries: dict[tuple[int, ...], tuple[float, int]] = {}
        for lo in range(0, combos, chunk):
            keys = np.unravel_index(np.arange(lo, min(lo + chunk, combos)),
                                    counts)
            actions = np.zeros((keys[0].size, cand.size), dtype=np.int64)
            for k in range(spec.K):
                u = spec.u_size[k]
                actions = actions * u + keys[k][:, None] // places[k] % u
            m, pzs = _branch_masses(steps, cand, mass, actions, zr, next_count)
            for i, pz in enumerate(pzs):
                if pz <= 0.0:
                    continue
                key = tuple(int(keys[k][i]) for k in range(spec.K))
                digits = tuple(
                    _key_digits(key[k], spec.u_size[k], len(visible[k]))
                    for k in range(spec.K))
                entries[key] = (pz, child_fn(z, zr, digits, m[i], pz))
        if entries:
            out[zr] = ZTable(zr, visible, entries)
    return out


def support_visibility(support: tuple[tuple[int, ...], ...]):
    """The belief-form visible_for of expand_stage at a belief with this
    support: under the null symbol the support, otherwise the support
    realizations consistent with the symbol."""
    sets = tuple(map(frozenset, support))

    def visible_for(z, cons):
        if z.is_null:
            return support
        return tuple(tuple(l for l in cons[k] if l in sets[k])
                     for k in range(len(support)))
    return visible_for


_GRAPH_NAMES = {"belief": "reachable-belief", "theta_r": "reachable (Theta, r)"}


def build_graph(spec: ProblemSpec, kind: str, root, key_of, pi_of,
                visible_rule, child_state, *, max_nodes: int,
                max_joint: int) -> InfoGraph:
    """Breadth-first forward closure of an information state.

    key_of(state) is the dedup key and pi_of(state) the belief-form image
    (PiBelief) of an information state; visible_rule(node) is the node's
    visible_for for expand_stage; child_state(node, z, visible, digits, m,
    pz) is the successor state of one branch.  Branch tables are keyed by the
    action assignment on the visible realizations, which covers every
    profile choice exactly.
    """
    graph = InfoGraph(spec, kind, {t: [] for t in range(1, spec.T + 1)}, {}, [], {})

    def insert(state) -> int:
        key = key_of(state)
        hit = graph.index.get(key)
        if hit is not None:
            return hit
        node_id = len(graph.by_id)
        if node_id >= max_nodes:
            raise BudgetError(
                f"{_GRAPH_NAMES[kind]} graph exceeded {max_nodes} nodes "
                f"(edges so far: {graph.edge_count})")
        pi = pi_of(state)
        support = support_sets(spec, pi.t, pi.p)
        node = InfoNode(node_id, pi.t, pi, support, support,
                        None if kind == "belief" else state)
        graph.by_id.append(node)
        graph.stages[pi.t].append(node)
        graph.index[key] = node_id
        return node_id

    insert(root)
    for t in range(1, spec.T):
        for node in list(graph.stages[t]):
            rule = visible_rule(node)
            visible: dict[CommonObs, tuple] = {}

            def visible_for(z, cons, _rule=rule, _visible=visible):
                _visible[z] = _rule(z, cons)
                return _visible[z]

            def child_fn(z, zr, digits, m, pz, _node=node, _visible=visible):
                return insert(child_state(_node, z, _visible[z], digits, m, pz))

            expansion = expand_stage(spec, t, node.pi.p, visible_for,
                                     child_fn, max_joint)
            graph.expansions[node.node_id] = expansion
            node.relevant = tuple(
                tuple(sorted(set(node.support[k]).union(
                    *(ztab.visible[k] for ztab in expansion.values()))))
                for k in range(spec.K))
    for node in graph.stages[spec.T]:
        graph.expansions.setdefault(node.node_id, {})
    return graph


def reachable_graph(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES,
                    max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS) -> InfoGraph:
    """Belief-form graph: nodes are beliefs, deduplicated on the
    quantization grid."""
    spec = normalize_problem(spec)
    return build_graph(
        spec, "belief", initial_belief(spec),
        key_of=lambda pi: (pi.t, quantize_key(pi.p)),
        pi_of=lambda pi: pi,
        visible_rule=lambda node: support_visibility(node.support),
        child_state=lambda node, z, visible, digits, m, pz: PiBelief(node.t + 1, m / pz),
        max_nodes=max_nodes, max_joint=max_joint)


# ---------------------------------------------------------------------------
# Dynamic program
# ---------------------------------------------------------------------------

@dataclass
class ValueTable:
    """Stage values and minimizing profile ranks on every reachable node.
    The value beyond the horizon is identically zero."""

    J: dict[int, dict[int, float]]
    argmin: dict[int, dict[int, int]]

    @property
    def optimal_cost(self) -> float:
        return self.J[1][0]


def add_continuation(spec: ProblemSpec, bs: minimize.BehaviorSpace,
                     totals: np.ndarray, expansion: dict[int, ZTable],
                     values) -> np.ndarray:
    """totals plus, per shared symbol, every behavior's branch probability
    times values[child] of the branch it selects (0 off every branch).

    The branch table of a symbol is assembled over its visible assignment
    keys and read back per behavior through the behaviors' subkeys.  Symbols
    are added in expansion order, one array addition each, so the summation
    order is fixed by the expansion.
    """
    for ztab in expansion.values():
        shape = tuple(spec.u_size[k] ** len(ztab.visible[k])
                      for k in range(spec.K))
        table = np.zeros(shape)
        flat = table.reshape(-1)
        strides = np.cumprod((1,) + shape[::-1][:-1])[::-1]
        for key, (pz, child) in ztab.entries.items():
            flat[int(np.dot(key, strides))] = pz * values[child]
        sks = [minimize.subkey_vector(spec, bs, k, ztab.visible[k])
               for k in range(spec.K)]
        totals = totals + table[np.ix_(*sks)]
    return totals


def _backup_node(spec: ProblemSpec, t: int, p: np.ndarray,
                 support: tuple[tuple[int, ...], ...],
                 expansion: dict[int, ZTable] | None,
                 j_next, max_joint: int) -> tuple[float, int]:
    bs = minimize.behavior_space(spec, t, support, max_joint)
    totals = minimize.stage_totals(spec, t, p, bs)
    if expansion:
        totals = add_continuation(spec, bs, totals, expansion, j_next)
    flat_idx = int(np.argmin(totals.reshape(-1)))
    value = float(totals.reshape(-1)[flat_idx])
    return value, minimize.completion_rank(spec, bs, flat_idx)


def solve_on_graph(graph: InfoGraph, *,
                   max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS
                   ) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep over a built graph of either form: each node is backed
    up on its belief-form image, minimizing over behaviors on its relevant
    realizations.  Backups within one stage read only the next stage's
    values and write each their own slot, so a sweep could run nodes
    concurrently; this implementation keeps the deterministic sequential
    order."""
    spec = graph.spec
    J: dict[int, dict[int, float]] = {}
    arg: dict[int, dict[int, int]] = {}
    for t in range(spec.T, 0, -1):
        J[t] = {}
        arg[t] = {}
        j_next = J.get(t + 1)
        for node in graph.stages[t]:
            expansion = graph.expansions.get(node.node_id) if t < spec.T else None
            value, rank = _backup_node(spec, t, node.pi.p, node.relevant,
                                       expansion, j_next, max_joint)
            J[t][node.node_id] = value
            arg[t][node.node_id] = rank
    table = ValueTable(J, arg)
    policy = CoordinatorPolicy(graph.kind, arg, graph)
    return table, policy


def solve_dp(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES,
             max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS
             ) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward induction over the reachable-belief graph.

    Ties in the minimization are broken toward the smallest profile rank, so
    two runs on the same instance produce identical tables and policies.
    """
    spec = normalize_problem(spec)
    graph = reachable_graph(spec, max_nodes=max_nodes, max_joint=max_joint)
    return solve_on_graph(graph, max_joint=max_joint)


# ---------------------------------------------------------------------------
# Strategy extraction
# ---------------------------------------------------------------------------

# The _cache verdict of a shared history the policy's own branches never
# produce; node ids are non-negative.
_OFF_DESIGN = -1


@dataclass
class ExtractedDesign:
    """The per-controller strategy induced by a solved coordinator policy.

    Acting replays the belief recursion along the shared history using the
    policy's own profiles, locates the current node, and evaluates its
    prescription at the private rank.  Deterministic, and defined exactly on
    histories consistent with the policy.

    Caching: each located node's prescription profile is decoded once, on
    first use, and kept per (t, node) for both acting and replay.  Every
    shared history's verdict is kept in _cache: the located node id, or
    _OFF_DESIGN for a history the policy rejects, which raises
    OffDesignHistoryError again on every later call without another replay.
    A time outside [1, T] (DomainError) or a history of the wrong length is
    rejected before the cache is read.  Nothing is stored per (history,
    private rank) entry.
    """

    spec: ProblemSpec
    policy: CoordinatorPolicy
    _cache: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)
    _profiles: dict[tuple[int, int], GammaProfile] = field(default_factory=dict)

    def _profile(self, t: int, node: int) -> GammaProfile:
        key = (t, node)
        profile = self._profiles.get(key)
        if profile is None:
            profile = profile_unrank(self.spec, t,
                                     self.policy.profile_rank(t, node))
            self._profiles[key] = profile
        return profile

    def _locate(self, t: int, delta: tuple[int, ...]) -> int:
        if not 1 <= t <= self.spec.T:
            raise DomainError(f"t={t} outside horizon [1, {self.spec.T}]")
        if len(delta) != histories.delta_length(self.spec, t):
            raise OffDesignHistoryError(
                f"shared history of length {len(delta)} at t={t}, expected "
                f"{histories.delta_length(self.spec, t)}")
        if t == 1:
            return 0
        key = (t, delta)
        hit = self._cache.get(key)
        if hit is not None:
            if hit == _OFF_DESIGN:
                raise OffDesignHistoryError(
                    f"shared history {delta} at t={t} is off the design")
            return hit
        if t <= self.spec.n:
            parent_delta, z_rank = delta, 0
        else:
            parent_delta, z_rank = delta[:-1], delta[-1]
        try:
            parent = self._locate(t - 1, parent_delta)
            child, _ = self.policy.graph.child(
                parent, self._profile(t - 1, parent), z_rank)
        except OffDesignHistoryError:
            self._cache[key] = _OFF_DESIGN
            raise
        self._cache[key] = child
        return child

    def act(self, k: int, t: int, lam_rank: int, delta: tuple[int, ...]) -> int:
        return self._profile(t, self._locate(t, delta)).gammas[k].table[lam_rank]


def extract_design(spec: ProblemSpec, policy: CoordinatorPolicy) -> ExtractedDesign:
    if policy.kind != "belief" or policy.graph is None:
        raise DomainError("policy was not solved on a reachable-belief graph")
    return ExtractedDesign(normalize_problem(spec), policy)


# ---------------------------------------------------------------------------
# Value function on the whole simplex
# ---------------------------------------------------------------------------

def _last_stage_values(spec: ProblemSpec, P: np.ndarray,
                       max_joint: int) -> np.ndarray:
    """Terminal values of a batch of beliefs (rows of P).

    Minimizes the expected terminal cost over all profiles: behaviors of the
    first K-1 controllers are enumerated, the last controller's prescription
    is then optimized entry by entry, which is exact because for fixed other
    prescriptions the objective is additive over its private realizations.
    """
    T = spec.T
    st = tables(spec).stage[T]
    full = tuple(tuple(range(st.L[k])) for k in range(spec.K))
    lead = 1
    for k in range(spec.K - 1):
        lead *= spec.u_size[k] ** st.L[k]
    if lead * st.L[spec.K - 1] * spec.u_size[spec.K - 1] * len(P) > max_joint * 64:
        raise BudgetError(f"terminal minimization batch too large at T={T}")
    bs = minimize.behavior_space(spec, T, full[: spec.K - 1] + ((),), max_joint)
    cube = P.reshape((len(P), *st.shape))
    q_cube = st.q.reshape((spec.x_size, *spec.u_size))
    ct = np.tensordot(cube, q_cube, axes=([1], [0]))
    # ct axes: (batch, lam_1..lam_K, u_1..u_K)
    letters = minimize._LETTERS
    lam_l = letters[: spec.K]
    act_l = letters[spec.K: 2 * spec.K]
    beh_l = letters[2 * spec.K: 3 * spec.K - 1]
    sub = "z" + lam_l + act_l
    operands = [ct]
    for k in range(spec.K - 1):
        operands.append(bs.onehots[k])
        sub += "," + beh_l[k] + lam_l[k] + act_l[k]
    out = "z" + beh_l + lam_l[spec.K - 1] + act_l[spec.K - 1]
    cur = minimize.einsum(sub + "->" + out, *operands)
    cur = cur.min(axis=-1).sum(axis=-1)
    return cur.reshape(len(P), -1).min(axis=1)


def value_at(spec: ProblemSpec, t: int, pi: PiBelief, *,
             max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS,
             _memo: dict | None = None) -> float:
    """The dynamic-program value at an arbitrary belief, by direct recursion:
    minimum over profiles of stage cost plus expected continuation, memoized
    on exact belief bytes.  Exponential in the remaining horizon; meant for
    desk-scale probing, not solving."""
    spec = normalize_problem(spec)
    if not 1 <= t <= spec.T:
        raise DomainError(f"t={t} outside horizon [1, {spec.T}]")
    memo = {} if _memo is None else _memo

    def _value(t: int, p: np.ndarray) -> float:
        key = (t, p.tobytes())
        hit = memo.get(key)
        if hit is not None:
            return hit
        if t == spec.T:
            val = float(_last_stage_values(spec, p[None, :], max_joint)[0])
            memo[key] = val
            return val
        support = support_sets(spec, t, p)
        children: list[np.ndarray] = []

        def child_fn(z, zr, digits, m, pz):
            children.append(m / pz)
            return len(children) - 1

        expansion = expand_stage(spec, t, p, support_visibility(support),
                                 child_fn, max_joint)
        if t + 1 == spec.T and children:
            vals = _last_stage_values(spec, np.stack(children), max_joint)
            for row, v in zip(children, vals):
                memo.setdefault((spec.T, row.tobytes()), float(v))
            child_values = [float(v) for v in vals]
        else:
            child_values = [_value(t + 1, row) for row in children]
        val, _ = _backup_node(spec, t, p, support, expansion, child_values,
                              max_joint)
        memo[key] = val
        return val

    return _value(t, pi.p)


# ---------------------------------------------------------------------------
# Piecewise-linear lower envelope
# ---------------------------------------------------------------------------

@dataclass
class AlphaSet:
    """Per stage, a finite family of linear pieces over joint-state ranks;
    the value at any belief is the minimum inner product over the family
    (minimization problem, hence a lower envelope and a concave value)."""

    vectors: dict[int, np.ndarray]     # t -> (m, state_count)

    def value(self, t: int, p: np.ndarray) -> float:
        return float((self.vectors[t] @ p).min())


def _prune_pointwise(V: np.ndarray) -> np.ndarray:
    """Drop vectors pointwise-dominated by another (exact comparisons only);
    the lower envelope is unchanged.  Deterministic: result rows are in
    lexicographic order."""
    V = np.unique(V, axis=0)
    order = np.argsort(V.sum(axis=1), kind="stable")
    keep: list[int] = []
    for i in order:
        vi = V[i]
        if keep and np.any(np.all(V[keep] <= vi, axis=1)):
            continue
        keep.append(i)
    out = V[sorted(keep)]
    return out


def _stage_alpha_vectors(spec: ProblemSpec, t: int) -> np.ndarray:
    """One terminal-style piece per profile: the expected stage cost of every
    joint state under that profile."""
    st = tables(spec).stage[t]
    rows = []
    for profile in histories.gamma_profiles(spec, t):
        a_vec = np.zeros(st.state_count, dtype=np.int64)
        for k in range(spec.K):
            table = np.asarray(profile.gammas[k].table, dtype=np.int64)
            a_vec = a_vec * spec.u_size[k] + table[st.lam_of_s[k]]
        rows.append(st.q[st.x_of_s, a_vec])
    return np.array(rows)


def alpha_backup(spec: ProblemSpec, *, prune: bool = True,
                 max_vectors: int = 50_000) -> AlphaSet:
    """Exact backward construction of the piecewise-linear value pieces.

    Per profile, the continuation pieces are cross-summed across shared
    symbols (choices of a continuation piece per symbol are independent, so
    pruning between cross-sums preserves the envelope exactly).  Growth is
    exponential in general; the budget aborts rather than thrash.
    """
    spec = normalize_problem(spec)
    if profile_count(spec, spec.T) > max_vectors:
        raise BudgetError(
            f"terminal family needs {profile_count(spec, spec.T)} pieces "
            f"(budget {max_vectors})")
    sets: dict[int, np.ndarray] = {}
    A = _stage_alpha_vectors(spec, spec.T)
    if prune:
        A = _prune_pointwise(A)
    sets[spec.T] = A
    for t in range(spec.T - 1, 0, -1):
        st = tables(spec).stage[t]
        count = profile_count(spec, t)
        if count > max_vectors:
            raise BudgetError(f"stage t={t} has {count} profiles (budget {max_vectors})")
        stage_rows = _stage_alpha_vectors(spec, t)
        new_rows: list[np.ndarray] = []
        for g_idx, profile in enumerate(histories.gamma_profiles(spec, t)):
            # Dense one-step maps per shared symbol under this profile.
            per_z: dict[int, np.ndarray] = {}
            for z in common_obs_space(spec, t + 1):
                zr = common_obs_rank(spec, z)
                M = np.zeros((st.state_count, state_count(spec, t + 1)))
                for s in range(st.state_count):
                    e = np.zeros(st.state_count)
                    e[s] = 1.0
                    m, pz = _update_mass(spec, t, e, profile, zr,
                                         np.array([s]))
                    if pz > 0.0:
                        M[s] = m
                per_z[zr] = M
            S = stage_rows[g_idx][None, :]
            for zr, M in per_z.items():
                G = sets[t + 1] @ M.T
                if prune:
                    G = _prune_pointwise(G)
                S = (S[:, None, :] + G[None, :, :]).reshape(-1, st.state_count)
                if len(S) > max_vectors:
                    raise BudgetError(
                        f"cross-sum at t={t} grew to {len(S)} pieces "
                        f"(budget {max_vectors})")
                if prune:
                    S = _prune_pointwise(S)
            new_rows.append(S)
        A = np.concatenate(new_rows, axis=0)
        if prune:
            A = _prune_pointwise(A)
        if len(A) > max_vectors:
            raise BudgetError(f"family at t={t} has {len(A)} pieces "
                              f"(budget {max_vectors})")
        sets[t] = A
    return AlphaSet(sets)
