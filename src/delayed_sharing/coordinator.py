"""Belief-form information state: the shared-data conditional over the joint
state (previous plant state plus every controller's private window), its
strategy-independent update, the collapsed stage cost, strategy extraction,
and the piecewise-linear value-function machinery.  Also the information-graph
core both dynamic programs run on: one graph type, one forward closure
(build_graph), one stage backup (behind solve_on_graph) and one continuation
assembly (add_continuations, batched per symbol and visible sets over a row
block, which verify's branch-probability check also runs on); each form
supplies only its information state, dedup key, belief-form image, base sets
and block successor rule.  Every graph keeps stage T as leaf rows, which the
backup values on stacked rows.  values_at runs on the same core: a solve on
the belief graph rooted at the probed beliefs.

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

from . import _tables, histories, minimize
from ._tables import stacked_support_sets, tables
from .errors import (BudgetError, DomainError, OffDesignHistoryError,
                     UnreachableObservationError)
from .histories import (CommonObs, CoordinatorPolicy, GammaProfile,
                        common_obs_rank, common_obs_space, profile_count,
                        profile_unrank)
from .model import ProblemSpec, normalize_problem

DEFAULT_MAX_NODES = 200_000
DEFAULT_MAX_ALPHA_VECTORS = 50_000

# Beliefs are deduplicated on a 1e-9 grid: quantized keys merge anything
# within half a grid step, which absorbs float noise while leaving genuinely
# distinct desk-scale beliefs apart.
_DEDUP_SCALE = 1e9


def state_count(spec: ProblemSpec, t: int) -> int:
    return tables(spec).stage[t].state_count


@dataclass(frozen=True, eq=False)
class PiBelief:
    """Probability vector over the joint-state ranks at one time."""

    t: int
    p: np.ndarray

    def __post_init__(self):
        self.p.flags.writeable = False


def quantize_rows(P: np.ndarray) -> np.ndarray:
    """Beliefs (rows of P, or one belief, or any array of their entries) on
    the dedup grid: a probability is at most 1, so its grid value fits
    int32."""
    Q = P * _DEDUP_SCALE
    return np.round(Q, out=Q).astype(np.int32)


def quantize_key(p: np.ndarray) -> bytes:
    return quantize_rows(p).tobytes()


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
        letter = chr(ord("A") + k)  # uppercase, clear of "x"
        operands.append(spec.obs[k][0])
        sub_x += f",x{letter}"
        out += letter
    p = np.einsum(f"{sub_x}->x{out}", *operands).reshape(-1)
    return PiBelief(1, p)


def _joint_actions(spec: ProblemSpec, st, profile: GammaProfile) -> np.ndarray:
    """The joint action rank every joint state of stage table st takes under
    a profile."""
    a_vec = np.zeros(st.state_count, dtype=np.int64)
    for k in range(spec.K):
        table = np.asarray(profile.gammas[k].table, dtype=np.int64)
        a_vec = a_vec * spec.u_size[k] + table[st.lam_of_s[k]]
    return a_vec


def belief_update(spec: ProblemSpec, pi: PiBelief, profile: GammaProfile,
                  z: CommonObs) -> tuple[PiBelief, float]:
    """Bayes update of the belief given the profile in force and the newly
    shared symbol: _branch_masses from the positive-mass states, its one
    mass row made dense by one assignment of the sparse masses and
    normalized by its branch probability.  Raises
    UnreachableObservationError when the symbol has probability zero; a
    belief is never fabricated."""
    spec = normalize_problem(spec)
    t = pi.t
    if not 1 <= t <= spec.T - 1:
        raise DomainError(f"no update past the horizon (t={t}, T={spec.T})")
    zr = common_obs_rank(spec, z)
    st = tables(spec).stage[t]
    cand = np.nonzero(pi.p > 0.0)[0]
    actions = _joint_actions(spec, st, profile)[cand][None, :]
    pz, masses = _branch_masses(st.step_arrays(spec), cand, pi.p[cand][None], actions,
                                zr, state_count(spec, t + 1))
    pz = float(pz[0, 0])
    if pz <= 0.0:
        raise UnreachableObservationError(
            f"shared symbol rank {zr} has probability zero at t={t}")
    cells, vals = masses()
    m = np.zeros(state_count(spec, t + 1))
    m[cells] = vals[0]
    return PiBelief(t + 1, m / pz), pz


def expected_stage_cost(spec: ProblemSpec, pi: PiBelief,
                        profile: GammaProfile) -> float:
    """Collapsed stage cost: the expectation of the stage cost over the
    belief, with the post-transition state already summed out."""
    spec = normalize_problem(spec)
    st = tables(spec).stage[pi.t]
    return float(np.dot(pi.p, st.q[st.x_of_s, _joint_actions(spec, st, profile)]))


# ---------------------------------------------------------------------------
# Information-state graph (shared by both dynamic programs)
# ---------------------------------------------------------------------------

@dataclass
class ZTable:
    """Branches for one shared symbol out of one node (the symbol's rank is
    the table's key in InfoGraph.expansions).

    Controller k's assignment of actions to its visible realizations
    visible[k] is ranked base u_k, first realization most significant, so it
    has shape[k] = u_k ** len(visible[k]) ranks; a branch is keyed by the flat
    rank of the per-controller ranks in shape, controller 0 most significant.
    rank, pz and child list the positive-probability branches in ascending
    rank, which is itertools.product order of the assignments.  A graph's
    tables are views: slices of the arrays _expand_nodes writes once per
    (symbol, group) of a block.
    """

    visible: tuple[tuple[int, ...], ...]
    shape: tuple[int, ...]
    rank: np.ndarray          # int64
    pz: np.ndarray            # float64
    child: np.ndarray         # int64


@dataclass
class InfoNode:
    """One node of an information-state graph before stage T, complete when
    build_graph makes it.

    pi is the node's belief-form image: the belief itself, or the h_map
    reconstruction of a (Theta, r) state, which is then kept in state (None
    in the belief form).  support holds, per controller, the realizations
    with positive marginal mass under pi.  relevant holds, per controller,
    the realizations whose assigned actions the backup must distinguish: it
    starts as the support, and expanding the node widens it by every
    visible set of the node's branches.
    """

    node_id: int
    t: int
    pi: PiBelief
    state: Any
    support: tuple[tuple[int, ...], ...]
    relevant: tuple[tuple[int, ...], ...]


@dataclass
class InfoGraph:
    """Forward closure of an information state under every profile choice and
    every positive-probability shared symbol, deduplicated per stage on the
    form's key.  kind is "belief" or "theta_r".

    Stages before T hold nodes (stages, by_id and expansions), numbered
    stage after stage, so a stage's ids are consecutive.  Stage T holds
    leaves: a leaf has no branches, so it keeps only its belief-form image,
    the 1-D row leaves[i], with id len(by_id) + i, and in the (Theta, r)
    form its state, leaf_states[i] (leaf_states is None in the belief
    form).  node_count counts nodes and leaves.
    """

    spec: ProblemSpec
    kind: str
    stages: dict[int, list[InfoNode]]
    expansions: dict[int, dict[int, ZTable]]
    by_id: list[InfoNode]
    leaves: list[np.ndarray]
    leaf_states: list | None

    @property
    def node_count(self) -> int:
        return len(self.by_id) + len(self.leaves)

    def stage_ids(self, t: int) -> range:
        """The ids of stage t's nodes, or of the leaves at T."""
        if t == self.spec.T:
            return range(len(self.by_id), self.node_count)
        nodes = self.stages[t]
        start = nodes[0].node_id if nodes else 0
        return range(start, start + len(nodes))

    @property
    def edge_count(self) -> int:
        return sum(zt.rank.size for per in self.expansions.values()
                   for zt in per.values())


def _block_triples(s_start: np.ndarray, s_len: np.ndarray) -> np.ndarray:
    """Flat positions in the step arrays of every triple of the given
    (state, action) blocks, block after block."""
    ends = s_len.cumsum()
    return (s_start + (s_len - ends)).repeat(s_len) + np.arange(ends[-1] if ends.size else 0)


def _branch_masses(steps, cand: np.ndarray, mass: np.ndarray,
                   actions: np.ndarray, z_rank: int, next_count: int):
    """Branch probability pz (nodes x assignments) of a block of nodes under
    a batch of assignments, and masses(), which returns their unnormalized
    next-belief masses on the cells the kept triples reach: row j of `mass`
    is node j's mass on the candidate states, row i of `actions` the joint
    action each candidate takes under assignment i.  A cell is assignment x
    next_count + next state; masses() gives the sorted distinct cells and a
    (nodes x cells) block of masses (every node shares the cells, since the
    nodes share their candidates), and each dense mass row (assignment i of
    node j, next states) is zero off the cells.  Cells are found by marking
    them in an (assignments x next states) mask, and each kept triple takes
    its cell's slot through a cell-to-slot map, so no sort is made.  A
    caller that never calls masses() pays for no cell.

    The triples are gathered and filtered on the symbol once for the block.
    Assignments are then grouped by segment length, the number of their
    kept triples (ascending length, then assignment order); per group, one
    C-contiguous (nodes x assignments x length) weights block gives every pz
    by one last-axis sum.  masses() adds the blocks into their slots with
    one np.bincount, which adds in input order, node by node, each node's
    groups in turn.

    Per (node, assignment) this is the single-profile update (update_mass in
    tests/helpers.py, its reference): the same triples, multiplied and
    summed into each cell in the same element order (a cell only ever
    receives its own assignment's triples, in triple order, starting from
    0.0), and pz sums that pair's weights as its 1-D .sum() does.  A
    last-axis sum over C-contiguous rows of equal length replays the 1-D
    pairwise order row by row; over strided or F-ordered rows numpy may run
    the inner loop across rows and add in another order, changing last
    bits, which is why the weights block is built C-ordered (np.take)
    whatever the layout of mass.  Results are therefore bit-identical to
    one single-profile update per node and assignment.
    """
    starts, lens, dst, zr, w = steps
    nodes, rows = mass.shape[0], actions.shape[0]
    pz = np.zeros((nodes, rows))
    s_len = lens[cand, actions].reshape(-1)
    flat = _block_triples(starts[cand, actions].reshape(-1), s_len)
    keep = zr[flat] == z_rank
    if not keep.any():
        return pz, lambda: (np.zeros(0, dtype=np.int64), np.zeros((nodes, 0)))
    flat = flat[keep]
    src = np.repeat(np.arange(rows * cand.size) % cand.size, s_len)[keep]
    seg = np.bincount(np.repeat(np.arange(rows), s_len.reshape(rows, -1).sum(axis=1))[keep],
                      minlength=rows)
    order = np.argsort(seg, kind="stable")
    lengths = seg[order]
    present = seg[seg > 0]
    if (present[1:] < present[:-1]).any():
        # kept positions of the assignments in that order, each in triple
        # order (already so when the kept lengths never fall)
        at = _block_triples((np.cumsum(seg) - seg)[order], lengths)
        src, flat = src[at], flat[at]
    weight = w[flat]
    ends = np.cumsum(lengths).tolist()
    bounds = [0, *(np.nonzero(lengths[1:] != lengths[:-1])[0] + 1).tolist(), rows]
    parts = []
    for i, j in zip(bounds, bounds[1:]):
        length = int(lengths[i])
        if length == 0:
            continue
        a, b = ends[i] - length, ends[j - 1]
        part = np.take(mass, src[a:b], axis=1)      # C-ordered, nodes x (b - a)
        part *= weight[a:b]
        pz[:, order[i:j]] = part.reshape(nodes, j - i, length).sum(axis=-1)
        parts.append(part)

    def masses():
        cell = order.repeat(lengths) * next_count + dst[flat]
        hit = np.zeros(rows * next_count, dtype=bool)
        hit[cell] = True
        cells = np.nonzero(hit)[0]
        slot = np.empty(hit.size, dtype=np.int64)
        slot[cells] = np.arange(cells.size)
        index = np.arange(0, nodes * cells.size, cells.size)[:, None] + slot[cell]
        block = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        vals = np.bincount(index.reshape(-1), block.reshape(-1), nodes * cells.size)
        return cells, vals.reshape(nodes, cells.size)
    return pz, masses


def _expand_nodes(spec: ProblemSpec, t: int, P: np.ndarray, bases, children
                  ) -> tuple[list[dict[int, ZTable]], list[np.ndarray]]:
    """Branches of a block of stage-t information states, whose belief-form
    images are the rows of P, over every shared symbol.

    bases[j] holds, per controller, the realizations whose assigned actions
    can distinguish row j's branches.  Under the null symbol they are the
    visible sets; under any other symbol the visible sets are the base
    realizations consistent with the symbol (made once per base and symbol).
    children(z, visible, rows, ranks, runs, pz) -> one child reference (an
    int) per branch of a batch of positive-probability branches under one
    symbol: rows holds each branch's block row, ranks its flat assignment
    rank (ZTable's ranking) and pz its probability.  runs() returns the
    branches' unnormalized next-belief masses as runs, (state, mass, length,
    size): branch i's run is the length[i] (next state, mass) pairs after
    those of the branches before it, in ascending state, one per cell its
    kept triples reach; its dense mass row (size next states) is zero off
    the run.  The arrays are fresh, for children to overwrite, and a rule
    that never calls runs() pays for no mass (_kept_runs).  A batch lists
    its branches row by row, each row's in ascending rank.

    Per shared symbol, a row's live candidates are its positive-mass states
    consistent with the symbol (a per-symbol mask cached on the stage
    tables).  Rows with equal live states and visible sets form a group
    (first-seen order), which shares its candidates and its assignments: the
    joint action of each (assignment, candidate) pair is read off the
    assignment ranks by place value (realizations outside the visible sets
    take action 0, as in the zero-filled completion), and one _branch_masses
    gather per chunk of assignments serves every row of the group.  A chunk
    holds at most _tables._BLOCK_ENTRIES entries (rows x assignments x the
    larger of next states and gathered triples) when a single assignment
    fits.  Branch probabilities and masses are therefore bit-identical to
    one single-profile update per row and assignment with the zero-filled
    profile.

    Zero-probability branches are pruned (their value is irrelevant to the
    objective).  Each (symbol, group) writes its branches once, as arrays of
    (member, rank, pz, child reference) ordered by member, then rank (chunks
    come member by member, each in ascending rank, so only a group that
    spans several chunks needs a stable sort by member).  Returns per row
    its branch tables, by ascending symbol rank, each a ZTable of slices
    (views) of its group's arrays whose child column holds the references
    children returned, and the child array of every (symbol, group), where
    those references can be rewritten in place for all tables at once.
    """
    st = tables(spec).stage[t]
    next_count = tables(spec).stage[t + 1].state_count
    steps = st.step_arrays(spec)
    lens = steps[1]
    positive = P > 0.0
    out: list[dict[int, ZTable]] = [{} for _ in range(len(P))]
    child_arrays: list[np.ndarray] = []
    for z in common_obs_space(spec, t + 1):
        zr = common_obs_rank(spec, z)
        if z.is_null:
            live = positive
        else:
            cons, consistent = st.consistency(spec, z)
            live = positive & consistent
        groups: dict[tuple, list[int]] = {}
        visible_of: dict = {}
        for j in np.nonzero(live.any(axis=1))[0].tolist():
            base = bases[j]
            visible = base if z.is_null else visible_of.get(base)
            if visible is None:
                visible = visible_of[base] = tuple(
                    tuple(sorted(set(cons[k]).intersection(base[k])))
                    for k in range(spec.K))
            groups.setdefault((live[j].tobytes(), visible), []).append(j)
        for (_, visible), members in groups.items():
            cand = np.nonzero(live[members[0]])[0]
            shape = tuple(spec.u_size[k] ** len(visible[k]) for k in range(spec.K))
            combos = math.prod(shape)
            if combos > minimize.DEFAULT_MAX_JOINT_BEHAVIORS:
                raise BudgetError(f"branch table at t={t} needs {combos} entries "
                                  f"(budget {minimize.DEFAULT_MAX_JOINT_BEHAVIORS})")
            # Controller k's assignment r gives the i-th visible realization
            # the base-u digit r // u**(V-1-i) % u.  Realizations outside the
            # visible set get place value u**V, whose digit is 0 for every
            # r < u**V.
            places = []
            for k in range(spec.K):
                u, v = spec.u_size[k], len(visible[k])
                place = np.full(st.L[k], u ** v, dtype=np.int64)
                place[list(visible[k])] = u ** np.arange(v - 1, -1, -1, dtype=np.int64)
                places.append(place[st.lam_of_s[k][cand]])
            mass = P[np.ix_(members, cand)]
            row_cost = max(next_count, cand.size * int(lens[cand].max()), 1)
            chunk = max(1, _tables._BLOCK_ENTRIES // (len(members) * row_cost))
            found = []      # per chunk: member, rank, pz, child reference
            for lo in range(0, combos, chunk):
                ranks = np.arange(lo, min(lo + chunk, combos))
                keys = np.unravel_index(ranks, shape)
                actions = np.zeros((ranks.size, cand.size), dtype=np.int64)
                for k in range(spec.K):
                    u = spec.u_size[k]
                    actions = actions * u + keys[k][:, None] // places[k] % u
                pz, masses = _branch_masses(steps, cand, mass, actions, zr, next_count)
                kept = pz > 0.0
                node_i, row_i = np.nonzero(kept)
                if node_i.size == 0:
                    continue
                kept_pz, kept_rank = pz[node_i, row_i], ranks[row_i]
                refs = children(z, visible, np.take(members, node_i).tolist(), kept_rank,
                                _kept_runs(masses, kept, row_i, next_count), kept_pz)
                found.append((node_i, kept_rank, kept_pz,
                              np.asarray(refs, dtype=np.int64)))
            if not found:
                continue
            member, rank, prob, child = found[0]
            if len(found) > 1:
                member, rank, prob, child = (np.concatenate(col) for col in zip(*found))
                if len(members) > 1:    # chunk by chunk -> member by member
                    order = np.argsort(member, kind="stable")
                    member, rank, prob, child = (
                        member[order], rank[order], prob[order], child[order])
            child_arrays.append(child)
            cuts = np.searchsorted(member, np.arange(len(members) + 1)).tolist()
            for j, a, b in zip(members, cuts, cuts[1:]):
                if a < b:
                    out[j][zr] = ZTable(visible, shape, rank[a:b], prob[a:b],
                                        child[a:b])
    return out, child_arrays


def _kept_runs(masses, kept: np.ndarray, row_i: np.ndarray, next_count: int):
    """runs() of the kept branches of a _branch_masses call (kept: its pz >
    0, nodes x assignments; row_i: the kept branches' assignments in
    node-major order), for _expand_nodes.  One assignment's cells are
    consecutive, so a node's kept runs are its kept cells in order, and the
    batch's runs are the kept cells of the masses block read row after
    row."""
    def runs():
        cells, vals = masses()
        row, state = np.divmod(cells, next_count)
        live = kept[:, row]
        return (state[None].repeat(len(vals), axis=0)[live], vals[live],
                np.bincount(row, minlength=kept.shape[1])[row_i], next_count)
    return runs


_GRAPH_NAMES = {"belief": "reachable-belief", "theta_r": "reachable (Theta, r)"}


def _row_blocks(rows, row_entries: int) -> list:
    """rows (a list or an array) in consecutive blocks of at most
    _tables._BLOCK_ENTRIES entries at row_entries per row, one row at
    least."""
    size = max(1, _tables._BLOCK_ENTRIES // row_entries)
    return [rows[lo:lo + size] for lo in range(0, len(rows), size)]


def _stack_rows(rows) -> np.ndarray:
    """np.stack of equal-length 1-D rows, without its per-row reshape,
    which costs several times the copy on short rows."""
    return np.concatenate(rows).reshape(len(rows), -1)


def build_graph(spec: ProblemSpec, kind: str, t: int, roots: list, pi_of,
                base_of, successor_rule, *, max_nodes: int) -> InfoGraph:
    """Breadth-first forward closure of a list of stage-t information
    states, the roots, which become nodes 0, 1, ... in list order (equal
    roots stay distinct nodes; their children merge).

    pi_of(t, states) lists the belief-form images (1-D rows) of stage-t
    information states; base_of(node) is the node's base sets (see
    _expand_nodes).  successor_rule(t), called once per stage next to the
    stage's dedup index, returns children(block, z, visible, rows, ranks,
    runs, pz) -> (keys, states_of): given a block of nodes and a batch of its
    branches as _expand_nodes passes it (rows index the block), each
    branch's dedup key among stage t+1's states, and states_of(branches),
    the information states a list of the batch's branches lead to, called
    at most once per batch, with the branches whose keys are new to the
    graph.  Branch tables are keyed by the action assignment on the visible
    realizations, which covers every profile choice exactly.

    Each stage is expanded in blocks of nodes, sized by
    _tables._BLOCK_ENTRIES so that one assignment's gather over a whole
    block fits.  A block's branches are computed symbol by symbol and group
    by group, then its new children are inserted in the order a per-node
    expansion inserts them (node, symbol, ascending rank).  A key's node
    takes the state of its first branch in that order (distinct states can
    share a key), so node ids, stage lists, branch tables and the
    node-budget error ("edges so far" counts the branches of every node
    expanded before the one whose child exceeds the budget) are those of
    one expansion per node.  New states before stage T, roots included,
    become nodes in row blocks of at most _BLOCK_ENTRIES entries, with one
    pi_of call and one stacked_support_sets call per block, so a node has
    its support and relevant sets when it is made.

    Stage T is never expanded, so its states, roots at T included, become
    leaves (InfoGraph): their ids are taken as they come, and once the
    closure is done their images are made with one pi_of call per row
    block.  Leaves count against max_nodes as nodes do.
    """
    graph = InfoGraph(spec, kind, {s: [] for s in range(1, spec.T)}, {}, [], [], None)
    leaf_states: list = []

    def add(t: int, states) -> range:
        start = len(graph.by_id) + len(leaf_states)
        if t == spec.T:
            leaf_states.extend(states)
            return range(start, start + len(states))
        for block in _row_blocks(states, state_count(spec, t)):
            images = pi_of(t, block)
            sets = stacked_support_sets(spec, t, _stack_rows(images))
            for state, p, support in zip(block, images, sets):
                node = InfoNode(len(graph.by_id), t, PiBelief(t, p),
                                None if kind == "belief" else state, support, support)
                graph.by_id.append(node)
                graph.stages[t].append(node)
        return range(start, len(graph.by_id))

    if max_nodes < len(roots):
        raise _node_budget(graph, max_nodes, 0)
    add(t, roots)
    for stage in range(t, spec.T):
        index: dict = {}    # key -> id of the stage-(stage+1) nodes so far
        children = successor_rule(stage)
        st = tables(spec).stage[stage]
        row_cost = max(state_count(spec, stage + 1),
                       st.state_count * int(st.step_arrays(spec)[1].max()), 1)
        for block in _row_blocks(graph.stages[stage], row_cost):
            _expand_block(graph, block, base_of, children, index, add, max_nodes,
                          max_nodes - len(graph.by_id) - len(leaf_states))
        index.clear()
    # rows, not one stacked matrix: a belief-form state is its own image,
    # which a copy would hold twice
    graph.leaves = [p for block in _row_blocks(leaf_states, state_count(spec, spec.T))
                    for p in pi_of(spec.T, block)]
    graph.leaf_states = None if kind == "belief" else leaf_states
    return graph


def _node_budget(graph: InfoGraph, max_nodes: int, edges: int) -> BudgetError:
    return BudgetError(f"{_GRAPH_NAMES[graph.kind]} graph exceeded {max_nodes} "
                       f"nodes (edges so far: {edges})")


def _expand_block(graph: InfoGraph, block: list[InfoNode], base_of,
                  children_of, index: dict, add, max_nodes: int, room: int):
    """Expand a block of same-stage nodes (build_graph): record each node's
    branch tables, widen its relevant sets by their visible sets, and add
    its new children to the graph through add(t + 1, states) -> node ids
    and their keys to index.  room is how many more nodes and leaves
    max_nodes allows.

    While the block's branches are computed, each batch of branches looks
    up each of its distinct keys once, at the key's first branch in the
    batch; a batch lists its branches in per-node order, (block row, symbol
    rank, assignment rank).  A key already in index points at that node,
    and a new key gets a pending slot that keeps the state of its branch
    first in per-node order over the whole block (a later batch, of another
    symbol or group, can hold a smaller order); the batch's states_of call
    makes the states of the slots it opened or moved, all at once.  Every
    branch takes its key's reference.  The new keys then become nodes in
    the order of the first (node, symbol, rank) each slot recorded, which
    is the order a per-node expansion inserts them in; the pending
    references are resolved by one gather per (symbol, group) child array,
    and relevant sets are widened once per distinct (support, visible sets
    per symbol).  The per-node tables are read for the budget error only,
    when room runs out."""
    spec, t = graph.spec, block[0].t
    pending: dict = {}          # key new to the graph -> slot
    slots: list[list] = []      # per slot: [first order, key, state]

    def children(z, visible, rows, ranks, M, pz):
        keys, states_of = children_of(block, z, visible, rows, ranks, M, pz)
        zr = common_obs_rank(spec, z)
        # one pass over the keys: each distinct key's first branch (the
        # batch is in per-node order) and each branch's first branch
        first_of: dict = {}
        first = np.fromiter(map(first_of.setdefault, keys, range(len(keys))),
                            dtype=np.int64, count=len(keys))
        refs = np.empty(len(keys), dtype=np.int64)
        taken: list[tuple[int, int]] = []   # (slot, branch) whose state to make
        for key, i in first_of.items():
            hit = index.get(key)
            if hit is None:
                order = (rows[i], zr, int(ranks[i]))
                slot = pending.get(key)
                if slot is None:
                    slot = pending[key] = len(slots)
                    slots.append([order, key, None])
                    taken.append((slot, i))
                elif order < slots[slot][0]:
                    slots[slot][0] = order
                    taken.append((slot, i))
                hit = -1 - slot
            refs[i] = hit
        if taken:
            for (slot, _), state in zip(taken, states_of([i for _, i in taken])):
                slots[slot][2] = state
        return refs[first]

    tabs, child_arrays = _expand_nodes(
        spec, t, np.stack([node.pi.p for node in block]),
        [base_of(node) for node in block], children)
    fresh = sorted(range(len(slots)), key=lambda slot: slots[slot][0])
    if len(fresh) > room:
        # the edges of the block's nodes before the one whose child overflows
        j = slots[fresh[room]][0][0]
        raise _node_budget(graph, max_nodes, graph.edge_count + sum(
            ztab.rank.size for per in tabs[:j] for ztab in per.values()))
    if fresh:
        node_of = np.empty(len(slots), dtype=np.int64)
        for slot, node_id in zip(fresh, add(t + 1, [slots[slot][2] for slot in fresh])):
            node_of[slot] = index[slots[slot][1]] = node_id
        for child in child_arrays:
            new = child < 0
            child[new] = node_of[-1 - child[new]]
    widened: dict = {}      # (support, visible sets per symbol) -> relevant sets
    for node, per in zip(block, tabs):
        graph.expansions[node.node_id] = per
        key = (node.support, tuple(ztab.visible for ztab in per.values()))
        relevant = widened.get(key)
        if relevant is None:
            relevant = widened[key] = tuple(
                tuple(sorted(set(node.support[k]).union(*(v[k] for v in key[1]))))
                for k in range(spec.K))
        node.relevant = relevant


def belief_successors(key_values):
    """successor_rule of the belief form.  A batch's runs are normalized in
    one division by their branch probabilities, and key_values maps the
    normalized masses, elementwise, to key values (the dedup grid, or the
    floats themselves for exact keys).  A branch's key is the bytes of its
    packed (next state, key value) pairs whose key value is nonzero, in
    ascending state, the state in the smallest integer type that holds the
    stage's ranks, cut from one buffer per batch.  An entry off the run is
    0 in the dense row, so two branches share a key exactly when their
    dense rows of key values are equal, and entries that quantize to 0 never
    split a merge.  Only a key new to the graph gets its dense child belief
    (build_graph makes the PiBelief or the leaf row): a row of one
    zero-filled matrix per states_of call, into which the run is
    scattered."""
    def successor_rule(t):
        def children(block, z, visible, rows, ranks, runs, pz):
            state, mass, length, size = runs()
            P = np.divide(mass, pz.repeat(length), out=mass)
            q = key_values(P)
            ends = length.cumsum()
            state_nz = state
            if np.count_nonzero(q) < q.size:
                nz = q != 0
                state_nz, q, ends = state[nz], q[nz], nz.cumsum()[ends - 1]
            pairs = np.empty(q.size, dtype=[("state", np.min_scalar_type(size - 1)),
                                            ("value", q.dtype)])
            pairs["state"], pairs["value"] = state_nz, q
            data, cuts = pairs.tobytes(), (ends * pairs.itemsize).tolist()
            keys = [data[a:b] for a, b in zip([0, *cuts], cuts)]

            def states_of(branches):
                at = np.full(len(pz), -1)
                at[branches] = np.arange(len(branches))
                at = at.repeat(length)      # each entry's row of out, -1 if none
                new = at >= 0
                out = np.zeros((len(branches), size))
                out.reshape(-1)[at[new] * size + state[new]] = P[new]
                return out
            return keys, states_of
        return children
    return successor_rule


def _belief_graph(spec: ProblemSpec, roots: list[PiBelief], successor_rule, *,
                  max_nodes: int) -> InfoGraph:
    """Belief-form graph from same-stage roots: a state is a bare belief
    row (each root's p), deduplicated per stage by successor_rule's keys
    (belief_successors); a state is its own image, and a node's base sets
    are its support."""
    return build_graph(
        spec, "belief", roots[0].t, [pi.p for pi in roots],
        pi_of=lambda t, rows: rows,
        base_of=lambda node: node.support,
        successor_rule=successor_rule,
        max_nodes=max_nodes)


def reachable_graph(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES) -> InfoGraph:
    """Belief-form graph of the initial belief, deduplicated on the
    quantization grid."""
    spec = normalize_problem(spec)
    return _belief_graph(spec, [initial_belief(spec)],
                         belief_successors(quantize_rows), max_nodes=max_nodes)


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


def add_continuations(spec: ProblemSpec, bs: minimize.BehaviorSpace,
                      totals: np.ndarray, expansions: list, values: np.ndarray,
                      subkeys: dict) -> None:
    """Add to each row i of totals (rows x bs.shape), in place, per shared
    symbol of expansions[i] (a node's branch tables), every behavior's
    branch probability times values[child] of the branch it selects (0 off
    every branch); values is indexed by node id.

    The rows' branch tables are batched per (symbol, visible sets), symbols
    in ascending rank.  A batch's tables are scattered into one stacked
    (items x visible assignment ranks) table (one row's: a table of its
    shape), read back per behavior one controller at a time, the last
    first: controller k's axis is replaced by its entries at the behaviors'
    subkeys on visible[k] (one take per controller, the entries of the
    open-mesh gather without building it; the later takes copy whole rows),
    and added into the batch's rows of totals (a slice when the rows are
    consecutive; totals is best C-ordered).  A key vector depends
    only on bs, k and visible[k], so subkeys keeps it per (k, visible[k]);
    share it only across calls on the same bs.  Every row receives its
    symbols in ascending rank, one array addition each, so each entry is
    summed in the order of one node's expansion.
    """
    batches: dict = {}      # (symbol rank, visible sets) -> rows, tables
    for i, per in enumerate(expansions):
        for zr, ztab in per.items():
            batches.setdefault((zr, ztab.visible), []).append((i, ztab))
    for zr, visible in sorted(batches):
        items = batches[zr, visible]
        shape, lead = items[0][1].shape, int(len(items) > 1)
        if lead:
            ztabs = [ztab for _, ztab in items]
            rank, pz, child = (np.concatenate([getattr(z, name) for z in ztabs])
                               for name in ("rank", "pz", "child"))
            table = np.zeros((len(items), math.prod(shape)))
            table[np.repeat(np.arange(len(items)), [z.rank.size for z in ztabs]),
                  rank] = pz * values[child]
            table = table.reshape(len(items), *shape)
        else:               # one row: its table in its own shape
            ztab = items[0][1]
            table = np.zeros(shape)
            table.reshape(-1)[ztab.rank] = ztab.pz * values[ztab.child]
        for k in range(spec.K - 1, -1, -1):
            key = subkeys.get((k, visible[k]))
            if key is None:
                key = subkeys[k, visible[k]] = minimize.subkey_vector(
                    spec, bs, k, visible[k])
            table = table.take(key, axis=k + lead)
        first, last = items[0][0], items[-1][0]
        if not lead:
            totals[first] += table
        elif last - first == len(items) - 1:
            totals[first:last + 1] += table
        else:
            totals[[i for i, _ in items]] += table


def stage_blocks(graph: InfoGraph, t: int):
    """Stage t's ids grouped by relevant sets (first-seen order): per group
    its behavior space and its ids in row blocks (int64 arrays) of at most
    _tables._BLOCK_ENTRIES entries, so memory stays flat in stage size.  A
    leaf has no branches, so its relevant sets are its support, read from
    the stacked leaf rows."""
    spec = graph.spec
    if t < spec.T:
        relevant = [node.relevant for node in graph.stages[t]]
    else:
        relevant = [sets for block in _row_blocks(graph.leaves, state_count(spec, t))
                    for sets in stacked_support_sets(spec, t, _stack_rows(block))]
    groups: dict[tuple, list[int]] = {}
    for node_id, sets in zip(graph.stage_ids(t), relevant):
        groups.setdefault(sets, []).append(node_id)
    for relevant, members in groups.items():
        bs = minimize.behavior_space(spec, t, relevant)
        # a row holds a belief, its cost tensor over the relevant
        # realizations and actions, and its behaviors' totals
        row_entries = (state_count(spec, t) + math.prod(bs.shape)
                       + math.prod(map(len, relevant)) * spec.action_count)
        yield bs, [np.array(block) for block in _row_blocks(members, row_entries)]


def _backup_stage(graph: InfoGraph, t: int, values: np.ndarray
                  ) -> tuple[dict[int, float], dict[int, int]]:
    """Values and minimizing profile ranks of stage t's ids (the leaves at
    T), each backed up on its belief-form image over its relevant
    realizations.  values is indexed by id: the next stage's values are
    read from it and each stage-t value is written into it.

    Ids run in the row blocks of stage_blocks; each group shares one
    behavior space.  Per block: one stage-total contraction over the
    stacked images, before T one add_continuations call for the block's
    branch tables (a leaf has none), one argmin over the rows; each
    distinct minimizer's completion rank is computed once per group.  Every
    row is the bytes of its one-row stage totals (minimize.stage_totals)
    plus its own continuation, summed as one node's, so values and ranks
    are those of one backup per node.  J and ranks list the stage's ids in
    order.
    """
    spec = graph.spec
    ids = graph.stage_ids(t)
    images = graph.leaves if t == spec.T else [node.pi.p for node in graph.stages[t]]
    ranks: list[int] = [0] * len(ids)     # Python ints: a rank can pass 2**63
    for bs, blocks in stage_blocks(graph, t):
        subkeys: dict = {}
        completions: dict[int, int] = {}
        for block in blocks:
            rows = block - ids.start
            # C-ordered: stage_totals keeps the rows innermost in memory
            totals = np.ascontiguousarray(minimize.stage_totals(
                spec, t, _stack_rows([images[i] for i in rows.tolist()]), bs))
            if t < spec.T:
                add_continuations(spec, bs, totals,
                                  [graph.expansions[i] for i in block.tolist()],
                                  values, subkeys)
            flat = totals.reshape(len(block), -1)
            best = np.argmin(flat, axis=1)
            values[block] = flat[np.arange(len(block)), best]
            picked = best.tolist()
            for idx in set(picked).difference(completions):
                completions[idx] = minimize.completion_rank(spec, bs, idx)
            for i, idx in zip(rows.tolist(), picked):
                ranks[i] = completions[idx]
    return (dict(zip(ids, values[ids.start:ids.stop].tolist())), dict(zip(ids, ranks)))


def solve_on_graph(graph: InfoGraph) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward sweep over a built graph of either form, the leaves at T
    first.  Backups within one stage read only the next stage's values and
    write each their own slot, so each stage is backed up as one batch
    (_backup_stage: groups of rows with equal relevant sets, in row blocks
    of bounded size)."""
    values = np.zeros(graph.node_count)
    J: dict[int, dict[int, float]] = {}
    arg: dict[int, dict[int, int]] = {}
    for t in range(graph.spec.T, 0, -1):
        J[t], arg[t] = _backup_stage(graph, t, values)
    table = ValueTable(J, arg)
    policy = CoordinatorPolicy(arg, graph)
    return table, policy


def solve_dp(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES
             ) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward induction over the reachable-belief graph.

    Ties in the minimization are broken toward the smallest profile rank, so
    two runs on the same instance produce identical tables and policies.
    """
    spec = normalize_problem(spec)
    graph = reachable_graph(spec, max_nodes=max_nodes)
    return solve_on_graph(graph)


# ---------------------------------------------------------------------------
# Strategy extraction
# ---------------------------------------------------------------------------

@dataclass
class ExtractedDesign:
    """The per-controller strategy induced by a solved coordinator policy.

    One memo, keyed by (t, node) and filled on first use, holds per reached
    node its decoded prescriptions (one int64 array per controller) and its
    successor row: the child under each shared symbol of stage t+1, -1 where
    that branch has probability zero.  act follows these rows from the root
    along the shared history and reads the prescription at the private
    rank; stage_tables walks them stage by stage.  Nothing is stored per
    shared history.  A history off the policy, or of the wrong length,
    raises OffDesignHistoryError; a time, controller or private rank out of
    range raises DomainError.
    """

    spec: ProblemSpec
    policy: CoordinatorPolicy
    _memo: dict[tuple[int, int], tuple[list[np.ndarray], np.ndarray]] = field(
        default_factory=dict, init=False, repr=False)

    def _row(self, t: int, node: int) -> tuple[list[np.ndarray], np.ndarray]:
        """The memo entry of a node at stage t (class doc)."""
        hit = self._memo.get((t, node))
        if hit is None:
            spec, u = self.spec, self.spec.u_size
            profile = profile_unrank(spec, t, self.policy.profile_rank(t, node))
            gammas = [g.table for g in profile.gammas]
            symbols = histories.common_obs_count(spec, t + 1) if t < spec.T else 0
            succ = np.full(symbols, -1, dtype=np.int64)
            for z, ztab in self.policy.graph.expansions.get(node, {}).items():
                r = 0
                for k, visible in enumerate(ztab.visible):
                    for lam in visible:
                        r = r * u[k] + gammas[k][lam]
                i = int(ztab.rank.searchsorted(r))
                if i < ztab.rank.size and ztab.rank[i] == r:
                    succ[z] = ztab.child[i]
            hit = self._memo[(t, node)] = (
                [np.array(g, dtype=np.int64) for g in gammas], succ)
        return hit

    def act(self, k: int, t: int, lam_rank: int, delta: tuple[int, ...]) -> int:
        spec = self.spec
        if not 1 <= t <= spec.T:
            raise DomainError(f"t={t} outside horizon [1, {spec.T}]")
        if len(delta) != histories.delta_length(spec, t):
            raise OffDesignHistoryError(f"shared history {delta} of the wrong length at t={t}")
        node = 0
        for m in range(1, t):
            succ = self._row(m, node)[1]
            z = delta[m - spec.n] if m >= spec.n else 0
            if not (0 <= z < succ.size and succ[z] >= 0):
                raise OffDesignHistoryError(
                    f"shared history {delta} leaves the design at t={m + 1}")
            node = int(succ[z])
        gammas = self._row(t, node)[0]
        if not (0 <= k < spec.K and 0 <= lam_rank < gammas[k].size):
            raise DomainError(f"controller {k} or private rank {lam_rank} "
                              f"outside the design at t={t}")
        return int(gammas[k][lam_rank])

    def stage_tables(self) -> list[list[np.ndarray]]:
        """Every controller's stage tables (Design.stage_tables), walked
        stage by stage over the successor rows act follows.  A child's row
        is its parent's row (t <= n) or parent row x radix + symbol rank
        (delta_rank's radix).  Each table is one gather of the reached
        nodes' prescriptions into those rows; every other row keeps
        action 0."""
        spec = self.spec
        rows, nodes = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        tables: list[list[np.ndarray]] = [[] for _ in range(spec.K)]
        for t in range(1, spec.T + 1):
            if t > 1:
                children = np.stack([self._row(t - 1, node)[1]
                                     for node in distinct.tolist()])[at]
                on = children >= 0
                rows = (rows[:, None] * children.shape[1]
                        + np.arange(children.shape[1]))[on]
                nodes = children[on]
            distinct, at = np.unique(nodes, return_inverse=True)
            prescriptions = [self._row(t, node)[0] for node in distinct.tolist()]
            for k in range(spec.K):
                gammas = np.stack([p[k] for p in prescriptions])
                tab = np.zeros((histories.delta_count(spec, t), gammas.shape[1]),
                               dtype=np.int64)
                tab[rows] = gammas[at]
                tables[k].append(tab)
        return tables


def extract_design(spec: ProblemSpec, policy: CoordinatorPolicy) -> ExtractedDesign:
    if policy.graph.kind != "belief":
        raise DomainError("policy was not solved on a reachable-belief graph")
    return ExtractedDesign(normalize_problem(spec), policy)


# ---------------------------------------------------------------------------
# Value function on the whole simplex
# ---------------------------------------------------------------------------

def _last_stage_values(spec: ProblemSpec, beliefs) -> np.ndarray:
    """Terminal values of a batch of stage-T beliefs (1-D arrays, or the
    rows of a stack).

    Minimizes the expected terminal cost over all profiles: behaviors of the
    first K-1 controllers are enumerated, the last controller's prescription
    is then optimized entry by entry, which is exact because for fixed other
    prescriptions the objective is additive over its private realizations.
    Behaviors are enumerated on the beliefs' supports only: a zero-mass
    realization's terms are +-0.0, which change a partial sum at most in the
    sign of a zero, and the last sum starts at +0.0, which drops that sign;
    so each value is, to the byte, that of the full enumeration.  The last
    controller keeps every realization, so its sum keeps its pairwise order.

    Beliefs are grouped by the first K-1 controllers' supports (read from
    stacked rows, first seen first).  Each group runs in chunks of whole row
    blocks, each chunk's stack and cost tensor inside _tables._BLOCK_ENTRIES
    entries when one block fits, so memory stays flat in the batch size.
    The cost tensor is the product over every realization (one per row,
    minimize.cost_tensor), then sliced to the supports: numpy's matmul can
    round a product of another shape differently.  Per row block: the
    behavior sums (minimize.behavior_sums: controller 0 first, each over its
    supported realizations in ascending order), an elementwise minimum over
    the last controller's action slices, a sum over its realizations on a
    contiguous axis (minimize.last_axis_sum, the bytes of .sum(axis=-1)),
    and the minimum over behaviors.  Each value is a function of its own row
    only, so every grouping, chunk and row block size gives the bytes of a
    one-row call.  The budgets count every realization, supported or not.
    """
    T = spec.T
    st = tables(spec).stage[T]
    full = tuple(tuple(range(st.L[k])) for k in range(spec.K))
    joint = math.prod(spec.u_size[k] ** st.L[k] for k in range(spec.K - 1))
    if st.L[-1] * spec.u_size[-1] * joint * len(beliefs) > (
            minimize.DEFAULT_MAX_JOINT_BEHAVIORS * 64):
        raise BudgetError(f"terminal minimization batch too large at T={T}")
    minimize.check_joint_behaviors(T, joint)
    groups: dict[tuple, list[int]] = {}
    block = max(1, _tables._BLOCK_ENTRIES // st.state_count)
    for lo in range(0, len(beliefs), block):
        sets = stacked_support_sets(spec, T, np.stack(beliefs[lo:lo + block]))
        for i, support in enumerate(sets, lo):
            groups.setdefault(support[:-1], []).append(i)
    values = np.empty(len(beliefs))
    for support, members in groups.items():
        row_entries = st.L[-1] * spec.u_size[-1] * math.prod(
            spec.u_size[k] ** len(support[k]) for k in range(spec.K - 1))
        rows = max(1, _tables._BLOCK_ENTRIES // row_entries)
        # a row of a chunk holds a belief and its cost tensor
        chunk = rows * max(1, _tables._BLOCK_ENTRIES // (
            rows * (st.state_count + math.prod(st.L) * spec.action_count)))
        for lo in range(0, len(members), chunk):
            ids = members[lo:lo + chunk]
            ct = minimize.cost_tensor(spec, T, np.stack([beliefs[i] for i in ids]), full)
            for k, lams in enumerate(support):
                if len(lams) < st.L[k]:
                    ct = ct.take(lams, axis=1 + k)
            for i in range(0, len(ct), rows):
                cur = minimize.behavior_sums(ct[i:i + rows], spec.K - 1)
                low = cur[..., 0]
                for a in range(1, cur.shape[-1]):
                    low = np.minimum(low, cur[..., a])
                values[ids[i:i + rows]] = minimize.last_axis_sum(low).reshape(
                    len(cur), -1).min(axis=1)
    return values


# Most roots valued in one graph (values_at): a graph holds every root's
# subtree, so memory grows with this bound.
DEFAULT_MAX_VALUE_ROOTS = 3


def values_at(spec: ProblemSpec, t: int, pis: list[PiBelief]) -> list[float]:
    """The dynamic-program values at arbitrary stage-t beliefs, in order.

    Consecutive beliefs are valued DEFAULT_MAX_VALUE_ROOTS at a time, as the
    root values of a solve on the belief-form graph rooted at them
    (_root_values), deduplicated on exact belief bytes so no two distinct
    beliefs merge.  The graph's leaves are the rows of one batched terminal
    minimization, then stages T-1..t are backed up as in solve_on_graph.
    Node values depend only on their own beliefs and every stacked row has
    the bytes of its one-row call, so each value is the bytes of its
    one-root call (value_at).  The graph has the default node budget; a
    stacked graph that exceeds a budget (BudgetError) is valued again one
    root per graph, so each root gets its one-root value or error.  A
    belief of another stage or length, with a negative or non-finite entry,
    or with no positive mass is a DomainError, raised before any graph is
    built.  Meant for desk-scale probing, not solving."""
    spec = normalize_problem(spec)
    if not 1 <= t <= spec.T:
        raise DomainError(f"t={t} outside horizon [1, {spec.T}]")
    for pi in pis:
        if pi.t != t:
            raise DomainError(f"belief of stage {pi.t} evaluated at t={t}")
        if len(pi.p) != state_count(spec, t):
            raise DomainError(f"belief of length {len(pi.p)} at t={t}, expected "
                              f"{state_count(spec, t)}")
        if not (np.isfinite(pi.p).all() and (pi.p >= 0.0).all()):
            raise DomainError(f"belief at t={t} has a negative or non-finite entry")
        if not (pi.p > 0.0).any():
            raise DomainError(f"belief at t={t} has no positive mass")
    size = DEFAULT_MAX_VALUE_ROOTS
    out: list[float] = []
    for lo in range(0, len(pis), size):
        roots = pis[lo:lo + size]
        try:
            out += _root_values(spec, t, roots)
        except BudgetError:
            if len(roots) == 1:
                raise
            for pi in roots:
                out += _root_values(spec, t, [pi])
    return out


def _root_values(spec: ProblemSpec, t: int, roots: list[PiBelief]) -> list[float]:
    """The root values of one exact-key belief graph rooted at roots: one
    _last_stage_values call on the leaf rows fills the leaf slots of values
    before stages T-1..t are backed up."""
    graph = _belief_graph(
        spec, roots, belief_successors(np.ascontiguousarray),
        max_nodes=DEFAULT_MAX_NODES)
    values = np.zeros(graph.node_count)
    values[len(graph.by_id):] = _last_stage_values(spec, graph.leaves)
    for stage in range(spec.T - 1, t - 1, -1):
        _backup_stage(graph, stage, values)
    return values[:len(roots)].tolist()


def value_at(spec: ProblemSpec, t: int, pi: PiBelief) -> float:
    """The dynamic-program value at an arbitrary stage-t belief: values_at
    on one belief."""
    return values_at(spec, t, [pi])[0]


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
    return np.array([st.q[st.x_of_s, _joint_actions(spec, st, profile)]
                     for profile in histories.gamma_profiles(spec, t)])


def _symbol_maps(spec: ProblemSpec, t: int,
                 profile: GammaProfile) -> dict[int, np.ndarray]:
    """Dense one-step map per shared symbol under a profile: entry (s, s2)
    is the probability of stepping from joint state s to s2 while emitting
    the symbol.  Row s is _branch_masses' update of a point mass on s over
    every joint state, made dense by one assignment of the sparse masses:
    1.0 * w is exact and the other states add +0.0, so the row holds the
    bytes of the single-profile update from that point mass."""
    st = tables(spec).stage[t]
    states = np.arange(st.state_count)
    actions = _joint_actions(spec, st, profile)[None, :]
    steps, next_count = st.step_arrays(spec), state_count(spec, t + 1)
    out: dict[int, np.ndarray] = {}
    for z in common_obs_space(spec, t + 1):
        r = common_obs_rank(spec, z)
        cells, vals = _branch_masses(steps, states, np.eye(st.state_count), actions,
                                     r, next_count)[1]()
        out[r] = np.zeros((st.state_count, next_count))
        out[r][:, cells] = vals
    return out


def alpha_backup(spec: ProblemSpec) -> AlphaSet:
    """Exact backward construction of the piecewise-linear value pieces.

    Per profile, the continuation pieces are cross-summed across shared
    symbols (choices of a continuation piece per symbol are independent, so
    pruning between cross-sums preserves the envelope exactly).  Growth is
    exponential in general; DEFAULT_MAX_ALPHA_VECTORS aborts rather than
    thrash.
    """
    spec = normalize_problem(spec)
    budget = DEFAULT_MAX_ALPHA_VECTORS
    if profile_count(spec, spec.T) > budget:
        raise BudgetError(
            f"terminal family needs {profile_count(spec, spec.T)} pieces "
            f"(budget {budget})")
    sets = {spec.T: _prune_pointwise(_stage_alpha_vectors(spec, spec.T))}
    for t in range(spec.T - 1, 0, -1):
        st = tables(spec).stage[t]
        count = profile_count(spec, t)
        if count > budget:
            raise BudgetError(f"stage t={t} has {count} profiles (budget {budget})")
        stage_rows = _stage_alpha_vectors(spec, t)
        new_rows: list[np.ndarray] = []
        for g_idx, profile in enumerate(histories.gamma_profiles(spec, t)):
            S = stage_rows[g_idx][None, :]
            for M in _symbol_maps(spec, t, profile).values():
                G = _prune_pointwise(sets[t + 1] @ M.T)
                S = (S[:, None, :] + G[None, :, :]).reshape(-1, st.state_count)
                if len(S) > budget:
                    raise BudgetError(
                        f"cross-sum at t={t} grew to {len(S)} pieces "
                        f"(budget {budget})")
                S = _prune_pointwise(S)
            new_rows.append(S)
        A = _prune_pointwise(np.concatenate(new_rows, axis=0))
        if len(A) > budget:
            raise BudgetError(f"family at t={t} has {len(A)} pieces "
                              f"(budget {budget})")
        sets[t] = A
    return AlphaSet(sets)
