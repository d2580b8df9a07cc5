"""Second information state: the strategy-independent belief over the
delayed plant state, paired with each controller's partially-applied recent
prescriptions.

The pair (Theta, r) carries exactly what the shared data plus the last n-1
prescriptions determine: Theta is the belief over the plant state from n
steps back given shared data only; r holds, per controller, the suffix of
past prescriptions with their already-shared arguments substituted in.  The
map back to the belief-form information state is a forward reconstruction
(h_map), which makes the second dynamic program equivalent to the first.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import histories
from ._tables import tables
from .errors import DomainError, UnreachableObservationError
from .coordinator import (DEFAULT_MAX_NODES, ExtractedDesign, InfoGraph,
                          PiBelief, ValueTable, build_graph, quantize_key,
                          solve_on_graph)
from .histories import (CommonObs, CoordinatorPolicy, PartialFunction,
                        common_obs_rank)
from .model import ProblemSpec, normalize_problem


@dataclass(frozen=True, eq=False)
class Theta:
    """Belief over the plant state from n steps back (over the initial state
    while nothing has been shared yet)."""

    t: int
    p: np.ndarray
    key: bytes = field(init=False, repr=False)   # quantize_key(p), made once

    def __post_init__(self):
        self.p.flags.writeable = False
        object.__setattr__(self, "key", quantize_key(self.p))


@dataclass(frozen=True)
class RSuffix:
    """Controller k's partially-applied prescription suffix at time t.

    parts[i] is the table of the prescription issued at time m = lo+i
    (lo = max(1, t-n+1)) with all already-shared arguments substituted; it
    maps the rank of (y_{lo:m}, u_{lo:m-1}) to an action.  Empty under
    delay 1.
    """

    k: int
    t: int
    parts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ThetaRState:
    theta: Theta
    r: tuple[RSuffix, ...]

    @property
    def t(self) -> int:
        return self.theta.t


def initial_state(spec: ProblemSpec) -> ThetaRState:
    spec = normalize_problem(spec)
    return ThetaRState(
        Theta(1, np.array(spec.x0_dist)),
        tuple(RSuffix(k, 1, ()) for k in range(spec.K)),
    )


# ---------------------------------------------------------------------------
# Part-domain bookkeeping
# ---------------------------------------------------------------------------

def part_window(spec: ProblemSpec, t: int, m: int) -> tuple[int, int]:
    """(#y, #u) in the domain of the part issued at m, held at time t."""
    lo = max(1, t - spec.n + 1)
    if not lo <= m <= t - 1:
        raise DomainError(f"part time {m} outside [{lo}, {t - 1}]")
    return m - lo + 1, m - lo


# Curry index maps per (y_size, u_size, ny, nu, y_fix, u_fix): they depend on
# nothing else, so every controller and instance of that shape shares one.
_CURRY_INDEX: dict[tuple[int, ...], tuple[int, ...]] = {}


def _curry_index(y_size: int, u_size: int, ny: int, nu: int,
                 y_fix: int, u_fix: int) -> tuple[int, ...]:
    """Positions, in a part table over ny observations and nu actions, of the
    entries whose earliest observation is y_fix and earliest action u_fix,
    in rank order of the remaining window (observations major)."""
    key = (y_size, u_size, ny, nu, y_fix, u_fix)
    hit = _CURRY_INDEX.get(key)
    if hit is None:
        y_rest, u_rest = y_size ** (ny - 1), u_size ** (nu - 1)
        hit = tuple((y_fix * y_rest + a) * u_size ** nu + u_fix * u_rest + b
                    for a in range(y_rest) for b in range(u_rest))
        _CURRY_INDEX[key] = hit
    return hit


def _curry_table(spec: ProblemSpec, k: int, table: tuple[int, ...],
                 ny: int, nu: int, y_fix: int, u_fix: int) -> tuple[int, ...]:
    """Substitute the earliest observation and the earliest action of a part
    domain, leaving a table over the remaining window."""
    index = _curry_index(spec.y_size[k], spec.u_size[k], ny, nu, y_fix, u_fix)
    return tuple(map(table.__getitem__, index))


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def theta_update(spec: ProblemSpec, theta: Theta, z: CommonObs) -> Theta:
    """Advance the delayed-state belief by one newly shared symbol.

    Posterior step uses the observation likelihoods only: the shared actions
    are deterministic given the shared data and the design in force, so their
    likelihood cancels and is never multiplied in.  Prediction then pushes
    through the transition kernel under the shared joint action.
    """
    spec = normalize_problem(spec)
    t = theta.t
    if t + 1 <= spec.n:
        if not z.is_null:
            raise DomainError(f"expected the null symbol at time {t + 1}")
        return Theta(t + 1, np.array(theta.p))
    if z.is_null:
        raise DomainError(f"expected a concrete shared symbol at time {t + 1}")
    m = t + 1 - spec.n
    post = np.array(theta.p)
    for k in range(spec.K):
        post *= spec.obs[k][m - 1][:, z.y[k]]
    norm = float(post.sum())
    if norm <= 0.0:
        raise UnreachableObservationError(
            f"shared observations at stage {m} have probability zero")
    post /= norm
    a = spec.encode_action(z.u)
    return Theta(t + 1, post @ spec.trans[m - 1][:, a, :])


def _aged_parts(spec: ProblemSpec, rs: RSuffix,
                z: CommonObs) -> tuple[tuple[int, ...], ...]:
    """The parts of rs one step later, before the newest enters: under the
    null symbol (due exactly while nothing is shared) all of them; otherwise
    the oldest ages out and the rest get the newly shared (observation,
    action) substituted into their earliest slots."""
    k, t = rs.k, rs.t
    if z.is_null != (t + 1 <= spec.n):
        raise DomainError(f"unexpected {'null' if z.is_null else 'concrete'} symbol at time {t + 1}")
    if z.is_null:
        return rs.parts
    lo, aged = max(1, t - spec.n + 1), []
    for m in range(max(1, t + 2 - spec.n), t):
        ny, nu = part_window(spec, t, m)
        table = rs.parts[m - lo]
        if len(table) != spec.y_size[k] ** ny * spec.u_size[k] ** nu:
            raise DomainError(f"part at m={m} has arity {len(table)}, "
                              f"expected window ({ny},{nu})")
        aged.append(_curry_table(spec, k, table, ny, nu, z.y[k], z.u[k]))
    return tuple(aged)


def r_update(spec: ProblemSpec, rs: RSuffix, gamma: PartialFunction,
             z: CommonObs) -> RSuffix:
    """Advance one controller's prescription suffix: its aged parts, then
    the prescription just used as the newest part, substituted like them.
    Empty under delay 1.  reachable_graph2 reads the newest part off the
    assignment digits instead; this is the definition the tests check it
    against.
    """
    spec = normalize_problem(spec)
    k, t = rs.k, rs.t
    if gamma.k != k or gamma.t != t:
        raise DomainError("prescription does not match the suffix controller/time")
    aged = _aged_parts(spec, rs, z)
    newest = () if spec.n == 1 else (gamma.table if z.is_null else _curry_table(
        spec, k, gamma.table, *histories.private_sizes(spec, k, t), z.y[k], z.u[k]),)
    return RSuffix(k, t + 1, aged + newest)


class _HMapTables:
    """Index maps h_map reads, made on first use and kept per spec.

    combos lists every joint observation (controller 0 most significant).
    Per stage m, ok says whether state x emits combo c, and fac[k][x, c] is
    controller k's observation weight.  extend_index(spec, k, L)[j, c] is the
    rank of controller k's window j (L observations, then L actions) with
    combo c's observation appended: the part-table entry it reads, and, times
    u_k plus the action taken, the window one stage later.  Nothing here
    refers back to the spec (the methods take it), so the cache entry dies
    with it.
    """

    def __init__(self, spec: ProblemSpec):
        self.combos = np.array(np.unravel_index(
            np.arange(int(np.prod(spec.y_size))), spec.y_size)).T
        self._stages: dict[int, tuple[np.ndarray, list[np.ndarray]]] = {}
        self._extend: dict[tuple[int, int], np.ndarray] = {}

    def observe(self, spec: ProblemSpec, m: int, x: np.ndarray, w: np.ndarray):
        """Spread cells (states x, masses w) over the joint observations of
        stage m, cell-major: (source cell, combo, state, mass) per pair, the
        mass multiplied by the observation weights in controller order."""
        hit = self._stages.get(m)
        if hit is None:
            fac = [spec.obs[k][m - 1][:, self.combos[:, k]] for k in range(spec.K)]
            hit = self._stages[m] = (np.logical_and.reduce([f > 0.0 for f in fac]),
                                     fac)
        ok, fac = hit
        src, c = np.nonzero(ok[x])
        xs = x[src]
        w = w[src]
        for f in fac:
            w = w * f[xs, c]
        return src, c, xs, w

    def extend_index(self, spec: ProblemSpec, k: int, L: int) -> np.ndarray:
        hit = self._extend.get((k, L))
        if hit is None:
            y, u = spec.y_size[k], spec.u_size[k]
            j = np.arange((y * u) ** L, dtype=np.int64)[:, None]
            hit = self._extend[(k, L)] = (
                (j // u ** L * y + self.combos[None, :, k]) * u ** L + j % u ** L)
        return hit


_HMAP_CACHE: "weakref.WeakKeyDictionary[ProblemSpec, _HMapTables]" = \
    weakref.WeakKeyDictionary()


def _hmap_tables(spec: ProblemSpec) -> _HMapTables:
    tab = _HMAP_CACHE.get(spec)
    if tab is None:
        tab = _HMAP_CACHE[spec] = _HMapTables(spec)
    return tab


def h_map(spec: ProblemSpec, state: ThetaRState) -> PiBelief:
    """The belief-form information state of (Theta, r): h_map_block of one."""
    return PiBelief(state.t, h_map_block(spec, [state])[0])


def h_map_block(spec: ProblemSpec, states: list[ThetaRState]) -> np.ndarray:
    """The h_map images of same-stage states, one row each, by exhaustive
    forward summation: roll each delayed state through its substituted
    prescriptions, then attach the current observations and marginalize
    onto (previous state, private windows).

    The rolled mass is a list of (node, x, per-controller window) cells in
    the order their first contribution arrives: node-major, each source
    spreading over its joint observations (controller 0 most significant),
    then its next states in ascending order.  A cell sums its contributions
    in that order too, so every row is the same floating-point sum as a dict
    loop over (x, observation history, action history) keys for its state.
    """
    spec = normalize_problem(spec)
    t = states[0].t
    st = tables(spec).stage[t]
    ht = _hmap_tables(spec)
    lo = max(1, t - spec.n + 1)
    theta = np.stack([state.theta.p for state in states])
    node, x = np.nonzero(theta > 0.0)
    w = theta[node, x]
    wins = [np.zeros(x.size, dtype=np.int64) for _ in range(spec.K)]
    for m in range(lo, t):
        src, c, xs, w2 = ht.observe(spec, m, x, w)
        node = node[src]
        a = np.zeros(src.size, dtype=np.int64)
        nxt_wins = []
        for k in range(spec.K):
            u_size = spec.u_size[k]
            entry = ht.extend_index(spec, k, m - lo)[wins[k][src], c]
            u = np.array([s.r[k].parts[m - lo] for s in states], dtype=np.int64)[node, entry]
            a = a * u_size + u
            nxt_wins.append(entry * u_size + u)
        trow = spec.trans[m - 1][xs, a]
        e, x2 = np.nonzero(trow > 0.0)
        dims = (len(states), spec.x_size, *((spec.y_size[k] * spec.u_size[k])
                                            ** (m - lo + 1) for k in range(spec.K)))
        cell = np.ravel_multi_index((node[e], x2, *(nw[e] for nw in nxt_wins)), dims)
        uniq, first, inv = np.unique(cell, return_index=True, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, w2[e] * trow[e, x2])
        order = np.argsort(first)
        node, x, *wins = np.unravel_index(uniq[order], dims)
        w = mass[order]
    src, c, xs, w2 = ht.observe(spec, t, x, w)
    lam = [ht.extend_index(spec, k, t - lo)[wins[k][src], c] for k in range(spec.K)]
    P = np.zeros((len(states), st.state_count))
    P[node[src], np.ravel_multi_index((xs, *lam), st.shape)] = w2
    return P


# ---------------------------------------------------------------------------
# Reachable graph and dynamic program
# ---------------------------------------------------------------------------

def reachable_graph2(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES) -> InfoGraph:
    """Forward closure from (initial-state belief, empty suffixes).  Dedup is
    exact on the suffix tables and grid-quantized on Theta; each node's
    belief-form image is its h_map reconstruction.

    Branch identity per shared symbol covers everything a successor records:
    assignments on positive-mass realizations (they set the branch
    probability) and on every realization consistent with the symbol (their
    assignments survive inside the substituted suffix).  Under the null
    symbol the whole prescription survives, so every realization is visible.
    Under delay 1 suffixes are empty and the belief-form base (the support)
    applies.

    At delay 2 or more those are the realizations the substitution keeps, in
    table order, equally many under every symbol, so a child's newest suffix
    parts are the digits of its assignment rank and every branch of a stage
    has the same number of assignments, combos.  Per stage, each (node,
    symbol) gets its child Theta (one per parent Theta and symbol), aged
    parts and a head id, one int per distinct (child Theta key, aged parts);
    a branch's key is head * combos + rank, at delay 1 the head alone.
    """
    spec = normalize_problem(spec)
    full = {t: tuple(tuple(range(L)) for L in st.L)
            for t, st in tables(spec).stage.items()}

    def successor_rule(t):
        thetas: dict = {}   # (parent Theta, symbol rank) -> child Theta
        heads: dict = {}    # (child Theta key, aged parts) -> head id
        memo: dict = {}     # (node id, symbol rank) -> child Theta, aged parts, head id

        def children(block, z, visible, rows, ranks, runs, pz):
            zr = common_obs_rank(spec, z)
            uniq, inv = np.unique(rows, return_inverse=True)
            at = []
            for j in uniq.tolist():
                state, hit = block[j].state, memo.get((block[j].node_id, zr))
                if hit is None:
                    theta = thetas.get((state.theta, zr)) or thetas.setdefault(
                        (state.theta, zr), theta_update(spec, state.theta, z))
                    aged = tuple(_aged_parts(spec, rs, z) for rs in state.r)
                    hit = memo[(block[j].node_id, zr)] = (
                        theta, aged, heads.setdefault((theta.key, aged), len(heads)))
                at.append(hit)
            keys = np.array([hit[2] for hit in at], dtype=np.int64)[inv]
            radix = [spec.u_size[k] for k in range(spec.K) for _ in visible[k]]
            if spec.n > 1:
                keys = keys * math.prod(radix) + ranks
            cuts = np.cumsum([0, *map(len, visible)]).tolist()

            def state_of(i):
                theta, aged, _ = at[inv[i]]
                if spec.n > 1:      # newest parts: the digits of the assignment
                    digits = [int(d) for d in np.unravel_index(int(ranks[i]), radix)]
                    aged = tuple(part + (tuple(digits[a:b]),)
                                 for part, a, b in zip(aged, cuts, cuts[1:]))
                return ThetaRState(theta, tuple(RSuffix(k, t + 1, part)
                                                for k, part in enumerate(aged)))
            return keys.tolist(), lambda branches: [state_of(i) for i in branches]
        return children

    return build_graph(spec, "theta_r", 1, [initial_state(spec)],
                       lambda t, states: h_map_block(spec, states),
                       lambda node: node.support if spec.n == 1 else full[node.t],
                       successor_rule, max_nodes=max_nodes)


# The backward sweep is shared with the belief form; the old name stays
# importable for the benchmark harness.
solve_on_graph2 = solve_on_graph


def solve_dp2(spec: ProblemSpec) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward induction over the reachable (Theta, r) graph; the stage cost
    of a node is the collapsed cost of its reconstructed belief, so the two
    dynamic programs value the same objective."""
    return solve_on_graph(reachable_graph2(normalize_problem(spec)))


def extract_design2(spec: ProblemSpec, policy: CoordinatorPolicy) -> ExtractedDesign:
    """Per-controller strategy from a solved (Theta, r) policy; replays the
    update pair along the shared history, with the same acting contract as
    the belief-form extraction."""
    if policy.graph.kind != "theta_r":
        raise DomainError("policy was not solved on a (Theta, r) graph")
    return ExtractedDesign(normalize_problem(spec), policy)
