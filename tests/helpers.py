"""Reference implementations used only as test oracles: plain loops, no
grouping or vectorization, independent of the solver internals they check."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from delayed_sharing import coordinator, minimize
from delayed_sharing._tables import tables
from delayed_sharing.coordinator import PiBelief, expected_stage_cost
from delayed_sharing.errors import BudgetError, DomainError, OffDesignHistoryError
from delayed_sharing.evaluate import EvalResult, PathRecord, SimResult
from delayed_sharing.generate import random_instance
from delayed_sharing.histories import (GammaProfile, PartialFunction,
                                       common_obs_rank, common_obs_space,
                                       delta_count, gamma_profiles, pf_count,
                                       private_count, private_sizes,
                                       symbol_rank)
from delayed_sharing.model import ProblemSpec, normalize_problem
from delayed_sharing.second_form import RSuffix, _curry_table, part_window


def update_mass(spec, t, p, profile, z_rank, candidates):
    """Unnormalized next-belief mass and total branch probability of one
    profile.

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


def backup_node_reference(spec, t, p, relevant, expansion, values):
    """(value, minimizing profile rank) of one node backed up on its own:
    one behavior space, the stage totals of the one-row stack p[None], the
    node's continuation read per symbol through the behaviors' subkeys, and
    one argmin.  The per-node loop the stage backup batches; values is
    indexed by node id."""
    bs = minimize.behavior_space(spec, t, relevant)
    totals = minimize.stage_totals(spec, t, p[None], bs)[0]
    for ztab in (expansion or {}).values():
        table = np.zeros(ztab.shape)
        table.reshape(-1)[ztab.rank] = ztab.pz * values[ztab.child]
        sks = [minimize.subkey_vector(spec, bs, k, ztab.visible[k])
               for k in range(spec.K)]
        totals = totals + table[np.ix_(*sks)]
    flat_idx = int(np.argmin(totals.reshape(-1)))
    value = float(totals.reshape(-1)[flat_idx])
    return value, minimize.completion_rank(spec, bs, flat_idx)


def ordered_totals_reference(spec, t, p, restricted):
    """Stage totals of one belief over every behavior on the restricted
    sets, shaped (N_0, .., N_{K-1}): the cost tensor as one (realizations x
    states) @ (states x actions) product, then each behavior's total in
    Python floats, controller 0 innermost, every controller's realizations
    in ascending order and every sum starting at its first term."""
    stt = tables(spec).stage[t]
    cube = p.reshape(stt.shape)[np.ix_(range(spec.x_size), *restricted)]
    q_cube = stt.q.reshape((spec.x_size, *spec.u_size))
    ct = np.tensordot(cube, q_cube, axes=([0], [0])).tolist()
    spaces = [list(itertools.product(range(spec.u_size[k]), repeat=len(restricted[k])))
              for k in range(spec.K)]

    def total(digits, k, lams):
        # sum over the realizations of controllers 0..k-1, given lams of k..
        if k == 0:
            entry = ct
            for i in (*lams, *(digits[j][lams[j]] for j in range(spec.K))):
                entry = entry[i]
            return entry
        acc = None
        for lam in range(len(restricted[k - 1])):
            term = total(digits, k - 1, (lam, *lams))
            acc = term if acc is None else acc + term
        return acc

    out = np.empty([len(space) for space in spaces])
    for idx in itertools.product(*(range(len(space)) for space in spaces)):
        out[idx] = total([spaces[k][i] for k, i in enumerate(idx)], spec.K, ())
    return out


def last_stage_values_reference(spec, p):
    """Terminal value of one stage-T belief by full enumeration: every
    behavior of the first K-1 controllers on every one of their
    realizations, zero-mass ones included.  Per behavior and realization of
    the last controller, the terms are left-folded in Python floats,
    controller 0 innermost and every controller's realizations in ascending
    order, then minimized over the last action; the last controller's
    realizations are summed with np.sum on a contiguous 1-D row, and the
    minimum over behaviors is the value."""
    stt = tables(spec).stage[spec.T]
    K, L = spec.K, stt.L
    q_cube = stt.q.reshape((spec.x_size, *spec.u_size))
    ct = np.tensordot(p.reshape(stt.shape), q_cube, axes=([0], [0])).tolist()

    def fold(digits, k, lams, a):
        # sum over the realizations of controllers 0..k-1, given lams of k..
        if k == 0:
            entry = ct
            for i in (*lams, *(digits[j][lams[j]] for j in range(K - 1)), a):
                entry = entry[i]
            return entry
        acc = None
        for lam in range(L[k - 1]):
            term = fold(digits, k - 1, (lam, *lams), a)
            acc = term if acc is None else acc + term
        return acc

    best = None
    for digits in itertools.product(*(itertools.product(range(spec.u_size[k]), repeat=L[k])
                                      for k in range(K - 1))):
        row = np.array([min(fold(digits, K - 1, (lam,), a) for a in range(spec.u_size[-1]))
                        for lam in range(L[-1])])
        value = float(np.sum(row))
        best = value if best is None else min(best, value)
    return best


def leaf_backup_reference(graph):
    """(value, minimizing profile rank) of every leaf of a graph, in id
    order, each backed up on its own as a stage-T node: its relevant sets
    are its support (support_sets), and it has no branches."""
    spec, values = graph.spec, np.zeros(graph.node_count)
    return [backup_node_reference(spec, spec.T, p, support_sets(spec, spec.T, p),
                                  None, values)
            for p in graph.leaves]


def root_values_reference(spec, t, roots):
    """The root values of one exact-key belief graph rooted at roots, node
    by node: each leaf valued by its own one-row _last_stage_values call,
    then each node of stages T-1..t backed up on its own
    (backup_node_reference)."""
    graph = coordinator._belief_graph(
        spec, roots,
        coordinator.belief_successors(np.ascontiguousarray),
        max_nodes=coordinator.DEFAULT_MAX_NODES)
    values = np.zeros(graph.node_count)
    for node_id, p in zip(graph.stage_ids(spec.T), graph.leaves):
        values[node_id] = coordinator._last_stage_values(spec, p[None])[0]
    for stage in range(spec.T - 1, t - 1, -1):
        for node in graph.stages[stage]:
            values[node.node_id] = backup_node_reference(
                spec, stage, node.pi.p, node.relevant,
                graph.expansions[node.node_id], values)[0]
    return values[:len(roots)].tolist()


def window_tables_reference(spec, t):
    """Per controller, the shift map and aged-out coordinates of the stage-t
    windows, by a loop over PrivateInfo windows that appends (y, u), trims
    to the t+1 window and ranks the result."""
    shift, y_aged, u_aged = [], [], []
    for k in range(spec.K):
        space = private_space(spec, k, t)
        ny1, nu1 = private_sizes(spec, k, t + 1)
        tab = np.zeros((len(space), spec.y_size[k], spec.u_size[k]), dtype=np.int64)
        y0 = np.zeros(len(space), dtype=np.int64)
        u0 = np.zeros(len(space), dtype=np.int64)
        for i, info in enumerate(space):
            y0[i] = info.y_seq[0]
            u0[i] = info.u_seq[0] if info.u_seq else -1
            for y in range(spec.y_size[k]):
                for u in range(spec.u_size[k]):
                    ys = (info.y_seq + (y,))[-ny1:]
                    us = (info.u_seq + (u,))[-nu1:] if nu1 else ()
                    tab[i, y, u] = private_rank(spec, PrivateInfo(k, t + 1, ys, us))
        shift.append(tab)
        y_aged.append(y0)
        u_aged.append(u0)
    return shift, y_aged, u_aged


def step_arrays_reference(spec, t):
    """The one-step law of stage t by a loop over joint states, joint
    actions, positive-probability next states and positive-probability
    observation tuples, multiplying the weight one factor at a time.
    Returns (starts, lens, dst, zr, w) as StageTables.step_arrays does."""
    shift, y_aged, u_aged = window_tables_reference(spec, t)
    L = [len(tab) for tab in shift]
    nxt = [private_count(spec, k, t + 1) for k in range(spec.K)]
    obs_next = [spec.obs[k][t] for k in range(spec.K)]
    A = spec.action_count
    states = list(itertools.product(range(spec.x_size), *(range(n) for n in L)))
    starts = np.zeros((len(states), A), dtype=np.int64)
    lens = np.zeros((len(states), A), dtype=np.int64)
    dst, zr, w = [], [], []
    for s, (x, *lam) in enumerate(states):
        for a in range(A):
            action = decode_action(spec, a)
            starts[s, a] = len(dst)
            za = 0
            if t + 1 > spec.n:
                for k in range(spec.K):
                    za = za * spec.y_size[k] + int(y_aged[k][lam[k]])
                for k in range(spec.K):
                    aged = u_aged[k][lam[k]] if spec.n >= 2 else action[k]
                    za = za * spec.u_size[k] + int(aged)
            trow = spec.trans[t - 1][x, a]
            for x2 in np.nonzero(trow > 0.0)[0]:
                supports = [np.nonzero(obs_next[k][x2] > 0.0)[0]
                            for k in range(spec.K)]
                for ys in itertools.product(*supports):
                    weight = float(trow[x2])
                    rank = int(x2)
                    for k in range(spec.K):
                        weight *= float(obs_next[k][x2, ys[k]])
                        rank = rank * nxt[k] + int(shift[k][lam[k], ys[k], action[k]])
                    dst.append(rank)
                    zr.append(za)
                    w.append(weight)
            lens[s, a] = len(dst) - starts[s, a]
    return (starts, lens, np.array(dst, dtype=np.int64),
            np.array(zr, dtype=np.int64), np.array(w))


def naive_value(spec, t, pi):
    """Direct recursion over every profile and shared symbol, stepping the
    belief with update_mass."""
    best = np.inf
    cand = np.nonzero(pi.p > 0.0)[0]
    for profile in gamma_profiles(spec, t):
        v = expected_stage_cost(spec, pi, profile)
        if t < spec.T:
            for z in common_obs_space(spec, t + 1):
                m, pz = update_mass(spec, t, pi.p, profile,
                                    common_obs_rank(spec, z), cand)
                if pz > 0.0:
                    v += pz * naive_value(spec, t + 1, PiBelief(t + 1, m / pz))
        if v < best:
            best = v
    return best


def primitive_joint(spec, t):
    """Joint distribution of (X_0, all observations through t) by direct
    enumeration, as nested dict {(x0, y_tuples): prob}.  Only valid while no
    actions have been taken (t = 1)."""
    assert t == 1
    out = {}
    for x0 in range(spec.x_size):
        base = spec.x0_dist[x0]
        if base <= 0:
            continue
        def rec(k, ys, w):
            if k == spec.K:
                out[(x0, ys)] = out.get((x0, ys), 0.0) + w
                return
            for y in range(spec.y_size[k]):
                p = spec.obs[k][0][x0, y]
                if p > 0:
                    rec(k + 1, ys + (y,), w * p)
        rec(0, (), float(base))
    return out


def embedded_profile(spec, t, lam_sets, digit_sets):
    """The smallest-rank full profile carrying the given partial assignment:
    digit_sets[k][i] is controller k's action at realization lam_sets[k][i],
    every other realization takes action 0."""
    gammas = []
    for k in range(spec.K):
        table = [0] * private_count(spec, k, t)
        for lam, d in zip(lam_sets[k], digit_sets[k]):
            table[lam] = d
        gammas.append(PartialFunction(k, t, tuple(table)))
    return GammaProfile(t, tuple(gammas))


def child_reference(graph, node_id, profile, z_rank):
    """(child id, branch probability) of the branch a full profile selects
    out of a graph node under a shared symbol: the profile's assignment to
    each controller's visible realizations is ranked digit by digit and
    searched among the stored ranks.  OffDesignHistoryError where the symbol
    or the branch has probability zero."""
    ztab = graph.expansions[node_id].get(z_rank)
    if ztab is None:
        raise OffDesignHistoryError(
            f"symbol rank {z_rank} unreachable from node {node_id}")
    r = 0
    for k in range(graph.spec.K):
        table = profile.gammas[k].table
        for lam in ztab.visible[k]:
            r = r * graph.spec.u_size[k] + table[lam]
    i = int(ztab.rank.searchsorted(r))
    if i == ztab.rank.size or ztab.rank[i] != r:
        raise OffDesignHistoryError(
            f"profile/symbol pair off every positive-probability branch "
            f"of node {node_id} (z rank {z_rank})")
    return int(ztab.child[i]), float(ztab.pz[i])


def h_map_reference(spec, state):
    """(Theta, r) -> belief-form image by a plain forward loop over a dict of
    (state, per-controller observation history, action history) keys; each
    key sums its contributions in arrival order."""
    t = state.t
    shape = (spec.x_size, *(private_count(spec, k, t) for k in range(spec.K)))
    lo = max(1, t - spec.n + 1)
    empty = tuple(() for _ in range(spec.K))
    items = {}
    for x, w in enumerate(state.theta.p):
        if w > 0.0:
            items[(x, empty, empty)] = items.get((x, empty, empty), 0.0) + float(w)
    for m in range(lo, t):
        parts = [state.r[k].parts[m - lo] for k in range(spec.K)]
        nxt = {}
        for (x, yh, uh), w in items.items():
            y_supports = [np.nonzero(spec.obs[k][m - 1][x] > 0.0)[0]
                          for k in range(spec.K)]
            for ys in itertools.product(*y_supports):
                w2 = w
                u = []
                yh2 = []
                for k in range(spec.K):
                    w2 *= spec.obs[k][m - 1][x, ys[k]]
                    yk = yh[k] + (int(ys[k]),)
                    yh2.append(yk)
                    # the part issued at m ranks stages lo..m, shaped as a
                    # private window at time m - lo + 1
                    u.append(parts[k][private_rank(
                        spec, PrivateInfo(k, m - lo + 1, yk, uh[k]))])
                a = spec.encode_action(u)
                trow = spec.trans[m - 1][x, a]
                for x2 in np.nonzero(trow > 0.0)[0]:
                    key = (int(x2), tuple(yh2),
                           tuple(uh[k] + (u[k],) for k in range(spec.K)))
                    nxt[key] = nxt.get(key, 0.0) + w2 * float(trow[x2])
        items = nxt
    p = np.zeros(int(np.prod(shape)))
    for (x, yh, uh), w in items.items():
        y_supports = [np.nonzero(spec.obs[k][t - 1][x] > 0.0)[0]
                      for k in range(spec.K)]
        for ys in itertools.product(*y_supports):
            w2 = w
            lam = []
            for k in range(spec.K):
                w2 *= spec.obs[k][t - 1][x, ys[k]]
                lam.append(private_rank(spec, PrivateInfo(
                    k, t, yh[k] + (int(ys[k]),), uh[k])))
            p[np.ravel_multi_index((x, *lam), shape)] += w2
    return PiBelief(t, p)


def simulate_reference(spec, design, episodes, seed):
    """Monte Carlo estimate by a plain loop over episodes, stages and
    controllers: episode i draws from default_rng([seed, i]) in the order
    x0, then per stage each controller's observation and the transition, and
    each draw is one searchsorted on a cdf row."""
    spec = normalize_problem(spec)
    if episodes < 1:
        raise DomainError("episodes must be >= 1")
    x0_cdf = np.cumsum(spec.x0_dist)
    trans_cdf = np.cumsum(spec.trans, axis=-1)
    obs_cdf = [np.cumsum(spec.obs[k], axis=-1) for k in range(spec.K)]
    totals = np.zeros(episodes)

    def draw(cdf, u):
        # clip guards the 1-ulp shortfall of a renormalized row's last entry
        return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)

    for i in range(episodes):
        rng = np.random.default_rng([seed, i])
        draws = iter(rng.random(1 + spec.T * (spec.K + 1)))
        x = draw(x0_cdf, next(draws))
        ys = [[] for _ in range(spec.K)]
        us = [[] for _ in range(spec.K)]
        zs = []
        total = 0.0
        for t in range(1, spec.T + 1):
            y_stage = []
            for k in range(spec.K):
                y = draw(obs_cdf[k][t - 1, x], next(draws))
                ys[k].append(y)
                y_stage.append(y)
            delta = tuple(zs[: max(0, t - spec.n)])
            lo = max(1, t - spec.n + 1)
            u_stage = tuple(
                design.act(k, t, private_rank(spec, PrivateInfo(
                    k, t, tuple(ys[k][lo - 1:]), tuple(us[k][lo - 1:]))), delta)
                for k in range(spec.K)
            )
            for k in range(spec.K):
                us[k].append(u_stage[k])
            if t + spec.n <= spec.T:
                zs.append(symbol_rank(spec, y_stage, u_stage))
            a = spec.encode_action(u_stage)
            x = draw(trans_cdf[t - 1, x, a], next(draws))
            total += float(spec.cost[t - 1][x, a])
        totals[i] = total
    mean = float(totals.mean())
    if episodes > 1:
        std_error = float(totals.std(ddof=1) / math.sqrt(episodes))
    else:
        std_error = 0.0
    return SimResult(episodes, mean, std_error, seed)


# -- path-sum ground truth: the recursive generator and its per-path readers --

def iter_paths_reference(spec, action_fn, *, t_max=None, include_final_step=True,
                         max_paths=10_000_000):
    """Depth-first recursion over every positive-probability trajectory
    prefix up to t_max, one PathRecord per prefix, its weight multiplied
    factor by factor in trajectory order; action_fn is asked once per path,
    controller and stage."""
    spec = normalize_problem(spec)
    t_max = spec.T if t_max is None else t_max
    if not 1 <= t_max <= spec.T:
        raise DomainError(f"t_max={t_max} outside [1, {spec.T}]")
    emitted = 0

    def recurse(t, weight, xs, ys, us, zs):
        nonlocal emitted
        x = xs[-1]
        y_supports = [np.nonzero(spec.obs[k][t - 1][x] > 0.0)[0]
                      for k in range(spec.K)]
        for y_stage in itertools.product(*y_supports):
            w = weight
            for k in range(spec.K):
                w *= float(spec.obs[k][t - 1][x, y_stage[k]])
            ys2 = tuple(ys[k] + (int(y_stage[k]),) for k in range(spec.K))
            if t == t_max and not include_final_step:
                emitted += 1
                if emitted > max_paths:
                    raise BudgetError(f"path enumeration exceeded {max_paths} paths")
                yield PathRecord(w, xs, ys2, us, zs)
                continue
            delta = zs[: max(0, t - spec.n)]
            lo = max(1, t - spec.n + 1)
            u_stage = tuple(action_fn(k, t, private_rank(spec, PrivateInfo(
                k, t, ys2[k][lo - 1:], us[k][lo - 1:])), delta)
                            for k in range(spec.K))
            us2 = tuple(us[k] + (u_stage[k],) for k in range(spec.K))
            zs2 = zs
            if t + spec.n <= spec.T:
                zs2 = zs + (symbol_rank(
                    spec, tuple(ys2[k][t - 1] for k in range(spec.K)), u_stage),)
            a = spec.encode_action(u_stage)
            trow = spec.trans[t - 1][x, a]
            for x2 in np.nonzero(trow > 0.0)[0]:
                w2 = w * float(trow[x2])
                xs2 = xs + (int(x2),)
                if t == t_max:
                    emitted += 1
                    if emitted > max_paths:
                        raise BudgetError(f"path enumeration exceeded {max_paths} paths")
                    yield PathRecord(w2, xs2, ys2, us2, zs2)
                else:
                    yield from recurse(t + 1, w2, xs2, ys2, us2, zs2)

    for x0 in np.nonzero(spec.x0_dist > 0.0)[0]:
        yield from recurse(1, float(spec.x0_dist[x0]), (int(x0),),
                           tuple(() for _ in range(spec.K)),
                           tuple(() for _ in range(spec.K)), ())


def exact_cost_reference(spec, design):
    """Expected total cost and per-stage split: one accumulator per stage,
    adding weight x stage cost path by path."""
    spec = normalize_problem(spec)
    per_stage = np.zeros(spec.T)
    for rec in iter_paths_reference(spec, design.act):
        for t in range(1, spec.T + 1):
            a = spec.encode_action(tuple(rec.us[k][t - 1] for k in range(spec.K)))
            per_stage[t - 1] += rec.weight * float(spec.cost[t - 1][rec.xs[t], a])
    return EvalResult(float(per_stage.sum()), tuple(float(c) for c in per_stage))


def conditional_state_dists_reference(spec, action_fn, t):
    """Per shared history at t, in first-seen order: its probability and the
    conditional over joint-state ranks, one vector per history."""
    spec = normalize_problem(spec)
    counts = [private_count(spec, k, t) for k in range(spec.K)]
    size = spec.x_size * math.prod(counts)
    lo = max(1, t - spec.n + 1)
    acc = {}
    for rec in iter_paths_reference(spec, action_fn, t_max=t,
                                    include_final_step=False):
        delta = rec.zs[: max(0, t - spec.n)]
        s = rec.xs[t - 1]
        for k in range(spec.K):
            s = s * counts[k] + private_rank(spec, PrivateInfo(
                k, t, rec.ys[k][lo - 1: t], rec.us[k][lo - 1: t - 1]))
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(size)
        vec[s] += rec.weight
    return {delta: (float(vec.sum()), vec / vec.sum())
            for delta, vec in acc.items()}


def conditional_x_dists_reference(spec, action_fn, t):
    """P(X_{max(0, t-n)} | shared history at t), one vector per history."""
    spec = normalize_problem(spec)
    when = max(0, t - spec.n)
    acc = {}
    for rec in iter_paths_reference(spec, action_fn, t_max=t,
                                    include_final_step=False):
        delta = rec.zs[: max(0, t - spec.n)]
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(spec.x_size)
        vec[rec.xs[when]] += rec.weight
    return {delta: vec / vec.sum() for delta, vec in acc.items()}


def conditional_stage_costs_reference(spec, action_fn, t):
    """E[stage cost at t | shared history at t], one float pair per history."""
    spec = normalize_problem(spec)
    num = {}
    den = {}
    for rec in iter_paths_reference(spec, action_fn, t_max=t):
        delta = rec.zs[: max(0, t - spec.n)]
        a = spec.encode_action(tuple(rec.us[k][t - 1] for k in range(spec.K)))
        num[delta] = num.get(delta, 0.0) + rec.weight * float(spec.cost[t - 1][rec.xs[t], a])
        den[delta] = den.get(delta, 0.0) + rec.weight
    return {delta: num[delta] / den[delta] for delta in num}


def conditional_phi_reference(spec, action_fn, t):
    """P(X_{t-2}, joint action at t-1 | shared history at t), state major."""
    spec = normalize_problem(spec)
    A = spec.action_count
    acc = {}
    for rec in iter_paths_reference(spec, action_fn, t_max=t - 1):
        delta = rec.zs[: max(0, t - spec.n)]
        a = spec.encode_action(tuple(rec.us[k][t - 2] for k in range(spec.K)))
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(spec.x_size * A)
        vec[rec.xs[t - 2] * A + a] += rec.weight
    return {delta: vec / vec.sum() for delta, vec in acc.items()}


# -- object-level definitions and inverses the package itself does not need --

@dataclass(frozen=True)
class PrivateInfo:
    """One realization of controller k's private window at time t."""

    k: int
    t: int
    y_seq: tuple[int, ...]
    u_seq: tuple[int, ...]


@dataclass(frozen=True)
class JointState:
    """One realization of (previous plant state, all private windows)."""

    t: int
    x_prev: int
    lam: tuple[int, ...]      # per-controller private ranks


def private_space(spec, k, t):
    """All realizations, rank order: y entries major, then u entries."""
    ny, nu = private_sizes(spec, k, t)
    axes = [range(spec.y_size[k])] * ny + [range(spec.u_size[k])] * nu
    return [PrivateInfo(k, t, combo[:ny], combo[ny:])
            for combo in itertools.product(*axes)]


def private_rank(spec, info):
    """Mixed radix over the window's observations, oldest first, then its
    actions, oldest first."""
    ny, nu = private_sizes(spec, info.k, info.t)
    if len(info.y_seq) != ny or len(info.u_seq) != nu:
        raise DomainError(f"window lengths {len(info.y_seq)}/{len(info.u_seq)} "
                          f"do not match time {info.t} (expected {ny}/{nu})")
    r = 0
    for y in info.y_seq:
        r = r * spec.y_size[info.k] + y
    for u in info.u_seq:
        r = r * spec.u_size[info.k] + u
    return r


def private_unrank(spec, k, t, rank):
    """The private window of controller k at time t with the given rank."""
    ny, nu = private_sizes(spec, k, t)
    digits = []
    for size in [spec.u_size[k]] * nu:
        digits.append(rank % size)
        rank //= size
    u_seq = tuple(reversed(digits))
    digits = []
    for size in [spec.y_size[k]] * ny:
        digits.append(rank % size)
        rank //= size
    if rank:
        raise DomainError("private rank out of range")
    return PrivateInfo(k, t, tuple(reversed(digits)), u_seq)


def state_unrank(spec, t, rank):
    """The joint state at time t with the given rank."""
    st = tables(spec).stage[t]
    if not 0 <= rank < st.state_count:
        raise DomainError(f"state rank {rank} out of range at t={t}")
    return JointState(t, int(st.x_of_s[rank]),
                      tuple(int(st.lam_of_s[k][rank]) for k in range(spec.K)))


def state_rank(spec, s):
    """Mixed radix over the previous state, then each controller's private
    rank, controller 0 most significant."""
    r = s.x_prev
    for k in range(spec.K):
        r = r * private_count(spec, k, s.t) + s.lam[k]
    return r


def decode_action(spec, a):
    """Per-controller actions of a joint action rank (controller 0 most
    significant); the inverse of ProblemSpec.encode_action."""
    out = []
    for size in reversed(spec.u_size):
        out.append(a % size)
        a //= size
    return tuple(reversed(out))


def support_sets(spec, t, p):
    """Per controller, the private realizations whose marginal mass under
    the stage-t belief p (a sum over the other coordinates) is positive."""
    cube = p.reshape(tables(spec).stage[t].shape)
    out = []
    for k in range(spec.K):
        axes = tuple(i for i in range(spec.K + 1) if i != k + 1)
        out.append(tuple(int(i) for i in np.nonzero(cube.sum(axis=axes) > 0.0)[0]))
    return tuple(out)


def pf_rank(spec, pf):
    """Inverse of histories.pf_unrank."""
    r = 0
    for entry in pf.table:
        r = r * spec.u_size[pf.k] + entry
    return r


def profile_rank(spec, profile):
    """Inverse of histories.profile_unrank."""
    r = 0
    for k in range(spec.K):
        r = r * pf_count(spec, k, profile.t) + pf_rank(spec, profile.gammas[k])
    return r


def part_domain_count(spec, k, t, m):
    """Entries of controller k's part issued at m and held at time t."""
    ny, nu = part_window(spec, t, m)
    return spec.y_size[k] ** ny * spec.u_size[k] ** nu


def suffix_from_prescriptions(spec, k, t, gammas, shared_y, shared_u):
    """Build the suffix directly from its definition: each recent
    prescription with every already-shared argument substituted.  Used to
    check that the recursion and the definition agree."""
    spec = normalize_problem(spec)
    lo = max(1, t - spec.n + 1)
    parts = []
    for m in range(lo, t):
        g = gammas[m]
        ny, nu = private_sizes(spec, k, m)
        table = g.table
        lo_m = max(1, m - spec.n + 1)
        for j in range(lo_m, t - spec.n + 1):
            table = _curry_table(spec, k, table, ny, nu, shared_y[j], shared_u[j])
            ny, nu = ny - 1, nu - 1
        parts.append(tuple(table))
    return RSuffix(k, t, tuple(parts))


def enumerate_designs_reference(spec):
    """Every extensional design's tables, in enumerate_designs' order: one
    itertools.product axis per table entry, tables by (time, controller)
    with earlier tables more significant, each shared-history index major
    and private rank minor."""
    spec = normalize_problem(spec)
    blocks = [(k, t, delta_count(spec, t), private_count(spec, k, t))
              for t in range(1, spec.T + 1) for k in range(spec.K)]
    axes = [range(spec.u_size[k]) for (k, t, rows, cols) in blocks
            for _ in range(rows * cols)]
    for digits in itertools.product(*axes):
        tables = [[None] * spec.T for _ in range(spec.K)]
        pos = 0
        for (k, t, rows, cols) in blocks:
            tables[k][t - 1] = np.array(digits[pos: pos + rows * cols],
                                        dtype=np.int64).reshape(rows, cols)
            pos += rows * cols
        yield tables


# (K, T, n, x, y, u) of random instances small enough for the brute-force
# oracle: at most 1,024 designs, one controller trivial or T = 1
ORACLE_SHAPES = [
    (2, 2, 1, 2, (2, 1), (2, 1)),
    (2, 2, 1, 3, (1, 2), (1, 2)),
    (2, 2, 2, 2, (2, 1), (2, 1)),
    (1, 2, 1, 2, (2,), (2,)),
    (2, 1, 1, 2, (2, 2), (2, 2)),
]


def make_i2_mini():
    """Delay-2 instance small enough for the brute-force oracle (1024
    designs): controller 1 has trivial alphabets."""
    return random_instance(2, 2, 2, 2, (2, 1), (2, 1), seed=7105)


class ActOnly:
    """A design seen only through act, the Design protocol's one required
    method: evaluate and materialize_design ask it entry by entry."""

    def __init__(self, design):
        self.design = design

    def act(self, k, t, lam_rank, delta):
        return self.design.act(k, t, lam_rank, delta)


def small_instance(seed, K, n, T, kernels, *, theta_r=False):
    """A seeded instance with per-controller sizes drawn from {1, 2} and
    |X| from {1, 2, 3}; T shrinks until at most 512 paths and 128 joint
    states at T are possible, so the belief form solves in well under a
    second.  kernels is "generic", "deterministic" or "zero_entries" (about
    a third of the kernel entries zeroed, each row keeping its largest
    entry, and the rows renormalized).

    That cap does not bound the (Theta, r) form, whose nodes at a stage
    range over the r-suffixes the stage can hold: per controller, every
    action table on the domain of each part issued at lo..t-1.  At delay 3
    a stage can hold 1,024 or more of them, and one such graph has 16,393
    nodes.  With theta_r (the caller solves that form too), parameters
    whose instance can hold more than 64 r-suffix tuples at some stage
    raise ValueError; at most 64 keep both forms well under a second.  The
    instance drawn never depends on theta_r."""
    rng = np.random.default_rng(seed)
    y_size = tuple(int(v) for v in rng.integers(1, 3, K))
    u_size = tuple(int(v) for v in rng.integers(1, 3, K))
    x_size = int(rng.integers(1, 4))

    def windows(T):
        return int(np.prod([y ** min(T, n) * u ** (min(T, n) - 1)
                            for y, u in zip(y_size, u_size)]))

    while T > 1 and (x_size ** (T + 1) * int(np.prod(y_size)) ** T > 512
                     or x_size * windows(T) > 128):
        T -= 1
    # part m of a stage-t suffix has y ** (m - lo + 1) * u ** (m - lo) entries
    suffixes = max(math.prod(u ** (y ** (m - lo + 1) * u ** (m - lo))
                             for y, u in zip(y_size, u_size) for m in range(lo, t))
                   for t in range(1, T + 1) for lo in [max(1, t - n + 1)])
    if theta_r and suffixes > 64:
        raise ValueError(f"seed {seed}, K={K}, n={n}: {suffixes} r-suffix tuples "
                         f"at one stage of T={T} (cap 64)")
    spec = normalize_problem(random_instance(
        K, T, n, x_size, y_size, u_size, seed=seed,
        deterministic=kernels == "deterministic"))
    if kernels != "zero_entries":
        return spec
    rng = np.random.default_rng(seed)

    def thin(p):
        keep = (rng.random(p.shape) < 0.6) | (p == p.max(axis=-1, keepdims=True))
        q = np.where(keep, p, 0.0)
        return q / q.sum(axis=-1, keepdims=True)

    return normalize_problem(ProblemSpec(
        K=spec.K, T=spec.T, n=spec.n, x_size=spec.x_size, y_size=spec.y_size,
        u_size=spec.u_size, x0_dist=thin(spec.x0_dist), trans=thin(spec.trans),
        obs=tuple(thin(o) for o in spec.obs), cost=spec.cost))
