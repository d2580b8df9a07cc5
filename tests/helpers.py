"""Reference implementations used only as test oracles: plain loops, no
grouping or vectorization, independent of the solver internals they check."""

import itertools

import numpy as np

from delayed_sharing.coordinator import (PiBelief, belief_update,
                                         expected_stage_cost)
from delayed_sharing.errors import UnreachableObservationError
from delayed_sharing.histories import (GammaProfile, PartialFunction,
                                       common_obs_space, gamma_profiles,
                                       private_count)


def naive_value(spec, t, pi):
    """Direct recursion over every profile and shared symbol."""
    best = np.inf
    for profile in gamma_profiles(spec, t):
        v = expected_stage_cost(spec, pi, profile)
        if t < spec.T:
            for z in common_obs_space(spec, t + 1):
                try:
                    pi2, pz = belief_update(spec, pi, profile, z)
                except UnreachableObservationError:
                    continue
                v += pz * naive_value(spec, t + 1, pi2)
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


def _window_rank(spec, k, ys, us):
    r = 0
    for y in ys:
        r = r * spec.y_size[k] + y
    for u in us:
        r = r * spec.u_size[k] + u
    return r


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
                    u.append(parts[k][_window_rank(spec, k, yk, uh[k])])
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
                lam.append(_window_rank(spec, k, yh[k] + (int(ys[k]),), uh[k]))
            p[np.ravel_multi_index((x, *lam), shape)] += w2
    return PiBelief(t, p)
