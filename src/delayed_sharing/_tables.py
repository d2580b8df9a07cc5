"""Precomputed per-stage index tables (internal).

Everything the solvers need to step the joint state (previous plant state
plus all private windows) is tabulated once per problem instance: window
shift maps, the coordinates of the data that ages out into the shared stream,
and the expected stage cost as a function of (previous state, joint action).
Cached per ProblemSpec object identity.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from . import histories
from .errors import DomainError
from .model import ProblemSpec


class StageTables:
    """Index tables for one decision time t."""

    def __init__(self, spec: ProblemSpec, t: int):
        self.t = t
        self.lam_spaces = [histories.private_space(spec, k, t) for k in range(spec.K)]
        self.L = tuple(len(sp) for sp in self.lam_spaces)
        self.shape = (spec.x_size, *self.L)
        self.state_count = int(np.prod(self.shape, dtype=np.int64))
        unr = np.unravel_index(np.arange(self.state_count), self.shape)
        self.x_of_s = unr[0].astype(np.int64)
        self.lam_of_s = [unr[1 + k].astype(np.int64) for k in range(spec.K)]
        # Expected stage cost of (previous state, joint action), with the
        # post-transition state summed out.
        self.q = np.einsum("xay,ya->xa", spec.trans[t - 1], spec.cost[t - 1])

        self.z_null = (t + 1) <= spec.n
        self.shift = None
        self.y_aged = None
        self.u_aged = None
        self._step_arrays = None
        self._consistency: dict[tuple, tuple] = {}
        if t + 1 <= spec.T:
            self._build_step(spec)

    def _build_step(self, spec: ProblemSpec):
        t = self.t
        self.shift = []
        self.y_aged = []
        self.u_aged = []
        for k in range(spec.K):
            ny1, nu1 = histories.private_sizes(spec, k, t + 1)
            tab = np.zeros((self.L[k], spec.y_size[k], spec.u_size[k]), dtype=np.int64)
            y0 = np.zeros(self.L[k], dtype=np.int64)
            u0 = np.zeros(self.L[k], dtype=np.int64)
            for i, info in enumerate(self.lam_spaces[k]):
                y0[i] = info.y_seq[0]
                u0[i] = info.u_seq[0] if info.u_seq else -1
                for y in range(spec.y_size[k]):
                    for u in range(spec.u_size[k]):
                        ys = (info.y_seq + (y,))[-ny1:]
                        us = (info.u_seq + (u,))[-nu1:] if nu1 else ()
                        nxt = histories.PrivateInfo(k, t + 1, ys, us)
                        tab[i, y, u] = histories.private_rank(spec, nxt)
            self.shift.append(tab)
            self.y_aged.append(y0)
            self.u_aged.append(u0)

    def state_rank(self, x: int, lam_ranks) -> int:
        return int(np.ravel_multi_index((x, *lam_ranks), self.shape))

    def step_arrays(self, spec: ProblemSpec):
        """Flattened one-step law: per (state, joint action), a contiguous
        block of (next state, emitted symbol, weight) triples.  Built lazily,
        zero-weight branches pruned."""
        if self._step_arrays is not None:
            return self._step_arrays
        if self.shift is None:
            raise DomainError(f"no step past the horizon from t={self.t}")
        t = self.t
        A = spec.action_count
        obs_next = [spec.obs[k][t] for k in range(spec.K)]
        nxt_shape = tuple(
            len(histories.private_space(spec, k, t + 1)) for k in range(spec.K))
        starts = np.zeros((self.state_count, A), dtype=np.int64)
        lens = np.zeros((self.state_count, A), dtype=np.int64)
        dst: list[int] = []
        zr: list[int] = []
        w: list[float] = []
        for s in range(self.state_count):
            x = int(self.x_of_s[s])
            lam = tuple(int(self.lam_of_s[k][s]) for k in range(spec.K))
            for a in range(A):
                action = spec.decode_action(a)
                starts[s, a] = len(dst)
                za = self.z_rank(spec, lam, action)
                trow = spec.trans[t - 1][x, a]
                for x2 in np.nonzero(trow > 0.0)[0]:
                    base = float(trow[x2])
                    supports = [np.nonzero(obs_next[k][x2] > 0.0)[0]
                                for k in range(spec.K)]
                    for ys in itertools.product(*supports):
                        weight = base
                        lam2 = []
                        for k in range(spec.K):
                            weight *= float(obs_next[k][x2, ys[k]])
                            lam2.append(int(self.shift[k][lam[k], ys[k], action[k]]))
                        rank = int(x2)
                        for k in range(spec.K):
                            rank = rank * nxt_shape[k] + lam2[k]
                        dst.append(rank)
                        zr.append(za)
                        w.append(weight)
                lens[s, a] = len(dst) - starts[s, a]
        self._step_arrays = (starts, lens,
                             np.array(dst, dtype=np.int64),
                             np.array(zr, dtype=np.int64),
                             np.array(w))
        return self._step_arrays

    def consistency(self, spec: ProblemSpec, z: histories.CommonObs):
        """Per controller, the private realizations whose aged-out
        coordinates agree with the non-null shared symbol z emitted at t+1,
        and the per-state mask of joint states made of such realizations.
        Built on first use per symbol.

        Under delay 1 the aged action is the current one, so only the
        observation coordinate constrains the window.
        """
        hit = self._consistency.get((z.y, z.u))
        if hit is None:
            lams = []
            mask = np.ones(self.state_count, dtype=bool)
            for k in range(spec.K):
                good = self.y_aged[k] == z.y[k]
                if spec.n >= 2:
                    good &= self.u_aged[k] == z.u[k]
                lams.append(tuple(int(i) for i in np.nonzero(good)[0]))
                mask &= good[self.lam_of_s[k]]
            mask.flags.writeable = False
            hit = (tuple(lams), mask)
            self._consistency[(z.y, z.u)] = hit
        return hit

    def z_rank(self, spec: ProblemSpec, lam_ranks, action: tuple[int, ...]) -> int:
        """Rank of the shared symbol emitted when stepping from (s, action).

        The symbol carries the oldest window entries; under delay 1 the aged
        action is the one being taken right now.
        """
        if self.z_null:
            return 0
        r = 0
        for k in range(spec.K):
            r = r * spec.y_size[k] + int(self.y_aged[k][lam_ranks[k]])
        for k in range(spec.K):
            aged = self.u_aged[k][lam_ranks[k]] if spec.n >= 2 else action[k]
            r = r * spec.u_size[k] + int(aged)
        return r


class SpecTables:
    """Every stage's tables; holds no reference back to the spec."""

    def __init__(self, spec: ProblemSpec):
        self.stage = {t: StageTables(spec, t) for t in range(1, spec.T + 1)}


_CACHE: "weakref.WeakKeyDictionary[ProblemSpec, SpecTables]" = weakref.WeakKeyDictionary()


def tables(spec: ProblemSpec) -> SpecTables:
    tab = _CACHE.get(spec)
    if tab is None:
        tab = SpecTables(spec)
        _CACHE[spec] = tab
    return tab


def support_sets(spec: ProblemSpec, t: int, p: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Per-controller private realizations carrying positive marginal mass."""
    st = tables(spec).stage[t]
    cube = p.reshape(st.shape)
    out = []
    for k in range(spec.K):
        axes = tuple(i for i in range(spec.K + 1) if i != k + 1)
        marg = cube.sum(axis=axes)
        out.append(tuple(int(i) for i in np.nonzero(marg > 0.0)[0]))
    return tuple(out)


def consistent_lams(spec: ProblemSpec, t: int, z: histories.CommonObs) -> tuple[tuple[int, ...], ...]:
    """Per controller, every private realization at time t whose aged-out
    coordinates agree with the shared symbol z emitted at time t+1."""
    if z.is_null:
        raise DomainError("null shared symbols impose no consistency constraint")
    return tables(spec).stage[t].consistency(spec, z)[0]
