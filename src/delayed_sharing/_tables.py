"""Precomputed per-stage index tables (internal).

Everything the solvers need to step the joint state (previous plant state
plus all private windows) is tabulated once per problem instance: window
shift maps, the coordinates of the data that ages out into the shared stream,
and the expected stage cost as a function of (previous state, joint action).
Cached per ProblemSpec object identity.
"""

from __future__ import annotations

import weakref

import numpy as np

from . import histories
from .errors import DomainError
from .model import ProblemSpec


# Most entries one batched array step holds at a time: step_arrays' dense
# (state, action, next state, observation tuple) block, a gather of the
# forward expansion (coordinator._expand_nodes: group nodes times assignment
# rows times the larger of gathered triples and next states; build_graph's
# node blocks let one assignment row of a block fit; new nodes get images
# and support sets in row blocks of nodes times belief entries), a row block of
# the stage backup (nodes times a belief's entries, its cost tensor and its
# totals) and of the terminal minimization (beliefs times the behavior sums
# of all but the last controller; its chunks of whole row blocks stack
# beliefs and their cost tensors).  Larger batches run in row blocks, so
# memory stays flat; readers look it up at call time, so one patch reaches
# all.
_BLOCK_ENTRIES = 1 << 16


class StageTables:
    """Index tables for one decision time t.

    A window rank is mixed radix over the window's observations, oldest
    first, then its actions, oldest first, so every table here is integer
    arithmetic on ranks.
    """

    def __init__(self, spec: ProblemSpec, t: int):
        self.t = t
        self.L = tuple(histories.private_count(spec, k, t) for k in range(spec.K))
        self.shape = (spec.x_size, *self.L)
        self.state_count = int(np.prod(self.shape, dtype=np.int64))
        unr = np.unravel_index(np.arange(self.state_count), self.shape)
        self.x_of_s = unr[0].astype(np.int64)
        self.lam_of_s = [unr[1 + k].astype(np.int64) for k in range(spec.K)]
        # Expected stage cost of (previous state, joint action), with the
        # post-transition state summed out.
        self.q = np.einsum("xay,ya->xa", spec.trans[t - 1], spec.cost[t - 1])

        self.shift = None
        self.y_aged = None
        self.u_aged = None
        self._step_arrays = None
        self._consistency: dict[tuple, tuple] = {}
        if t + 1 <= spec.T:
            self._build_step(spec)

    def _build_step(self, spec: ProblemSpec):
        """Per controller: ``shift[lam, y, u]``, the rank at t+1 of window
        lam after appending (y, u) and dropping what ages out, and the
        aged-out coordinates ``y_aged[lam]``, ``u_aged[lam]`` (-1 when the
        window holds no action)."""
        t = self.t
        self.shift = []
        self.y_aged = []
        self.u_aged = []
        for k in range(spec.K):
            Y, U = spec.y_size[k], spec.u_size[k]
            ny, nu = histories.private_sizes(spec, k, t)
            ny1, nu1 = histories.private_sizes(spec, k, t + 1)
            y_part, u_part = np.divmod(np.arange(self.L[k], dtype=np.int64), U ** nu)
            ys = (y_part[:, None] * Y + np.arange(Y)) % Y ** ny1
            us = (u_part[:, None] * U + np.arange(U)) % U ** nu1
            self.shift.append(ys[:, :, None] * U ** nu1 + us[:, None, :])
            self.y_aged.append(y_part // Y ** (ny - 1))
            self.u_aged.append(u_part // U ** (nu - 1) if nu
                               else np.full(self.L[k], -1, dtype=np.int64))

    def step_arrays(self, spec: ProblemSpec):
        """Flattened one-step law: per (state, joint action), a contiguous
        block of (next state, emitted symbol, weight) triples, ordered by
        next state, then observation tuple with controller 0 most
        significant.  The weight is the transition probability times each
        controller's observation probability, multiplied in controller
        order.  A triple is pruned when one of these factors is zero; a
        weight that underflows to 0.0 is kept.  Built lazily, over blocks
        of states."""
        if self._step_arrays is not None:
            return self._step_arrays
        if self.shift is None:
            raise DomainError(f"no step past the horizon from t={self.t}")
        t, K = self.t, spec.K
        A = spec.action_count
        # Weight and kept mask over (x, a, x2, y_0, ..., y_{K-1}).
        w = spec.trans[t - 1]
        keep = w > 0.0
        for k in range(K):
            obs = spec.obs[k][t].reshape((1, 1, spec.x_size) + (1,) * k + (spec.y_size[k],))
            w = w[..., None] * obs
            keep = keep[..., None] & (obs > 0.0)
        act = np.unravel_index(np.arange(A, dtype=np.int64), spec.u_size)
        nxt_count = tuple(histories.private_count(spec, k, t + 1) for k in range(K))

        lens = np.zeros((self.state_count, A), dtype=np.int64)
        dst, zr, wt = [], [], []
        block = max(1, _BLOCK_ENTRIES // keep[0].size)
        for s0 in range(0, self.state_count, block):
            kb = keep[self.x_of_s[s0:s0 + block]]
            lens[s0:s0 + block] = kb.reshape(len(kb), A, -1).sum(axis=2, dtype=np.int64)
            b, a, x2, *ys = np.nonzero(kb)
            s = s0 + b
            lam = [self.lam_of_s[k][s] for k in range(K)]
            wt.append(w[(self.x_of_s[s], a, x2, *ys)])
            # The shared symbol carries the oldest window entries; under
            # delay 1 the aged action is the one being taken.
            rank = x2
            z_y = z_u = np.zeros(s.size, dtype=np.int64)
            for k in range(K):
                rank = rank * nxt_count[k] + self.shift[k][lam[k], ys[k], act[k][a]]
                z_y = z_y * spec.y_size[k] + self.y_aged[k][lam[k]]
                aged = self.u_aged[k][lam[k]] if spec.n >= 2 else act[k][a]
                z_u = z_u * spec.u_size[k] + aged
            dst.append(rank)
            zr.append(z_y * A + z_u if t + 1 > spec.n else np.zeros(s.size, dtype=np.int64))
        starts = (np.cumsum(lens) - lens.ravel()).reshape(lens.shape)
        self._step_arrays = (starts, lens, np.concatenate(dst),
                             np.concatenate(zr), np.concatenate(wt))
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


def stacked_support_sets(spec: ProblemSpec, t: int, P: np.ndarray
                         ) -> list[tuple[tuple[int, ...], ...]]:
    """Per belief in a stack P of shape (rows, state_count), in row order:
    per controller, the private realizations carrying positive marginal
    mass.

    A realization's marginal mass is a sum of non-negative terms, so it is
    positive exactly when one of its joint states has positive mass; the
    test reads that off one boolean reduction per controller.  Rows with
    equal positivity patterns share one tuple; patterns are told apart by
    their packed bytes.
    """
    st = tables(spec).stage[t]
    live = P.reshape((len(P), *st.shape)) > 0.0
    masks = []
    for k in range(spec.K):
        axes = tuple(i for i in range(1, spec.K + 2) if i != k + 2)
        masks.append(live.any(axis=axes))
    mask = np.concatenate(masks, axis=1)
    packed = np.packbits(mask, axis=1)
    _, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").reshape(-1),
                                  return_index=True, return_inverse=True)
    bounds = np.cumsum([0, *st.L])
    sets = [tuple(tuple(np.nonzero(mask[i, bounds[k]:bounds[k + 1]])[0].tolist())
                  for k in range(spec.K))
            for i in first.tolist()]
    return [sets[i] for i in inverse.tolist()]

