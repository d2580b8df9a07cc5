"""Exact minimization over prescription profiles (internal machinery).

The backup at one information state minimizes over every joint prescription
profile.  Profiles that assign the same actions to every private realization
that can influence the outcome (positive-mass realizations for costs and
branch probabilities, plus any realization whose assignment is recorded
inside a successor state) produce identical values and identical successors,
so the minimization enumerates *behaviors*: action assignments on those
relevant realizations only.  The minimizing full profile is recovered as the
behavior's zero-filled completion, which is also its smallest-rank completion,
so smallest-rank tie-breaking over all profiles is preserved exactly.

Behavior enumeration order (ascending realization rank, earlier positions
more significant, controller 0 most significant overall) coincides with the
rank order of the zero-filled completions; np.argmin over the assembled value
array therefore lands on the smallest-rank minimizer directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import histories
from ._tables import tables
from .errors import BudgetError
from .model import ProblemSpec

# Budget of every behavior enumeration: branch tables, behavior spaces and
# terminal batches each read it when they run.
DEFAULT_MAX_JOINT_BEHAVIORS = 1 << 22


@dataclass
class BehaviorSpace:
    """Enumerated action assignments on restricted realization sets."""

    t: int
    restricted: tuple[tuple[int, ...], ...]   # per k: realization ranks, ascending
    shape: tuple[int, ...]                    # per k: number of behaviors
    mats: tuple[np.ndarray, ...]              # per k: (N_k, |restricted_k|) digits
    pos: tuple[dict[int, int], ...]           # per k: realization rank -> column


# Digit matrix per (u, m): it depends on nothing else, so every behavior
# space of that shape shares one read-only copy.  Entries are made only after
# the joint-behavior budget check, one per shape in use.
@functools.lru_cache(maxsize=None)
def _digit_tables(u: int, m: int) -> np.ndarray:
    """The read-only (u**m, m) base-u digits of every behavior, first column
    most significant."""
    mat = np.indices((u,) * m, dtype=np.int64).reshape(m, u ** m).T
    mat.flags.writeable = False
    return mat


def check_joint_behaviors(t: int, joint: int) -> None:
    if joint > DEFAULT_MAX_JOINT_BEHAVIORS:
        raise BudgetError(
            f"profile minimization at t={t} needs {joint} joint behaviors "
            f"(budget {DEFAULT_MAX_JOINT_BEHAVIORS})")


def behavior_space(spec: ProblemSpec, t: int,
                   restricted: tuple[tuple[int, ...], ...]) -> BehaviorSpace:
    shape = tuple(spec.u_size[k] ** len(restricted[k]) for k in range(spec.K))
    check_joint_behaviors(t, math.prod(shape))
    return BehaviorSpace(
        t=t, restricted=tuple(tuple(r) for r in restricted), shape=shape,
        mats=tuple(_digit_tables(spec.u_size[k], len(restricted[k]))
                   for k in range(spec.K)),
        pos=tuple({lam: i for i, lam in enumerate(restricted[k])}
                  for k in range(spec.K)),
    )


def cost_tensor(spec: ProblemSpec, t: int, P: np.ndarray,
                restricted: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Expected stage cost of each belief of a stack P of shape (rows,
    state_count) per restricted realization tuple and joint action, axes
    (rows, lam_0..lam_{K-1}, u_0..u_{K-1}).  Each row is its own
    (realizations x states) @ (states x actions) product, so it does not
    depend on the other rows."""
    st = tables(spec).stage[t]
    rows = len(P)
    cube = P.reshape((rows, *st.shape))
    for k, lams in enumerate(restricted):
        if len(lams) < st.L[k]:
            cube = cube.take(lams, axis=2 + k)
    lam_shape = cube.shape[2:]
    return np.matmul(np.moveaxis(cube, 1, -1).reshape(rows, -1, spec.x_size),
                     st.q).reshape((rows, *lam_shape, *spec.u_size))


def behavior_sums(ct: np.ndarray, count: int) -> np.ndarray:
    """Contract the first count controllers of a cost tensor stack ct, axes
    (rows, lam_0..lam_{K-1}, u_0..u_{K-1}), with their behaviors: axes
    (rows, N_0..N_{count-1}, lam_count.., u_count..).

    Controllers are contracted in order, controller 0 first.  Controller k's
    action slices are added realization by realization, in ascending order:
    the running sum starts at the first realization's slice and each later
    slice is broadcast along a new digit axis, so behavior b holds the left
    fold of its digits' terms and the digit axes read as b's base-u_k digits,
    first realization most significant.  Every operation is elementwise, so
    each row is the bytes of the one-row call on it.  In memory the digit
    axes lead and the rows and uncontracted axes trail, so every sum runs
    over long contiguous stretches.
    """
    K = (ct.ndim - 1) // 2
    cur = np.ascontiguousarray(ct.transpose(
        [a for k in range(count) for a in (1 + k, 1 + K + k)] + [0]
        + [1 + k for k in range(count, K)] + [1 + K + k for k in range(count, K)]))
    for k in range(count):
        # cur: lam_k, u_k, the later pairs, N_{k-1}..N_0, rows, the rest
        total = cur[0]
        for i in range(1, len(cur)):
            total = (total[:, None] + cur[i]).reshape((-1, *cur.shape[2:]))
        pairs = count - 1 - k
        cur = np.ascontiguousarray(np.moveaxis(total, 0, 2 * pairs)) if pairs else total
    return cur.transpose([count, *range(count - 1, -1, -1), *range(count + 1, cur.ndim)])


def last_axis_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit, for a float64 array whose last axis is
    non-empty and has the smallest stride, with one array operation per
    term instead of one inner-loop call per summed row.

    numpy's reduction starts each output at +0.0 and adds the pairwise sum
    of its row, whose order this replays over strided slices: below 8
    terms a left fold from -0.0; up to 128, eight accumulators of the
    stride-8 columns, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the remaining terms in order; beyond, the halves split at a multiple of
    8.  (With another axis innermost numpy adds in another order.)"""
    return 0.0 + _pairwise_sum(a)


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    n = a.shape[-1]
    if n < 8:
        return functools.reduce(np.add, (a[..., i] for i in range(n)), -0.0)
    if n <= 128:
        whole = n - n % 8
        r = a[..., :8]
        for lo in range(8, whole, 8):
            r = r + a[..., lo:lo + 8]
        res = ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])) + (
            (r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
        for i in range(whole, n):
            res = res + a[..., i]
        return res
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(a[..., :half]) + _pairwise_sum(a[..., half:])


def stage_totals(spec: ProblemSpec, t: int, P: np.ndarray,
                 bs: BehaviorSpace) -> np.ndarray:
    """Expected stage cost of every behavior at each belief of a stack P of
    shape (rows, state_count), shaped (rows, *bs.shape); one belief is the
    stack p[None].  Zero-mass realizations outside the restricted sets
    contribute nothing, so restricting the cost tensor to them is exact.

    A behavior's total is summed controller by controller, controller 0
    innermost: for each controller, its restricted realizations' terms in
    ascending order (behavior_sums).  Each row is computed as for one belief
    (its own cost tensor, then elementwise sums), so a stack gives every row
    the bytes of the one-row call on it, for every shape.
    """
    return behavior_sums(cost_tensor(spec, t, P, bs.restricted), spec.K)


def subkey_vector(spec: ProblemSpec, bs: BehaviorSpace, k: int,
                  lam_subset: tuple[int, ...]) -> np.ndarray:
    """Per behavior, the mixed-radix key of its digits on lam_subset."""
    u = spec.u_size[k]
    key = np.zeros(bs.shape[k], dtype=np.int64)
    for lam in lam_subset:
        key = key * u + bs.mats[k][:, bs.pos[k][lam]]
    return key


def completion_rank(spec: ProblemSpec, bs: BehaviorSpace,
                    flat_index: int) -> int:
    """Full profile rank of the zero-filled completion of one behavior:
    controller k's table rank is the sum of digit * u**(count-1-lam) over
    its restricted realizations lam (every other one takes action 0)."""
    per_k = np.unravel_index(flat_index, bs.shape)
    rank = 0
    for k in range(spec.K):
        u, count = spec.u_size[k], histories.private_count(spec, k, bs.t)
        digits = bs.mats[k][per_k[k]].tolist()
        rank = rank * u ** count + sum(
            d * u ** (count - 1 - lam) for lam, d in zip(bs.restricted[k], digits))
    return rank
