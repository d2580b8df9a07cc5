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
    onehots: tuple[np.ndarray, ...]           # per k: (N_k, |restricted_k|, u_k)
    pos: tuple[dict[int, int], ...]           # per k: realization rank -> column


# Digit matrix and one-hot tensor per (u, m): they depend on nothing else, so
# every behavior space of that shape shares one read-only copy.  Entries are
# made only after the joint-behavior budget check, one per shape in use.
_DIGIT_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _digit_tables(u: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (u**m, m) base-u digits of every behavior, first column most
    significant, and their (u**m, m, u) one-hot encoding; both read-only."""
    hit = _DIGIT_TABLES.get((u, m))
    if hit is not None:
        return hit
    count = u ** m
    mat = np.zeros((count, m), dtype=np.int64)
    idx = np.arange(count, dtype=np.int64)
    for col in reversed(range(m)):
        mat[:, col] = idx % u
        idx //= u
    onehot = np.eye(u, dtype=np.float64)[mat]
    mat.flags.writeable = False
    onehot.flags.writeable = False
    _DIGIT_TABLES[(u, m)] = (mat, onehot)
    return mat, onehot


def behavior_space(spec: ProblemSpec, t: int,
                   restricted: tuple[tuple[int, ...], ...]) -> BehaviorSpace:
    shape = tuple(spec.u_size[k] ** len(restricted[k]) for k in range(spec.K))
    joint = math.prod(shape)
    if joint > DEFAULT_MAX_JOINT_BEHAVIORS:
        raise BudgetError(
            f"profile minimization at t={t} needs {joint} joint behaviors "
            f"(budget {DEFAULT_MAX_JOINT_BEHAVIORS})")
    mats = []
    onehots = []
    pos = []
    for k in range(spec.K):
        mat, onehot = _digit_tables(spec.u_size[k], len(restricted[k]))
        mats.append(mat)
        onehots.append(onehot)
        pos.append({lam: i for i, lam in enumerate(restricted[k])})
    return BehaviorSpace(
        t=t, restricted=tuple(tuple(r) for r in restricted),
        shape=shape,
        mats=tuple(mats), onehots=tuple(onehots), pos=tuple(pos),
    )


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _einsum_subscripts(K: int, batch: str = "") -> str:
    """Subscripts contracting the cost tensor (lam_1..lam_K, u_1..u_K) with
    each controller's one-hot behaviors; batch, when given, is the letter of
    a leading row axis carried through to the output."""
    lam = _LETTERS[:K]
    act = _LETTERS[K:2 * K]
    beh = _LETTERS[2 * K:3 * K]
    operands = [batch + lam + act]
    operands += [beh[k] + lam[k] + act[k] for k in range(K)]
    return ",".join(operands) + "->" + batch + beh


# Greedy contraction paths, keyed on (subscripts, operand shapes).  The path
# depends on nothing else, so reusing it reproduces optimize=True exactly
# without searching again on every call.
_EINSUM_PATHS: dict[tuple, list] = {}


def einsum_path(subscripts: str, *operands: np.ndarray) -> list:
    """The contraction path np.einsum(subscripts, *operands, optimize=True)
    takes, searched once per operand shapes."""
    key = (subscripts, tuple(op.shape for op in operands))
    path = _EINSUM_PATHS.get(key)
    if path is None:
        path = np.einsum_path(subscripts, *operands, optimize="greedy")[0]
        _EINSUM_PATHS[key] = path
    return path


def einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """np.einsum(subscripts, *operands, optimize=True) with the contraction
    path looked up per operand shapes instead of searched per call."""
    return np.einsum(subscripts, *operands,
                     optimize=einsum_path(subscripts, *operands))


def stage_totals(spec: ProblemSpec, t: int, P: np.ndarray,
                 bs: BehaviorSpace) -> np.ndarray:
    """Expected stage cost of every behavior at each belief of a stack P of
    shape (rows, state_count), shaped (rows, *bs.shape); one belief is the
    stack p[None].  Zero-mass realizations outside the restricted sets
    contribute nothing, so restricting the cost tensor to them is exact.

    Each row is computed as for one belief: its cost tensor is its own
    (realizations x states) @ (states x actions) product, as np.tensordot
    forms it (one stacked product would let BLAS fuse multiply-adds
    differently), and the behaviors are contracted along the one-belief
    optimize=True path with the row axis carried along.  With two or more
    controllers of two or more actions each, every step is a matrix-matrix
    product and each row is the bytes of the one-belief einsum (tested).
    With one controller, or a one-action controller, the one-belief step is
    a matrix-vector product, which BLAS may sum in another order: rows then
    agree with it to rounding only.
    """
    st = tables(spec).stage[t]
    rows = len(P)
    cube = P.reshape((rows, *st.shape))
    cube_r = cube[np.ix_(range(rows), range(spec.x_size), *bs.restricted)]
    lam_shape = cube_r.shape[2:]
    ct = np.matmul(np.moveaxis(cube_r, 1, -1).reshape(rows, -1, spec.x_size),
                   st.q).reshape((rows, *lam_shape, *spec.u_size))
    path = einsum_path(_einsum_subscripts(spec.K), ct[0], *bs.onehots)
    return np.einsum(_einsum_subscripts(spec.K, _LETTERS[3 * spec.K]),
                     ct, *bs.onehots, optimize=path)


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
        digits = _digit_tables(u, len(bs.restricted[k]))[0][per_k[k]].tolist()
        rank = rank * u ** count + sum(
            d * u ** (count - 1 - lam) for lam, d in zip(bs.restricted[k], digits))
    return rank
