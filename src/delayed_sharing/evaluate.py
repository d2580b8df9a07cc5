"""Ground truth by primitive-path summation.

Nothing here goes through beliefs or information states: trajectories over
(initial state, observations, transitions) are enumerated directly with
their kernel probabilities, actions are read off the strategy under test,
and expectations or conditionals are exact sums.  This is the oracle the
solvers are checked against.  The trajectories are the rows of one forward
path table, built stage by stage; exact_cost and the conditional oracles
are sums over its rows.  The seeded Monte Carlo estimate (simulate) samples
the same primitive randomness, one PCG64 stream per episode, numpy's
default_rng([seed, i]), and runs the episodes stage by stage as arrays over
blocks.  A block's streams are drawn at once, a lane per episode, by
NumPy's SeedSequence and PCG64 recurrences written as array operations, bit
for bit the draws numpy makes episode by episode.  Both act through one stage
step, _act, which gathers an ExtensionalDesign's actions from its tables and
asks any other strategy through its act method, never through solver
tables.  The brute-force oracle builds one design-independent outcome table
of (initial state, observations, next states) rows and evaluates designs in
blocks of digit strings over it, gathering each design's actions from its
digits by the same shared-history and private-window ranks; every cost
keeps the bytes of that design's exact_cost.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import histories
from .errors import BudgetError, DomainError, OffDesignHistoryError
from .histories import Design, ExtensionalDesign
from .model import ProblemSpec, normalize_problem

DEFAULT_MAX_PATHS = 10_000_000
DEFAULT_ORACLE_BUDGET = 10_000_000
DEFAULT_MAX_DESIGN_ENTRIES = 1_000_000
# 8 bytes of totals per episode: 800 MB at the budget.  Below 2**32, so an
# episode index is one SeedSequence entropy word.
DEFAULT_MAX_EPISODES = 100_000_000


@dataclass(frozen=True)
class EvalResult:
    """Exact expected total cost and its per-stage split."""

    expected_cost: float
    per_stage: tuple[float, ...]


@dataclass(frozen=True)
class SimResult:
    episodes: int
    mean: float
    std_error: float
    seed: int


@dataclass(frozen=True)
class PathRecord:
    """One positive-probability trajectory prefix under a strategy.

    xs[i] is the plant state at time i (xs[0] is the initial state);
    ys[k][m-1] / us[k][m-1] are controller k's observation/action at stage m;
    zs are the ranks of the non-null shared symbols in time order.
    """

    weight: float
    xs: tuple[int, ...]
    ys: tuple[tuple[int, ...], ...]
    us: tuple[tuple[int, ...], ...]
    zs: tuple[int, ...]


# A strategy enters path enumeration as a Design or as a bare act function
# of this shape: (controller, time, private rank, shared-history z ranks)
# -> action.
ActionFn = Callable[[int, int, int, tuple[int, ...]], int]


# ---------------------------------------------------------------------------
# The forward path table and the stage step it shares with simulate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Paths:
    """Every positive-probability trajectory prefix up to some t_max, one
    row each, in depth-first order.  Column m-1 of ys holds stage m's joint
    observation rank (controller 0 major) and of us its joint action index;
    xs[:, i] is the state at time i; zs holds the shared symbol ranks
    recorded.  Integer columns are int32, so a path takes 4 bytes per
    column and 8 for its weight."""

    weight: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    us: np.ndarray
    zs: np.ndarray


def _expand(mask: np.ndarray, max_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, value) of each true entry of a (rows, values) mask in C order,
    refused before anything is allocated when there are over max_paths."""
    if np.count_nonzero(mask) > max_paths:
        raise BudgetError(f"path enumeration exceeded {max_paths} paths")
    return np.nonzero(mask)


def _path_table(spec: ProblemSpec, design: Design | ActionFn, t_max: int,
                final_step: bool, max_paths: int) -> _Paths:
    """The paths up to t_max (observations only at the last stage when
    final_step is false), built stage by stage: each row expands
    over its positive observations, controller 0 first, then, having acted,
    over its positive next states.  C order keeps the rows depth-first, and
    weights are multiplied factor by factor in trajectory order.  Kernel
    rows are stochastic, so no expansion has more rows than the last, and
    checking each one against max_paths checks the path count."""
    if not 1 <= t_max <= spec.T:
        raise DomainError(f"t_max={t_max} outside [1, {spec.T}]")
    acted = t_max if final_step else t_max - 1
    _, x0 = _expand(spec.x0_dist[None] > 0.0, max_paths)
    weight = spec.x0_dist[x0]
    xs = np.zeros((len(x0), acted + 1), dtype=np.int32)
    xs[:, 0] = x0
    ys = np.zeros((len(x0), t_max), dtype=np.int32)
    us = np.zeros((len(x0), acted), dtype=np.int32)
    for t in range(1, t_max + 1):
        for k in range(spec.K):
            kernel = spec.obs[k][t - 1][xs[:, t - 1]]
            rows, y = _expand(kernel > 0.0, max_paths)
            weight = weight[rows] * kernel[rows, y]
            xs, ys, us = xs[rows], ys[rows], us[rows]
            ys[:, t - 1] = ys[:, t - 1] * spec.y_size[k] + y
        if t > acted:
            break
        us[:, t - 1] = _act(spec, design, t, ys, us)
        kernel = spec.trans[t - 1][xs[:, t - 1], us[:, t - 1]]
        rows, x = _expand(kernel > 0.0, max_paths)
        weight = weight[rows] * kernel[rows, x]
        xs, ys, us = xs[rows], ys[rows], us[rows]
        xs[:, t] = x
    return _Paths(weight, xs, ys, us, _symbols(spec, ys, us, spec.T - spec.n))


def _symbols(spec: ProblemSpec, ys: np.ndarray, us: np.ndarray,
             length: int) -> np.ndarray:
    """Shared symbol ranks (histories.symbol_rank: the joint observation's
    rank, then the joint action's) of stages 1..length, or of every stage
    acted if fewer, along the last axis; leading axes broadcast."""
    length = max(0, min(length, us.shape[-1]))
    return ys[..., :length] * spec.action_count + us[..., :length]


def _history_ids(spec: ProblemSpec, zs: np.ndarray) -> np.ndarray:
    """Dense id per row of its shared history, the row of zs: equal ids,
    equal histories."""
    radix = spec.action_count * math.prod(spec.y_size)
    ids = np.zeros(len(zs), dtype=np.int64)
    for z in zs.T:
        ids = np.unique(ids * radix + z, return_inverse=True)[1]
    return ids


def _delta_ranks(spec: ProblemSpec, zs: np.ndarray) -> np.ndarray:
    """The shared-history rank (histories.delta_rank's radix) of each
    history zs[..., :], the last axis in time order."""
    radix = spec.action_count * math.prod(spec.y_size)
    ranks = np.zeros(zs.shape[:-1], dtype=np.int64)
    for i in range(zs.shape[-1]):
        ranks = ranks * radix + zs[..., i]
    return ranks


def _window_ranks(spec: ProblemSpec, t: int, ys: np.ndarray,
                  us: np.ndarray) -> list[np.ndarray]:
    """Per controller, each row's private window rank at time t (mixed
    radix over the window's observations, oldest first, then its actions,
    oldest first), cut from joint ranks ys and us laid out as in _Paths
    along their last axis; leading axes broadcast.  Each controller's digit
    is cut by // and %: numpy 2.4's unravel_index miscounts int64 arrays
    whose last axis has length 1 once they pass 8,192 entries."""
    lo = max(1, t - spec.n + 1)
    ys, us = ys[..., lo - 1: t], us[..., lo - 1: t - 1]
    ranks = []
    for k in range(spec.K):
        y_part = ys // math.prod(spec.y_size[k + 1:]) % spec.y_size[k]
        u_part = us // math.prod(spec.u_size[k + 1:]) % spec.u_size[k]
        lam = np.zeros(ys.shape[:-1], dtype=np.int64)
        for i in range(y_part.shape[-1]):
            lam = lam * spec.y_size[k] + y_part[..., i]
        for i in range(u_part.shape[-1]):
            lam = lam * spec.u_size[k] + u_part[..., i]
        ranks.append(lam)
    return ranks


def _act(spec: ProblemSpec, design: Design | ActionFn, t: int,
         ys: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Joint action index at stage t of every row, from ys through stage t
    and us through stage t-1 (laid out as in _Paths).  An
    ExtensionalDesign's actions are gathered, one tables[k][t-1][delta rank,
    private rank] per controller; any other design (or a bare act function)
    is asked once per distinct (controller, shared history, private window).
    Either way the actions are checked to be in range, controller by
    controller, and the first bad one in (shared history, private rank)
    order is named."""
    zs = _symbols(spec, ys, us, t - spec.n)
    tables = design.tables if isinstance(design, ExtensionalDesign) else None
    if tables is None:
        action_fn = getattr(design, "act", design)
        history = _history_ids(spec, zs)
    else:
        history = _delta_ranks(spec, zs)
    a = np.zeros(len(ys), dtype=np.int64)
    for k, lam in enumerate(_window_ranks(spec, t, ys, us)):
        key = history * histories.private_count(spec, k, t) + lam
        if tables is None:
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            acted = np.array([action_fn(k, t, int(lam[e]), tuple(zs[e].tolist()))
                              for e in first.tolist()], dtype=np.int64)[inverse]
        else:
            acted = tables[k][t - 1][history, lam].astype(np.int64, copy=False)
        bad = (acted < 0) | (acted >= spec.u_size[k])
        if bad.any():
            raise DomainError(f"action {acted[bad][np.argmin(key[bad])]} out of "
                              f"range for controller {k}")
        a = a * spec.u_size[k] + acted
    return a


def iter_paths(spec: ProblemSpec, design: Design | ActionFn, *,
               t_max: int | None = None) -> Iterator[PathRecord]:
    """Every positive-probability trajectory prefix up to t_max in
    depth-first order: the rows of the path table, which is built in full,
    and checked against DEFAULT_MAX_PATHS, before this returns.  design is a
    Design or its act function."""
    spec = normalize_problem(spec)
    paths = _path_table(spec, design, spec.T if t_max is None else t_max,
                        True, DEFAULT_MAX_PATHS)
    ys = [part.tolist() for part in np.unravel_index(paths.ys, spec.y_size)]
    us = [part.tolist() for part in np.unravel_index(paths.us, spec.u_size)]
    rows = zip(paths.weight.tolist(), paths.xs.tolist(), zip(*ys), zip(*us),
               paths.zs.tolist())
    return (PathRecord(w, tuple(xs), tuple(map(tuple, y)), tuple(map(tuple, u)),
                       tuple(zs))
            for w, xs, y, u, zs in rows)


# ---------------------------------------------------------------------------
# Exact evaluation and simulation
# ---------------------------------------------------------------------------

def exact_cost(spec: ProblemSpec, design: Design, *,
               max_paths: int = DEFAULT_MAX_PATHS) -> EvalResult:
    """Exact expected total cost of a design by exhaustive forward summation
    over the joint support of all primitive randomness.  Each stage adds
    its paths' weight x cost in row order, starting from 0.0 (so a leading
    -0.0 sums to +0.0)."""
    spec = normalize_problem(spec)
    paths = _path_table(spec, design, spec.T, True, max_paths)
    per_stage = np.array([
        _row_order_sum(paths.weight * spec.cost[t - 1][paths.xs[:, t], paths.us[:, t - 1]])
        for t in range(1, spec.T + 1)])
    return EvalResult(float(per_stage.sum()), tuple(float(c) for c in per_stage))


def _row_order_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, term by term in order from +0.0 (so a
    leading -0.0 sums to +0.0): a stage's cost over path rows."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.add.accumulate(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def simulate(spec: ProblemSpec, design: Design, episodes: int, seed: int) -> SimResult:
    """Seeded Monte Carlo estimate of the expected cost.

    Episode i draws its uniforms from the PCG64 stream seeded with (seed, i),
    np.random.default_rng([seed, i]): the initial state, then per stage each
    controller's observation and the transition.  Results are therefore
    reproducible and independent of how episodes are grouped: episodes run
    in blocks of at most _SIM_BLOCK, and _episode_uniforms draws a block's
    streams at once, one lane per episode, bit for bit as numpy does.  Each
    stage runs as array operations over the block.  An ExtensionalDesign's
    actions are gathered from its tables; any other Design is asked once per
    distinct (controller, time, shared history, private rank) of a block
    through its act method.  Refused (BudgetError) before any draw or design
    call when episodes exceed DEFAULT_MAX_EPISODES, read at call time.
    """
    spec = normalize_problem(spec)
    _check_episodes(episodes, seed)
    cdfs = (np.cumsum(spec.x0_dist), np.cumsum(spec.trans, axis=-1),
            [np.cumsum(spec.obs[k], axis=-1) for k in range(spec.K)])
    totals = np.zeros(episodes)
    for lo in range(0, episodes, _SIM_BLOCK):
        hi = min(lo + _SIM_BLOCK, episodes)
        totals[lo:hi] = _simulate_block(spec, design, seed, lo, hi, *cdfs)
    mean = float(totals.mean())
    if episodes > 1:
        std_error = float(totals.std(ddof=1) / math.sqrt(episodes))
    else:
        std_error = 0.0
    return SimResult(episodes, mean, std_error, seed)


def _check_episodes(episodes: int, seed: int) -> None:
    """simulate's domain and budget checks on its episode count and seed,
    which verify.verify_instance also makes before any other work."""
    if episodes < 1:
        raise DomainError("episodes must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if episodes > DEFAULT_MAX_EPISODES:
        raise BudgetError(f"simulate asked for {episodes} episodes "
                          f"(budget {DEFAULT_MAX_EPISODES})")


# Most episodes simulate holds at a time.  A block's arrays (draws,
# observations, actions, stream lanes) have this many rows, so they stay
# flat in the episode count; the 8-byte total per episode grows with it, and
# DEFAULT_MAX_EPISODES bounds that.
_SIM_BLOCK = 4096


def _draw(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the count of cdf entries <= u: searchsorted(side="right") on
    a nondecreasing row.  The clip guards the 1-ulp shortfall of a
    renormalized row's last entry."""
    return np.minimum((cdf_rows <= u[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)


def _simulate_block(spec: ProblemSpec, design: Design, seed: int, lo: int, hi: int,
                    x0_cdf: np.ndarray, trans_cdf: np.ndarray,
                    obs_cdf: list[np.ndarray]) -> np.ndarray:
    """Total cost of each episode lo..hi-1: one sampled trajectory per row,
    laid out as in _Paths and acted on by _act.  Stage costs are added in
    stage order from 0.0, as a per-episode loop adds them."""
    K, T = spec.K, spec.T
    size = hi - lo
    draws = _episode_uniforms(seed, lo, hi, 1 + T * (K + 1))
    x = _draw(np.broadcast_to(x0_cdf, (size, len(x0_cdf))), draws[:, 0])
    ys = np.zeros((size, T), dtype=np.int64)
    us = np.zeros((size, T), dtype=np.int64)
    totals = np.zeros(size)
    for t in range(1, T + 1):
        col = 1 + (t - 1) * (K + 1)
        for k in range(K):
            y = _draw(obs_cdf[k][t - 1, x], draws[:, col + k])
            ys[:, t - 1] = ys[:, t - 1] * spec.y_size[k] + y
        a = us[:, t - 1] = _act(spec, design, t, ys, us)
        x = _draw(trans_cdf[t - 1, x, a], draws[:, col + K])
        totals += spec.cost[t - 1][x, a]
    return totals


# ---------------------------------------------------------------------------
# Per-episode PCG64 streams, a lane per episode
# ---------------------------------------------------------------------------
# NumPy's SeedSequence (pool of 4 uint32 words) and PCG64 (128-bit LCG with
# XSL-RR output), fixed by NEP 19.  32-bit words sit in uint64 lanes, and
# every constant is an np.uint64, so numpy 1.x and 2.x promote alike.

_LOW32 = np.uint64(0xFFFFFFFF)


def _limbs(value: int) -> tuple[np.uint64, ...]:
    """A 128-bit constant as 32-bit limbs, least significant first."""
    return tuple(np.uint64(value >> s & 0xFFFFFFFF) for s in range(0, 128, 32))


_PCG_MULT = _limbs(0x2360ED051FC65DA44385DF649FCCF645)


def _hash_constants(init: int, mult: int) -> Iterator[tuple[np.uint64, np.uint64]]:
    """SeedSequence's running hash constant, (xor, multiplier) per hash: it
    depends only on how many hashes came before."""
    while True:
        step = init * mult & 0xFFFFFFFF
        yield np.uint64(init), np.uint64(step)
        init = step


def _hash(word: np.ndarray, constants: Iterator) -> np.ndarray:
    """SeedSequence's hashmix, and generate_state's hash on its constants."""
    xor, mult = next(constants)
    word = (word ^ xor) * mult & _LOW32
    return word ^ word >> np.uint64(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two pool words."""
    word = (np.uint64(0xCA01F9DD) * x - np.uint64(0x4973F715) * y) & _LOW32
    return word ^ word >> np.uint64(16)


def _mul_add(a: Sequence, m: Sequence, c: Sequence) -> list[np.ndarray]:
    """(a * m + c) mod 2**128 on 32-bit limbs, least significant first; a
    limb is a lane array or an np.uint64.  A column gathers at most 9 terms
    below 2**32, so no uint64 sum wraps."""
    cols = list(c)
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * m[j]
            cols[i + j] = cols[i + j] + (product & _LOW32)
            if i + j < 3:
                cols[i + j + 1] = cols[i + j + 1] + (product >> np.uint64(32))
    limbs = []
    carry = np.uint64(0)
    for col in cols:
        col = col + carry
        limbs.append(col & _LOW32)
        carry = col >> np.uint64(32)
    return limbs


def _episode_uniforms(seed: int, lo: int, hi: int, count: int) -> np.ndarray:
    """Row i - lo holds np.random.default_rng([seed, i]).random(count), bit
    for bit, for each i in [lo, hi); hi <= 2**32, so i is one entropy word.
    seed is any integer numpy takes, numpy's own included."""
    seed = operator.index(seed)
    index = np.arange(lo, hi, dtype=np.uint64)
    entropy = [np.full_like(index, (seed >> s) & 0xFFFFFFFF)
               for s in range(0, max(seed.bit_length(), 1), 32)] + [index]
    # SeedSequence's pool: hash the first 4 words in, mix every word with
    # every other, then mix in the words beyond the pool
    constants = _hash_constants(0x43B0D7E5, 0x931E8875)
    pool = [_hash(entropy[j] if j < len(entropy) else np.zeros_like(index), constants)
            for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    # generate_state(4, np.uint64): words (high, low) of initstate, then of
    # initseq, each uint64 two little-endian words
    constants = _hash_constants(0x8B51F9DD, 0x58F38DED)
    w = [_hash(pool[j % 4], constants) for j in range(8)]
    initstate, initseq = [w[2], w[3], w[0], w[1]], [w[6], w[7], w[4], w[5]]
    # PCG64 seeding: inc = initseq << 1 | 1; from state 0, step, add
    # initstate, step
    inc = _mul_add(initseq, _limbs(2), _limbs(1))
    state = _mul_add(_mul_add(initstate, _limbs(1), inc), _PCG_MULT, inc)
    out = np.empty((count, hi - lo))
    for row in out:
        state = _mul_add(state, _PCG_MULT, inc)
        # XSL-RR: the 128-bit state's halves xored, rotated right by its
        # top 6 bits; a double is the top 53 bits of that times 2**-53
        folded = (state[3] << np.uint64(32) | state[2]) ^ (state[1] << np.uint64(32) | state[0])
        rot = state[3] >> np.uint64(26)
        bits = folded >> rot | folded << ((np.uint64(64) - rot) & np.uint64(63))
        np.multiply(bits >> np.uint64(11), 2.0 ** -53, out=row)
    return out.T


# ---------------------------------------------------------------------------
# Brute-force design search
# ---------------------------------------------------------------------------
# A design is a string of digits, one per table entry: its tables in (time,
# controller) order, earlier time first, each row-major (shared-history rank
# major, private rank minor), every digit an action of its table's
# controller.  Design i is i written in that mixed radix, the last digit
# fastest.

def _table_shapes(spec: ProblemSpec) -> Iterator[tuple[int, int, int, int]]:
    """(k, t, rows, cols) of every design table, in digit order."""
    for t in range(1, spec.T + 1):
        for k in range(spec.K):
            yield (k, t, histories.delta_count(spec, t),
                   histories.private_count(spec, k, t))


def design_count(spec: ProblemSpec) -> int:
    return math.prod(spec.u_size[k] ** (rows * cols)
                     for k, t, rows, cols in _table_shapes(spec))


def path_count_bound(spec: ProblemSpec) -> int:
    bound = spec.x_size ** (spec.T + 1)
    for k in range(spec.K):
        bound *= spec.y_size[k] ** spec.T
    return bound


@dataclass(frozen=True)
class _DigitLayout:
    """Where a design's tables sit in its digit string: each table's
    (k, t, rows, cols) in digit order and first digit (offsets[k, t]), and
    each digit's radix and place value, int64 arrays."""

    shapes: tuple[tuple[int, int, int, int], ...]
    offsets: dict[tuple[int, int], int]
    radices: np.ndarray
    strides: np.ndarray


def _digit_layout(spec: ProblemSpec) -> _DigitLayout:
    """The digit layout of spec's designs; refused (BudgetError) when design
    indices overflow int64, a space no enumeration finishes."""
    shapes = tuple(_table_shapes(spec))
    offsets, radices = {}, []
    for k, t, rows, cols in shapes:
        offsets[k, t] = len(radices)
        radices += [spec.u_size[k]] * (rows * cols)
    strides = list(itertools.accumulate(radices[:0:-1], operator.mul, initial=1))[::-1]
    count = strides[0] * radices[0]
    if count > np.iinfo(np.int64).max:
        raise BudgetError(f"design space holds {count} designs, "
                          f"past int64 design indices")
    return _DigitLayout(shapes, offsets, np.array(radices, dtype=np.int64),
                        np.array(strides, dtype=np.int64))


def _design_digits(layout: _DigitLayout, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, digits) array: row i holds design lo + i's digits."""
    index = np.arange(lo, hi, dtype=np.int64)[:, None]
    return index // layout.strides % layout.radices


def _digits_design(spec: ProblemSpec, layout: _DigitLayout,
                   digits: np.ndarray) -> ExtensionalDesign:
    """The design whose digit string is digits, in fresh tables."""
    tables: list[list[np.ndarray | None]] = [[None] * spec.T for _ in range(spec.K)]
    for k, t, rows, cols in layout.shapes:
        lo = layout.offsets[k, t]
        tables[k][t - 1] = digits[lo: lo + rows * cols].reshape(rows, cols).copy()
    return ExtensionalDesign(spec, tables)


# Most design x row (or design x digit) entries the oracle holds at a time.
# A block of designs' digits, actions, weights and stage terms have about
# this many entries each, so memory stays flat in the design count.
_ORACLE_BLOCK = 1 << 14


def enumerate_designs(spec: ProblemSpec) -> Iterator[ExtensionalDesign]:
    """Every extensionally-stored design exactly once; refused (BudgetError)
    when the designs exceed DEFAULT_ORACLE_BUDGET, read at call time.

    Design i's tables are the digits of i in one mixed radix over table
    entries: tables ordered by (time, controller) with earlier tables more
    significant; within a table, shared-history index major, private rank
    minor; the last entry fastest.  Designs are decoded in blocks, as
    brute_force_optimum decodes them.
    """
    spec = normalize_problem(spec)
    total = design_count(spec)
    if total > DEFAULT_ORACLE_BUDGET:
        raise BudgetError(f"design space holds {total} designs "
                          f"(budget {DEFAULT_ORACLE_BUDGET})")
    layout = _digit_layout(spec)
    block = max(1, _ORACLE_BLOCK // len(layout.radices))
    for lo in range(0, total, block):
        for digits in _design_digits(layout, lo, min(lo + block, total)):
            yield _digits_design(spec, layout, digits)


@dataclass(frozen=True)
class _Outcomes:
    """Every (initial state, observations, next states) sequence whose
    kernel factors are positive under some design, one row each in
    _path_table's depth-first order: observations expand over their positive
    kernel entries, controller 0 first, and next states over the states
    positive under some joint action.  xs and ys are laid out as in _Paths.
    factors[:, 0] is the initial state's probability and factors[:, 1 + (t-1)K
    + k] controller k's stage-t observation probability.  prefix[:, t-1]
    numbers each row's stage-t prefix (through the stage-t observations);
    first[t-1] holds a row of each such prefix, in prefix order."""

    xs: np.ndarray
    ys: np.ndarray
    factors: np.ndarray
    prefix: np.ndarray
    first: list[np.ndarray]


def _outcome_table(spec: ProblemSpec) -> _Outcomes:
    """The design-independent outcome rows, each expansion checked against
    DEFAULT_MAX_PATHS, read at call time, as _path_table checks its own."""
    K, T = spec.K, spec.T
    _, x0 = _expand(spec.x0_dist[None] > 0.0, DEFAULT_MAX_PATHS)
    xs = np.zeros((len(x0), T + 1), dtype=np.int32)
    xs[:, 0] = x0
    ys = np.zeros((len(x0), T), dtype=np.int32)
    factors = np.zeros((len(x0), 1 + T * K))
    factors[:, 0] = spec.x0_dist[x0]
    prefix = np.zeros((len(x0), T), dtype=np.int64)
    for t in range(1, T + 1):
        for k in range(K):
            kernel = spec.obs[k][t - 1][xs[:, t - 1]]
            rows, y = _expand(kernel > 0.0, DEFAULT_MAX_PATHS)
            xs, ys, factors, prefix = xs[rows], ys[rows], factors[rows], prefix[rows]
            ys[:, t - 1] = ys[:, t - 1] * spec.y_size[k] + y
            factors[:, 1 + (t - 1) * K + k] = kernel[rows, y]
        prefix[:, t - 1] = np.arange(len(xs))
        reach = (spec.trans[t - 1][xs[:, t - 1]] > 0.0).any(axis=1)
        rows, x = _expand(reach, DEFAULT_MAX_PATHS)
        xs, ys, factors, prefix = xs[rows], ys[rows], factors[rows], prefix[rows]
        xs[:, t] = x
    first = [np.unique(prefix[:, t], return_index=True)[1] for t in range(T)]
    return _Outcomes(xs, ys, factors, prefix, first)


def _block_costs(spec: ProblemSpec, outcomes: _Outcomes, layout: _DigitLayout,
                 digits: np.ndarray) -> np.ndarray:
    """Expected cost of each design of a block, one per row of digits.

    Stage by stage over (design, outcome row) arrays: each controller's
    action is gathered from the design's digits at its table's offset plus
    shared-history rank x private count plus private rank, once per stage
    prefix; the weight multiplies _path_table's factors in its order; each
    stage's terms are added in row order from 0.0, as exact_cost adds them.
    A design's own path rows are the outcome rows of nonzero weight, in the
    same order with the same weights, and every other row adds +-0.0 to a
    sum that is never -0.0, so each cost keeps the bytes of
    exact_cost(spec, design).expected_cost."""
    B = len(digits)
    weight = outcomes.factors[:, 0]
    acts: list[np.ndarray] = []
    for t in range(1, spec.T + 1):
        for k in range(spec.K):
            weight = weight * outcomes.factors[:, 1 + (t - 1) * spec.K + k]
        first = outcomes.first[t - 1]
        ys = outcomes.ys[first, :t]
        us = np.zeros((B, len(first), t - 1), dtype=np.int64)
        for m, acted in enumerate(acts):
            us[..., m] = acted[:, first]
        history = _delta_ranks(spec, _symbols(spec, ys, us, t - spec.n))
        a = np.zeros((B, len(first)), dtype=np.int64)
        for k, lam in enumerate(_window_ranks(spec, t, ys, us)):
            entry = (layout.offsets[k, t]
                     + history * histories.private_count(spec, k, t) + lam)
            a = a * spec.u_size[k] + np.take_along_axis(
                digits, np.broadcast_to(entry, a.shape), axis=1)
        a = a[:, outcomes.prefix[:, t - 1]]
        acts.append(a)
        weight = weight * spec.trans[t - 1][outcomes.xs[:, t - 1], a, outcomes.xs[:, t]]
    per_stage = np.stack([
        _row_order_sum(weight * spec.cost[t - 1][outcomes.xs[:, t], acts[t - 1]])
        for t in range(1, spec.T + 1)], axis=-1)
    return per_stage.sum(axis=-1)


def brute_force_optimum(spec: ProblemSpec, *, max_designs: int | None = None
                        ) -> tuple[float, ExtensionalDesign]:
    """Exhaustive minimum of exact_cost over every design; ties go to the
    earlier design in enumeration order.  Refused (BudgetError) before any
    design is evaluated when the designs exceed max_designs.  Without
    max_designs, DEFAULT_ORACLE_BUDGET, read at call time, caps both the
    designs and designs x path_count_bound, the number of path
    evaluations.

    Designs are evaluated in blocks of digit strings over one
    design-independent outcome table (_block_costs), each cost the bytes of
    its exact_cost, and only the winner is built as an ExtensionalDesign.
    The outcome table is checked against DEFAULT_MAX_PATHS, read at call
    time."""
    spec = normalize_problem(spec)
    n_designs = design_count(spec)
    budget = DEFAULT_ORACLE_BUDGET if max_designs is None else max_designs
    if n_designs > budget:
        raise BudgetError(
            f"design space holds {n_designs} designs (budget {budget})")
    work = n_designs * path_count_bound(spec)
    if max_designs is None and work > budget:
        raise BudgetError(
            f"oracle needs {n_designs} designs x {path_count_bound(spec)} "
            f"paths = {work} evaluations (budget {budget})")
    layout = _digit_layout(spec)
    outcomes = _outcome_table(spec)
    block = max(1, _ORACLE_BLOCK // max(len(outcomes.xs), len(layout.radices)))
    best: float | None = None
    best_index = 0
    for lo in range(0, n_designs, block):
        costs = _block_costs(spec, outcomes, layout, _design_digits(
            layout, lo, min(lo + block, n_designs)))
        i = int(costs.argmin())
        if best is None or costs[i] < best:
            best, best_index = float(costs[i]), lo + i
    digits = _design_digits(layout, best_index, best_index + 1)[0]
    return best, _digits_design(spec, layout, digits)


def materialize_design(spec: ProblemSpec, design: Design) -> ExtensionalDesign:
    """Tabulate any design over the full (shared history, private rank)
    product domain, in fresh arrays the caller may write into.  Refused
    (BudgetError) before any table is allocated when the entries exceed
    DEFAULT_MAX_DESIGN_ENTRIES.  A design with stage_tables hands its tables
    over whole: an ExtensionalDesign copies them, an ExtractedDesign walks
    its successor rows stage by stage.  Any other is asked entry by entry
    through act.  Histories the design rejects (off-policy for a
    replayed strategy) get action 0; they never occur under the design
    itself, so the tabulated copy is cost-identical.  A rejection is a
    verdict on (t, delta) alone, so the first one ends its row."""
    spec = normalize_problem(spec)
    total = sum(rows * cols for _, _, rows, cols in _table_shapes(spec))
    if total > DEFAULT_MAX_DESIGN_ENTRIES:
        raise BudgetError(f"design table needs {total} entries "
                          f"(budget {DEFAULT_MAX_DESIGN_ENTRIES})")
    stage_tables = getattr(design, "stage_tables", None)
    if stage_tables is not None:
        return ExtensionalDesign(spec, stage_tables())
    radix = histories.common_obs_count(spec, spec.n + 1) if spec.T > spec.n else 1
    tables: list[list[np.ndarray]] = []
    for k in range(spec.K):
        per_k = []
        for t in range(1, spec.T + 1):
            cols = histories.private_count(spec, k, t)
            tab = np.zeros((histories.delta_count(spec, t), cols), dtype=np.int64)
            # shared histories in rank order (histories.delta_rank)
            deltas = itertools.product(range(radix),
                                       repeat=histories.delta_length(spec, t))
            for row, delta in enumerate(deltas):
                for lam in range(cols):
                    try:
                        tab[row, lam] = design.act(k, t, lam, delta)
                    except OffDesignHistoryError:
                        break
            per_k.append(tab)
        tables.append(per_k)
    return ExtensionalDesign(spec, tables)


# ---------------------------------------------------------------------------
# Conditional oracles over shared histories (design: a Design or its act
# function, as for iter_paths; paths checked against DEFAULT_MAX_PATHS)
# ---------------------------------------------------------------------------

def _by_history(spec: ProblemSpec, paths: _Paths,
                t: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The distinct shared histories at time t among the table's rows, in
    first-seen order, and each row's index among them."""
    zs = paths.zs[:, : max(0, t - spec.n)]
    ids = _history_ids(spec, zs)
    first = np.unique(ids, return_index=True)[1]
    order = np.argsort(first)
    return [tuple(zs[i].tolist()) for i in first[order]], np.argsort(order)[ids]


def conditional_state_dists(spec: ProblemSpec, design: Design | ActionFn, t: int
                            ) -> dict[tuple[int, ...], tuple[float, np.ndarray]]:
    """Per positive-probability shared history at time t: its probability and
    the exact conditional over joint-state ranks, straight from path sums."""
    spec = normalize_problem(spec)
    paths = _path_table(spec, design, t, False, DEFAULT_MAX_PATHS)
    keys, group = _by_history(spec, paths, t)
    # joint-state rank: mixed radix over (x, private windows), x major
    s = paths.xs[:, t - 1].astype(np.int64)
    size = spec.x_size
    for k, lam in enumerate(_window_ranks(spec, t, paths.ys, paths.us)):
        count = histories.private_count(spec, k, t)
        s = s * count + lam
        size *= count
    acc = np.zeros((len(keys), size))
    np.add.at(acc, (group, s), paths.weight)
    return {delta: (float(vec.sum()), vec / vec.sum())
            for delta, vec in zip(keys, acc)}


def conditional_x_dists(spec: ProblemSpec, design: Design | ActionFn, t: int
                        ) -> dict[tuple[int, ...], np.ndarray]:
    """P(X_{t-n} | shared history at t) for every reachable history (X at
    the clipped time max(0, t-n)): the delayed-state conditional Theta
    tracks."""
    spec = normalize_problem(spec)
    paths = _path_table(spec, design, t, False, DEFAULT_MAX_PATHS)
    keys, group = _by_history(spec, paths, t)
    acc = np.zeros((len(keys), spec.x_size))
    np.add.at(acc, (group, paths.xs[:, max(0, t - spec.n)]), paths.weight)
    return {delta: vec / vec.sum() for delta, vec in zip(keys, acc)}


def conditional_stage_costs(spec: ProblemSpec, design: Design | ActionFn, t: int
                            ) -> dict[tuple[int, ...], float]:
    """E[stage cost at t | shared history at t] for every reachable history."""
    spec = normalize_problem(spec)
    paths = _path_table(spec, design, t, True, DEFAULT_MAX_PATHS)
    keys, group = _by_history(spec, paths, t)
    num = np.zeros(len(keys))
    den = np.zeros(len(keys))
    cost = spec.cost[t - 1][paths.xs[:, t], paths.us[:, t - 1]]
    np.add.at(num, group, paths.weight * cost)
    np.add.at(den, group, paths.weight)
    return {delta: float(num[i] / den[i]) for i, delta in enumerate(keys)}


def conditional_phi(spec: ProblemSpec, design: Design | ActionFn, t: int
                    ) -> dict[tuple[int, ...], np.ndarray]:
    """P(X_{t-2}, joint action at t-1 | shared history at t), flattened with
    the state index major; defined for t >= 2."""
    spec = normalize_problem(spec)
    if t < 2:
        raise DomainError("the two-step-back statistic needs t >= 2")
    A = spec.action_count
    paths = _path_table(spec, design, t - 1, True, DEFAULT_MAX_PATHS)
    keys, group = _by_history(spec, paths, t)
    acc = np.zeros((len(keys), spec.x_size * A))
    np.add.at(acc, (group, paths.xs[:, t - 2].astype(np.int64) * A + paths.us[:, t - 2]),
              paths.weight)
    return {delta: vec / vec.sum() for delta, vec in zip(keys, acc)}
