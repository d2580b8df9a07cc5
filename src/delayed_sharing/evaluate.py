"""Ground truth by primitive-path summation.

Nothing here goes through beliefs or information states: trajectories over
(initial state, observations, transitions) are enumerated directly with
their kernel probabilities, actions are read off the strategy under test,
and expectations or conditionals are exact sums.  This is the oracle the
solvers are checked against.  The seeded Monte Carlo estimate (simulate)
samples the same primitive randomness, one PCG64 stream per episode, and
runs the episodes stage by stage as arrays over blocks; it too reads the
strategy only through Design.act, never through solver tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import histories
from .errors import BudgetError, DomainError, OffDesignHistoryError
from .histories import Design, ExtensionalDesign
from .model import ProblemSpec, normalize_problem

DEFAULT_MAX_PATHS = 10_000_000
DEFAULT_ORACLE_BUDGET = 10_000_000


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


# Any strategy enters path enumeration through this shape:
# (controller, time, private rank, shared-history z ranks) -> action.
ActionFn = Callable[[int, int, int, tuple[int, ...]], int]


def _window_rank(spec: ProblemSpec, k: int, t: int, ys_k, us_k) -> int:
    """Rank of controller k's private window at time t, cut from its full
    observation and action sequences so far: histories.private_rank's mixed
    radix (observations major, then actions), without building the window."""
    lo = max(1, t - spec.n + 1)
    r = 0
    for y in ys_k[lo - 1: t]:
        r = r * spec.y_size[k] + y
    for u in us_k[lo - 1: t - 1]:
        r = r * spec.u_size[k] + u
    return r


def iter_paths(spec: ProblemSpec, action_fn: ActionFn, *,
               t_max: int | None = None, include_final_step: bool = True,
               max_paths: int = DEFAULT_MAX_PATHS) -> Iterator[PathRecord]:
    """Depth-first enumeration of every positive-probability trajectory
    prefix up to t_max (observations only at the last stage when
    include_final_step is false)."""
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
            u_stage = tuple(
                action_fn(k, t, _window_rank(spec, k, t, ys2[k], us[k]), delta)
                for k in range(spec.K)
            )
            us2 = tuple(us[k] + (u_stage[k],) for k in range(spec.K))
            zs2 = zs
            if t + spec.n <= spec.T:
                # this stage will be shared at time t+n, within horizon
                zs2 = zs + (histories.symbol_rank(
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


# ---------------------------------------------------------------------------
# Exact evaluation and simulation
# ---------------------------------------------------------------------------

def exact_cost(spec: ProblemSpec, design: Design, *,
               max_paths: int = DEFAULT_MAX_PATHS) -> EvalResult:
    """Exact expected total cost of a design by exhaustive forward summation
    over the joint support of all primitive randomness."""
    spec = normalize_problem(spec)
    per_stage = np.zeros(spec.T)
    for rec in iter_paths(spec, design.act, max_paths=max_paths):
        for t in range(1, spec.T + 1):
            a = spec.encode_action(tuple(rec.us[k][t - 1] for k in range(spec.K)))
            per_stage[t - 1] += rec.weight * float(spec.cost[t - 1][rec.xs[t], a])
    return EvalResult(float(per_stage.sum()), tuple(float(c) for c in per_stage))


def simulate(spec: ProblemSpec, design: Design, episodes: int, seed: int) -> SimResult:
    """Seeded Monte Carlo estimate of the expected cost.

    Episode i draws its uniforms from the PCG64 stream seeded with (seed, i):
    the initial state, then per stage each controller's observation and the
    transition.  Results are therefore reproducible and independent of how
    episodes are grouped: episodes run in blocks of at most _SIM_BLOCK, each
    stage as array operations over the block, and the design is asked once
    per distinct (controller, time, shared history, private rank) of a block
    through its act method, so any Design works.
    """
    spec = normalize_problem(spec)
    if episodes < 1:
        raise DomainError("episodes must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    cdfs = (np.cumsum(spec.x0_dist), np.cumsum(spec.trans, axis=-1),
            [np.cumsum(spec.obs[k], axis=-1) for k in range(spec.K)])
    totals = np.zeros(episodes)
    for lo in range(0, episodes, _SIM_BLOCK):
        hi = min(lo + _SIM_BLOCK, episodes)
        totals[lo:hi] = _simulate_block(spec, design, seed, range(lo, hi), *cdfs)
    mean = float(totals.mean())
    if episodes > 1:
        std_error = float(totals.std(ddof=1) / math.sqrt(episodes))
    else:
        std_error = 0.0
    return SimResult(episodes, mean, std_error, seed)


# Most episodes simulate holds at a time; its per-stage arrays are a few
# rows of this length, so memory stays flat in the episode count.
_SIM_BLOCK = 4096


def _draw(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the count of cdf entries <= u: searchsorted(side="right") on
    a nondecreasing row.  The clip guards the 1-ulp shortfall of a
    renormalized row's last entry."""
    return np.minimum((cdf_rows <= u[:, None]).sum(axis=1), cdf_rows.shape[1] - 1)


def _simulate_block(spec: ProblemSpec, design: Design, seed: int,
                    block: range, x0_cdf: np.ndarray, trans_cdf: np.ndarray,
                    obs_cdf: list[np.ndarray]) -> np.ndarray:
    """Total cost of each episode of the block.  Stage costs are added in
    stage order from 0.0, as a per-episode loop adds them."""
    K, T, n = spec.K, spec.T, spec.n
    size = len(block)
    draws = np.empty((size, 1 + T * (K + 1)))
    for row, i in enumerate(block):
        np.random.default_rng([seed, i]).random(out=draws[row])
    x = _draw(np.broadcast_to(x0_cdf, (size, len(x0_cdf))), draws[:, 0])
    ys = np.zeros((K, size, T), dtype=np.int64)
    us = np.zeros((K, size, T), dtype=np.int64)
    zs = np.zeros((size, max(0, T - n)), dtype=np.int64)
    radix = histories.common_obs_count(spec, n + 1) if T > n else 1
    # Dense id per episode of its shared history among the block's: equal
    # ids, equal histories.
    delta_id = np.zeros(size, dtype=np.int64)
    totals = np.zeros(size)
    for t in range(1, T + 1):
        col = 1 + (t - 1) * (K + 1)
        for k in range(K):
            ys[k, :, t - 1] = _draw(obs_cdf[k][t - 1, x], draws[:, col + k])
        length = max(0, t - n)
        if length:
            delta_id = np.unique(delta_id * radix + zs[:, length - 1],
                                 return_inverse=True)[1]
        lo = max(1, t - n + 1)
        a = np.zeros(size, dtype=np.int64)
        for k in range(K):
            lam = np.zeros(size, dtype=np.int64)
            for m in range(lo, t + 1):
                lam = lam * spec.y_size[k] + ys[k, :, m - 1]
            for m in range(lo, t):
                lam = lam * spec.u_size[k] + us[k, :, m - 1]
            count = histories.private_count(spec, k, t)
            _, first, inverse = np.unique(delta_id * count + lam,
                                          return_index=True, return_inverse=True)
            acted = np.array([
                design.act(k, t, int(lam[e]), tuple(int(z) for z in zs[e, :length]))
                for e in first.tolist()], dtype=np.int64)
            bad = (acted < 0) | (acted >= spec.u_size[k])
            if bad.any():
                raise DomainError(f"action {acted[bad][0]} out of range "
                                  f"for controller {k}")
            us[k, :, t - 1] = acted[inverse]
            a = a * spec.u_size[k] + us[k, :, t - 1]
        if t + n <= T:
            # symbol_rank: the observations' mixed radix, then the actions',
            # which is the joint action index
            z = np.zeros(size, dtype=np.int64)
            for k in range(K):
                z = z * spec.y_size[k] + ys[k, :, t - 1]
            zs[:, t - 1] = z * spec.action_count + a
        x = _draw(trans_cdf[t - 1, x, a], draws[:, col + K])
        totals += spec.cost[t - 1][x, a]
    return totals


# ---------------------------------------------------------------------------
# Brute-force design search
# ---------------------------------------------------------------------------

def design_count(spec: ProblemSpec) -> int:
    total = 1
    for t in range(1, spec.T + 1):
        for k in range(spec.K):
            entries = histories.private_count(spec, k, t) * histories.delta_count(spec, t)
            total *= spec.u_size[k] ** entries
    return total


def path_count_bound(spec: ProblemSpec) -> int:
    bound = spec.x_size ** (spec.T + 1)
    for k in range(spec.K):
        bound *= spec.y_size[k] ** spec.T
    return bound


def enumerate_designs(spec: ProblemSpec, *,
                      max_designs: int = DEFAULT_ORACLE_BUDGET) -> Iterator[ExtensionalDesign]:
    """Every extensionally-stored design exactly once.

    Enumeration order is mixed-radix over table entries, blocks ordered by
    (time, controller) with earlier blocks more significant; within a block,
    shared-history index major, private rank minor.
    """
    spec = normalize_problem(spec)
    total = design_count(spec)
    if total > max_designs:
        raise BudgetError(f"design space holds {total} designs (budget {max_designs})")
    blocks = []        # (k, t, rows, cols)
    for t in range(1, spec.T + 1):
        for k in range(spec.K):
            blocks.append((k, t, histories.delta_count(spec, t),
                           histories.private_count(spec, k, t)))
    axes = [range(spec.u_size[k]) for (k, t, rows, cols) in blocks
            for _ in range(rows * cols)]
    for digits in itertools.product(*axes):
        tables: list[list[np.ndarray | None]] = [
            [None] * spec.T for _ in range(spec.K)
        ]
        pos = 0
        for (k, t, rows, cols) in blocks:
            block = np.array(digits[pos: pos + rows * cols],
                             dtype=np.int64).reshape(rows, cols)
            tables[k][t - 1] = block
            pos += rows * cols
        yield ExtensionalDesign(spec, [list(per_k) for per_k in tables])


def brute_force_optimum(spec: ProblemSpec, *,
                        max_designs: int = DEFAULT_ORACLE_BUDGET,
                        budget: int = DEFAULT_ORACLE_BUDGET
                        ) -> tuple[float, ExtensionalDesign]:
    """Exhaustive minimum of exact_cost over every design; ties go to the
    earlier design in enumeration order.  Refused (BudgetError) before any
    design is evaluated when the designs exceed max_designs or designs x
    path_count_bound exceeds budget, the number of path evaluations."""
    spec = normalize_problem(spec)
    n_designs = design_count(spec)
    if n_designs > max_designs:
        raise BudgetError(
            f"design space holds {n_designs} designs (budget {max_designs})")
    work = n_designs * path_count_bound(spec)
    if work > budget:
        raise BudgetError(
            f"oracle needs {n_designs} designs x {path_count_bound(spec)} "
            f"paths = {work} evaluations (budget {budget})")
    best: float | None = None
    best_design: ExtensionalDesign | None = None
    for design in enumerate_designs(spec, max_designs=max_designs):
        value = exact_cost(spec, design).expected_cost
        if best is None or value < best:
            best = value
            best_design = design
    return best, best_design


def materialize_design(spec: ProblemSpec, design: Design, *,
                       max_entries: int = 1_000_000) -> ExtensionalDesign:
    """Tabulate any design over the full (shared history, private rank)
    product domain.  Histories the design rejects (off-policy for a replayed
    strategy) get action 0; they never occur under the design itself, so the
    tabulated copy is cost-identical.  A rejection is a verdict on (t, delta)
    alone, so the first one ends its row."""
    spec = normalize_problem(spec)
    total = sum(histories.delta_count(spec, t) * histories.private_count(spec, k, t)
                for k in range(spec.K) for t in range(1, spec.T + 1))
    if total > max_entries:
        raise BudgetError(f"design table needs {total} entries (budget {max_entries})")
    radix = histories.common_obs_count(spec, spec.n + 1) if spec.T > spec.n else 1
    tables: list[list[np.ndarray]] = []
    for k in range(spec.K):
        per_k = []
        for t in range(1, spec.T + 1):
            rows = histories.delta_count(spec, t)
            cols = histories.private_count(spec, k, t)
            tab = np.zeros((rows, cols), dtype=np.int64)
            length = histories.delta_length(spec, t)
            for row in range(rows):
                digits = []
                rest = row
                for _ in range(length):
                    digits.append(rest % radix)
                    rest //= radix
                delta = tuple(reversed(digits))
                for lam in range(cols):
                    try:
                        tab[row, lam] = design.act(k, t, lam, delta)
                    except OffDesignHistoryError:
                        break
            per_k.append(tab)
        tables.append(per_k)
    return ExtensionalDesign(spec, tables)


# ---------------------------------------------------------------------------
# Conditional oracles over shared histories
# ---------------------------------------------------------------------------

def conditional_state_dists(spec: ProblemSpec, action_fn: ActionFn, t: int,
                            *, max_paths: int = DEFAULT_MAX_PATHS
                            ) -> dict[tuple[int, ...], tuple[float, np.ndarray]]:
    """Per positive-probability shared history at time t: its probability and
    the exact conditional over joint-state ranks, straight from path sums."""
    spec = normalize_problem(spec)
    counts = [histories.private_count(spec, k, t) for k in range(spec.K)]
    size = spec.x_size * math.prod(counts)
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for rec in iter_paths(spec, action_fn, t_max=t, include_final_step=False,
                          max_paths=max_paths):
        delta = rec.zs[: max(0, t - spec.n)]
        # joint-state rank: mixed radix over (x, private windows), x major
        s = rec.xs[t - 1]
        for k in range(spec.K):
            s = s * counts[k] + _window_rank(spec, k, t, rec.ys[k], rec.us[k])
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(size)
        vec[s] += rec.weight
    return {
        delta: (float(vec.sum()), vec / vec.sum())
        for delta, vec in acc.items()
    }


def conditional_x_dists(spec: ProblemSpec, action_fn: ActionFn, t: int,
                        lag: int, *, max_paths: int = DEFAULT_MAX_PATHS
                        ) -> dict[tuple[int, ...], np.ndarray]:
    """P(X_{t-lag} | shared history at t) for every reachable history
    (X at the clipped time max(0, t-lag))."""
    spec = normalize_problem(spec)
    when = max(0, t - lag)
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for rec in iter_paths(spec, action_fn, t_max=t, include_final_step=False,
                          max_paths=max_paths):
        delta = rec.zs[: max(0, t - spec.n)]
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(spec.x_size)
        vec[rec.xs[when]] += rec.weight
    return {delta: vec / vec.sum() for delta, vec in acc.items()}


def conditional_stage_costs(spec: ProblemSpec, action_fn: ActionFn, t: int,
                            *, max_paths: int = DEFAULT_MAX_PATHS
                            ) -> dict[tuple[int, ...], float]:
    """E[stage cost at t | shared history at t] for every reachable history."""
    spec = normalize_problem(spec)
    num: dict[tuple[int, ...], float] = {}
    den: dict[tuple[int, ...], float] = {}
    for rec in iter_paths(spec, action_fn, t_max=t, max_paths=max_paths):
        delta = rec.zs[: max(0, t - spec.n)]
        a = spec.encode_action(tuple(rec.us[k][t - 1] for k in range(spec.K)))
        num[delta] = num.get(delta, 0.0) + rec.weight * float(spec.cost[t - 1][rec.xs[t], a])
        den[delta] = den.get(delta, 0.0) + rec.weight
    return {delta: num[delta] / den[delta] for delta in num}


def conditional_phi(spec: ProblemSpec, action_fn: ActionFn, t: int,
                    *, max_paths: int = DEFAULT_MAX_PATHS
                    ) -> dict[tuple[int, ...], np.ndarray]:
    """P(X_{t-2}, joint action at t-1 | shared history at t), flattened with
    the state index major; defined for t >= 2."""
    spec = normalize_problem(spec)
    if t < 2:
        raise DomainError("the two-step-back statistic needs t >= 2")
    A = spec.action_count
    acc: dict[tuple[int, ...], np.ndarray] = {}
    for rec in iter_paths(spec, action_fn, t_max=t - 1, max_paths=max_paths):
        delta = rec.zs[: max(0, t - spec.n)]
        a = spec.encode_action(tuple(rec.us[k][t - 2] for k in range(spec.K)))
        vec = acc.get(delta)
        if vec is None:
            vec = acc[delta] = np.zeros(spec.x_size * A)
        vec[rec.xs[t - 2] * A + a] += rec.weight
    return {delta: vec / vec.sum() for delta, vec in acc.items()}
