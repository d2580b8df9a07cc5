"""Realization spaces and enumeration for private data, shared data, and
prescription profiles.

Everything here is indexed by dense integer ranks so that solver inner loops
are table lookups.  Enumeration order is fixed once: lexicographic with
earlier time steps and smaller controller indices more significant, so ranks
are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

import numpy as np

from .errors import DomainError
from .model import JointAction, ProblemSpec, window


# ---------------------------------------------------------------------------
# Private information
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrivateInfo:
    """One realization of controller k's private window at time t."""

    k: int
    t: int
    y_seq: tuple[int, ...]
    u_seq: tuple[int, ...]


def private_sizes(spec: ProblemSpec, k: int, t: int) -> tuple[int, int]:
    """(#observations, #own actions) in the private window at time t."""
    win = window(spec, t)
    return len(win.obs_range), len(win.act_range)


def private_count(spec: ProblemSpec, k: int, t: int) -> int:
    ny, nu = private_sizes(spec, k, t)
    return spec.y_size[k] ** ny * spec.u_size[k] ** nu


def private_space(spec: ProblemSpec, k: int, t: int) -> list[PrivateInfo]:
    """All realizations, rank order: y entries major, then u entries."""
    ny, nu = private_sizes(spec, k, t)
    axes = [range(spec.y_size[k])] * ny + [range(spec.u_size[k])] * nu
    return [
        PrivateInfo(k, t, combo[:ny], combo[ny:])
        for combo in itertools.product(*axes)
    ]


def private_rank(spec: ProblemSpec, info: PrivateInfo) -> int:
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


def private_unrank(spec: ProblemSpec, k: int, t: int, rank: int) -> PrivateInfo:
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


# ---------------------------------------------------------------------------
# Common observations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommonObs:
    """The data newly shared at time t: observations and actions from t-n.

    Null (y and u are None) exactly when t <= n, before anything has aged out
    of the private windows.
    """

    t: int
    y: tuple[int, ...] | None
    u: tuple[int, ...] | None

    @property
    def is_null(self) -> bool:
        return self.y is None


def common_obs_count(spec: ProblemSpec, t: int) -> int:
    if not 2 <= t <= spec.T:
        raise DomainError(f"common observation time {t} outside [2, {spec.T}]")
    if t <= spec.n:
        return 1
    c = 1
    for k in range(spec.K):
        c *= spec.y_size[k] * spec.u_size[k]
    return c


def common_obs_space(spec: ProblemSpec, t: int) -> list[CommonObs]:
    """All shared-data symbols at time t; the null singleton while t <= n.

    Rank order: (y^1, .., y^K, u^1, .., u^K) with y^1 most significant.
    """
    if not 2 <= t <= spec.T:
        raise DomainError(f"common observation time {t} outside [2, {spec.T}]")
    if t <= spec.n:
        return [CommonObs(t, None, None)]
    axes = [range(spec.y_size[k]) for k in range(spec.K)]
    axes += [range(spec.u_size[k]) for k in range(spec.K)]
    return [
        CommonObs(t, combo[: spec.K], combo[spec.K:])
        for combo in itertools.product(*axes)
    ]


def symbol_rank(spec: ProblemSpec, y: tuple[int, ...], u: tuple[int, ...]) -> int:
    """Rank of the non-null shared symbol carrying one stage's observations y
    and actions u, in common_obs_space order."""
    r = 0
    for k in range(spec.K):
        r = r * spec.y_size[k] + y[k]
    for k in range(spec.K):
        r = r * spec.u_size[k] + u[k]
    return r


def common_obs_rank(spec: ProblemSpec, z: CommonObs) -> int:
    return 0 if z.is_null else symbol_rank(spec, z.y, z.u)


# ---------------------------------------------------------------------------
# Prescriptions (partial functions private info -> action) and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartialFunction:
    """A prescription for controller k at time t: a total table mapping the
    rank of each private realization to an action."""

    k: int
    t: int
    table: tuple[int, ...]


@dataclass(frozen=True)
class GammaProfile:
    """A joint choice of prescriptions, one per controller, at one time."""

    t: int
    gammas: tuple[PartialFunction, ...]


def pf_count(spec: ProblemSpec, k: int, t: int) -> int:
    return spec.u_size[k] ** private_count(spec, k, t)


def pf_rank(spec: ProblemSpec, pf: PartialFunction) -> int:
    r = 0
    for entry in pf.table:
        r = r * spec.u_size[pf.k] + entry
    return r


def pf_unrank(spec: ProblemSpec, k: int, t: int, rank: int) -> PartialFunction:
    size = private_count(spec, k, t)
    digits = []
    for _ in range(size):
        digits.append(rank % spec.u_size[k])
        rank //= spec.u_size[k]
    if rank:
        raise DomainError("prescription rank out of range")
    return PartialFunction(k, t, tuple(reversed(digits)))


def profile_count(spec: ProblemSpec, t: int) -> int:
    c = 1
    for k in range(spec.K):
        c *= pf_count(spec, k, t)
    return c


def profile_rank(spec: ProblemSpec, profile: GammaProfile) -> int:
    r = 0
    for k in range(spec.K):
        r = r * pf_count(spec, k, profile.t) + pf_rank(spec, profile.gammas[k])
    return r


def profile_unrank(spec: ProblemSpec, t: int, rank: int) -> GammaProfile:
    parts: list[PartialFunction] = []
    for k in reversed(range(spec.K)):
        c = pf_count(spec, k, t)
        parts.append(pf_unrank(spec, k, t, rank % c))
        rank //= c
    if rank:
        raise DomainError("profile rank out of range")
    return GammaProfile(t, tuple(reversed(parts)))


def gamma_profiles(spec: ProblemSpec, t: int) -> Iterator[GammaProfile]:
    """Every joint prescription profile exactly once, in rank order.

    The count is exponential in the private-space sizes; callers guard it
    with profile_count before iterating.
    """
    sizes = [private_count(spec, k, t) for k in range(spec.K)]
    table_spaces = [
        itertools.product(range(spec.u_size[k]), repeat=sizes[k])
        for k in range(spec.K)
    ]
    for tables in itertools.product(*table_spaces):
        yield GammaProfile(t, tuple(
            PartialFunction(k, t, tables[k]) for k in range(spec.K)
        ))


def apply_profile(spec: ProblemSpec, profile: GammaProfile,
                  lam_ranks: tuple[int, ...]) -> JointAction:
    """Evaluate every controller's prescription at its private rank."""
    u = []
    for k in range(spec.K):
        table = profile.gammas[k].table
        rank = lam_ranks[k]
        if not 0 <= rank < len(table):
            raise DomainError(f"private rank {rank} out of range for controller {k}")
        u.append(table[rank])
    u = tuple(u)
    return JointAction(u=u, index=spec.encode_action(u))


# ---------------------------------------------------------------------------
# Shared-history ranks
# ---------------------------------------------------------------------------
#
# A shared history at time t is the tuple of non-null shared symbols
# (z_{n+1}, ..., z_t); its rank treats earlier stages as more significant.

def delta_length(spec: ProblemSpec, t: int) -> int:
    return max(0, t - spec.n)


def delta_count(spec: ProblemSpec, t: int) -> int:
    if delta_length(spec, t) == 0:
        return 1
    return common_obs_count(spec, spec.n + 1) ** delta_length(spec, t)


def delta_rank(spec: ProblemSpec, t: int, z_ranks: tuple[int, ...]) -> int:
    if len(z_ranks) != delta_length(spec, t):
        raise DomainError(f"shared history length {len(z_ranks)} != {delta_length(spec, t)}")
    if not z_ranks:
        return 0
    radix = common_obs_count(spec, spec.n + 1)
    r = 0
    for z in z_ranks:
        r = r * radix + z
    return r


# ---------------------------------------------------------------------------
# Designs and coordinator policies
# ---------------------------------------------------------------------------

class Design(Protocol):
    """A complete control strategy: per controller and time, an action as a
    function of the private rank and the shared history (tuple of non-null
    shared-symbol ranks)."""

    def act(self, k: int, t: int, lam_rank: int, delta: tuple[int, ...]) -> int: ...


@dataclass
class ExtensionalDesign:
    """A design stored as explicit tables, one per (controller, time).

    tables[k][t-1] has shape (#shared histories at t, #private realizations);
    used by the brute-force oracle and for on-disk designs.  Tables cover the
    full product space of shared histories, including zero-probability ones.
    """

    spec: ProblemSpec
    tables: list[list[np.ndarray]]

    def act(self, k: int, t: int, lam_rank: int, delta: tuple[int, ...]) -> int:
        return int(self.tables[k][t - 1][delta_rank(self.spec, t, delta), lam_rank])

    def to_json(self) -> dict:
        return {
            "kind": "extensional",
            "K": self.spec.K,
            "T": self.spec.T,
            "n": self.spec.n,
            "tables": [[tab.tolist() for tab in per_k] for per_k in self.tables],
        }

    @classmethod
    def from_json(cls, spec: ProblemSpec, data: dict) -> "ExtensionalDesign":
        if data.get("kind") != "extensional":
            raise DomainError(f"unknown design kind {data.get('kind')!r}")
        for key in ("K", "T", "n"):
            if data.get(key) != getattr(spec, key):
                raise DomainError(f"design {key}={data.get(key)} does not match problem {getattr(spec, key)}")
        tables = [
            [np.asarray(tab, dtype=np.int64) for tab in per_k]
            for per_k in data["tables"]
        ]
        for k in range(spec.K):
            for t in range(1, spec.T + 1):
                expect = (delta_count(spec, t), private_count(spec, k, t))
                if tables[k][t - 1].shape != expect:
                    raise DomainError(f"design table [{k}][{t}] has shape "
                                      f"{tables[k][t - 1].shape}, expected {expect}")
        return cls(spec, tables)


def constant_design(spec: ProblemSpec, action: int = 0) -> ExtensionalDesign:
    """A design that plays a fixed per-controller action everywhere."""
    tables = []
    for k in range(spec.K):
        a = min(action, spec.u_size[k] - 1)
        tables.append([
            np.full((delta_count(spec, t), private_count(spec, k, t)), a, dtype=np.int64)
            for t in range(1, spec.T + 1)
        ])
    return ExtensionalDesign(spec, tables)


def random_design(spec: ProblemSpec, seed: int) -> ExtensionalDesign:
    """A seeded uniformly random extensional design (deterministic per seed)."""
    rng = np.random.default_rng(seed)
    tables = []
    for k in range(spec.K):
        tables.append([
            rng.integers(0, spec.u_size[k],
                         size=(delta_count(spec, t), private_count(spec, k, t)),
                         dtype=np.int64)
            for t in range(1, spec.T + 1)
        ])
    return ExtensionalDesign(spec, tables)


@dataclass
class CoordinatorPolicy:
    """A solved coordinator decision rule: per time, a profile rank for every
    reachable node of the information-state graph it was solved on."""

    kind: str                                  # "belief" or "theta_r"
    assignments: dict[int, dict[int, int]]     # t -> node id -> profile rank
    graph: Any = field(repr=False, default=None)

    def profile_rank(self, t: int, node_id: int) -> int:
        return self.assignments[t][node_id]
