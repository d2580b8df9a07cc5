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
from .model import ProblemSpec


# ---------------------------------------------------------------------------
# Private information
# ---------------------------------------------------------------------------

def private_sizes(spec: ProblemSpec, k: int, t: int) -> tuple[int, int]:
    """(#observations, #own actions) in the private window at time t: the
    observations of stages max(1, t-n+1)..t and the own actions of stages
    max(1, t-n+1)..t-1, min(t, n) of them and one fewer."""
    if not 1 <= t <= spec.T:
        raise DomainError(f"t={t} outside horizon [1, {spec.T}]")
    return min(t, spec.n), min(t, spec.n) - 1


def private_count(spec: ProblemSpec, k: int, t: int) -> int:
    ny, nu = private_sizes(spec, k, t)
    return spec.y_size[k] ** ny * spec.u_size[k] ** nu


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
        if not 0 <= z < radix:
            raise DomainError(f"shared symbol rank {z} outside [0, {radix})")
        r = r * radix + z
    return r


# ---------------------------------------------------------------------------
# Designs and coordinator policies
# ---------------------------------------------------------------------------

class Design(Protocol):
    """A complete control strategy: per controller and time, an action as a
    function of the private rank and the shared history (tuple of non-null
    shared-symbol ranks).

    act may raise OffDesignHistoryError for a shared history the design never
    produces.  That is a verdict on (t, delta) alone: if act raises it for
    one (k, lam_rank) at (t, delta), it raises it for every other.

    A design may also give its whole stage tables at once with a
    stage_tables() method: fresh int64 arrays, tables[k][t-1] of shape
    (#shared histories at t, #private realizations) indexed as
    ExtensionalDesign's, holding act's answer at every entry and action 0
    on every shared history act rejects.  evaluate.materialize_design reads
    them instead of asking act entry by entry; act is the protocol, and a
    design that defines only act is tabulated through it."""

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
        spec = self.spec
        if not (1 <= t <= spec.T and 0 <= k < spec.K
                and 0 <= lam_rank < private_count(spec, k, t)):
            raise DomainError(f"(k={k}, t={t}, private rank {lam_rank}) outside "
                              f"the design's tables")
        return int(self.tables[k][t - 1][delta_rank(spec, t, delta), lam_rank])

    def stage_tables(self) -> list[list[np.ndarray]]:
        """Fresh int64 copies of the tables (Design.stage_tables)."""
        return [[np.array(tab, dtype=np.int64) for tab in per_k]
                for per_k in self.tables]

    def to_json(self) -> dict:
        return {
            "kind": "extensional",
            "K": self.spec.K,
            "T": self.spec.T,
            "n": self.spec.n,
            "tables": [[tab.tolist() for tab in per_k] for per_k in self.tables],
        }

    @classmethod
    def from_json(cls, spec: ProblemSpec, data) -> "ExtensionalDesign":
        """Read a design from its JSON form (to_json).  Any other input, an
        entry that is not an integer action in [0, u_k) too, raises DomainError."""
        if not isinstance(data, dict):
            raise DomainError("design must be a JSON object")
        if data.get("kind") != "extensional":
            raise DomainError(f"unknown design kind {data.get('kind')!r}")
        for key in ("K", "T", "n"):
            value = data.get(key)
            if type(value) is not int or value != getattr(spec, key):
                raise DomainError(f"design {key}={value} does not match problem {getattr(spec, key)}")
        raw = data.get("tables")
        if not (isinstance(raw, list) and len(raw) == spec.K and all(
                isinstance(per_k, list) and len(per_k) == spec.T for per_k in raw)):
            raise DomainError(f"design tables must be {spec.K} lists of {spec.T} tables")
        for k, t in itertools.product(range(spec.K), range(1, spec.T + 1)):
            tab, u = raw[k][t - 1], spec.u_size[k]
            rows, cols = delta_count(spec, t), private_count(spec, k, t)
            if not (isinstance(tab, list) and len(tab) == rows and all(
                    isinstance(row, list) and len(row) == cols
                    and all(type(a) is int and 0 <= a < u for a in row) for row in tab)):
                raise DomainError(f"design table [{k}][{t}] is not a {rows} x {cols} "
                                  f"table of integer actions in [0, {u})")
        return cls(spec, [[np.array(tab, dtype=np.int64) for tab in per_k]
                          for per_k in raw])


def constant_design(spec: ProblemSpec) -> ExtensionalDesign:
    """A design that plays action 0 everywhere."""
    return ExtensionalDesign(spec, [
        [np.zeros((delta_count(spec, t), private_count(spec, k, t)), dtype=np.int64)
         for t in range(1, spec.T + 1)]
        for k in range(spec.K)])


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
    reachable node of the information-state graph it was solved on, whose
    kind names the form."""

    assignments: dict[int, dict[int, int]]     # t -> node id -> profile rank
    graph: Any = field(repr=False)

    def profile_rank(self, t: int, node_id: int) -> int:
        return self.assignments[t][node_id]
