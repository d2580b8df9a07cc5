"""Finite problem instances for n-step delayed-sharing stochastic control.

A problem instance is a plant with state space of size ``x_size``, K
controllers with per-controller observation and action alphabets, a horizon
of T decision times, and a sharing delay n >= 1.  Everything is specified in
kernel form:

* ``trans[t][x][a]`` is the distribution of the next state given the previous
  state ``x`` and the flattened joint action ``a`` (stage t = 1..T),
* ``obs[k][t][x]`` is the distribution of controller k's observation at stage
  t given the *previous* state ``x``,
* ``cost[t][x][a]`` is the stage cost of landing in state ``x`` (the
  post-transition state) under joint action ``a``.

Timing conventions, fixed here once and relied on everywhere else:

* Observations at stage t are drawn from the state at t-1, not t.
* The stage-t cost applies to the post-transition state X_t.
* At time t a controller privately holds its observations from the window
  ``max(1, t-n+1) .. t`` and its own actions from ``max(1, t-n+1) .. t-1``;
  data older than that has already been shared with everyone.

File format (UTF-8 JSON), with time index t=1 stored at array index 0::

    {
      "K": 2, "T": 2, "n": 1,
      "x_size": 2, "y_size": [2, 2], "u_size": [2, 2],
      "x0_dist": [..x_size..],
      "trans":   [T][x_size][A][x_size],   # A = prod(u_size)
      "obs":     [K][T][x_size][y_size[k]],
      "cost":    [T][x_size][A]
    }

The flattened joint-action index is row-major over controllers with
controller 0 as the most significant digit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, InvalidProblemError, ParseError, SchemaError

# Tolerance on probability-row sums in input files.  Rows passing validation
# are renormalized exactly once so that downstream identities hold at 1e-12.
PROB_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A finite delayed-sharing control problem.

    Arrays are read-only after construction; all operations on a spec are
    pure, so instances are safe to share between threads.
    """

    K: int
    T: int
    n: int
    x_size: int
    y_size: tuple[int, ...]
    u_size: tuple[int, ...]
    x0_dist: np.ndarray                # (x_size,)
    trans: np.ndarray                  # (T, x_size, A, x_size)
    obs: tuple[np.ndarray, ...]        # per k: (T, x_size, y_size[k])
    cost: np.ndarray                   # (T, x_size, A)
    renormalized: bool = False

    def __post_init__(self):
        self.x0_dist.flags.writeable = False
        self.trans.flags.writeable = False
        self.cost.flags.writeable = False
        for o in self.obs:
            o.flags.writeable = False

    @property
    def action_count(self) -> int:
        return math.prod(self.u_size)

    def encode_action(self, u: Iterable[int]) -> int:
        a = 0
        for k, (uk, size) in enumerate(zip(u, self.u_size)):
            if not 0 <= uk < size:
                raise DomainError(f"action {uk} out of range for controller {k}")
            a = a * size + uk
        return a


@dataclass(frozen=True)
class Violation:
    """One validation failure: array path, offending value, description."""

    path: str
    value: float
    message: str


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _field(data: dict, name: str):
    if name not in data:
        raise SchemaError(f"missing field: {name}")
    return data[name]


def _is_count(v) -> bool:
    """A JSON integer >= 1.  JSON booleans load as bool, a subclass of int,
    so they are rejected explicitly."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def load_problem(text: str) -> ProblemSpec:
    """Parse a problem file; fields mirror the file exactly (no renormalizing).

    Raises ParseError on malformed JSON (with line/column), SchemaError when a
    field is missing or an array extent disagrees with the declared sizes.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed problem file: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    _require(isinstance(data, dict), "top level must be a JSON object")

    K = _field(data, "K")
    T = _field(data, "T")
    n = _field(data, "n")
    x_size = _field(data, "x_size")
    for name, v in (("K", K), ("T", T), ("n", n), ("x_size", x_size)):
        _require(_is_count(v), f"{name} must be an integer >= 1")

    y_size = _field(data, "y_size")
    u_size = _field(data, "u_size")
    for name, v in (("y_size", y_size), ("u_size", u_size)):
        _require(isinstance(v, list) and len(v) == K, f"{name} must be an array of length K={K}")
        _require(all(_is_count(s) for s in v), f"{name} entries must be integers >= 1")
    A = math.prod(u_size)

    def _array(name, shape):
        raw = _field(data, name)
        try:
            arr = np.asarray(raw, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{name} is not a numeric array: {exc}") from exc
        _require(arr.shape == shape, f"{name} has shape {arr.shape}, expected {shape}")
        return arr

    x0 = _array("x0_dist", (x_size,))
    trans = _array("trans", (T, x_size, A, x_size))
    cost = _array("cost", (T, x_size, A))

    obs_raw = _field(data, "obs")
    _require(isinstance(obs_raw, list) and len(obs_raw) == K, f"obs must be an array of length K={K}")
    obs = []
    for k in range(K):
        try:
            arr = np.asarray(obs_raw[k], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"obs[{k}] is not a numeric array: {exc}") from exc
        _require(
            arr.shape == (T, x_size, y_size[k]),
            f"obs[{k}] has shape {arr.shape}, expected {(T, x_size, y_size[k])}",
        )
        obs.append(arr)

    return ProblemSpec(
        K=K, T=T, n=n, x_size=x_size,
        y_size=tuple(y_size), u_size=tuple(u_size),
        x0_dist=x0, trans=trans, obs=tuple(obs), cost=cost,
    )


def serialize_problem(spec: ProblemSpec) -> str:
    """Inverse of load_problem up to JSON formatting; field-exact round trip."""
    data = {
        "K": spec.K,
        "T": spec.T,
        "n": spec.n,
        "x_size": spec.x_size,
        "y_size": list(spec.y_size),
        "u_size": list(spec.u_size),
        "x0_dist": spec.x0_dist.tolist(),
        "trans": spec.trans.tolist(),
        "obs": [o.tolist() for o in spec.obs],
        "cost": spec.cost.tolist(),
    }
    return json.dumps(data, indent=1)


def _check_dist(report: list[Violation], vec: np.ndarray, path: str):
    for i, p in enumerate(vec):
        if p < 0:
            report.append(Violation(f"{path}[{i}]", float(p), f"negative probability {p!r}"))
    s = float(vec.sum())
    if not np.isfinite(s) or abs(s - 1.0) > PROB_TOL:
        report.append(Violation(path, s, f"row sums to {s!r}, expected 1 within {PROB_TOL:g}"))


def validate_problem(spec: ProblemSpec) -> list[Violation]:
    """Check every ProblemSpec invariant; one report entry per violation."""
    report: list[Violation] = []
    if spec.n < 1:
        report.append(Violation("n", spec.n, "sharing delay must be >= 1"))
    if spec.T < 1:
        report.append(Violation("T", spec.T, "horizon must be >= 1"))
    _check_dist(report, spec.x0_dist, "x0_dist")
    for t in range(spec.T):
        for x in range(spec.x_size):
            for a in range(spec.action_count):
                _check_dist(report, spec.trans[t, x, a], f"trans[{t}][{x}][{a}]")
    for k in range(spec.K):
        for t in range(spec.T):
            for x in range(spec.x_size):
                _check_dist(report, spec.obs[k][t, x], f"obs[{k}][{t}][{x}]")
    if not np.isfinite(spec.cost).all():
        bad = np.argwhere(~np.isfinite(spec.cost))[0]
        report.append(Violation(f"cost[{bad[0]}][{bad[1]}][{bad[2]}]",
                                float(spec.cost[tuple(bad)]), "cost must be finite"))
    return report


def normalize_problem(spec: ProblemSpec) -> ProblemSpec:
    """Validate and renormalize probability rows exactly once.

    Solvers call this on entry; all belief identities downstream are then
    meaningful at 1e-12 because the kernels they consume are treated as exact.
    Idempotent: an already renormalized spec is returned unchanged.
    """
    if spec.renormalized:
        return spec
    violations = validate_problem(spec)
    if violations:
        raise InvalidProblemError(violations)

    def _norm_rows(arr):
        out = np.array(arr, dtype=np.float64)
        flat = out.reshape(-1, out.shape[-1])
        flat /= flat.sum(axis=1, keepdims=True)
        return out

    return ProblemSpec(
        K=spec.K, T=spec.T, n=spec.n, x_size=spec.x_size,
        y_size=spec.y_size, u_size=spec.u_size,
        x0_dist=np.array(spec.x0_dist) / spec.x0_dist.sum(),
        trans=_norm_rows(spec.trans),
        obs=tuple(_norm_rows(o) for o in spec.obs),
        cost=np.array(spec.cost),
        renormalized=True,
    )
