"""Second information state: the strategy-independent belief over the
delayed plant state, paired with each controller's partially-applied recent
prescriptions.

The pair (Theta, r) carries exactly what the shared data plus the last n-1
prescriptions determine: Theta is the belief over the plant state from n
steps back given shared data only; r holds, per controller, the suffix of
past prescriptions with their already-shared arguments substituted in.  The
map back to the belief-form information state is a forward reconstruction
(h_map), which makes the second dynamic program equivalent to the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import histories, minimize
from ._tables import tables
from .errors import DomainError, UnreachableObservationError
from .coordinator import (DEFAULT_MAX_NODES, ExtractedDesign, InfoGraph,
                          PiBelief, ValueTable, build_graph, quantize_key,
                          solve_on_graph, support_visibility)
from .histories import CommonObs, CoordinatorPolicy, PartialFunction
from .model import ProblemSpec, normalize_problem


@dataclass(frozen=True, eq=False)
class Theta:
    """Belief over the plant state from n steps back (over the initial state
    while nothing has been shared yet)."""

    t: int
    p: np.ndarray

    def __post_init__(self):
        self.p.flags.writeable = False


@dataclass(frozen=True)
class RSuffix:
    """Controller k's partially-applied prescription suffix at time t.

    parts[i] is the table of the prescription issued at time m = lo+i
    (lo = max(1, t-n+1)) with all already-shared arguments substituted; it
    maps the rank of (y_{lo:m}, u_{lo:m-1}) to an action.  Empty under
    delay 1.
    """

    k: int
    t: int
    parts: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ThetaRState:
    theta: Theta
    r: tuple[RSuffix, ...]

    @property
    def t(self) -> int:
        return self.theta.t


def state_key(state: ThetaRState) -> tuple:
    return (state.t, quantize_key(state.theta.p),
            tuple(rs.parts for rs in state.r))


def initial_state(spec: ProblemSpec) -> ThetaRState:
    spec = normalize_problem(spec)
    return ThetaRState(
        Theta(1, np.array(spec.x0_dist)),
        tuple(RSuffix(k, 1, ()) for k in range(spec.K)),
    )


# ---------------------------------------------------------------------------
# Part-domain bookkeeping
# ---------------------------------------------------------------------------

def part_window(spec: ProblemSpec, t: int, m: int) -> tuple[int, int]:
    """(#y, #u) in the domain of the part issued at m, held at time t."""
    lo = max(1, t - spec.n + 1)
    if not lo <= m <= t - 1:
        raise DomainError(f"part time {m} outside [{lo}, {t - 1}]")
    return m - lo + 1, m - lo


def part_domain_count(spec: ProblemSpec, k: int, t: int, m: int) -> int:
    ny, nu = part_window(spec, t, m)
    return spec.y_size[k] ** ny * spec.u_size[k] ** nu


def _domain_rank(spec: ProblemSpec, k: int, ys, us) -> int:
    r = 0
    for y in ys:
        r = r * spec.y_size[k] + y
    for u in us:
        r = r * spec.u_size[k] + u
    return r


def _curry_table(spec: ProblemSpec, k: int, table: tuple[int, ...],
                 ny: int, nu: int, y_fix: int, u_fix: int) -> tuple[int, ...]:
    """Substitute the earliest observation and the earliest action of a part
    domain, leaving a table over the remaining window."""
    out = []
    for ys in itertools.product(range(spec.y_size[k]), repeat=ny - 1):
        for us in itertools.product(range(spec.u_size[k]), repeat=nu - 1):
            out.append(table[_domain_rank(spec, k, (y_fix,) + ys, (u_fix,) + us)])
    return tuple(out)


# ---------------------------------------------------------------------------
# Updates
# ---------------------------------------------------------------------------

def theta_update(spec: ProblemSpec, theta: Theta, z: CommonObs) -> Theta:
    """Advance the delayed-state belief by one newly shared symbol.

    Posterior step uses the observation likelihoods only: the shared actions
    are deterministic given the shared data and the design in force, so their
    likelihood cancels and is never multiplied in.  Prediction then pushes
    through the transition kernel under the shared joint action.
    """
    spec = normalize_problem(spec)
    t = theta.t
    if t + 1 <= spec.n:
        if not z.is_null:
            raise DomainError(f"expected the null symbol at time {t + 1}")
        return Theta(t + 1, np.array(theta.p))
    if z.is_null:
        raise DomainError(f"expected a concrete shared symbol at time {t + 1}")
    m = t + 1 - spec.n
    post = np.array(theta.p)
    for k in range(spec.K):
        post *= spec.obs[k][m - 1][:, z.y[k]]
    norm = float(post.sum())
    if norm <= 0.0:
        raise UnreachableObservationError(
            f"shared observations at stage {m} have probability zero")
    post /= norm
    a = spec.encode_action(z.u)
    return Theta(t + 1, post @ spec.trans[m - 1][:, a, :])


def r_update(spec: ProblemSpec, rs: RSuffix, gamma: PartialFunction,
             z: CommonObs) -> RSuffix:
    """Advance one controller's prescription suffix.

    The oldest part ages out entirely, surviving parts get the newly shared
    (observation, action) substituted into their earliest slots, and the
    prescription just used enters as the newest part (unsubstituted while
    nothing has been shared yet).  Empty under delay 1.
    """
    spec = normalize_problem(spec)
    k, t = rs.k, rs.t
    if gamma.k != k or gamma.t != t:
        raise DomainError("prescription does not match the suffix controller/time")
    if spec.n == 1:
        return RSuffix(k, t + 1, ())
    lo_t = max(1, t - spec.n + 1)
    lo_t1 = max(1, t + 2 - spec.n)
    if z.is_null:
        # t+1 <= n: domains do not shrink; append the raw prescription.
        return RSuffix(k, t + 1, rs.parts + (gamma.table,))
    y_fix, u_fix = z.y[k], z.u[k]
    new_parts = []
    for m in range(lo_t1, t):
        ny, nu = part_window(spec, t, m)
        table = rs.parts[m - lo_t]
        if len(table) != spec.y_size[k] ** ny * spec.u_size[k] ** nu:
            raise DomainError(f"part at m={m} has arity {len(table)}, "
                              f"expected window ({ny},{nu})")
        new_parts.append(_curry_table(spec, k, table, ny, nu, y_fix, u_fix))
    ny, nu = histories.private_sizes(spec, k, t)
    new_parts.append(_curry_table(spec, k, gamma.table, ny, nu, y_fix, u_fix))
    return RSuffix(k, t + 1, tuple(new_parts))


def h_map(spec: ProblemSpec, state: ThetaRState) -> PiBelief:
    """Reconstruct the belief-form information state from (Theta, r) by
    exhaustive forward summation: roll the plant from the delayed state
    through the substituted prescriptions, then attach the current
    observations and marginalize onto (previous state, private windows)."""
    spec = normalize_problem(spec)
    t = state.t
    st = tables(spec).stage[t]
    lo = max(1, t - spec.n + 1)
    empty = tuple(() for _ in range(spec.K))
    items: dict[tuple, float] = {}
    for x, w in enumerate(state.theta.p):
        if w > 0.0:
            items[(x, empty, empty)] = items.get((x, empty, empty), 0.0) + float(w)
    for m in range(lo, t):
        parts = [state.r[k].parts[m - lo] for k in range(spec.K)]
        nxt: dict[tuple, float] = {}
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
                    u.append(parts[k][_domain_rank(spec, k, yk, uh[k])])
                a = spec.encode_action(u)
                trow = spec.trans[m - 1][x, a]
                for x2 in np.nonzero(trow > 0.0)[0]:
                    key = (int(x2), tuple(yh2),
                           tuple(uh[k] + (u[k],) for k in range(spec.K)))
                    nxt[key] = nxt.get(key, 0.0) + w2 * float(trow[x2])
        items = nxt
    p = np.zeros(st.state_count)
    for (x, yh, uh), w in items.items():
        y_supports = [np.nonzero(spec.obs[k][t - 1][x] > 0.0)[0]
                      for k in range(spec.K)]
        for ys in itertools.product(*y_supports):
            w2 = w
            lam = []
            for k in range(spec.K):
                w2 *= spec.obs[k][t - 1][x, ys[k]]
                info = histories.PrivateInfo(k, t, yh[k] + (int(ys[k]),), uh[k])
                lam.append(histories.private_rank(spec, info))
            p[st.state_rank(x, lam)] += w2
    return PiBelief(t, p)


def suffix_from_prescriptions(spec: ProblemSpec, k: int, t: int,
                              gammas: dict[int, PartialFunction],
                              shared_y: dict[int, int],
                              shared_u: dict[int, int]) -> RSuffix:
    """Build the suffix directly from its definition: each recent
    prescription with every already-shared argument substituted.  Used to
    check that the recursion and the definition agree."""
    spec = normalize_problem(spec)
    lo = max(1, t - spec.n + 1)
    parts = []
    for m in range(lo, t):
        g = gammas[m]
        ny, nu = histories.private_sizes(spec, k, m)
        table = g.table
        lo_m = max(1, m - spec.n + 1)
        for j in range(lo_m, t - spec.n + 1):
            table = _curry_table(spec, k, table, ny, nu, shared_y[j], shared_u[j])
            ny, nu = ny - 1, nu - 1
        parts.append(tuple(table))
    return RSuffix(k, t, tuple(parts))


# ---------------------------------------------------------------------------
# Reachable graph and dynamic program
# ---------------------------------------------------------------------------

def reachable_graph2(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES,
                     max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS) -> InfoGraph:
    """Forward closure from (initial-state belief, empty suffixes).  Dedup is
    exact on the suffix tables and grid-quantized on Theta; each node's
    belief-form image is its h_map reconstruction.

    Branch identity per shared symbol covers everything a successor records:
    assignments on positive-mass realizations (they set the branch
    probability) and on every realization consistent with the symbol (their
    assignments survive inside the substituted suffix).  Under the null
    symbol the whole prescription survives, so every realization is visible.
    Under delay 1 suffixes are empty and the belief-form rule applies.
    """
    spec = normalize_problem(spec)
    st_tables = tables(spec)

    def visible_rule(node):
        if spec.n == 1:
            return support_visibility(node.support)
        full = tuple(tuple(range(L)) for L in st_tables.stage[node.t].L)
        return lambda z, cons: full if z.is_null else cons

    def child_state(node, z, visible, digits, m, pz):
        rep = minimize.embedded_profile(spec, node.t, visible, digits)
        return ThetaRState(
            theta_update(spec, node.state.theta, z),
            tuple(r_update(spec, node.state.r[k], rep.gammas[k], z)
                  for k in range(spec.K)))

    return build_graph(spec, "theta_r", initial_state(spec), state_key,
                       lambda state: h_map(spec, state), visible_rule,
                       child_state, max_nodes=max_nodes, max_joint=max_joint)


# The backward sweep is shared with the belief form; the old name stays
# importable for the benchmark harness.
solve_on_graph2 = solve_on_graph


def solve_dp2(spec: ProblemSpec, *, max_nodes: int = DEFAULT_MAX_NODES,
              max_joint: int = minimize.DEFAULT_MAX_JOINT_BEHAVIORS
              ) -> tuple[ValueTable, CoordinatorPolicy]:
    """Backward induction over the reachable (Theta, r) graph; the stage cost
    of a node is the collapsed cost of its reconstructed belief, so the two
    dynamic programs value the same objective."""
    spec = normalize_problem(spec)
    graph = reachable_graph2(spec, max_nodes=max_nodes, max_joint=max_joint)
    return solve_on_graph(graph, max_joint=max_joint)


def extract_design2(spec: ProblemSpec, policy: CoordinatorPolicy) -> ExtractedDesign:
    """Per-controller strategy from a solved (Theta, r) policy; replays the
    update pair along the shared history, with the same acting contract as
    the belief-form extraction."""
    if policy.kind != "theta_r" or policy.graph is None:
        raise DomainError("policy was not solved on a (Theta, r) graph")
    return ExtractedDesign(normalize_problem(spec), policy)
