"""Seeded instance generators: the canonical shipped instances and random
instances for randomized probes and property tests."""

from __future__ import annotations

import numpy as np

from .model import ProblemSpec


def random_instance(K: int, T: int, n: int, x_size: int,
                    y_size: tuple[int, ...], u_size: tuple[int, ...],
                    seed: int, *, deterministic: bool = False) -> ProblemSpec:
    """A random instance with strictly positive kernels (unless
    deterministic, which draws one-hot rows) and costs in [-1, 1]."""
    rng = np.random.default_rng(seed)
    A = int(np.prod(u_size))

    def dist(shape):
        if deterministic:
            idx = rng.integers(0, shape[-1], size=shape[:-1])
            return np.eye(shape[-1])[idx]
        raw = rng.uniform(0.05, 1.0, size=shape)
        return raw / raw.sum(axis=-1, keepdims=True)

    spec = ProblemSpec(
        K=K, T=T, n=n, x_size=x_size,
        y_size=tuple(y_size), u_size=tuple(u_size),
        x0_dist=dist((x_size,)),
        trans=dist((T, x_size, A, x_size)),
        obs=tuple(dist((T, x_size, y_size[k])) for k in range(K)),
        cost=rng.uniform(-1.0, 1.0, size=(T, x_size, A)),
    )
    return spec


def make_io() -> ProblemSpec:
    """Oracle-tractable instance: 1024 designs (one controller is trivial)."""
    return random_instance(2, 2, 1, 2, (2, 1), (2, 1), seed=7101)


def make_i1() -> ProblemSpec:
    """Delay-1 instance with all alphabets binary."""
    return random_instance(2, 2, 1, 2, (2, 2), (2, 2), seed=7102)


def make_i2() -> ProblemSpec:
    """Delay-2, three-stage instance with all alphabets binary."""
    return random_instance(2, 3, 2, 2, (2, 2), (2, 2), seed=7103)


def make_ia() -> ProblemSpec:
    """Two coupled subsystems, each perfectly observed by its controller.

    The plant state is the pair of subsystem states (controller 0's factor
    is the high bit); observations are exact coordinate projections of the
    previous state and the dynamics are deterministic, so the shared data
    pins the delayed plant state exactly.
    """
    rng = np.random.default_rng(7104)
    factors = (2, 2)
    x_size = 4
    T, n = 3, 2
    u_size = (2, 2)
    A = 4
    obs = []
    for k in range(2):
        proj = np.zeros((T, x_size, factors[k]))
        for x in range(x_size):
            coord = (x >> (1 - k)) & 1
            proj[:, x, coord] = 1.0
        obs.append(proj)
    nxt = rng.integers(0, x_size, size=(T, x_size, A))
    trans = np.eye(x_size)[nxt]
    raw = rng.uniform(0.05, 1.0, size=x_size)
    return ProblemSpec(
        K=2, T=T, n=n, x_size=x_size,
        y_size=factors, u_size=u_size,
        x0_dist=raw / raw.sum(),
        trans=trans,
        obs=tuple(obs),
        cost=rng.uniform(-1.0, 1.0, size=(T, x_size, A)),
    )


CANONICAL = {
    "io": make_io,
    "i1": make_i1,
    "i2": make_i2,
    "ia": make_ia,
}
