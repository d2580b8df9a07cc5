"""Stage tables built by rank arithmetic against the per-window, per-triple
reference loop in helpers: same bytes and dtypes, at every state-block size."""

import dataclasses

import numpy as np
import pytest

from delayed_sharing import _tables
from delayed_sharing.generate import random_instance
from delayed_sharing.model import normalize_problem
from helpers import step_arrays_reference, window_tables_reference


def _tiny_entries(spec):
    """Every zero of a one-hot instance's kernels raised to 1e-170, so that a
    transition and an observation factor both at 1e-170 multiply to 0.0."""
    return dataclasses.replace(
        spec,
        trans=np.where(spec.trans > 0.0, spec.trans, 1e-170),
        obs=tuple(np.where(o > 0.0, o, 1e-170) for o in spec.obs))


# (K, T, n, x_size, y_size, u_size, seed, deterministic)
CASES = {
    "K1n1": (1, 3, 1, 3, (2,), (3,), 1, False),
    "K1n2": (1, 3, 2, 2, (2,), (3,), 2, False),
    "K1n3": (1, 4, 3, 2, (2,), (2,), 3, False),
    "K2n1": (2, 3, 1, 2, (2, 3), (2, 2), 4, False),
    "K2n2": (2, 3, 2, 2, (2, 2), (2, 2), 5, False),
    "K2n3": (2, 4, 3, 2, (2, 1), (1, 2), 6, False),
    "K3n1": (3, 3, 1, 2, (2, 2, 2), (2, 1, 2), 7, False),
    "K3n2": (3, 3, 2, 2, (2, 1, 2), (1, 2, 1), 8, False),
    "K3n3": (3, 4, 3, 2, (1, 2, 1), (2, 1, 1), 9, False),
    "unit": (2, 3, 2, 2, (1, 1), (1, 1), 10, False),
    "det_K2n2": (2, 3, 2, 3, (2, 2), (2, 2), 11, True),
    "det_K1n3": (1, 4, 3, 3, (3,), (2,), 12, True),
}


def _spec(name):
    if name == "tiny":
        return _tiny_entries(random_instance(2, 3, 2, 3, (2, 2), (2, 2), 13,
                                             deterministic=True))
    K, T, n, x, y, u, seed, det = CASES[name]
    return normalize_problem(random_instance(K, T, n, x, y, u, seed,
                                             deterministic=det))


def _same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [*CASES, "tiny"])
def test_stage_tables_match_reference_loop(monkeypatch, name):
    spec = _spec(name)
    for t in range(1, spec.T):
        shift, y_aged, u_aged = window_tables_reference(spec, t)
        steps = step_arrays_reference(spec, t)
        for entries in (1, 100, 1 << 16):
            monkeypatch.setattr(_tables, "_BLOCK_ENTRIES", entries)
            st = _tables.StageTables(spec, t)
            for k in range(spec.K):
                _same(st.shift[k], shift[k])
                _same(st.y_aged[k], y_aged[k])
                _same(st.u_aged[k], u_aged[k])
            for got, want in zip(st.step_arrays(spec), steps):
                _same(got, want)
    last = _tables.StageTables(spec, spec.T)
    assert last.shift is None and last.y_aged is None and last.u_aged is None


def test_underflowed_weights_stay_triples():
    spec = _spec("tiny")
    w = _tables.StageTables(spec, 1).step_arrays(spec)[4]
    assert (w == 0.0).any()
    assert (w > 0.0).any()
