"""Canonical shipped instances (JSON, generated once with fixed seeds by
scripts/make_instances.py)."""

from __future__ import annotations

from importlib import resources

from ..model import ProblemSpec, load_problem, normalize_problem

NAMES = ("io", "i1", "i2", "ia")


def load(name: str) -> ProblemSpec:
    """Load a shipped instance by name, validated and renormalized."""
    return normalize_problem(load_raw(name))


def load_raw(name: str) -> ProblemSpec:
    """Load a shipped instance exactly as stored (no renormalization)."""
    if name not in NAMES:
        raise KeyError(f"unknown instance {name!r}; shipped: {NAMES}")
    text = resources.files(__package__).joinpath(f"{name}.json").read_text("utf-8")
    return load_problem(text)
