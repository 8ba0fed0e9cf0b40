"""Seeded instance generators for the randomized verification suites."""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, GroupFunction, GroupSubset


def random_subset(group: FiniteGroup, size: int, rng: np.random.Generator) -> GroupSubset:
    """Uniform random subset of the prescribed size, in [0, |G|]."""
    idx = rng.choice(group.order, size=size, replace=False)
    return GroupSubset.from_indices(group, idx)


def random_symmetric_subset(
    group: FiniteGroup, size_hint: int, rng: np.random.Generator
) -> GroupSubset:
    """T union T^-1 for a random T of the hinted size, in [1, |G|]; symmetric by construction."""
    t = rng.choice(group.order, size=size_hint, replace=False)
    member = np.zeros(group.order, dtype=np.int8)
    member[t] = 1
    member[group.inv(t)] = 1
    return GroupSubset(group, member)


def random_function(group: FiniteGroup, rng: np.random.Generator) -> GroupFunction:
    """Complex Gaussian test function."""
    values = rng.normal(size=group.order) + 1j * rng.normal(size=group.order)
    return GroupFunction(group, values)


def random_nonempty_subset(
    group: FiniteGroup, rng: np.random.Generator, max_size: int | None = None
) -> GroupSubset:
    cap = max_size or group.order
    size = int(rng.integers(1, max(2, min(cap, group.order) + 1)))
    return random_subset(group, size, rng)
