"""Seeded random streams and the sample sets the checks evaluate forms on."""

from __future__ import annotations

import numpy as np


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic stream per (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def random_kets(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard-normal sample set: a (dim, count) array, column k the k-th vector."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z.T
