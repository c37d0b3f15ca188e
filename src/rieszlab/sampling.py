"""Seeded random streams and the sample sets the checks evaluate forms on."""

from __future__ import annotations

import numpy as np


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic stream per (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def random_kets(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard-normal sample set: a (dim, count) array, column k the k-th vector."""
    # The two draws fill the parts in place: the bits of x + 1j * y
    # without its complex temporaries.
    z = np.empty((count, dim), np.complex128)
    z.real = rng.standard_normal((count, dim))
    z.imag = rng.standard_normal((count, dim))
    return z.T
