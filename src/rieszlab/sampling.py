"""Seeded generators for sample vectors and test operators."""

from __future__ import annotations

import numpy as np

from .linalg import LinearMap


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic stream per (seed, stream) pair."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def random_unitary(dim: int, rng: np.random.Generator) -> LinearMap:
    """Haar-ish unitary via QR with phase-normalized diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return LinearMap(q * (d / np.abs(d)))


def random_conditioned_map(dim: int, cond: float, rng: np.random.Generator) -> LinearMap:
    """Invertible map with condition number exactly cond (log-spaced spectrum)."""
    u = random_unitary(dim, rng).entries
    v = random_unitary(dim, rng).entries
    sigma = np.exp(np.linspace(-0.5, 0.5, dim) * np.log(cond))
    return LinearMap((u * sigma) @ v)


def random_kets(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Complex standard-normal sample set: a (dim, count) array, column k the k-th vector."""
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z.T
