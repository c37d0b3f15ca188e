"""Seeded random streams and sample sets, random test operators, dense weighted shifts and dense configs,
which only the tests need."""

from __future__ import annotations

import json

import numpy as np

from rieszlab import LinearMap, RunConfig, WeightedShift, parse_config


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


def random_unitary(dim: int, rng: np.random.Generator) -> LinearMap:
    """Haar-ish unitary via QR with phase-normalized diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return LinearMap(q * (d / np.abs(d)))


def random_conditioned_map(dim: int, cond: float, rng: np.random.Generator) -> LinearMap:
    """Invertible map with condition number exactly cond (log-spaced spectrum)."""
    u = np.asarray(random_unitary(dim, rng))
    v = np.asarray(random_unitary(dim, rng))
    sigma = np.exp(np.linspace(-0.5, 0.5, dim) * np.log(cond))
    return LinearMap((u * sigma) @ v)


def dense(shift: WeightedShift) -> LinearMap:
    """The N x N matrix of a weighted shift, entry (j + offset, j) = coefficients[j]."""
    n, d = shift.dim, shift.offset
    j = np.arange(max(0, -d), min(n, n - d))
    out = np.zeros((n, n), dtype=shift.coefficients.dtype)
    out[j + d, j] = shift.coefficients[j]
    return LinearMap(out)


def dense_config(t: LinearMap, **fields) -> RunConfig:
    """The parsed config of a dense run of T, entries as [re, im] pairs; fields are added to it."""
    entries = [[float(v.real), float(v.imag)] for v in np.asarray(t).ravel()]
    payload = {"dimension": t.dim, "operator": {"kind": "dense", "entries": entries}, **fields}
    return parse_config(json.dumps(payload))


def dense16_payload() -> dict:
    """The dense N=16 config with complex custom alpha that CI runs, as a JSON document."""
    t = np.eye(16) + 0.1 * np.random.default_rng(16).standard_normal((16, 16, 2)) @ [1, 1j]
    return {
        "dimension": 16,
        "operator": {"kind": "dense", "entries": [[v.real, v.imag] for v in t.ravel()]},
        "alpha": {"kind": "custom", "values": [[n, 0.5 * (-1) ** n] for n in range(16)]},
        "seed": 3,
    }
