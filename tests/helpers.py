"""Random test operators, dense weighted shifts and dense configs, which only the tests need."""

from __future__ import annotations

import json

import numpy as np

from rieszlab import LinearMap, RunConfig, WeightedShift, parse_config


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
