"""Dense real or complex linear algebra with certified structure flags.

A matrix is a read-only N x N ndarray.  A LinearMap wraps only the maps
that are certified or factored: T and the frame operators.  It stores
float64 when every entry is real (a complex input whose imaginary parts
are all exactly 0 is stored as its real part) and complex128 otherwise,
so real inputs run the real LAPACK/BLAS kernels; `apply` keeps a real
matrix real on a complex sample block too, where numpy's promotion would
run a complex product.  A LinearMap certifies self-adjointness (by
residual) on the first read of `self_adjoint` and positivity (by smallest
eigenvalue) on the first read of `positive`, so callers can demand the
structure they need instead of trusting whoever built the matrix.  A map
is factored at most once per kind, each factor a cached property (a read
that raises caches nothing): the positivity certificate's `eigh` gives
`spectrum` and `operator_sqrt`, and the one full `svd` gives
`cond_estimate`, `inverse`, `adjoint_inverse` and `polar_decompose`.  A map that couples only
indices of equal parity (Hermite's X, a diagonal map, and the frame
operators of their families) is factored one parity block at a time, one
LAPACK call per block, and its factors are assembled into the dense
N x N arrays every reader receives, in the sorted order a dense
factorization gives; the inverse and square roots built from them have
exact zeros off parity too.  The entries and every matrix derived from
them are read-only, so none of these cached values can go stale.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NotPositive, NumericallySingular

# Certification thresholds.
SELF_ADJOINT_RTOL = 1e-12   # max|A - A*| <= rtol * max|A|
POSITIVE_RTOL = 1e-10       # lambda_min >= -rtol * lambda_max
SINGULARITY_FLOOR = 1e-12   # invertible iff sigma_min > floor * sigma_max


def real_or_complex(values) -> np.ndarray:
    """values as float64 when every entry is real, else as complex128; no copy when already so.

    This is the one dtype rule of the package.  A complex input whose
    imaginary parts are all exactly 0 counts as real and gives its real part.
    """
    a = np.asarray(values)
    if np.iscomplexobj(a):
        if a.imag.any():
            return a.astype(np.complex128, copy=False)
        a = a.real
    return a.astype(np.float64, copy=False)


def _as_square(entries) -> np.ndarray:
    """An owned C-contiguous copy of the entries, float64 or complex128 by `real_or_complex`."""
    a = np.array(real_or_complex(entries), order="C")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


class LinearMap:
    """Square real or complex matrix with certified self_adjoint/positive flags."""

    def __init__(self, entries):
        a = _as_square(entries)
        a.setflags(write=False)
        self.entries = a

    @cached_property
    def self_adjoint(self) -> bool:
        """Residual certificate max|A - A*| <= rtol * max|A|."""
        a = self.entries
        scale = float(np.abs(a).max())
        return float(np.abs(a - a.conj().T).max()) <= SELF_ADJOINT_RTOL * scale

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues ascending, eigenvectors) of the symmetrized entries (A + A*) / 2."""
        a = self.entries
        return tuple(read_only(f) for f in _eigh((a + a.conj().T) / 2.0))

    @cached_property
    def positive(self) -> bool:
        """Smallest-eigenvalue certificate of a self-adjoint map, from its `eigh`."""
        if not self.self_adjoint:
            return False
        lam = self.eigh[0]
        return bool(lam[0] >= -POSITIVE_RTOL * max(float(lam[-1]), 0.0))

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of a certified positive map, kept from its certificate."""
        if not self.positive:
            raise NotPositive("the spectrum is kept only for a certified positive map")
        return self.eigh[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The map's one full SVD as read-only (u, s descending, vh)."""
        return tuple(read_only(f) for f in _svd_factors(self.entries))

    @cached_property
    def cond_estimate(self) -> float:
        """Ratio of extreme singular values (inf when singular), read from the map's one SVD."""
        s = self.svd[1]
        return float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    @cached_property
    def inverse(self) -> np.ndarray:
        """Read-only T^-1 from the map's SVD, with a scale-invariant singularity floor."""
        u, s, vh = _nonsingular_svd(self)
        return read_only((vh.conj().T * (1.0 / s)) @ u.conj().T)

    @cached_property
    def adjoint_inverse(self) -> np.ndarray:
        """Read-only C-contiguous (T^-1)*: the columns are the dual family psi_n = (T^-1)* e_n."""
        return read_only(np.ascontiguousarray(self.inverse.conj().T))

    def __repr__(self) -> str:
        """Dimension, dtype and the flags certified so far; printing never certifies one."""
        shown = ", ".join(f"{name}={vars(self).get(name, 'unknown')}" for name in ("self_adjoint", "positive"))
        return f"LinearMap(dim={self.dim}, dtype={self.entries.dtype}, {shown})"


def from_diagonal(values) -> LinearMap:
    return LinearMap(np.diag(np.asarray(values)))


def read_only(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only: the form of every matrix derived from a map."""
    a.setflags(write=False)
    return a


def operator_sqrt(a: LinearMap) -> np.ndarray:
    """Positive square root of a certified positive map, from its certificate's eigendecomposition.

    Eigenvalues in [-POSITIVE_RTOL * lambda_max, 0] are clamped to zero
    before taking the root; anything lower fails certification upstream.
    """
    if not a.positive:
        raise NotPositive("operator_sqrt requires a certified positive map")
    w, v = a.eigh
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return read_only((root + root.conj().T) / 2.0)


def apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x, where a real m on a complex x runs one real product.

    The real product is m times the interleaved real and imaginary parts of
    x, so the result holds m @ x.real and m @ x.imag in one complex128
    array.  Every other pairing is numpy's m @ x.
    """
    if not (np.isrealobj(m) and np.iscomplexobj(x)):
        return m @ x
    x = np.ascontiguousarray(x, dtype=np.complex128)
    parts = x.view(np.float64).reshape(x.shape[0], -1)
    return (m @ parts).view(np.complex128).reshape(x.shape)


def parity_shift(a: np.ndarray) -> int | None:
    """How a square a moves index parity: 0 when it keeps it, 1 when it swaps it, else None.

    a keeps parity when both of its off-parity blocks are exact zeros, and
    swaps it when both of its same-parity blocks are; the zero matrix keeps
    it.  A 1 x 1 matrix has a single block, and gives None.
    """
    if a.shape[0] < 2:
        return None
    even, odd = a[::2], a[1::2]
    if not even[:, 1::2].any() and not odd[:, ::2].any():
        return 0
    if not even[:, ::2].any() and not odd[:, 1::2].any():
        return 1
    return None


def _merged_positions(even: np.ndarray, odd: np.ndarray, descending: bool) -> tuple[np.ndarray, np.ndarray]:
    """Where the even and the odd block's sorted values go in their stable merged order."""
    values = np.concatenate((even, odd))
    order = np.argsort(-values if descending else values, kind="stable")
    positions = np.empty_like(order)
    positions[order] = np.arange(order.size)
    return positions[: even.size], positions[even.size :]


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a Hermitian h, one call per parity block when h splits by parity."""
    if parity_shift(h) != 0:
        return np.linalg.eigh(h)
    blocks = [np.linalg.eigh(h[p::2, p::2]) for p in (0, 1)]
    w = np.empty(h.shape[0])
    v = np.zeros_like(h)
    for p, (bw, bv), k in zip((0, 1), blocks, _merged_positions(blocks[0][0], blocks[1][0], False)):
        w[k] = bw
        v[p::2, k] = bv
    return w, v


def _svd_factors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd of a, one call per parity block when a splits by parity."""
    if parity_shift(a) != 0:
        return np.linalg.svd(a)
    blocks = [np.linalg.svd(a[p::2, p::2]) for p in (0, 1)]
    u = np.zeros_like(a)
    s = np.empty(a.shape[0])
    vh = np.zeros_like(a)
    for p, (bu, bs, bvh), k in zip((0, 1), blocks, _merged_positions(blocks[0][1], blocks[1][1], True)):
        u[p::2, k] = bu
        s[k] = bs
        vh[k, p::2] = bvh
    return u, s, vh


def _nonsingular_svd(a: LinearMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The map's SVD; raises if `a` is singular."""
    u, s, vh = a.svd
    if s[-1] <= SINGULARITY_FLOOR * s[0]:
        raise NumericallySingular(s[-1], s[0])
    return u, s, vh


def invert(a: LinearMap) -> np.ndarray:
    """The map's cached read-only inverse; raises if `a` is singular."""
    return a.inverse


def polar_decompose(t: LinearMap) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition T = P U as the read-only (P, U), P = (T T*)^(1/2) and U unitary.

    The left convention makes the positive factor act on the rotated basis:
    P (U e_n) = T e_n, column by column.  It reads the SVD the inverse is built from.
    """
    u, s, vh = _nonsingular_svd(t)
    pos = (u * s) @ u.conj().T
    return read_only((pos + pos.conj().T) / 2.0), read_only(u @ vh)
