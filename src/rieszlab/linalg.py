"""Dense real or complex linear algebra with certified structure flags.

Everything downstream is an N x N matrix whose dtype follows the data: a
LinearMap stores float64 when every entry is real (a complex input whose
imaginary parts are all exactly 0 is stored as its real part) and
complex128 otherwise, so real inputs run the real LAPACK/BLAS kernels and
numpy's promotion decides every mixed product.  A LinearMap certifies
self-adjointness (by residual) on the first read of `self_adjoint` and
positivity (by smallest eigenvalue) on the first read of `positive`, so
callers can demand the structure they need instead of trusting whoever
built the matrix.  A map is factored at most once per kind: the
positivity certificate's eigendecomposition gives `spectrum` and
`operator_sqrt`, and one full SVD gives `cond_estimate`, `invert` and
`polar_decompose`; `invert` caches its result on the map too.  The
entries are read-only, so none of these cached values can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    __slots__ = ("entries", "_self_adjoint", "_positive", "_eigh", "_cond", "_svd", "_inverse")

    def __init__(self, entries):
        a = _as_square(entries)
        a.setflags(write=False)
        self.entries = a
        self._self_adjoint: bool | None = None
        self._positive: bool | None = None
        self._eigh: tuple[np.ndarray, np.ndarray] | None = None
        self._cond: float | None = None
        self._svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._inverse: LinearMap | None = None

    @property
    def self_adjoint(self) -> bool:
        """Residual certificate max|A - A*| <= rtol * max|A|, computed on first read and then cached."""
        if self._self_adjoint is None:
            a = self.entries
            scale = float(np.abs(a).max())
            self._self_adjoint = float(np.abs(a - a.conj().T).max()) <= SELF_ADJOINT_RTOL * scale
        return self._self_adjoint

    @property
    def positive(self) -> bool:
        """Smallest-eigenvalue certificate, computed on first read and then cached.

        The certificate is a full Hermitian eigendecomposition of the
        symmetrized entries; it is kept for `spectrum` and `operator_sqrt`.
        """
        if self._positive is None:
            positive = False
            if self.self_adjoint:
                a = self.entries
                factors = np.linalg.eigh((a + a.conj().T) / 2.0)
                for f in factors:
                    f.setflags(write=False)
                self._eigh = factors
                lam = factors[0]
                positive = bool(lam[0] >= -POSITIVE_RTOL * max(float(lam[-1]), 0.0))
            self._positive = positive
        return self._positive

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of a certified positive map, kept from its certificate."""
        if not self.positive:
            raise NotPositive("the spectrum is kept only for a certified positive map")
        return self._eigh[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def cond_estimate(self) -> float:
        """Ratio of extreme singular values (inf when singular), read from the map's one SVD."""
        if self._cond is None:
            s = _svd(self)[1]
            self._cond = float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")
        return self._cond

    def __repr__(self) -> str:
        """Dimension, dtype and the flags certified so far; printing never certifies one."""
        flags = {"self_adjoint": self._self_adjoint, "positive": self._positive}
        shown = ", ".join(f"{name}={'unknown' if v is None else v}" for name, v in flags.items())
        return f"LinearMap(dim={self.dim}, dtype={self.entries.dtype}, {shown})"


@dataclass(frozen=True)
class PolarFactors:
    """Factors of the left polar decomposition T = P U."""

    unitary_part: LinearMap
    positive_part: LinearMap


def from_diagonal(values) -> LinearMap:
    return LinearMap(np.diag(np.asarray(values)))


def operator_sqrt(a: LinearMap) -> LinearMap:
    """Positive square root of a certified positive map, from its certificate's eigendecomposition.

    Eigenvalues in [-POSITIVE_RTOL * lambda_max, 0] are clamped to zero
    before taking the root; anything lower fails certification upstream.
    """
    if not a.positive:
        raise NotPositive("operator_sqrt requires a certified positive map")
    w, v = a._eigh
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return LinearMap((root + root.conj().T) / 2.0)


def _svd(a: LinearMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full SVD (u, s, vh) of `a`, computed once per map."""
    if a._svd is None:
        factors = np.linalg.svd(a.entries)
        for f in factors:
            f.setflags(write=False)
        a._svd = factors
    return a._svd


def _nonsingular_svd(a: LinearMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The map's SVD; raises if `a` is singular."""
    u, s, vh = _svd(a)
    if s[-1] <= SINGULARITY_FLOOR * s[0]:
        raise NumericallySingular(s[-1], s[0])
    return u, s, vh


def invert(a: LinearMap) -> LinearMap:
    """SVD-based inverse with a scale-invariant singularity floor.

    The inverse is cached on `a`, so every caller shares it.  The
    inverse's own condition estimate comes from the same SVD.
    """
    if a._inverse is None:
        u, s, vh = _nonsingular_svd(a)
        out = LinearMap((vh.conj().T * (1.0 / s)) @ u.conj().T)
        out._cond = float(s[0] / s[-1])
        a._inverse = out
    return a._inverse


def polar_decompose(t: LinearMap) -> PolarFactors:
    """Left polar decomposition T = P U with P = (T T*)^(1/2) and U unitary.

    The left convention makes the positive factor act on the rotated basis:
    P (U e_n) = T e_n, column by column.  It reads the SVD `invert` uses.
    """
    u, s, vh = _nonsingular_svd(t)
    pos = (u * s) @ u.conj().T
    return PolarFactors(
        unitary_part=LinearMap(u @ vh),
        positive_part=LinearMap((pos + pos.conj().T) / 2.0),
    )
