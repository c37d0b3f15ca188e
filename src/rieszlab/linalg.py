"""Real or complex linear algebra on parity blocks, with certified structure flags.

Every matrix a run derives is a read-only `Blocks`.  When T couples only
indices of equal parity (Hermite's X, a diagonal T) and N >= SPLIT_FLOOR,
T is held as its two parity blocks, of ceil(N/2) and floor(N/2) indices,
and every matrix derived from it inherits the split: T^-1, psi, the frame
operators, their roots and the polar factors keep parity, and a shift by
an odd step swaps it.  Otherwise a matrix is its one dense block.  No
product, sum or norm reads the zeros between the blocks.  A vector set is
read like a family, through `Blocks.of`, so a square parity-keeping set
such as the identity meets a split matrix block by block.

A LinearMap is the `Blocks` of a map that is certified or factored: T
and the frame operators.  Like every family, it comes in through
`Blocks.of`, which stores float64 when every entry is real (a complex
input whose imaginary parts are all exactly 0 is stored as its real part)
and complex128 otherwise, so real inputs run the real LAPACK/BLAS
kernels.  A map certifies self-adjointness (by residual) and positivity
(by smallest eigenvalue) on first read, and is factored at most once per
kind, one LAPACK call per block, each factor a cached property (a read
that raises caches nothing): the positivity certificate's `eigh` gives
`spectrum` and `operator_sqrt`, and the one full `svd` gives
`cond_estimate`, `inverse` and `polar_decompose`.  (T^-1)* is the adjoint
of the one held T^-1.  Blocks and derived matrices are read-only, so no
cached value can go stale.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositive, NumericallySingular

# Certification thresholds.
SELF_ADJOINT_RTOL = 1e-12   # max|A - A*| <= rtol * max|A|
POSITIVE_RTOL = 1e-10       # lambda_min >= -rtol * lambda_max
SINGULARITY_FLOOR = 1e-12   # invertible iff sigma_min > floor * sigma_max
# Smallest N at which a parity-keeping map runs as its two blocks.  Below
# it the per-block calls cost more than the zeros they skip.  Measured in
# process, split against whole (median of 25, 2 BLAS threads, 2-vCPU host,
# numpy 2.4.6, OpenBLAS 0.3.31): the Hermite full suite reads x1.20 at
# N = 24, x1.04 at 48, x1.01 at 56 and x0.98 at 64, a complex diagonal T
# with the default checks x1.24, x0.92, x0.86 and x0.82.
SPLIT_FLOOR = 56


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


def _family_array(a) -> np.ndarray:
    """a as a nonempty 2-D array (else DimensionMismatch) under the dtype rule, C-contiguous; no copy when already so."""
    m = np.asarray(a)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D array, got shape {m.shape}")
    return np.ascontiguousarray(real_or_complex(m))


def read_only(a):
    """a itself, made read-only: an array, or every block of a `Blocks`; the form of every derived matrix a run holds."""
    for b in a.blocks if isinstance(a, Blocks) else (a,):
        b.setflags(write=False)
    return a


def _frobenius(a: np.ndarray) -> float:
    """np.linalg.norm(a) of a float or complex array, bit for bit, without its argument dispatch."""
    x = a.ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return math.sqrt(x.dot(x))


def _column_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=0) of a float or complex array, bit for bit, without its argument dispatch."""
    return np.sqrt(np.add.reduce((a.conj() * a).real if a.dtype.kind == "c" else a * a, axis=0))


def _keeps_parity(a: np.ndarray) -> bool:
    """Whether a square a couples only indices of equal parity: both off-parity blocks are exact zeros."""
    return not a[::2, 1::2].any() and not a[1::2, ::2].any()


class Blocks:
    """A matrix held as its nonzero blocks: one dense block, or two parity blocks.

    With two parts, part p holds the indices p, p + 2, ..., and block p is
    the matrix's map from part p to part (p + shift) % 2: shape (rows of
    that part, indices of part p), with no padding.  Every other entry is an
    exact zero and is not stored.  With one part the block is the whole
    matrix and shift is 0.  Products, sums and norms run once per block; an
    operand with the other number of parts is first assembled into one
    block.  numpy reads a Blocks as its dense matrix (`__array__`).
    """

    __slots__ = ("blocks", "parts", "shift")
    ndim = 2  # np.ndim reads it, so numpy need not assemble the matrix to learn it

    def __init__(self, blocks, shift: int = 0):
        self.blocks = tuple(blocks)
        self.parts = len(self.blocks)
        self.shift = shift % self.parts

    @classmethod
    def of(cls, a) -> "Blocks":
        """A family or map as read-only Blocks.

        A read-only Blocks (a map, any matrix a run derives) comes back as
        it is; one with a writable block is made read-only and real or
        complex as a whole (`real_or_complex`).  An array (`_family_array`)
        is held as copies of its two parity blocks when it is square, keeps
        parity by exact zeros and N >= SPLIT_FLOOR, else as one block,
        copied when it is a view or a writable array of the caller's.
        """
        if isinstance(a, Blocks):
            if not any(b.flags.writeable for b in a.blocks):
                return a
            real = not any(np.iscomplexobj(b) and b.imag.any() for b in a.blocks)
            return read_only(a._map(real_or_complex if real else lambda b: b.astype(np.complex128, copy=False)))
        m = _family_array(a)
        if m.shape[0] == m.shape[1] >= SPLIT_FLOOR and _keeps_parity(m):
            return read_only(cls([np.ascontiguousarray(m[p::2, p::2]) for p in (0, 1)]))
        if not m.flags.owndata or (m is a and m.flags.writeable):
            m = m.copy()
        return read_only(cls([m]))

    @property
    def shape(self) -> tuple[int, int]:
        if self.parts == 1:
            return self.blocks[0].shape
        n = sum(b.shape[1] for b in self.blocks)
        return n, n

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(*self.blocks)

    def _rows(self, p: int) -> int:
        """The first row of block p: the part it maps into."""
        return (p + self.shift) % self.parts

    def whole(self) -> "Blocks":
        """The same matrix as one dense block."""
        if self.parts == 1:
            return self
        n = self.shape[0]
        out = np.zeros((n, n), dtype=self.dtype)
        for p, b in enumerate(self.blocks):
            out[self._rows(p) :: 2, p::2] = b
        return Blocks([out])

    def __array__(self, dtype=None, copy=None):
        a = self.whole().blocks[0]
        return np.array(a, dtype=dtype, copy=True) if copy else np.asarray(a, dtype=dtype)

    @property
    def H(self) -> "Blocks":
        """The adjoint; a view of the blocks when they are real."""
        if self.parts == 1:
            return Blocks([self.blocks[0].conj().T])
        return Blocks([self.blocks[self._rows(q)].conj().T for q in range(self.parts)], self.shift)

    def _map(self, f) -> "Blocks":
        return Blocks([f(b) for b in self.blocks], self.shift)

    def _aligned(self, other: "Blocks") -> tuple["Blocks", "Blocks"]:
        if self.parts == other.parts:
            return self, other
        return self.whole(), other.whole()

    def __matmul__(self, other):
        if not isinstance(other, Blocks):
            return NotImplemented
        if self.parts == other.parts == 1:
            return Blocks([self.blocks[0] @ other.blocks[0]])
        a, b = self._aligned(other)
        return Blocks([a.blocks[b._rows(p)] @ block for p, block in enumerate(b.blocks)], a.shift + b.shift)

    def _blockwise(self, other, f):
        if not isinstance(other, Blocks):
            return NotImplemented
        if self.parts == other.parts == 1:
            return Blocks([f(self.blocks[0], other.blocks[0])])
        a, b = self._aligned(other)
        if a.shift != b.shift:
            a, b = a.whole(), b.whole()
        return Blocks([f(x, y) for x, y in zip(a.blocks, b.blocks)], a.shift)

    def __add__(self, other):
        return self._blockwise(other, np.add)

    def __sub__(self, other):
        return self._blockwise(other, np.subtract)

    def __mul__(self, columns) -> "Blocks":
        """Column k scaled by columns[k]; a scalar scales every entry."""
        if self.parts == 1 or np.ndim(columns) == 0:
            return self._map(lambda b: b * columns)
        return Blocks([b * columns[p :: self.parts] for p, b in enumerate(self.blocks)], self.shift)

    def minus_diagonal(self, values=None) -> "Blocks":
        """self - diag(values), values default to ones (self - 1); a parity-swapping matrix, whose blocks hold no diagonal, is assembled first."""
        m = self.whole() if self.shift else self
        out = []
        for p, b in enumerate(m.blocks):
            b = b.copy()  # C-contiguous, so its diagonal is every (columns + 1)-th entry
            b.ravel()[:: b.shape[1] + 1] -= 1.0 if values is None else values[p :: m.parts]
            out.append(b)
        return Blocks(out)

    def leading(self, n: int) -> "Blocks":
        """The leading n x n block: indices 0 .. n - 1 of every part."""
        return Blocks(
            [b[: len(range(self._rows(p), n, self.parts)), : len(range(p, n, self.parts))] for p, b in enumerate(self.blocks)],
            self.shift,
        )

    def max_abs(self) -> float:
        """max |entry|; NaN if any entry is NaN."""
        peaks = [np.abs(b).max(initial=0.0) for b in self.blocks]
        return float(peaks[0] if self.parts == 1 else np.max(peaks))

    def frobenius(self) -> float:
        if self.parts == 1:
            return _frobenius(self.blocks[0])
        return math.hypot(*(_frobenius(b) for b in self.blocks))

    def column_norms(self) -> np.ndarray:
        """The 2-norm of every column, in index order."""
        if self.parts == 1:
            return _column_norms(self.blocks[0])
        out = np.empty(self.shape[1])
        for p, b in enumerate(self.blocks):
            out[p :: self.parts] = _column_norms(b)
        return out

    def column_inner(self, other: "Blocks") -> np.ndarray:
        """<a_k, b_k> for every column k of self (a) and other (b), in index order."""
        a, b = self._aligned(other)
        if a.shift != b.shift:
            a, b = a.whole(), b.whole()
        if a.parts == 1:
            return np.sum(np.conj(a.blocks[0]) * b.blocks[0], axis=0)
        out = np.empty(a.shape[1], dtype=np.result_type(a.dtype, b.dtype))
        for p, (x, y) in enumerate(zip(a.blocks, b.blocks)):
            out[p :: a.parts] = np.sum(np.conj(x) * y, axis=0)
        return out

    def worst_entry(self) -> tuple[float, int, int]:
        """(|a_kl|, k, l) for the first largest |entry| in row-major index order, a NaN before any number."""
        found = []
        for p, b in enumerate(self.blocks):
            dev = np.abs(b)
            i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
            value = float(dev[i, j])
            row, col = int(i) * self.parts + self._rows(p), int(j) * self.parts + p
            found.append((not math.isnan(value), -value if value == value else 0.0, row, col, value))
        *_, row, col, value = min(found)
        return value, row, col


def _lu_inverse(m: Blocks) -> Blocks:
    """m^-1 by one LU solve per block of a square m that keeps parity: a second route beside a map's SVD inverse."""
    return Blocks([np.linalg.solve(b, np.eye(b.shape[0])) for b in m.blocks])


class LinearMap(Blocks):
    """Square real or complex map, its own read-only `Blocks`, with certified self_adjoint/positive flags.

    It is built by `Blocks.of`, and a parity-swapping input is assembled
    into one block, so every block of a map keeps parity and its adjoint,
    certificates and factors are taken block by block.
    """

    def __init__(self, entries):
        m = Blocks.of(entries)
        if m.shift:
            m = read_only(m.whole())
        super().__init__(m.blocks)
        if self.shape[0] != self.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {self.shape}")
        if not all(np.isfinite(b).all() for b in self.blocks):
            raise ValueError("matrix entries must be finite")

    @cached_property
    def self_adjoint(self) -> bool:
        """Residual certificate max|A - A*| <= rtol * max|A|."""
        scale = max(float(np.abs(b).max()) for b in self.blocks)
        return max(float(np.abs(b - b.conj().T).max()) for b in self.blocks) <= SELF_ADJOINT_RTOL * scale

    @cached_property
    def eigh(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block, read-only (eigenvalues ascending, eigenvectors) of the symmetrized entries (A + A*) / 2."""
        return tuple(tuple(read_only(f) for f in np.linalg.eigh((b + b.conj().T) / 2.0)) for b in self.blocks)

    @cached_property
    def positive(self) -> bool:
        """Smallest-eigenvalue certificate of a self-adjoint map, from its `eigh`."""
        if not self.self_adjoint:
            return False
        lowest = min(w[0] for w, _ in self.eigh)
        return bool(lowest >= -POSITIVE_RTOL * max(max(float(w[-1]) for w, _ in self.eigh), 0.0))

    @property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of a certified positive map, kept from its certificate."""
        if not self.positive:
            raise NotPositive("the spectrum is kept only for a certified positive map")
        w = [w for w, _ in self.eigh]
        return w[0] if len(w) == 1 else read_only(np.sort(np.concatenate(w)))

    @property
    def dim(self) -> int:
        return self.shape[0]

    @cached_property
    def svd(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The map's one full SVD, per block, as read-only (u, s descending, vh)."""
        return tuple(tuple(read_only(f) for f in np.linalg.svd(b)) for b in self.blocks)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """All singular values, descending, from the map's one SVD."""
        s = [s for _, s, _ in self.svd]
        return s[0] if len(s) == 1 else read_only(np.sort(np.concatenate(s))[::-1])

    @cached_property
    def cond_estimate(self) -> float:
        """Ratio of extreme singular values (inf when singular), read from the map's one SVD."""
        s = self.singular_values
        return float(s[0] / s[-1]) if s[-1] > 0.0 else float("inf")

    @cached_property
    def inverse(self) -> Blocks:
        """Read-only T^-1 from the map's SVD, with a scale-invariant singularity floor."""
        return read_only(Blocks([(vh.conj().T * (1.0 / s)) @ u.conj().T for u, s, vh in _nonsingular_svd(self)]))

    @cached_property
    def adjoint_inverse(self) -> Blocks:
        """(T^-1)*, the adjoint of the one held T^-1: the columns are the dual family psi_n = (T^-1)* e_n.

        For a real T its blocks are views of T^-1's, so no second array is
        held; a complex T's are their conjugates, formed once, C-contiguous
        like the family they are.
        """
        adjoint = self.inverse.H
        return read_only(adjoint if self.dtype == np.float64 else adjoint._map(np.ascontiguousarray))

    def __repr__(self) -> str:
        """Dimension, dtype and the flags certified so far; printing never certifies one."""
        shown = ", ".join(f"{name}={vars(self).get(name, 'unknown')}" for name in ("self_adjoint", "positive"))
        return f"LinearMap(dim={self.dim}, dtype={self.dtype}, {shown})"


def from_diagonal(values) -> LinearMap:
    return LinearMap(np.diag(np.asarray(values)))


def operator_sqrt(a: LinearMap) -> Blocks:
    """Positive square root of a certified positive map, one block at a time from its certificate's eigendecomposition.

    Eigenvalues in [-POSITIVE_RTOL * lambda_max, 0] are clamped to zero
    before taking the root; anything lower fails certification upstream.
    """
    if not a.positive:
        raise NotPositive("operator_sqrt requires a certified positive map")
    roots = [(v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T for w, v in a.eigh]
    return read_only(Blocks([(r + r.conj().T) / 2.0 for r in roots]))


def _nonsingular_svd(a: LinearMap) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The map's SVD; raises if `a` is singular."""
    s = a.singular_values
    if s[-1] <= SINGULARITY_FLOOR * s[0]:
        raise NumericallySingular(s[-1], s[0])
    return a.svd


def invert(a: LinearMap) -> Blocks:
    """The map's cached read-only inverse; raises if `a` is singular."""
    return a.inverse


def polar_decompose(t: LinearMap) -> tuple[Blocks, Blocks]:
    """Left polar decomposition T = P U as the read-only (P, U), P = (T T*)^(1/2) and U unitary.

    The left convention makes the positive factor act on the rotated basis:
    P (U e_n) = T e_n, column by column.  It reads the SVD the inverse is built from.
    """
    factors = _nonsingular_svd(t)
    positive = [(u * s) @ u.conj().T for u, s, _ in factors]
    return read_only(Blocks([(p + p.conj().T) / 2.0 for p in positive])), read_only(Blocks([u @ vh for u, _, vh in factors]))
