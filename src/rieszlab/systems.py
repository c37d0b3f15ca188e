"""Biorthogonal vector systems built from one invertible map T.

T produces the family phi_n = T e_n and its canonical dual
psi_n = (T^-1)* e_n.  An orthonormal basis {V e_n} other than the
reference one folds into T: the map T V constructs phi_n = T (V e_n).  A
family is an (N, N) `Blocks`, float64 when T is real and complex128
otherwise, whose column k is the k-th vector.  This module builds such
systems, computes their frame operators K = sum of outer products,
reconstructs the orthonormal basis hidden inside any biorthogonal system,
and certifies the identities tying all of these together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import Blocks, LinearMap, apply, operator_sqrt, read_only, real_or_complex
from .reporting import CheckReport, make_report, worst


def family_matrix(family) -> np.ndarray:
    """A vector family as a C-contiguous array, column k the k-th vector.

    The dtype follows `linalg.real_or_complex`.  The input must be a
    nonempty 2-D array; one already in that layout is returned as it is,
    without a copy.
    """
    m = np.asarray(family)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D family array, got shape {m.shape}")
    return np.ascontiguousarray(real_or_complex(m))


def _read_only_family(family) -> np.ndarray:
    """family_matrix's array, read-only; copied only when it shares a writable buffer of the caller's."""
    m = family_matrix(family)
    if m.flags.writeable:
        if m is family or not m.flags.owndata:
            m = m.copy()
        m.setflags(write=False)
    return m


def family_blocks(family) -> Blocks:
    """A family as read-only Blocks: a Blocks made read-only, an array by `Blocks.of` on its read-only `family_matrix`."""
    return read_only(family) if isinstance(family, Blocks) else Blocks.of(_read_only_family(family))


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Paired families {phi_n}, {psi_n} as read-only Blocks of equal shape; arrays are converted."""

    phi: Blocks
    psi: Blocks

    def __post_init__(self):
        phi = family_blocks(self.phi)
        psi = family_blocks(self.psi)
        if phi.shape != psi.shape:
            raise DimensionMismatch("phi and psi families differ in shape")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def dim(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True, eq=False)
class FrameOperators:
    """Frame operators of both families; their positive square roots are built on first read."""

    k_phi: LinearMap
    k_psi: LinearMap

    @cached_property
    def k_phi_sqrt(self) -> Blocks:
        return operator_sqrt(self.k_phi)

    @cached_property
    def k_psi_sqrt(self) -> Blocks:
        return operator_sqrt(self.k_psi)


def build_system(t: LinearMap) -> BiorthogonalSystem:
    """phi_n = T e_n and psi_n = (T^-1)* e_n: T's own read-only blocks and its `adjoint_inverse`."""
    return BiorthogonalSystem(phi=t.blocks, psi=t.adjoint_inverse)


def check_biorthogonality(sys: BiorthogonalSystem, tolerance: float) -> CheckReport:
    """Max deviation of <phi_k, psi_l> from the Kronecker delta; the first worst (k, l) in row-major order."""
    value, k, l = (sys.phi.H @ sys.psi).minus_diagonal().worst_entry()
    return make_report("biorthogonality", value, tolerance, details={"worst_row": k, "worst_col": l})


def frame_operator(family) -> LinearMap:
    """K = sum over the family of outer products v_k v_k*; positive by construction."""
    m = family_blocks(family)
    k = m @ m.H
    return LinearMap((k + k.H) * 0.5)


def build_frame_operators(sys: BiorthogonalSystem) -> FrameOperators:
    return FrameOperators(k_phi=frame_operator(sys.phi), k_psi=frame_operator(sys.psi))


def column_residuals(actual: Blocks, expected: Blocks) -> np.ndarray:
    """Each column's deviation norm over the larger of 1 and the expected column's norm."""
    norms = np.maximum(1.0, expected.column_norms())
    return (actual - expected).column_norms() / norms


def verify_K_relations(sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """phi_k = K_phi psi_k, psi_k = K_psi phi_k, the round trips, and K_phi K_psi = 1, at every k."""
    phi_m, psi_m = sys.phi, sys.psi
    k_phi = ops.k_phi.blocks
    k_psi = ops.k_psi.blocks
    phi_from_psi = k_phi @ psi_m
    psi_from_phi = k_psi @ phi_m
    details = {
        "phi_from_psi": float(column_residuals(phi_from_psi, phi_m).max()),
        "psi_from_phi": float(column_residuals(psi_from_phi, psi_m).max()),
        "psi_roundtrip": float(column_residuals(k_psi @ phi_from_psi, psi_m).max()),
        "phi_roundtrip": float(column_residuals(k_phi @ psi_from_phi, phi_m).max()),
        "product_identity": (k_phi @ k_psi).minus_diagonal().frobenius() / np.sqrt(sys.dim),
    }
    return make_report("k_relations", worst(details.values()), tolerance, details=details)


def reconstruct_onb(sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """Recover the orthonormal basis e_n = K_phi^(1/2) psi_n = K_psi^(1/2) phi_n by both routes.

    Each route must give an orthonormal family, and the two must agree.
    """
    e_from_psi = ops.k_phi_sqrt @ sys.psi
    e_from_phi = ops.k_psi_sqrt @ sys.phi
    details = {
        "gram_from_psi": (e_from_psi.H @ e_from_psi).minus_diagonal().max_abs(),
        "gram_from_phi": (e_from_phi.H @ e_from_phi).minus_diagonal().max_abs(),
        "cross_agreement": float((e_from_psi - e_from_phi).column_norms().max()),
    }
    return make_report("onb_reconstruction", worst(details.values()), tolerance, details=details)


def require_samples(x: np.ndarray, check: str) -> None:
    """Raise ValueError unless x is a nonempty (N, count) sample set."""
    if np.ndim(x) != 2 or np.shape(x)[1] == 0:
        raise ValueError(f"{check} check needs a nonempty (N, count) sample set")


def verify_clause_i3(
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    samples: np.ndarray,
    tolerance: float,
) -> CheckReport:
    """Residual of (K_phi^(1/2))* K_psi^(1/2) x = x over the sample columns; zero columns are skipped."""
    require_samples(samples, "clause (i)3")
    r = ops.k_phi_sqrt.H @ ops.k_psi_sqrt
    norms = np.linalg.norm(samples, axis=0)
    nonzero = norms > 0.0
    resid = np.linalg.norm(apply(r, samples) - samples, axis=0)[nonzero] / norms[nonzero]
    residual = float(resid.max()) if resid.size else 0.0
    return make_report("clause_i3", residual, tolerance, details={"samples": samples.shape[1]})

