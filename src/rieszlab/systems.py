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
from .linalg import Blocks, LinearMap, _family_array, operator_sqrt
from .reporting import CheckReport, make_report, worst


# A vector family as a C-contiguous array, column k the k-th vector: the
# conversion `Blocks.of` makes of an array, under the name perfbench's
# tracer resolves.
family_matrix = _family_array


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Paired families {phi_n}, {psi_n} as read-only Blocks of equal shape; arrays are converted."""

    phi: Blocks
    psi: Blocks

    def __post_init__(self):
        phi = Blocks.of(self.phi)
        psi = Blocks.of(self.psi)
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
    """phi_n = T e_n and psi_n = (T^-1)* e_n: T itself and its `adjoint_inverse`."""
    return BiorthogonalSystem(phi=t, psi=t.adjoint_inverse)


def check_biorthogonality(sys: BiorthogonalSystem, tolerance: float) -> CheckReport:
    """Max deviation of <phi_k, psi_l> from the Kronecker delta; the first worst (k, l) in row-major order."""
    value, k, l = (sys.phi.H @ sys.psi).minus_diagonal().worst_entry()
    return make_report("biorthogonality", value, tolerance, details={"worst_row": k, "worst_col": l})


def frame_operator(family) -> LinearMap:
    """K = sum over the family of outer products v_k v_k*; positive by construction."""
    m = Blocks.of(family)
    k = m @ m.H
    return LinearMap((k + k.H) * 0.5)


def build_frame_operators(sys: BiorthogonalSystem) -> FrameOperators:
    return FrameOperators(k_phi=frame_operator(sys.phi), k_psi=frame_operator(sys.psi))


def column_residuals(family: Blocks, *deviations: Blocks) -> list[np.ndarray]:
    """Per deviation, each column's norm over the norm of the family's column: the one per-column reading.

    The reading is relative, so it does not change under T -> cT or T -> QT
    with Q unitary; no column of an invertible T's families is 0.
    """
    norms = family.column_norms()
    return [d.column_norms() / norms for d in deviations]


def verify_K_relations(sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """phi_k = K_phi psi_k, psi_k = K_psi phi_k, the round trips, and K_phi K_psi = 1, at every k."""
    phi_m, psi_m = sys.phi, sys.psi
    k_phi, k_psi = ops.k_phi, ops.k_psi
    phi_from_psi = k_phi @ psi_m
    psi_from_phi = k_psi @ phi_m
    on_phi = column_residuals(phi_m, phi_from_psi - phi_m, k_phi @ psi_from_phi - phi_m)
    on_psi = column_residuals(psi_m, psi_from_phi - psi_m, k_psi @ phi_from_psi - psi_m)
    details = {
        "phi_from_psi": float(on_phi[0].max()),
        "psi_from_phi": float(on_psi[0].max()),
        "psi_roundtrip": float(on_psi[1].max()),
        "phi_roundtrip": float(on_phi[1].max()),
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


def verify_clause_i3(sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """Residual of (K_phi^(1/2))* K_psi^(1/2) = 1 on the basis: the worst column norm of the product minus 1."""
    residual = float((ops.k_phi_sqrt.H @ ops.k_psi_sqrt).minus_diagonal().column_norms().max())
    return make_report("clause_i3", residual, tolerance)
