"""Biorthogonal vector systems built from one invertible map T.

T produces the family phi_n = T e_n and its canonical dual
psi_n = (T^-1)* e_n.  An orthonormal basis {V e_n} other than the
reference one folds into T: the map T V constructs phi_n = T (V e_n).  A
family is an (N, N) array, float64 when T is real and complex128
otherwise, whose column k is the k-th vector.  This module builds such
systems, computes their frame operators K = sum of outer products,
reconstructs the orthonormal basis hidden inside any biorthogonal system,
and certifies the identities tying all of these together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch
from .linalg import LinearMap, invert, operator_sqrt, real_or_complex
from .reporting import CheckReport, make_report

DEFAULT_TOLERANCE = 1e-8


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
    m = family_matrix(family)
    if m.flags.writeable:
        m = m.copy()
        m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Paired families {phi_n}, {psi_n} as read-only arrays of equal shape."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        phi = _read_only_family(self.phi)
        psi = _read_only_family(self.psi)
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
    def k_phi_sqrt(self) -> LinearMap:
        return operator_sqrt(self.k_phi)

    @cached_property
    def k_psi_sqrt(self) -> LinearMap:
        return operator_sqrt(self.k_psi)


def build_system(t: LinearMap) -> BiorthogonalSystem:
    """phi_n = T e_n and psi_n = (T^-1)* e_n; phi is T's own read-only entries."""
    return BiorthogonalSystem(phi=t.entries, psi=invert(t).entries.conj().T)


def check_biorthogonality(sys: BiorthogonalSystem, tolerance: float = DEFAULT_TOLERANCE) -> CheckReport:
    """Max deviation of <phi_k, psi_l> from the Kronecker delta."""
    gram = sys.phi.conj().T @ sys.psi
    dev = np.abs(gram - np.eye(gram.shape[0]))
    k, l = np.unravel_index(int(np.argmax(dev)), dev.shape)
    return make_report(
        "biorthogonality",
        float(dev[k, l]),
        tolerance,
        details={"worst_row": int(k), "worst_col": int(l)},
    )


def frame_operator(family: np.ndarray) -> LinearMap:
    """K = sum over the family of outer products v_k v_k*; positive by construction."""
    m = family_matrix(family)
    k = m @ m.conj().T
    return LinearMap((k + k.conj().T) / 2.0)


def build_frame_operators(sys: BiorthogonalSystem) -> FrameOperators:
    return FrameOperators(k_phi=frame_operator(sys.phi), k_psi=frame_operator(sys.psi))


def _column_residuals(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    norms = np.maximum(1.0, np.linalg.norm(expected, axis=0))
    return np.linalg.norm(actual - expected, axis=0) / norms


def verify_K_relations(
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    tolerance: float = DEFAULT_TOLERANCE,
    indices: Sequence[int] | None = None,
) -> CheckReport:
    """phi_k = K_phi psi_k, psi_k = K_psi phi_k, the round trips, and K_phi K_psi = 1."""
    phi_m, psi_m = sys.phi, sys.psi
    sel = np.arange(sys.dim) if indices is None else np.asarray(list(indices), dtype=int)
    k_phi = ops.k_phi.entries
    k_psi = ops.k_psi.entries
    phi_from_psi = k_phi @ psi_m
    psi_from_phi = k_psi @ phi_m
    details = {
        "phi_from_psi": float(_column_residuals(phi_from_psi[:, sel], phi_m[:, sel]).max()),
        "psi_from_phi": float(_column_residuals(psi_from_phi[:, sel], psi_m[:, sel]).max()),
        "psi_roundtrip": float(_column_residuals((k_psi @ phi_from_psi)[:, sel], psi_m[:, sel]).max()),
        "phi_roundtrip": float(_column_residuals((k_phi @ psi_from_phi)[:, sel], phi_m[:, sel]).max()),
        "product_identity": float(
            np.linalg.norm(k_phi @ k_psi - np.eye(sys.dim)) / np.sqrt(sys.dim)
        ),
    }
    return make_report("k_relations", max(details.values()), tolerance, details=details)


def reconstruct_onb(
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    tolerance: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, CheckReport]:
    """Recover the orthonormal basis e_n = K_phi^(1/2) psi_n = K_psi^(1/2) phi_n.

    Returns the basis from each route as a family array, and the report.
    """
    e_from_psi = ops.k_phi_sqrt.entries @ sys.psi
    e_from_phi = ops.k_psi_sqrt.entries @ sys.phi
    eye = np.eye(sys.dim)
    details = {
        "gram_from_psi": float(np.abs(e_from_psi.conj().T @ e_from_psi - eye).max()),
        "gram_from_phi": float(np.abs(e_from_phi.conj().T @ e_from_phi - eye).max()),
        "cross_agreement": float(np.linalg.norm(e_from_psi - e_from_phi, axis=0).max()),
    }
    report = make_report("onb_reconstruction", max(details.values()), tolerance, details=details)
    return e_from_psi, e_from_phi, report


def verify_clause_i3(
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    samples: np.ndarray,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Residual of (K_phi^(1/2))* K_psi^(1/2) x = x over the sample columns; zero columns are skipped."""
    if np.ndim(samples) != 2 or np.shape(samples)[1] == 0:
        raise ValueError("clause (i)3 check needs a nonempty (N, count) sample set")
    r = ops.k_phi_sqrt.entries.conj().T @ ops.k_psi_sqrt.entries
    norms = np.linalg.norm(samples, axis=0)
    nonzero = norms > 0.0
    resid = np.linalg.norm(r @ samples - samples, axis=0)[nonzero] / norms[nonzero]
    worst = float(resid.max()) if resid.size else 0.0
    return make_report("clause_i3", worst, tolerance, details={"samples": samples.shape[1]})

