"""Sesquilinear forms over vector families and their finite-size diagnostics.

The forms are plain truncated sums such as sum_k <x, phi_k><phi_k, y>.
Besides evaluating them, this module certifies the representation through
the frame operator square root, the two-sided quasi-basis resolution of
the identity, frame bounds, and a partial-sum growth diagnostic that
stands in for domain membership questions that have no finite answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatch, InconsistentPrefix, NotPositive
from .linalg import KetVector, LinearMap
from .reporting import CheckReport, make_report
from .systems import BiorthogonalSystem, family_matrix

DEFAULT_TAIL_GRID = (16, 32, 64, 128, 256, 512)
CONVERGENT_TAIL_FRACTION = 1e-3
DIVERGENT_GROWTH_EXPONENT = 0.5
PREFIX_RTOL = 1e-6


@dataclass(frozen=True, eq=False)
class FormEvaluation:
    """Value of a truncated sesquilinear form and the number of terms summed."""

    value: complex
    terms_used: int


@dataclass(frozen=True, eq=False)
class TailDiagnostic:
    """Partial-sum trajectory across growing truncations with a growth verdict.

    classification is "convergent" when the relative tail beyond half the
    largest truncation is below CONVERGENT_TAIL_FRACTION, "divergent" when
    the log-log slope over the top half of the grid exceeds
    DIVERGENT_GROWTH_EXPONENT, and "inconclusive" otherwise.
    """

    truncations: tuple[int, ...]
    partial_sums: tuple[float, ...]
    classification: str
    growth_exponent: float


def omega(x: KetVector, y: KetVector, family: np.ndarray) -> FormEvaluation:
    """Evaluate sum_k <x, phi_k><phi_k, y> over the truncated family."""
    m = family_matrix(family)
    if x.dim != m.shape[0] or y.dim != m.shape[0]:
        raise DimensionMismatch("vector dimensions differ from family dimension")
    terms = np.conj(m.conj().T @ x.coeffs) * (m.conj().T @ y.coeffs)
    return FormEvaluation(value=complex(terms.sum()), terms_used=m.shape[1])


def verify_representation(
    pairs: Sequence[tuple[KetVector, KetVector]],
    family: np.ndarray,
    k_sqrt: LinearMap,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Worst |Omega(x,y) - <K^(1/2)x, K^(1/2)y>| / (1 + |Omega(x,y)|) over the sample pairs."""
    if not pairs:
        raise ValueError("representation check needs a nonempty sample set")
    worst = 0.0
    for x, y in pairs:
        lhs = omega(x, y, family).value
        rhs = np.vdot(k_sqrt.entries @ x.coeffs, k_sqrt.entries @ y.coeffs)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    return make_report("representation", worst, tolerance, details={"samples": len(pairs)})


def quasi_basis_residual(
    sys: BiorthogonalSystem,
    samples: Sequence[tuple[KetVector, KetVector]],
    tolerance: float = 1e-9,
) -> CheckReport:
    """Two-sided resolution of the identity over the sample pairs."""
    if not samples:
        raise ValueError("quasi-basis check needs a nonempty sample set")
    phi_psi = sys.phi @ sys.psi.conj().T
    psi_phi = sys.psi @ sys.phi.conj().T
    worst_pp = 0.0
    worst_sp = 0.0
    for x, y in samples:
        ip = np.vdot(x.coeffs, y.coeffs)
        worst_pp = max(worst_pp, abs(np.vdot(x.coeffs, phi_psi @ y.coeffs) - ip))
        worst_sp = max(worst_sp, abs(np.vdot(x.coeffs, psi_phi @ y.coeffs) - ip))
    return make_report(
        "quasi_basis",
        max(worst_pp, worst_sp),
        tolerance,
        details={"phi_psi_order": worst_pp, "psi_phi_order": worst_sp, "samples": len(samples)},
    )


def frame_bounds(k: LinearMap) -> tuple[float, float]:
    """Extreme eigenvalues (c, C) of a positive frame operator."""
    if not k.positive:
        raise NotPositive("frame bounds require a certified positive operator")
    lam = np.linalg.eigvalsh((k.entries + k.entries.conj().T) / 2.0)
    return float(lam[0]), float(lam[-1])


def tail_diagnostic(
    x_of: Callable[[int], KetVector],
    family_of: Callable[[int], np.ndarray],
    grid: Sequence[int] = DEFAULT_TAIL_GRID,
) -> TailDiagnostic:
    """Partial sums S_N = sum_{k<N} |<x, phi_k>|^2 across the truncation grid.

    The generators are evaluated at every grid size and must agree on the
    interior indices of each smaller truncation; the reported trajectory is
    then assembled from the largest truncation so it is exactly
    nondecreasing.
    """
    sizes = [int(n) for n in grid]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
        raise ValueError("grid must be an ascending list of at least two positive sizes")
    if not any(n <= sizes[-1] // 2 for n in sizes):
        raise ValueError("grid needs a point at or below half the largest size")

    pairings = {}
    for n in sizes:
        x = x_of(n)
        fam = family_matrix(family_of(n))
        if x.dim != n or fam.shape != (n, n):
            raise DimensionMismatch(f"generators returned wrong sizes at truncation {n}")
        pairings[n] = np.conj(fam.conj().T @ x.coeffs)

    for small, big in zip(sizes, sizes[1:]):
        interior = small - small // 2
        a = pairings[small][:interior]
        b = pairings[big][:interior]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
        rel = np.abs(a - b) / denom
        if rel.max() > PREFIX_RTOL:
            k = int(np.argmax(rel))
            raise InconsistentPrefix(
                f"inner product {k} differs between truncations {small} and {big} "
                f"(relative {rel[k]:.3e})"
            )

    cumulative = np.cumsum(np.abs(pairings[sizes[-1]]) ** 2)
    sums = [float(cumulative[n - 1]) for n in sizes]

    s_max = sums[-1]
    half_size = max(n for n in sizes if n <= sizes[-1] // 2)
    s_half = sums[sizes.index(half_size)]
    top = sizes[len(sizes) // 2 :]
    top_sums = np.maximum([sums[sizes.index(n)] for n in top], 1e-300)
    exponent = float(np.polyfit(np.log(top), np.log(top_sums), 1)[0])

    if s_max <= 0.0 or (s_max - s_half) / s_max < CONVERGENT_TAIL_FRACTION:
        verdict = "convergent"
    elif exponent > DIVERGENT_GROWTH_EXPONENT:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return TailDiagnostic(
        truncations=tuple(sizes),
        partial_sums=tuple(sums),
        classification=verdict,
        growth_exponent=exponent,
    )
