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
from .linalg import LinearMap
from .reporting import CheckReport, make_report
from .systems import BiorthogonalSystem, family_matrix

DEFAULT_TAIL_GRID = (16, 32, 64, 128, 256, 512)
CONVERGENT_TAIL_FRACTION = 1e-3
DIVERGENT_GROWTH_EXPONENT = 0.5
PREFIX_RTOL = 1e-6


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


def _column_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray | complex:
    """<a_k, b_k> for every column k (a scalar for two vectors)."""
    return np.sum(np.conj(a) * b, axis=0)


def _require_samples(x: np.ndarray, check: str) -> None:
    if np.ndim(x) != 2 or np.shape(x)[1] == 0:
        raise ValueError(f"{check} check needs a nonempty (N, count) sample set")


def omega(x: np.ndarray, y: np.ndarray, family: np.ndarray) -> np.ndarray | complex:
    """Evaluate sum_k <x, phi_k><phi_k, y> over the truncated family.

    x and y are sample sets of one shape: (N, count) arrays give one value
    per column, two vectors of length N give a scalar.  When y is x the
    pairings are formed once.
    """
    m = family_matrix(family)
    same = y is x
    x, y = np.asarray(x), np.asarray(y)
    if x.shape[:1] != m.shape[:1] or y.shape != x.shape:
        raise DimensionMismatch("vector dimensions differ from family dimension")
    adj = m.conj().T
    adj_x = adj @ x
    return _column_inner(adj_x, adj_x if same else adj @ y)


def verify_representation(
    x: np.ndarray,
    y: np.ndarray,
    family: np.ndarray,
    k_sqrt: LinearMap,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Worst |Omega(x,y) - <K^(1/2)x, K^(1/2)y>| / (1 + |Omega(x,y)|) over the sample columns."""
    _require_samples(x, "representation")
    lhs = omega(x, y, family)
    k = k_sqrt.entries
    rhs = _column_inner(k @ x, k @ y)
    worst = float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))
    return make_report("representation", worst, tolerance, details={"samples": x.shape[1]})


def quasi_basis_residual(
    sys: BiorthogonalSystem,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Two-sided resolution of the identity over the sample columns."""
    _require_samples(x, "quasi-basis")
    ip = _column_inner(x, y)
    worst_pp = float(np.abs(_column_inner(x, sys.phi @ sys.psi.conj().T @ y) - ip).max())
    worst_sp = float(np.abs(_column_inner(x, sys.psi @ sys.phi.conj().T @ y) - ip).max())
    return make_report(
        "quasi_basis",
        max(worst_pp, worst_sp),
        tolerance,
        details={"phi_psi_order": worst_pp, "psi_phi_order": worst_sp, "samples": x.shape[1]},
    )


def frame_bounds(k: LinearMap) -> tuple[float, float]:
    """Extreme eigenvalues (c, C) of a positive frame operator."""
    if not k.positive:
        raise NotPositive("frame bounds require a certified positive operator")
    lam = k.spectrum
    return float(lam[0]), float(lam[-1])


def tail_diagnostic(
    x_of: Callable[[int], np.ndarray],
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
        x = np.asarray(x_of(n))
        fam = family_matrix(family_of(n))
        if x.shape != (n,) or fam.shape != (n, n):
            raise DimensionMismatch(f"generators returned wrong sizes at truncation {n}")
        pairings[n] = np.conj(fam.conj().T @ x)

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
