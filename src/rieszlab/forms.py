"""Sesquilinear forms over vector families and their finite-size diagnostics.

The forms are plain truncated sums such as sum_k <x, phi_k><phi_k, y>.
Besides evaluating them, this module certifies the representation through
the frame operator square root, the two-sided quasi-basis resolution of
the identity, frame bounds, and a partial-sum growth diagnostic that
stands in for domain membership questions that have no finite answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import Blocks, LinearMap, _column_norms, apply
from .reporting import CheckReport, make_report, worst
from .systems import BiorthogonalSystem, FrameOperators, require_samples

TAIL_GRID = (16, 32, 64, 128, 256, 512)  # ascending truncations of the tail diagnostic
CONVERGENT_TAIL_FRACTION = 1e-3
DIVERGENT_GROWTH_EXPONENT = 0.5


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


def _form_deviation(form: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Worst |form - <a_k, b_k>| / (|a_k| |b_k|) over the sample columns: a form read against a second route to it.

    The scale is the second route's Cauchy-Schwarz bound, so the reading
    does not change under T -> cT or T -> QT.
    """
    scale = _column_norms(a) * _column_norms(b)
    return float(np.max(np.abs(form - _column_inner(a, b)) / scale))


def omega(x: np.ndarray, y: np.ndarray, family) -> np.ndarray | complex:
    """Evaluate sum_k <x, phi_k><phi_k, y> over the truncated family.

    x and y are sample sets of one shape: (N, count) arrays give one value
    per column, two vectors of length N give a scalar.  When y is x the
    pairings are formed once.
    """
    m = Blocks.of(family)
    same = y is x
    x, y = np.asarray(x), np.asarray(y)
    if x.shape[:1] != m.shape[:1] or y.shape != x.shape:
        raise DimensionMismatch("vector dimensions differ from family dimension")
    adj = m.H
    adj_x = apply(adj, x)
    return _column_inner(adj_x, adj_x if same else apply(adj, y))


def verify_representation(
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float,
) -> CheckReport:
    """Worst |Omega(x,y) - <K^(1/2)x, K^(1/2)y>| / (|K^(1/2)x| |K^(1/2)y|) over the sample columns.

    Both families are checked, each with the square root of its own frame
    operator.  Omega is formed before the root images, so the two routes'
    N x count arrays are never alive together.
    """
    require_samples(x, "representation")
    details = {}
    for side, family, root in (("phi", sys.phi, ops.k_phi_sqrt), ("psi", sys.psi, ops.k_psi_sqrt)):
        details[f"{side}_family"] = _form_deviation(omega(x, y, family), apply(root, x), apply(root, y))
    residual = worst(details.values())
    return make_report("representation", residual, tolerance, details=details | {"samples": x.shape[1]})


def quasi_basis_residual(
    sys: BiorthogonalSystem,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float,
) -> CheckReport:
    """Two-sided resolution of the identity over the sample columns."""
    require_samples(x, "quasi-basis")
    ip = _column_inner(x, y)
    details = {
        "phi_psi_order": float(np.abs(_column_inner(x, apply(sys.phi @ sys.psi.H, y)) - ip).max()),
        "psi_phi_order": float(np.abs(_column_inner(x, apply(sys.psi @ sys.phi.H, y)) - ip).max()),
    }
    residual = worst(details.values())
    return make_report("quasi_basis", residual, tolerance, details=details | {"samples": x.shape[1]})


def frame_bounds(k: LinearMap) -> tuple[float, float]:
    """Extreme eigenvalues (c, C) of a positive frame operator; `spectrum` raises NotPositive for any other map."""
    lam = k.spectrum
    return float(lam[0]), float(lam[-1])


def tail_diagnostic(pairings: np.ndarray) -> TailDiagnostic:
    """Partial sums S_N = sum_{k<N} |<x, phi_k>|^2 across the truncations of TAIL_GRID.

    The pairings <x, phi_k> are given at the largest truncation.  Every
    S_N is a prefix sum of them, so the trajectory is exactly
    nondecreasing.
    """
    size = TAIL_GRID[-1]
    pairings = np.asarray(pairings)
    if pairings.shape != (size,):
        raise DimensionMismatch(f"the tail diagnostic needs the pairings at truncation {size}")
    cumulative = np.cumsum(np.abs(pairings) ** 2)
    sums = [float(cumulative[n - 1]) for n in TAIL_GRID]

    s_max = sums[-1]
    s_half = float(cumulative[size // 2 - 1])
    top = len(TAIL_GRID) // 2
    top_sums = np.maximum(sums[top:], 1e-300)
    exponent = float(np.polyfit(np.log(TAIL_GRID[top:]), np.log(top_sums), 1)[0])

    if s_max <= 0.0 or (s_max - s_half) / s_max < CONVERGENT_TAIL_FRACTION:
        verdict = "convergent"
    elif exponent > DIVERGENT_GROWTH_EXPONENT:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return TailDiagnostic(
        truncations=TAIL_GRID,
        partial_sums=tuple(sums),
        classification=verdict,
        growth_exponent=exponent,
    )
