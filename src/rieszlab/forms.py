"""Sesquilinear forms over vector families and their finite-size diagnostics.

The forms are plain truncated sums such as sum_k <x, phi_k><phi_k, y>.
Besides evaluating them, this module certifies the representation through
the frame operator square root, the two-sided quasi-basis resolution of
the identity, frame bounds, and a partial-sum growth diagnostic that
stands in for domain membership questions that have no finite answer.
Each form is sesquilinear, so an identity for every f, g in
D = span{e_n} holds exactly when it holds on every basis pair
(e_m, e_n): the checks read it there, as a matrix identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import Blocks, LinearMap
from .reporting import CheckReport, make_report, worst
from .systems import BiorthogonalSystem, FrameOperators

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


def _vector_set(v) -> Blocks:
    """A vector set, or one vector as a one-column set, through `Blocks.of`."""
    return Blocks.of(np.asarray(v)[:, None] if np.ndim(v) == 1 else v)


def omega(x: np.ndarray, y: np.ndarray, family) -> np.ndarray | complex:
    """Evaluate sum_k <x, phi_k><phi_k, y> over the truncated family.

    x and y are vector sets of one shape: (N, count) arrays give one value
    per column, two vectors of length N give a scalar.  Each is read like
    a family (`Blocks.of`), so a square parity-keeping set meets a split
    family block by block.  When y is x the pairings are formed once.
    """
    m = Blocks.of(family)
    if np.shape(x)[:1] != m.shape[:1] or np.shape(y) != np.shape(x):
        raise DimensionMismatch("vector dimensions differ from family dimension")
    adj = m.H
    adj_x = adj @ _vector_set(x)
    values = adj_x.column_inner(adj_x if y is x else adj @ _vector_set(y))
    return values[0] if np.ndim(x) == 1 else values


def verify_representation(sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """Worst |(F F*)_mn - (K^(1/2) K^(1/2))_mn| / (|K^(1/2) e_m| |K^(1/2) e_n|) over every basis pair (m, n).

    (F F*)_mn is Omega(e_n, e_m) over the family F, from one product of
    the family; K^(1/2) comes from the eigendecomposition of K.  The scale
    is the second route's Cauchy-Schwarz bound, so the reading does not
    change under T -> cT or T -> QT.  Both families are checked, each with
    the square root of its own frame operator.
    """
    details = {}
    for side, family, root in (("phi", sys.phi, ops.k_phi_sqrt), ("psi", sys.psi, ops.k_psi_sqrt)):
        scale = 1.0 / root.column_norms()
        deviation = family @ family.H - root @ root
        # the adjoint turns the column scaling into a row scaling; |entries| are kept
        details[f"{side}_family"] = ((deviation * scale).H * scale).max_abs()
    return make_report("representation", worst(details.values()), tolerance, details=details)


def quasi_basis_residual(sys: BiorthogonalSystem, tolerance: float) -> CheckReport:
    """Two-sided resolution of the identity on the basis: the worst column norm of phi psi* - 1 and of psi phi* - 1.

    Each e_n has norm 1, so each reading is relative.
    """
    details = {
        "phi_psi_order": float((sys.phi @ sys.psi.H).minus_diagonal().column_norms().max()),
        "psi_phi_order": float((sys.psi @ sys.phi.H).minus_diagonal().column_norms().max()),
    }
    return make_report("quasi_basis", worst(details.values()), tolerance, details=details)


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
