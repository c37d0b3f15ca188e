"""Hermite-function model: multiplication by 1 + x^2 in the oscillator basis.

The truncated matrix X of the multiplication operator is pentadiagonal
with closed-form entries.  Every entry is cross-checked against a
trapezoidal quadrature oracle before the model is trusted; the same
oracle supplies the matrix elements of the exact (untruncated) square.
It needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleMismatch
from .linalg import Blocks, LinearMap, _lu_inverse, read_only
from .reporting import CheckReport, make_report, relative_frobenius, worst
from .systems import BiorthogonalSystem, FrameOperators, column_residuals

ORACLE_TOLERANCE = 1e-9
# How far the quadrature nodes reach past the top turning point, and the
# scale of the step: aliasing near e^{-2 REACH}, cut tail below e^{-REACH^2}.
# Every node, and so every digit of the entry gate and of x_squared_gram,
# depends on it.  At 17 halving the step moves the Gram of 1 / (1 + x^2) by
# at most 1.7e-15 up to MAX_DIMENSION (test_quadrature_rational_doubling_agreement).
REACH = 17
# Largest dimension up to which the oracle gate passes: deviation 6.5e-10
# at 686, 1.1e-9 at 687 against ORACLE_TOLERANCE (checked at every
# dimension up to 700).  Beyond it e_0 = pi^-1/4 e^{-x^2/2}, where the
# recurrence starts, underflows near the top turning point.
MAX_DIMENSION = 686
MAX_DIMENSION_REASON = "beyond it the Hermite-function recurrence of the quadrature oracle underflows"


def x_entry(i, j) -> np.ndarray:
    """Closed-form matrix elements <e_i, (1 + x^2) e_j>, elementwise over indices or index arrays."""
    i, j = np.asarray(i), np.asarray(j)
    lo = np.minimum(i, j)
    band = np.where(np.abs(i - j) == 2, np.sqrt((lo + 1.0) * (lo + 2.0)) / 2.0, 0.0)
    return np.where(i == j, i + 1.5, band)


def hermite_function_table(count: int, x: np.ndarray) -> np.ndarray:
    """Values of the first `count` normalized Hermite functions at the points x.

    Uses the Gaussian-weighted three-term recurrence, which keeps every
    value bounded and avoids the factorial normalization entirely.
    """
    x = np.asarray(x, dtype=float)
    table = np.zeros((count, x.size))
    table[0] = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    if count > 1:
        table[1] = np.sqrt(2.0) * x * table[0]
    for n in range(1, count - 1):
        table[n + 1] = x * np.sqrt(2.0 / (n + 1)) * table[n] - np.sqrt(n / (n + 1.0)) * table[n - 1]
    return table


def trapezoid_rule(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and the first `count` Hermite functions of the trapezoidal rule on the half-line.

    The step is pi / (t + REACH), with t = sqrt(2 count + 1) the top
    turning point; the nodes j * step run from 0 to t + REACH.  The
    products e_m e_n have their Fourier transforms in |w| <= 2 t, so the
    aliasing error for 1 / (1 + x^2), whose transform is pi e^{-|w|}, is
    near e^{-2 REACH}, and the cut tail is below
    e^{-REACH^2} (Trefethen & Weideman, SIAM Review 56, 2014).  Every
    multiplier is even, and the recurrence of `hermite_function_table`
    gives e_k(-x) = (-1)^k e_k(x) exactly, so the rule over the whole line
    is its nonnegative half with doubled weights, node 0 counting once.
    """
    reach = np.sqrt(2.0 * count + 1.0) + REACH
    step = np.pi / reach
    nodes = step * np.arange(int(reach / step) + 1)
    weights = np.full(nodes.size, 2.0 * step)
    weights[0] = step
    return nodes, weights, hermite_function_table(count, nodes)


def quadrature_gram(multiplier, rule) -> np.ndarray:
    """All pairwise oracle inner products e_m * multiplier * e_n for m, n < count.

    multiplier maps the nodes to its values elementwise, for example
    `lambda x: 1.0 + x * x`, and must be even: multiplier(-x) = multiplier(x).
    The integrals use `rule = trapezoid_rule(count)`, whose table fixes
    the count.  As the multiplier is even, an entry with m + n odd is the
    integral of an odd function, exactly 0; the even-even and odd-odd
    blocks are one product each over the rule's nonnegative half.  The
    Gram is read-only, so that `Blocks.of` holds it without a copy.
    """
    nodes, weights, table = rule
    factors = weights * multiplier(nodes)
    gram = np.zeros((table.shape[0], table.shape[0]))
    for parity in (0, 1):
        block = table[parity::2]
        gram[parity::2, parity::2] = (block * factors) @ block.T
    return read_only(gram)


@dataclass(frozen=True, eq=False)
class HermiteModel:
    """Trusted truncation of the 1 + x^2 model with its oracle residuals.

    X is the truncated matrix of multiplication by 1 + x^2 in the Hermite
    basis, from the closed form of `tail_family`.  x_squared_gram holds
    the quadrature matrix elements of the untruncated (1 + x^2)^2, the
    reference K_phi = X X* is checked against, as the read-only `Blocks`
    that `Blocks.of` makes of them: split into parity blocks like X.
    """

    X: LinearMap
    oracle_residual: float
    x_squared_gram: Blocks


def build_model(dim: int) -> HermiteModel:
    """Build and gate the model: the entries of X against the quadrature oracle.

    The entries of X must match the trapezoidal rule of `trapezoid_rule`
    to ORACLE_TOLERANCE, and the same rule gives the model its Gram of
    (1 + x^2)^2.
    """
    op = LinearMap(tail_family(dim))
    rule = trapezoid_rule(dim)
    residual = (op - Blocks.of(quadrature_gram(lambda x: 1.0 + x * x, rule))).max_abs()
    if residual > ORACLE_TOLERANCE:
        raise OracleMismatch(f"truncated X at dim {dim} deviates from quadrature by {residual:.3e}")
    return HermiteModel(
        X=op,
        oracle_residual=residual,
        x_squared_gram=Blocks.of(quadrature_gram(lambda x: (1.0 + x * x) ** 2, rule)),
    )


def tail_family(dim: int) -> np.ndarray:
    """Closed-form entries of X at truncation dim, read-only: the phi family of the growth diagnostics."""
    n = np.arange(dim)
    entries = np.zeros((dim, dim))
    entries[n, n] = x_entry(n, n)
    band = x_entry(n[:-2], n[2:])
    entries[n[:-2], n[2:]] = band
    entries[n[2:], n[:-2]] = band
    return read_only(entries)


def tail_pairings(x: np.ndarray) -> np.ndarray:
    """The pairings <phi_k, x> = (X x)_k of x with the tail family at truncation len(x).

    They are formed from X's three closed-form bands in O(len(x)) work,
    without the len(x) x len(x) matrix of `tail_family`.  X is real, so
    their moduli are those of <x, phi_k>.
    """
    x = np.asarray(x)
    n = np.arange(x.size)
    band = x_entry(n[:-2], n[2:])
    pairings = x_entry(n, n) * x
    pairings[:-2] += band * x[2:]
    pairings[2:] += band * x[:-2]
    return pairings


def verify_K_psi(model: HermiteModel, sys: BiorthogonalSystem, ops: FrameOperators, tolerance: float) -> CheckReport:
    """The model's oracle residuals, and the frame operators of the system on its X against X^2 and X^-2.

    K_phi is compared with the quadrature Gram of the untruncated
    (1 + x^2)^2, relative in Frobenius norm.  X is pentadiagonal, so the
    truncation reaches rows dim - 2 and dim - 1 of X X*: the K_phi block
    stops below dim - 2, and is empty (detail 0) at dim 2.  K_psi is read
    against X^-1 X^-1 column by column, relative to each column of
    X^-1 X^-1; both are truncated objects and agree at every index.  That
    X^-1 comes from an LU solve per block of X, not from the SVD inverse
    that built psi: with the one inverse both sides would be a single
    computation that no defect in it can fail.  The model's entry-oracle
    deviation counts towards the residual too.
    """
    dim = model.X.dim
    k_phi = ops.k_phi.leading(dim - 2)
    x2 = model.x_squared_gram.leading(dim - 2)
    x_inv = _lu_inverse(model.X)
    x_inv2 = x_inv @ x_inv
    details = {
        "k_phi_vs_x_squared": relative_frobenius(k_phi - x2, x2),
        "k_psi_vs_solved_inverse_squared": float(column_residuals(x_inv2, ops.k_psi - x_inv2)[0].max()),
        "entry_oracle": model.oracle_residual,
    }
    return make_report("hermite_oracle", worst(details.values()), tolerance, details=details)
