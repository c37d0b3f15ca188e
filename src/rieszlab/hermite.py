"""Hermite-function model: multiplication by 1 + x^2 in the oscillator basis.

The truncated matrix X of the multiplication operator is pentadiagonal
with closed-form entries.  Every entry is cross-checked against a
Gauss-Hermite quadrature oracle before the model is trusted; the same
oracle supplies independent values for inner products against the exact
(untruncated) square and inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .errors import OracleMismatch
from .forms import omega
from .linalg import LinearMap, invert, real_or_complex
from .reporting import CheckReport, make_report
from .systems import BiorthogonalSystem, FrameOperators

ORACLE_TOLERANCE = 1e-9
# Gauss-Hermite is exact only for polynomial integrands; the rational
# multiplier converges geometrically, and this floor puts it past 1e-12.
RATIONAL_ORDER_FLOOR = 256
DOUBLING_TOLERANCE = 1e-10
# Largest dimension whose oracle gate passes: deviation 8.7e-10 at 325,
# 5.5e-9 at 326 against ORACLE_TOLERANCE (found by bisection, and every
# smaller dimension passes).  Beyond it the raw weights of the order
# 4 * dim rule underflow where the top Hermite functions still have mass.
MAX_DIMENSION = 325
MAX_DIMENSION_REASON = "beyond it the Gauss-Hermite weights of the quadrature oracle underflow"

MULTIPLIERS = ("one", "one_plus_x2", "one_plus_x2_squared", "inv_one_plus_x2")


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


def _lifted_weights(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # The integrands carry their own Gaussian, so fold e^{x^2} into the
    # weights; do it in log space since the raw weights underflow first.
    with np.errstate(divide="ignore"):
        return np.exp(np.log(weights) + nodes * nodes)


def _multiplier_values(multiplier: str, nodes: np.ndarray) -> np.ndarray:
    if multiplier == "one":
        return np.ones_like(nodes)
    if multiplier == "one_plus_x2":
        return 1.0 + nodes * nodes
    if multiplier == "one_plus_x2_squared":
        return (1.0 + nodes * nodes) ** 2
    if multiplier == "inv_one_plus_x2":
        return 1.0 / (1.0 + nodes * nodes)
    raise ValueError(f"unknown multiplier {multiplier!r}; expected one of {MULTIPLIERS}")


def gauss_hermite_rule(count: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, lifted weights and the first `count` Hermite functions at the nodes of one rule."""
    nodes, weights = roots_hermite(order)
    return nodes, _lifted_weights(nodes, weights), hermite_function_table(count, nodes)


def quadrature_gram(count: int, multiplier: str, order: int, rule=None) -> np.ndarray:
    """All pairwise oracle inner products e_m * mult * e_n for m, n < count.

    The integrals use the Gauss-Hermite rule of the given order; `rule`
    passes in `gauss_hermite_rule(count, order)` when a caller already
    holds it.
    """
    nodes, lifted, table = gauss_hermite_rule(count, order) if rule is None else rule
    factors = lifted * _multiplier_values(multiplier, nodes)
    return (table * factors) @ table.T


def oracle_deviation(entries: np.ndarray, multiplier: str, order: int, rule=None) -> float:
    """Max deviation of a closed-form matrix from the quadrature oracle."""
    gram = quadrature_gram(entries.shape[0], multiplier, order, rule)
    return float(np.abs(entries - gram).max())


def build_X(dim: int) -> LinearMap:
    """Truncated matrix of multiplication by 1 + x^2 in the Hermite basis.

    The entries come from the closed form alone; `build_model` gates them
    against the quadrature oracle.
    """
    return LinearMap(tail_family(dim))


@dataclass(frozen=True, eq=False)
class HermiteModel:
    """Trusted truncation of the 1 + x^2 model with its oracle residuals.

    x_squared_gram holds the quadrature matrix elements of the untruncated
    (1 + x^2)^2, the reference K_phi = X X* is checked against.
    """

    dim: int
    X: LinearMap
    oracle_residual: float
    rational_convergence: float
    x_squared_gram: np.ndarray


def build_model(dim: int, oracle_tolerance: float = ORACLE_TOLERANCE) -> HermiteModel:
    """Build and gate the model: entry oracle plus rational-rule convergence.

    The entries of X must match a Gauss-Hermite rule of order 4 * dim.  The
    rational multiplier has no polynomial exactness, so its rule is
    accepted only if doubling the order moves no value by more than
    DOUBLING_TOLERANCE.  The entry rule also integrates (1 + x^2)^2 exactly
    (degree 2 dim + 2 < 8 dim), which gives the model its Gram of X^2.
    """
    order = 4 * dim
    x = build_X(dim)
    rule = gauss_hermite_rule(dim, order)
    residual = oracle_deviation(x.entries, "one_plus_x2", order, rule)
    if residual > oracle_tolerance:
        raise OracleMismatch(f"truncated X at dim {dim} deviates from quadrature by {residual:.3e}")
    base_order = max(order, RATIONAL_ORDER_FLOOR)
    # From dim 64 on the entry gate's rule is the first rational rule too.
    shared = rule if base_order == order else None
    once = quadrature_gram(dim, "inv_one_plus_x2", base_order, shared)
    twice = quadrature_gram(dim, "inv_one_plus_x2", 2 * base_order)
    convergence = float(np.abs(once - twice).max())
    if convergence > DOUBLING_TOLERANCE:
        raise OracleMismatch(
            f"rational quadrature not converged at order {base_order}: {convergence:.3e}"
        )
    x_squared_gram = quadrature_gram(dim, "one_plus_x2_squared", order, rule)
    x_squared_gram.setflags(write=False)
    return HermiteModel(
        dim=dim,
        X=x,
        oracle_residual=residual,
        rational_convergence=convergence,
        x_squared_gram=x_squared_gram,
    )


def tail_coefficient_vector(coefficients, dim: int) -> np.ndarray:
    """First dim coefficients of the infinite sequence n -> coefficients(n); float64 when all are real."""
    return real_or_complex([coefficients(n) for n in range(dim)])


def tail_family(dim: int) -> np.ndarray:
    """Closed-form entries of X at truncation dim: the phi family of the growth diagnostics."""
    n = np.arange(dim)
    entries = np.zeros((dim, dim))
    entries[n, n] = x_entry(n, n)
    band = x_entry(n[:-2], n[2:])
    entries[n[:-2], n[2:]] = band
    entries[n[2:], n[:-2]] = band
    return entries


def verify_K_psi(
    model: HermiteModel,
    sys: BiorthogonalSystem,
    ops: FrameOperators,
    margin: int | None = None,
    tolerance: float = 1e-6,
    seed: int = 0,
    samples: int = 20,
) -> CheckReport:
    """Frame operators of the system built on the model's gated X against X^2 and X^-2.

    K_phi is compared with the quadrature Gram of the untruncated
    (1 + x^2)^2, K_psi with the product X^-1 X^-1.  Residuals are relative
    Frobenius norms over the interior block (indices below dim - margin);
    the dual form Omega over psi is also spot-checked against
    <X^-1 f, X^-1 g> on interior-supported random vectors.  X is
    pentadiagonal, so the truncation reaches rows dim - 2 and dim - 1 of
    X X*: the K_phi block also stops below dim - 2, and is empty (detail 0)
    at dim 2.
    """
    dim = model.dim
    margin = dim // 2 if margin is None else margin
    interior = dim - margin
    x = model.X
    x_inv = invert(x)
    k_phi = ops.k_phi.entries
    k_psi = ops.k_psi.entries
    x2 = model.x_squared_gram
    x_inv2 = x_inv.entries @ x_inv.entries
    blk = np.s_[:interior, :interior]
    exact = min(interior, dim - 2)
    phi_blk = np.s_[:exact, :exact]

    def rel(delta: np.ndarray, ref: np.ndarray) -> float:
        return float(np.linalg.norm(delta) / np.linalg.norm(ref)) if ref.size else 0.0

    # Per sample the draws come in the order Re f, Im f, Re g, Im g.
    draws = np.random.default_rng(seed).standard_normal((samples, 4, interior))
    f = np.zeros((dim, samples), dtype=np.complex128)
    g = np.zeros((dim, samples), dtype=np.complex128)
    f[:interior] = (draws[:, 0] + 1j * draws[:, 1]).T
    g[:interior] = (draws[:, 2] + 1j * draws[:, 3]).T
    omega_psi = omega(f, g, sys.psi)
    # X^-1 f and X^-1 g by an LU solve, not from the SVD inverse that built
    # psi: with the same matrix both sides would be one computation.
    solved = np.linalg.solve(x.entries, np.hstack([f, g]))
    through_inverse = np.sum(np.conj(solved[:, :samples]) * solved[:, samples:], axis=0)
    worst_form = float(np.max(np.abs(omega_psi - through_inverse) / (1.0 + np.abs(omega_psi))))

    details = {
        "k_phi_vs_x_squared": rel(k_phi[phi_blk] - x2[phi_blk], x2[phi_blk]),
        "k_psi_vs_x_inverse_squared": rel(k_psi[blk] - x_inv2[blk], x_inv2[blk]),
        "omega_psi_through_inverse": worst_form,
        "interior": interior,
    }
    residual = max(v for k, v in details.items() if k != "interior")
    return make_report("hermite_frame_identities", residual, tolerance, details=details)
