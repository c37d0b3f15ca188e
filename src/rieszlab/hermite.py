"""Hermite-function model: multiplication by 1 + x^2 in the oscillator basis.

The truncated matrix X of the multiplication operator is pentadiagonal
with closed-form entries.  Every entry is cross-checked against a
Gauss-Hermite quadrature oracle before the model is trusted; the same
oracle supplies independent values for inner products against the exact
(untruncated) inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite

from .errors import IndexTooLarge, OracleMismatch
from .linalg import KetVector, LinearMap, invert
from .reporting import CheckReport, make_report
from .systems import (
    BiorthogonalSystem,
    ConstructingPair,
    build_system,
    frame_operator,
)

HERMITE_MAX_INDEX = 200
ORACLE_TOLERANCE = 1e-9
# Gauss-Hermite is exact only for polynomial integrands; the rational
# multiplier converges geometrically, and this floor puts it past 1e-12.
RATIONAL_ORDER_FLOOR = 256
DOUBLING_TOLERANCE = 1e-10

MULTIPLIERS = ("one", "one_plus_x2", "inv_one_plus_x2")


def x_entry(i: int, j: int) -> float:
    """Closed-form matrix element <e_i, (1 + x^2) e_j>."""
    if i == j:
        return i + 1.5
    lo = min(i, j)
    if abs(i - j) == 2:
        return np.sqrt((lo + 1.0) * (lo + 2.0)) / 2.0
    return 0.0


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


def hermite_function(n: int, x) -> np.ndarray | float:
    """n-th normalized Hermite function e_n(x)."""
    if n < 0 or n > HERMITE_MAX_INDEX:
        raise IndexTooLarge(f"index {n} outside supported range 0..{HERMITE_MAX_INDEX}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    values = hermite_function_table(n + 1, arr)[n]
    return float(values[0]) if np.isscalar(x) or np.ndim(x) == 0 else values


def gauss_hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and raw Gauss-Hermite weights of the given order."""
    nodes, weights = roots_hermite(order)
    return nodes, weights


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
    if multiplier == "inv_one_plus_x2":
        return 1.0 / (1.0 + nodes * nodes)
    raise ValueError(f"unknown multiplier {multiplier!r}; expected one of {MULTIPLIERS}")


def _default_order(m: int, n: int, multiplier: str) -> int:
    if multiplier == "inv_one_plus_x2":
        return max(4 * (max(m, n) + 1), RATIONAL_ORDER_FLOOR)
    return max(m + n + 8, 32)


def quadrature_inner_product(m: int, n: int, multiplier: str = "one", order: int | None = None) -> float:
    """Oracle value of the integral of e_m(x) * mult(x) * e_n(x)."""
    if order is None:
        order = _default_order(m, n, multiplier)
    nodes, weights = gauss_hermite_rule(order)
    factors = _lifted_weights(nodes, weights) * _multiplier_values(multiplier, nodes)
    table = hermite_function_table(max(m, n) + 1, nodes)
    return float(np.sum(table[m] * factors * table[n]))


def quadrature_gram(count: int, multiplier: str, order: int) -> np.ndarray:
    """All pairwise oracle inner products e_m * mult * e_n for m, n < count."""
    nodes, weights = gauss_hermite_rule(order)
    factors = _lifted_weights(nodes, weights) * _multiplier_values(multiplier, nodes)
    table = hermite_function_table(count, nodes)
    return (table * factors) @ table.T


def oracle_deviation(entries: np.ndarray, multiplier: str, order: int) -> float:
    """Max deviation of a closed-form matrix from the quadrature oracle."""
    gram = quadrature_gram(entries.shape[0], multiplier, order)
    return float(np.abs(entries - gram).max())


def build_X(dim: int, verify: bool = True, oracle_tolerance: float = ORACLE_TOLERANCE) -> LinearMap:
    """Truncated matrix of multiplication by 1 + x^2 in the Hermite basis."""
    entries = np.zeros((dim, dim))
    for n in range(dim):
        entries[n, n] = x_entry(n, n)
        if n + 2 < dim:
            entries[n, n + 2] = entries[n + 2, n] = x_entry(n, n + 2)
    if verify:
        deviation = oracle_deviation(entries, "one_plus_x2", 4 * dim)
        if deviation > oracle_tolerance:
            raise OracleMismatch(
                f"truncated X at dim {dim} deviates from quadrature by {deviation:.3e}"
            )
    return LinearMap(entries)


@dataclass(frozen=True, eq=False)
class HermiteModel:
    """Trusted truncation of the 1 + x^2 model with its quadrature rule."""

    dim: int
    X: LinearMap
    quadrature_order: int
    nodes: np.ndarray
    weights: np.ndarray
    oracle_residual: float
    rational_convergence: float


def build_model(dim: int, oracle_tolerance: float = ORACLE_TOLERANCE) -> HermiteModel:
    """Build and gate the model: entry oracle plus rational-rule convergence.

    The rational multiplier has no polynomial exactness, so its rule is
    accepted only if doubling the order moves no value by more than
    DOUBLING_TOLERANCE.
    """
    order = 4 * dim
    entries = build_X(dim, verify=False).entries
    residual = oracle_deviation(entries, "one_plus_x2", order)
    if residual > oracle_tolerance:
        raise OracleMismatch(f"truncated X at dim {dim} deviates from quadrature by {residual:.3e}")
    base_order = max(order, RATIONAL_ORDER_FLOOR)
    once = quadrature_gram(dim, "inv_one_plus_x2", base_order)
    twice = quadrature_gram(dim, "inv_one_plus_x2", 2 * base_order)
    convergence = float(np.abs(once - twice).max())
    if convergence > DOUBLING_TOLERANCE:
        raise OracleMismatch(
            f"rational quadrature not converged at order {base_order}: {convergence:.3e}"
        )
    nodes, weights = gauss_hermite_rule(order)
    return HermiteModel(
        dim=dim,
        X=LinearMap(entries),
        quadrature_order=order,
        nodes=nodes,
        weights=weights,
        oracle_residual=residual,
        rational_convergence=convergence,
    )


def build_example_system(dim: int, tolerance: float = 1e-8, verify: bool = True) -> BiorthogonalSystem:
    """Biorthogonal pair phi_n = X e_n, psi_n = X^-1 e_n (X is self-adjoint)."""
    return build_system(ConstructingPair(build_X(dim, verify=verify)), tolerance=tolerance)


def tail_coefficient_vector(coefficients, dim: int) -> KetVector:
    """First dim coefficients of an infinite coefficient sequence."""
    coeffs = np.asarray([coefficients(n) for n in range(dim)] if callable(coefficients) else coefficients[:dim])
    return KetVector(coeffs.astype(np.complex128))


def tail_family(dim: int) -> tuple[KetVector, ...]:
    """phi columns at truncation dim, for the growing-truncation diagnostics."""
    x = build_X(dim, verify=False)
    return tuple(KetVector(x.entries[:, k].copy()) for k in range(dim))


def verify_K_psi(
    model: HermiteModel,
    margin: int | None = None,
    tolerance: float = 1e-6,
    seed: int = 0,
    samples: int = 20,
) -> CheckReport:
    """Frame operators of the example system on the model's gated X against X^2 and X^-2.

    Residuals are relative Frobenius norms over the interior block
    (indices below dim - margin); the dual form is also spot-checked as
    <X^-1 f, X^-1 g> on interior-supported random vectors.
    """
    dim = model.dim
    margin = dim // 2 if margin is None else margin
    interior = dim - margin
    x = model.X
    sys = build_system(ConstructingPair(x))
    x_inv = invert(x)
    k_phi = frame_operator(sys.phi).entries
    k_psi = frame_operator(sys.psi).entries
    x2 = x.entries @ x.entries
    x_inv2 = x_inv.entries @ x_inv.entries
    blk = np.s_[:interior, :interior]

    def rel(delta: np.ndarray, ref: np.ndarray) -> float:
        return float(np.linalg.norm(delta) / np.linalg.norm(ref))

    rng = np.random.default_rng(seed)
    worst_form = 0.0
    psi_m = sys.psi_matrix()
    for _ in range(samples):
        f = np.zeros(dim, dtype=np.complex128)
        g = np.zeros(dim, dtype=np.complex128)
        f[:interior] = rng.standard_normal(interior) + 1j * rng.standard_normal(interior)
        g[:interior] = rng.standard_normal(interior) + 1j * rng.standard_normal(interior)
        terms = np.conj(psi_m.conj().T @ f) * (psi_m.conj().T @ g)
        through_inverse = np.vdot(x_inv.entries @ f, x_inv.entries @ g)
        omega_psi = terms.sum()
        worst_form = max(worst_form, abs(omega_psi - through_inverse) / (1.0 + abs(omega_psi)))

    details = {
        "k_phi_vs_x_squared": rel(k_phi[blk] - x2[blk], x2[blk]),
        "k_psi_vs_x_inverse_squared": rel(k_psi[blk] - x_inv2[blk], x_inv2[blk]),
        "omega_psi_through_inverse": worst_form,
        "interior": interior,
    }
    residual = max(v for k, v in details.items() if k != "interior")
    return make_report("hermite_frame_identities", residual, tolerance, details=details)
