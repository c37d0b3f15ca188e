"""Hermite-function model: multiplication by 1 + x^2 in the oscillator basis.

The truncated matrix X of the multiplication operator is pentadiagonal
with closed-form entries.  Every entry is cross-checked against a
trapezoidal quadrature oracle before the model is trusted; the same
oracle supplies independent values for inner products against the exact
(untruncated) square and inverse.  It needs numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleMismatch
from .forms import omega
from .linalg import Blocks, LinearMap, invert, real_or_complex, solve
from .reporting import CheckReport, make_report, relative_frobenius, worst
from .systems import BiorthogonalSystem, FrameOperators

ORACLE_TOLERANCE = 1e-9
DOUBLING_TOLERANCE = 1e-10
# How far the quadrature nodes reach past the top turning point, and the
# scale of the step: aliasing near e^{-2 REACH}, cut tail below e^{-REACH^2}.
# At 16 the doubling gate still reads the coarse rule's aliasing at small
# dimensions (2.7e-15 at dim 2, 4.4e-16 at 17); at 17 it stays below
# 1.7e-15 at every dimension up to MAX_DIMENSION.
REACH = 17
# Largest dimension up to which the oracle gate passes: deviation 6.5e-10
# at 686, 1.1e-9 at 687 against ORACLE_TOLERANCE (checked at every
# dimension up to 700).  Beyond it e_0 = pi^-1/4 e^{-x^2/2}, where the
# recurrence starts, underflows near the top turning point.
MAX_DIMENSION = 686
MAX_DIMENSION_REASON = "beyond it the Hermite-function recurrence of the quadrature oracle underflows"

MULTIPLIERS = ("one", "one_plus_x2", "one_plus_x2_squared", "inv_one_plus_x2")
FORM_SAMPLES = 20  # random vector pairs of the Omega spot check


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


def trapezoid_rule(count: int, refinement: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and the first `count` Hermite functions of the trapezoidal rule on the half-line.

    The step is pi / (t + REACH) / refinement, with t = sqrt(2 count + 1)
    the top turning point; the nodes j * step run from 0 to t + REACH.
    The products e_m e_n have their Fourier transforms in |w| <= 2 t, so
    the aliasing error for 1 / (1 + x^2), whose transform is pi e^{-|w|},
    is near e^{-2 REACH} at refinement 1, and the cut tail is below
    e^{-REACH^2} (Trefethen & Weideman, SIAM Review 56, 2014).  Every
    multiplier is even, and the recurrence of `hermite_function_table`
    gives e_k(-x) = (-1)^k e_k(x) exactly, so the rule over the whole line
    is its nonnegative half with doubled weights, node 0 counting once.
    """
    reach = np.sqrt(2.0 * count + 1.0) + REACH
    step = np.pi / reach / refinement
    nodes = step * np.arange(int(reach / step) + 1)
    weights = np.full(nodes.size, 2.0 * step)
    weights[0] = step
    return nodes, weights, hermite_function_table(count, nodes)


def _every_other_node(rule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule at half the refinement, bit for bit: its even nodes, doubled weights and even columns.

    Halving the step is exact in binary, so node 2j of refinement 2 is
    node j of refinement 1, and the table is evaluated node by node.
    """
    nodes, weights, table = rule
    return nodes[::2].copy(), 2.0 * weights[::2], np.ascontiguousarray(table[:, ::2])


def quadrature_gram(multiplier: str, rule) -> np.ndarray:
    """All pairwise oracle inner products e_m * mult * e_n for m, n < count.

    The integrals use `rule = trapezoid_rule(count, refinement)`, whose
    table fixes the count.  Every multiplier is even, so an entry with
    m + n odd is the integral of an odd function, exactly 0; the even-even
    and odd-odd blocks are one product each over the rule's nonnegative half.
    """
    nodes, weights, table = rule
    factors = weights * _multiplier_values(multiplier, nodes)
    gram = np.zeros((table.shape[0], table.shape[0]))
    for parity in (0, 1):
        block = table[parity::2]
        gram[parity::2, parity::2] = (block * factors) @ block.T
    return gram


@dataclass(frozen=True, eq=False)
class HermiteModel:
    """Trusted truncation of the 1 + x^2 model with its oracle residuals.

    X is the truncated matrix of multiplication by 1 + x^2 in the Hermite
    basis, from the closed form of `tail_family`.  x_squared_gram holds
    the quadrature matrix elements of the untruncated (1 + x^2)^2, the
    reference K_phi = X X* is checked against.
    """

    dim: int
    X: LinearMap
    oracle_residual: float
    rational_convergence: float
    x_squared_gram: np.ndarray


def build_model(dim: int) -> HermiteModel:
    """Build and gate the model: entry oracle plus rational-rule convergence.

    The entries of X must match the trapezoidal rule of `trapezoid_rule`
    to ORACLE_TOLERANCE, and the same rule gives the model its Gram of
    (1 + x^2)^2.  The rational multiplier is accepted only if halving the
    step moves no value by more than DOUBLING_TOLERANCE.  The Hermite
    functions are evaluated once, on the halved step's nodes; the coarse
    rule takes every other one.
    """
    x = LinearMap(tail_family(dim))
    fine = trapezoid_rule(dim, 2)
    rule = _every_other_node(fine)
    residual = (x - Blocks.of(quadrature_gram("one_plus_x2", rule))).max_abs()
    if residual > ORACLE_TOLERANCE:
        raise OracleMismatch(f"truncated X at dim {dim} deviates from quadrature by {residual:.3e}")
    once = quadrature_gram("inv_one_plus_x2", rule)
    twice = quadrature_gram("inv_one_plus_x2", fine)
    convergence = float(np.abs(once - twice).max())
    if convergence > DOUBLING_TOLERANCE:
        raise OracleMismatch(f"rational quadrature not converged at dim {dim}: {convergence:.3e}")
    x_squared_gram = quadrature_gram("one_plus_x2_squared", rule)
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
    tolerance: float,
    seed: int,
) -> CheckReport:
    """The model's oracle residuals, and the frame operators of the system on its X against X^2 and X^-2.

    K_phi is compared with the quadrature Gram of the untruncated
    (1 + x^2)^2, K_psi with the product X^-1 X^-1.  Residuals are relative
    Frobenius norms; K_psi and X^-1 X^-1 are both truncated objects and
    agree at every index.  X is pentadiagonal, so the truncation reaches
    rows dim - 2 and dim - 1 of X X*: the K_phi block stops below dim - 2,
    and is empty (detail 0) at dim 2.  The dual form Omega over psi is
    also spot-checked against <X^-1 f, X^-1 g> on FORM_SAMPLES random
    vector pairs that span every index.  The model's entry-oracle
    deviation and rational convergence count towards the residual too.
    """
    dim = model.dim
    x = model.X
    x_inv = invert(x)
    k_phi = ops.k_phi.leading(dim - 2)
    k_psi = ops.k_psi
    x2 = Blocks.of(model.x_squared_gram).leading(dim - 2)
    x_inv2 = x_inv @ x_inv

    # Per sample the draws come in the order Re f, Im f, Re g, Im g.
    draws = np.random.default_rng(seed).standard_normal((FORM_SAMPLES, 4, dim))
    f = (draws[:, 0] + 1j * draws[:, 1]).T
    g = (draws[:, 2] + 1j * draws[:, 3]).T
    omega_psi = omega(f, g, sys.psi)
    # X^-1 f and X^-1 g by an LU solve per block of the real X, on the
    # samples' real and imaginary parts, not from the SVD inverse that built
    # psi: with the same matrix both sides would be one computation.
    solved = solve(x, np.hstack([f, g]))
    through_inverse = np.sum(np.conj(solved[:, :FORM_SAMPLES]) * solved[:, FORM_SAMPLES:], axis=0)
    worst_form = float(np.max(np.abs(omega_psi - through_inverse) / (1.0 + np.abs(omega_psi))))

    details = {
        "k_phi_vs_x_squared": relative_frobenius(k_phi - x2, x2),
        "k_psi_vs_x_inverse_squared": relative_frobenius(k_psi - x_inv2, x_inv2),
        "omega_psi_through_inverse": worst_form,
        "entry_oracle": model.oracle_residual,
        "rational_convergence": model.rational_convergence,
    }
    residual = worst(details.values())
    return make_report("hermite_oracle", residual, tolerance, details=details)
