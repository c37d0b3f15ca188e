"""Diagonal and similarity-transformed Hamiltonians and ladder operators.

Given an eigenvalue sequence alpha and the invertible map T that
constructs phi_n = T e_n, the diagonal Hamiltonian diag(alpha) and the
shift operators A, B act on the reference basis; conjugating by T (for
the phi family) or by (T*)^-1 (for the dual family) produces the
non-self-adjoint counterparts.  The checks certify their eigenrelations,
ladder actions, adjoint pairings, product identities, and the truncated
canonical commutation relation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import matmul
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, WrongAlphaKind
from .linalg import LinearMap, invert, real_or_complex
from .reporting import CheckReport, make_report
from .systems import BiorthogonalSystem, family_matrix

MAX_PRODUCT_POWER = 8   # entries grow like alpha^(m+l) * cond(T); keep residuals meaningful
CCR_TRANSFORMED_RTOL = 1e-10


def _require_length(alpha: np.ndarray, dim: int) -> np.ndarray:
    """The first dim values of alpha, float64 or complex128 by `real_or_complex`."""
    v = real_or_complex(alpha)
    if v.shape[0] < dim:
        raise DimensionMismatch(f"alpha has {v.shape[0]} values, need at least {dim}")
    return v[:dim]


class WeightedShift:
    """The reference-basis operator W e_j = coefficients[j] e_{j + offset}.

    A coefficient is 0 wherever j + offset leaves 0 .. N-1, so an offset of
    N or more is the zero operator.  `left @ W` scales and shifts the
    columns of left, and `W1 @ W2` is again a weighted shift; both form,
    entry by entry, the one nonzero product the dense gemm would form, so
    for real coefficients they hold its bits at O(N^2) and O(N) cost.
    Coefficients are float64 or complex128 by `real_or_complex`; results
    take numpy's result type of their operands.
    """

    __slots__ = ("offset", "coefficients")
    __array_ufunc__ = None  # so that ndarray @ WeightedShift calls __rmatmul__

    def __init__(self, offset: int, coefficients):
        self.offset = offset
        self.coefficients = real_or_complex(coefficients)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def _span(self) -> slice:
        """The columns j with j + offset inside the space; empty once |offset| >= N."""
        start = min(max(0, -self.offset), self.dim)
        return slice(start, max(start, self.dim - max(0, self.offset)))

    def __matmul__(self, right: "WeightedShift") -> "WeightedShift":
        span = right._span()
        c = np.zeros(self.dim, dtype=np.result_type(self.coefficients, right.coefficients))
        left = self.coefficients[span.start + right.offset : span.stop + right.offset]
        c[span] = left * right.coefficients[span]
        return WeightedShift(self.offset + right.offset, c)

    def __rmatmul__(self, left: np.ndarray) -> np.ndarray:
        span = self._span()
        out = np.zeros(left.shape, dtype=np.result_type(left, self.coefficients))
        np.multiply(
            left[:, span.start + self.offset : span.stop + self.offset],
            self.coefficients[span],
            out=out[:, span],
        )
        return out


def hamiltonian_shift(alpha: np.ndarray, dim: int) -> WeightedShift:
    """H_e = diag(alpha_0 .. alpha_{N-1}), offset 0; self-adjoint exactly when alpha is real."""
    return WeightedShift(0, _require_length(alpha, dim))


def ladder_shifts(alpha: np.ndarray, dim: int) -> tuple[WeightedShift, WeightedShift]:
    """Lowering A_e (e_n -> alpha_n e_{n-1}) and raising B_e (e_n -> alpha_{n+1} e_{n+1}).

    The top raising coefficient is truncated: B_e e_{N-1} = 0.
    """
    v = _require_length(alpha, dim)
    lowering = np.zeros(dim, dtype=v.dtype)
    raising = np.zeros(dim, dtype=v.dtype)
    lowering[1:] = v[1:]
    raising[:-1] = v[1:]
    return WeightedShift(-1, lowering), WeightedShift(1, raising)


def transform(op_e: WeightedShift, t: LinearMap, side: str) -> LinearMap:
    """Conjugate a reference-basis shift: T op T^-1 or (T*)^-1 op T*, one gemm each."""
    t_inv = invert(t)
    if side == "phi_psi":
        return LinearMap(t.entries @ op_e @ t_inv.entries)
    if side == "psi_phi":
        t_adj_inv = t_inv.entries.conj().T
        return LinearMap(t_adj_inv @ op_e @ t.entries.conj().T)
    raise ValueError(f"unknown side {side!r}; expected 'phi_psi' or 'psi_phi'")


def sum_form_hamiltonian(sys: BiorthogonalSystem, alpha: np.ndarray) -> LinearMap:
    """sum_n alpha_n (outer product of phi_n with psi_n)."""
    v = _require_length(alpha, sys.dim)
    return LinearMap((sys.phi * v) @ sys.psi.conj().T)


def eigen_check(
    h: LinearMap,
    family: np.ndarray,
    alpha: np.ndarray,
    tolerance: float = 1e-8,
    indices: Sequence[int] | None = None,
) -> CheckReport:
    """Residual of H v_k = alpha_k v_k over the family."""
    m = family_matrix(family)
    v = _require_length(alpha, m.shape[1])
    resid = np.linalg.norm(h.entries @ m - m * v, axis=0)
    resid = resid / np.maximum(1.0, np.linalg.norm(m, axis=0))
    sel = np.arange(m.shape[1]) if indices is None else np.asarray(list(indices), dtype=int)
    worst = int(sel[np.argmax(resid[sel])])
    return make_report(
        "eigen_relation",
        float(resid[sel].max()),
        tolerance,
        details={"worst_index": worst, "indices_checked": len(sel)},
    )


def ladder_check(
    a: LinearMap,
    b: LinearMap,
    family: np.ndarray,
    alpha: np.ndarray,
    tolerance: float = 1e-9,
) -> CheckReport:
    """Lowering/raising actions on the family, edge raising index reported apart.

    A v_0 must vanish (the expected value is the zero vector); A v_n is
    compared with alpha_n v_{n-1} and B v_n with alpha_{n+1} v_{n+1} for
    n <= N-2.  The truncated raising action on v_{N-1} has no in-space
    reference and is excluded from the verdict.
    """
    m = family_matrix(family)
    dim = m.shape[1]
    v = _require_length(alpha, dim)
    norms = np.maximum(1.0, np.linalg.norm(m, axis=0))
    low = a.entries @ m
    high = b.entries @ m
    ground = float(np.linalg.norm(low[:, 0]) / norms[0])
    low_resid = np.linalg.norm(low[:, 1:] - m[:, :-1] * v[1:], axis=0) / norms[1:]
    high_resid = np.linalg.norm(high[:, :-1] - m[:, 1:] * v[1:], axis=0) / norms[:-1]
    edge = float(np.linalg.norm(high[:, -1]) / norms[-1])
    details = {
        "lowering_ground": ground,
        "lowering_max": float(low_resid.max()) if low_resid.size else 0.0,
        "raising_max": float(high_resid.max()) if high_resid.size else 0.0,
        "raising_edge_norm": edge,
    }
    residual = max(details["lowering_ground"], details["lowering_max"], details["raising_max"])
    return make_report("ladder_actions", residual, tolerance, details=details)


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Reference-basis shifts, both transformed families, and the alpha_0 .. alpha_{N-1} and T they come from."""

    h_e: WeightedShift
    a_e: WeightedShift
    b_e: WeightedShift
    h_phi_psi: LinearMap
    h_psi_phi: LinearMap
    a_phi_psi: LinearMap
    b_phi_psi: LinearMap
    a_psi_phi: LinearMap
    b_psi_phi: LinearMap
    alpha: np.ndarray
    t: LinearMap


def build_operator_set(t: LinearMap, alpha: np.ndarray) -> OperatorSet:
    alpha = _require_length(alpha, t.dim)
    h_e = hamiltonian_shift(alpha, t.dim)
    a_e, b_e = ladder_shifts(alpha, t.dim)
    return OperatorSet(
        h_e=h_e,
        a_e=a_e,
        b_e=b_e,
        h_phi_psi=transform(h_e, t, "phi_psi"),
        h_psi_phi=transform(h_e, t, "psi_phi"),
        a_phi_psi=transform(a_e, t, "phi_psi"),
        b_phi_psi=transform(b_e, t, "phi_psi"),
        a_psi_phi=transform(a_e, t, "psi_phi"),
        b_psi_phi=transform(b_e, t, "psi_phi"),
        alpha=alpha,
        t=t,
    )


def _rel_frobenius(delta: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(delta) / max(np.linalg.norm(reference), 1e-300))


def adjoint_relation_check(opset: OperatorSet, tolerance: float = 1e-9) -> CheckReport:
    """Adjoints of the transformed operators against their conjugate-alpha partners.

    The adjoint of a lowering operator for one family is the raising
    operator of the dual family with conjugated eigenvalues (and vice
    versa); the Hamiltonians pair with themselves.  In finite dimension
    these are equalities.  For real alpha the conjugate set is the set
    itself; each pairing still sets two different routes side by side.
    """
    conj_set = opset if np.isrealobj(opset.alpha) else build_operator_set(opset.t, opset.alpha.conj())
    pairs = {
        "h_psi_phi_adjoint": (opset.h_psi_phi, conj_set.h_phi_psi),
        "h_phi_psi_adjoint": (opset.h_phi_psi, conj_set.h_psi_phi),
        "a_phi_psi_adjoint": (opset.a_phi_psi, conj_set.b_psi_phi),
        "b_phi_psi_adjoint": (opset.b_phi_psi, conj_set.a_psi_phi),
        "a_psi_phi_adjoint": (opset.a_psi_phi, conj_set.b_phi_psi),
        "b_psi_phi_adjoint": (opset.b_psi_phi, conj_set.a_phi_psi),
    }
    details = {
        name: _rel_frobenius(lhs.entries.conj().T - rhs.entries, rhs.entries)
        for name, (lhs, rhs) in pairs.items()
    }
    return make_report("adjoint_relations", max(details.values()), tolerance, details=details)


def _words(m: int, l: int) -> tuple[tuple, tuple]:
    """A^m B^l and B^m A^l as their (letter, power) factors, zero powers dropped.

    A^0 B^k = B^k A^0, so the pairs (0, k) and (k, 0) name the same two
    operators; the identity is the empty word.
    """
    ab = tuple((x, p) for x, p in (("a", m), ("b", l)) if p)
    ba = tuple((x, p) for x, p in (("b", m), ("a", l)) if p)
    return ab, ba


def _stage(word: tuple) -> tuple:
    """Sort key that groups the words by their highest power above one."""
    return max(((x, p) for x, p in word if p > 1), default=("", 0))


def _shift_power(x: WeightedShift, p: int) -> WeightedShift:
    """x^p for p >= 1, associated as np.linalg.matrix_power associates its products."""
    if p == 3:
        return (x @ x) @ x
    z = power = None
    while p:
        z = x if z is None else z @ z
        p, bit = divmod(p, 2)
        if bit:
            power = z if power is None else power @ z
    return power


def _reference_words(
    a_e: WeightedShift, b_e: WeightedShift, words: Sequence[tuple]
) -> dict[tuple, WeightedShift]:
    """Each word as one weighted shift: powers as matrix_power forms them, then F0 F1."""
    letters = {"a": a_e, "b": b_e}
    factors = dict.fromkeys(f for word in words for f in word)
    powers = {(x, p): _shift_power(letters[x], p) for x, p in factors}
    identity = WeightedShift(0, np.ones(a_e.dim))
    return {word: reduce(matmul, [powers[f] for f in word] or [identity]) for word in words}


class _Powers:
    """Powers of one (A, B) pair of matrices, each formed once and dropped after its last use.

    X^2 = X X, X^3 = X^2 X and X^4 = X^2 X^2 are the products
    np.linalg.matrix_power forms, so the values match it bit for bit;
    higher powers call it.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, words: Sequence[tuple]):
        self._ops = {"a": a, "b": b}
        self._held: dict[tuple[str, int], np.ndarray] = {}
        self._uses = Counter(f for word in words for f in word if f[1] > 1)
        for x, p in list(self._uses):
            if p in (3, 4):
                self._uses[x, 2] += 1

    def _take(self, x: str, p: int) -> np.ndarray:
        op = self._ops[x]
        if p == 1:
            return op
        key = (x, p)
        if key not in self._held:
            if p == 2:
                self._held[key] = op @ op
            elif p == 3:
                self._held[key] = self._take(x, 2) @ op
            elif p == 4:
                square = self._take(x, 2)
                self._held[key] = square @ square
            else:
                self._held[key] = np.linalg.matrix_power(op, p)
        self._uses[key] -= 1
        return self._held[key] if self._uses[key] else self._held.pop(key)

    def word(self, word: tuple) -> np.ndarray | None:
        """The product of the word's factors; None stands for the identity."""
        factors = [self._take(x, p) for x, p in word]
        if not factors:
            return None
        return factors[0] if len(factors) == 1 else factors[0] @ factors[1]


def _deviation(reference: np.ndarray, actual: np.ndarray | None) -> tuple[float, float]:
    """(||actual - reference||, ||reference||), subtracting in the reference's buffer."""
    reference_norm = np.linalg.norm(reference)
    if actual is None:
        reference.flat[:: reference.shape[0] + 1] -= 1.0
    else:
        reference -= actual
    return np.linalg.norm(reference), reference_norm


def _side_deviations(
    left: np.ndarray,
    right: np.ndarray,
    references: dict[tuple, WeightedShift],
    actual_ops: tuple[np.ndarray, np.ndarray],
    words: Sequence[tuple],
) -> dict[tuple, tuple[float, float]]:
    """_deviation for each word on one side.

    The actual operator multiplies powers of the side's transformed A and
    B; the reference is left (A_e^m B_e^l) right, one column shift of left
    and one product.  The two routes share only left and right.
    """
    actual = _Powers(*actual_ops, words)
    return {word: _deviation(left @ references[word] @ right, actual.word(word)) for word in words}


def product_identity_check(
    opset: OperatorSet,
    pairs: Sequence[tuple[int, int]],
    tolerance: float = 1e-10,
) -> CheckReport:
    """A^m B^l products of the transformed operators against conjugated references.

    Covers both orders for both families plus the mixed product
    A_psi_phi B_phi_psi = (T*)^-1 A_e T* T B_e T^-1.  Residuals are
    normalized by the product of the factor norms, which bounds every
    intermediate; the reference itself can vanish (shift operators are
    nilpotent once m or l reaches the dimension).  Returns the report of
    the worst (m, l) pair; on a tie the earlier pair wins.

    Each word A_e^m B_e^l is a weighted shift, built once from the set's
    ladders, so a reference costs one column shift and one product.  One
    side at a time, each distinct operator of the pairs is formed once per
    route and only the two norms of its comparison are kept, so the working
    set stays a few matrices whatever the pair list.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("product identities need at least one (m, l) pair")
    for m, l in pairs:
        if m < 0 or l < 0 or m + l > MAX_PRODUCT_POWER:
            raise ValueError(f"powers must satisfy 0 <= m + l <= {MAX_PRODUCT_POWER}")
    t = opset.t.entries
    t_inv = invert(opset.t).entries

    def rel(deviation: float, reference_norm: float, scale: float) -> float:
        return float(deviation / max(reference_norm, scale, 1e-300))

    a_e, b_e = opset.a_e, opset.b_e
    conjugation = np.linalg.norm(t) * np.linalg.norm(t_inv)
    # a shift's coefficient norm is the Frobenius norm of its matrix
    a_norm, b_norm = np.linalg.norm(a_e.coefficients), np.linalg.norm(b_e.coefficients)
    words = sorted(dict.fromkeys(w for m, l in pairs for w in _words(m, l)), key=_stage)
    references = _reference_words(a_e, b_e, words)  # shared by both sides
    norms = {
        "phi": _side_deviations(
            t, t_inv, references, (opset.a_phi_psi.entries, opset.b_phi_psi.entries), words
        )
    }
    t_adj = t.conj().T
    t_adj_inv = t_inv.conj().T
    # The mixed product does not depend on (m, l).
    mixed = rel(
        *_deviation(
            t_adj_inv @ a_e @ t_adj @ t @ b_e @ t_inv,
            opset.a_psi_phi.entries @ opset.b_phi_psi.entries,
        ),
        conjugation**2 * a_norm * b_norm,
    )
    norms["psi"] = _side_deviations(
        t_adj_inv, t_adj, references, (opset.a_psi_phi.entries, opset.b_psi_phi.entries), words
    )
    worst: CheckReport | None = None
    for m, l in pairs:
        plain_scale = conjugation * a_norm**m * b_norm**l
        ab, ba = _words(m, l)
        details = {
            f"{side}_{order}": rel(*norms[side][word], plain_scale)
            for side in ("phi", "psi")
            for order, word in (("ab", ab), ("ba", ba))
        }
        details["mixed"] = mixed
        report = make_report(
            "product_identities",
            max(details.values()),
            tolerance,
            details={**details, "m": m, "l": l},
        )
        if worst is None or report.residual > worst.residual:
            worst = report
    return worst


def ccr_check(opset: OperatorSet, tolerance: float = 1e-12) -> CheckReport:
    """Truncated commutator A B - B A = 1 - N P_{N-1} for alpha_n = sqrt(n).

    The identity block spans e_0 .. e_{N-2}; the top basis vector carries
    the exact rank-one truncation defect.  The commutator of the set's
    transformed ladder operators is pulled back through the constructing
    map and its interior block compared against the identity at
    CCR_TRANSFORMED_RTOL * cond(T)^2; that residual is rescaled into the
    report so a single tolerance applies.
    """
    dim = opset.t.dim
    if not np.array_equal(opset.alpha, np.sqrt(np.arange(dim))):
        raise WrongAlphaKind("ccr check requires alpha_n = sqrt(n)")
    a, b = opset.a_e, opset.b_e
    # A_e B_e and B_e A_e are shifts of offset 0: the commutator is the diagonal
    # of their coefficient difference, and its off-diagonal entries are exact 0
    comm = (a @ b).coefficients - (b @ a).coefficients
    expected = np.ones(dim)
    expected[-1] = 1.0 - dim
    interior = float(np.abs(comm[: dim - 1] - expected[: dim - 1]).max())
    defect = float(np.abs(comm - expected).max())
    t = opset.t
    at, bt = opset.a_phi_psi.entries, opset.b_phi_psi.entries
    back = invert(t).entries @ (at @ bt - bt @ at) @ t.entries
    t_interior = float(np.abs(back[: dim - 1, : dim - 1] - np.eye(dim - 1)).max())
    t_tol = CCR_TRANSFORMED_RTOL * t.cond_estimate**2
    details = {
        "interior": interior,
        "defect": defect,
        "transformed_interior": t_interior,
        "transformed_tolerance": t_tol,
    }
    # scale onto the base tolerance so pass <=> residual <= tolerance stays exact
    residual = max(interior, defect, t_interior * (tolerance / t_tol))
    return make_report("ccr", residual, tolerance, details=details)


def domain_mapping_check(opset: OperatorSet, tolerance: float = 1e-9) -> CheckReport:
    """Composition order of both similarity transforms on the mapped bases.

    Applying a transformed Hamiltonian to its image basis must reproduce
    the image of the reference action: (T H T^-1)(T e_n) = T (H e_n), and
    likewise with (T*)^-1 for the dual family.  The conditioning of T is
    reported as the amplification factor.
    """
    t = opset.t
    sides = {
        "phi_psi": (opset.h_phi_psi, t.entries),
        "psi_phi": (opset.h_psi_phi, invert(t).entries.conj().T),
    }
    details = {}
    for side, (transformed, image) in sides.items():
        target = image @ opset.h_e
        details[side] = _rel_frobenius(transformed.entries @ image - target, target)
    return make_report(
        "domain_mapping",
        max(details.values()),
        tolerance,
        details=details | {"amplification": t.cond_estimate},
    )
