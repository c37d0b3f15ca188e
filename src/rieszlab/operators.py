"""Diagonal and similarity-transformed Hamiltonians and ladder operators.

Given an eigenvalue sequence alpha and a constructing pair, the diagonal
Hamiltonian diag(alpha) and the shift operators A, B act on the reference
basis; conjugating by T (for the phi family) or by (T*)^-1 (for the dual
family) produces the non-self-adjoint counterparts.  The checks certify
their eigenrelations, ladder actions, adjoint pairings, product
identities, and the truncated canonical commutation relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, WrongAlphaKind
from .linalg import LinearMap, adjoint, invert
from .reporting import CheckReport, make_report
from .systems import BiorthogonalSystem, ConstructingPair, family_matrix

MAX_PRODUCT_POWER = 8   # entries grow like alpha^(m+l) * cond(T); keep residuals meaningful
CCR_TRANSFORMED_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class AlphaSequence:
    """Eigenvalue sequence with the monotonicity/gap metadata used by checks."""

    values: np.ndarray
    kind: str = "custom"
    gap_bound_r: float | None = None

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values))
        v = v.astype(np.complex128) if np.iscomplexobj(v) else v.astype(np.float64)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def sqrt_n(cls, count: int) -> "AlphaSequence":
        return cls(np.sqrt(np.arange(count, dtype=np.float64)), kind="sqrt_n", gap_bound_r=1.0)

    @classmethod
    def linear(cls, count: int) -> "AlphaSequence":
        return cls(np.arange(count, dtype=np.float64), kind="linear", gap_bound_r=1.0)

    @classmethod
    def custom(cls, values, gap_bound_r: float | None = None) -> "AlphaSequence":
        return cls(np.asarray(values), kind="custom", gap_bound_r=gap_bound_r)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values) or bool(np.all(self.values.imag == 0))

    def conjugate(self) -> "AlphaSequence":
        return AlphaSequence(np.conj(self.values), kind=self.kind, gap_bound_r=self.gap_bound_r)

    def __len__(self) -> int:
        return self.values.shape[0]


def validate_alpha(alpha: AlphaSequence) -> CheckReport:
    """Certify 0 <= alpha_0 < alpha_1 < ... with gaps bounded by the declared r."""
    v = alpha.values
    details: dict = {"count": len(alpha)}
    if not alpha.is_real:
        worst = float(np.abs(np.imag(v)).max())
        details["reason"] = "values must be real"
        return make_report("alpha_validation", worst, 0.0, details=details)
    v = np.real(v).astype(float)
    violation = 0.0
    first_bad = -1
    if v[0] < 0.0:
        violation = -float(v[0])
        first_bad = 0
        details["reason"] = "alpha_0 must be nonnegative"
    else:
        diffs = np.diff(v)
        bad = np.nonzero(diffs <= 0.0)[0]
        if bad.size:
            first_bad = int(bad[0]) + 1
            violation = float(-diffs[bad[0]]) if diffs[bad[0]] < 0 else float(np.finfo(float).tiny)
            details["reason"] = "values must be strictly increasing"
        elif alpha.gap_bound_r is not None:
            over = diffs - alpha.gap_bound_r
            bad = np.nonzero(over > 0.0)[0]
            if bad.size:
                first_bad = int(bad[0]) + 1
                violation = float(over[bad[0]])
                details["reason"] = f"gap exceeds declared bound r={alpha.gap_bound_r}"
    if first_bad >= 0:
        details["first_violation_index"] = first_bad
    return make_report("alpha_validation", violation, 0.0, details=details)


def _require_length(alpha: AlphaSequence, dim: int) -> np.ndarray:
    if len(alpha) < dim:
        raise DimensionMismatch(f"alpha has {len(alpha)} values, need at least {dim}")
    return alpha.values[:dim]


def diag_hamiltonian(alpha: AlphaSequence, dim: int) -> LinearMap:
    """diag(alpha_0 .. alpha_{N-1}); self-adjoint exactly when alpha is real."""
    return LinearMap(np.diag(_require_length(alpha, dim)))


def ladder_operators(alpha: AlphaSequence, dim: int) -> tuple[LinearMap, LinearMap]:
    """Lowering A (e_n -> alpha_n e_{n-1}) and raising B (e_n -> alpha_{n+1} e_{n+1}).

    The top raising row is truncated: B e_{N-1} = 0.
    """
    v = _require_length(alpha, dim)
    a = np.zeros((dim, dim), dtype=np.complex128)
    b = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim - 1):
        a[n, n + 1] = v[n + 1]
        b[n + 1, n] = v[n + 1]
    return LinearMap(a), LinearMap(b)


def transform(op_e: LinearMap, t: LinearMap, side: str) -> LinearMap:
    """Conjugate a reference-basis operator: T op T^-1 or (T*)^-1 op T*."""
    t_inv = invert(t)
    if side == "phi_psi":
        return LinearMap(t.entries @ op_e.entries @ t_inv.entries)
    if side == "psi_phi":
        t_adj_inv = t_inv.entries.conj().T
        return LinearMap(t_adj_inv @ op_e.entries @ t.entries.conj().T)
    raise ValueError(f"unknown side {side!r}; expected 'phi_psi' or 'psi_phi'")


def sum_form_hamiltonian(sys: BiorthogonalSystem, alpha: AlphaSequence) -> LinearMap:
    """sum_n alpha_n (outer product of phi_n with psi_n)."""
    v = _require_length(alpha, sys.dim)
    return LinearMap((sys.phi * v) @ sys.psi.conj().T)


def eigen_check(
    h: LinearMap,
    family: np.ndarray,
    alpha: AlphaSequence,
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
    alpha: AlphaSequence,
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
    """Reference-basis operators and both similarity-transformed families."""

    h_e: LinearMap
    a_e: LinearMap
    b_e: LinearMap
    h_phi_psi: LinearMap
    h_psi_phi: LinearMap
    a_phi_psi: LinearMap
    b_phi_psi: LinearMap
    a_psi_phi: LinearMap
    b_psi_phi: LinearMap
    alpha: AlphaSequence
    pair: ConstructingPair


def build_operator_set(pair: ConstructingPair, alpha: AlphaSequence) -> OperatorSet:
    dim = pair.dim
    h_e = diag_hamiltonian(alpha, dim)
    a_e, b_e = ladder_operators(alpha, dim)
    m = pair.matrix
    return OperatorSet(
        h_e=h_e,
        a_e=a_e,
        b_e=b_e,
        h_phi_psi=transform(h_e, m, "phi_psi"),
        h_psi_phi=transform(h_e, m, "psi_phi"),
        a_phi_psi=transform(a_e, m, "phi_psi"),
        b_phi_psi=transform(b_e, m, "phi_psi"),
        a_psi_phi=transform(a_e, m, "psi_phi"),
        b_psi_phi=transform(b_e, m, "psi_phi"),
        alpha=alpha,
        pair=pair,
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
    conj_set = opset if opset.alpha.is_real else build_operator_set(opset.pair, opset.alpha.conjugate())
    pairs = {
        "h_psi_phi_adjoint": (opset.h_psi_phi, conj_set.h_phi_psi),
        "h_phi_psi_adjoint": (opset.h_phi_psi, conj_set.h_psi_phi),
        "a_phi_psi_adjoint": (opset.a_phi_psi, conj_set.b_psi_phi),
        "b_phi_psi_adjoint": (opset.b_phi_psi, conj_set.a_psi_phi),
        "a_psi_phi_adjoint": (opset.a_psi_phi, conj_set.b_phi_psi),
        "b_psi_phi_adjoint": (opset.b_psi_phi, conj_set.a_phi_psi),
    }
    details = {
        name: _rel_frobenius(adjoint(lhs).entries - rhs.entries, rhs.entries)
        for name, (lhs, rhs) in pairs.items()
    }
    return make_report("adjoint_relations", max(details.values()), tolerance, details=details)


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
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("product identities need at least one (m, l) pair")
    for m, l in pairs:
        if m < 0 or l < 0 or m + l > MAX_PRODUCT_POWER:
            raise ValueError(f"powers must satisfy 0 <= m + l <= {MAX_PRODUCT_POWER}")
    t = opset.pair.matrix.entries
    t_inv = invert(opset.pair.matrix).entries
    t_adj = t.conj().T
    t_adj_inv = t_inv.conj().T
    a_e, b_e = opset.a_e.entries, opset.b_e.entries
    power = np.linalg.matrix_power

    def chain(mat: np.ndarray, p: int, mat2: np.ndarray, q: int) -> np.ndarray:
        return power(mat, p) @ power(mat2, q)

    def rel(actual: np.ndarray, reference: np.ndarray, scale: float) -> float:
        return float(np.linalg.norm(actual - reference) / max(np.linalg.norm(reference), scale, 1e-300))

    conjugation = np.linalg.norm(t) * np.linalg.norm(t_inv)
    a_norm, b_norm = np.linalg.norm(a_e), np.linalg.norm(b_e)
    # The mixed product does not depend on (m, l).
    mixed = rel(
        opset.a_psi_phi.entries @ opset.b_phi_psi.entries,
        t_adj_inv @ a_e @ t_adj @ t @ b_e @ t_inv,
        conjugation**2 * a_norm * b_norm,
    )
    worst: CheckReport | None = None
    for m, l in pairs:
        plain_scale = conjugation * a_norm**m * b_norm**l
        ab_e, ba_e = chain(a_e, m, b_e, l), chain(b_e, m, a_e, l)
        details = {
            "phi_ab": rel(
                chain(opset.a_phi_psi.entries, m, opset.b_phi_psi.entries, l), t @ ab_e @ t_inv, plain_scale
            ),
            "phi_ba": rel(
                chain(opset.b_phi_psi.entries, m, opset.a_phi_psi.entries, l), t @ ba_e @ t_inv, plain_scale
            ),
            "psi_ab": rel(
                chain(opset.a_psi_phi.entries, m, opset.b_psi_phi.entries, l),
                t_adj_inv @ ab_e @ t_adj,
                plain_scale,
            ),
            "psi_ba": rel(
                chain(opset.b_psi_phi.entries, m, opset.a_psi_phi.entries, l),
                t_adj_inv @ ba_e @ t_adj,
                plain_scale,
            ),
            "mixed": mixed,
        }
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
    if opset.alpha.kind != "sqrt_n":
        raise WrongAlphaKind(f"ccr check requires the sqrt_n sequence, got {opset.alpha.kind!r}")
    a, b = opset.a_e.entries, opset.b_e.entries
    dim = a.shape[0]
    comm = a @ b - b @ a
    eye = np.eye(dim)
    expected = eye.copy()
    expected[-1, -1] = 1.0 - dim
    interior = float(np.abs(comm[: dim - 1, : dim - 1] - eye[: dim - 1, : dim - 1]).max())
    defect = float(np.abs(comm - expected).max())
    t = opset.pair.matrix
    at, bt = opset.a_phi_psi.entries, opset.b_phi_psi.entries
    back = invert(t).entries @ (at @ bt - bt @ at) @ t.entries
    t_interior = float(np.abs(back[: dim - 1, : dim - 1] - eye[: dim - 1, : dim - 1]).max())
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
    t = opset.pair.matrix
    h_e = opset.h_e.entries
    sides = {
        "phi_psi": (opset.h_phi_psi, t.entries),
        "psi_phi": (opset.h_psi_phi, invert(t).entries.conj().T),
    }
    details = {}
    for side, (transformed, image) in sides.items():
        target = image @ h_e
        details[side] = _rel_frobenius(transformed.entries @ image - target, target)
    return make_report(
        "domain_mapping",
        max(details.values()),
        tolerance,
        details=details | {"amplification": t.cond_estimate},
    )
