"""Diagonal and similarity-transformed Hamiltonians and ladder operators.

Given an eigenvalue sequence alpha and the invertible map T that
constructs phi_n = T e_n, the diagonal Hamiltonian diag(alpha) and the
shift operators A, B act on the reference basis; conjugating by T (for
the phi family) or by (T*)^-1 (for the dual family) produces the
non-self-adjoint counterparts, each a read-only `Blocks` whose dtype
follows numpy's promotion of T's entries and alpha.  The checks certify
their eigenrelations, ladder actions, adjoint pairings, product
identities, and the truncated canonical commutation relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, WrongAlphaKind
from .linalg import Blocks, LinearMap, _frobenius, invert, read_only, real_or_complex
from .reporting import CheckReport, make_report, relative_frobenius, worst
from .systems import BiorthogonalSystem, column_residuals

# The (m, l) pairs of the product identities: every pair with m + l <= 4.
PRODUCT_PAIRS = tuple((m, l) for m in range(5) for l in range(5 - m))
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
    for real coefficients they hold its bits at O(N^2) and O(N) cost.  An
    array left may have another number of columns M than W has
    coefficients: W then maps into 0 .. M-1.  A Blocks left meets W one
    block at a time (`_block_shifts`).  Coefficients are float64 or
    complex128 by `real_or_complex`; results take numpy's result type of
    their operands.
    """

    __slots__ = ("offset", "coefficients")
    __array_ufunc__ = None  # so that ndarray @ WeightedShift calls __rmatmul__

    def __init__(self, offset: int, coefficients):
        self.offset = offset
        self.coefficients = real_or_complex(coefficients)

    @property
    def dim(self) -> int:
        return self.coefficients.shape[0]

    def __matmul__(self, right: "WeightedShift") -> "WeightedShift":
        src, dst = _columns(right.offset, right.dim, right.dim)
        c = np.zeros(self.dim, dtype=np.result_type(self.coefficients, right.coefficients))
        c[dst] = self.coefficients[src] * right.coefficients[dst]
        return WeightedShift(self.offset + right.offset, c)

    def __rmatmul__(self, left):
        if isinstance(left, Blocks):
            return Blocks([w.__rmatmul__(left.blocks[r]) for r, w in _block_shifts(self, left.parts)], left.shift + self.offset)
        src, dst = _columns(self.offset, self.dim, left.shape[-1])
        out = np.zeros(left.shape[:-1] + (self.dim,), dtype=np.result_type(left, self.coefficients))
        np.multiply(left[:, src], self.coefficients[dst], out=out[:, dst])
        return out


def _columns(offset: int, dim: int, codomain: int) -> tuple[slice, slice]:
    """(j + offset, j) over the columns j < dim of a shift with j + offset inside 0 .. codomain-1; empty once |offset| >= dim."""
    start = min(max(0, -offset), dim)
    stop = max(start, min(dim, codomain - offset))
    return slice(start + offset, stop + offset), slice(start, stop)


def _block_shifts(w: WeightedShift, parts: int) -> list[tuple[int, WeightedShift]]:
    """(r, W_q) for each part q: W maps part q into part r, and W_q is that map in the parts' own indices.

    W_q has one coefficient per index of part q, so block q of left @ W is
    block r of left times W_q for a left held as `Blocks` of these parts.
    With one part, W_0 is W.
    """
    if parts == 1:
        return [(0, w)]
    return [((q + w.offset) % parts, WeightedShift((q + w.offset) // parts, w.coefficients[q::parts])) for q in range(parts)]


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


def transform(op_e: WeightedShift, t: LinearMap, side: str) -> Blocks:
    """Conjugate a reference-basis shift: T op T^-1 or (T*)^-1 op T*, one gemm per block each."""
    if side == "phi_psi":
        return read_only(t @ op_e @ t.inverse)
    if side == "psi_phi":
        return read_only(t.adjoint_inverse @ op_e @ t.H)
    raise ValueError(f"unknown side {side!r}; expected 'phi_psi' or 'psi_phi'")


def sum_form_hamiltonian(sys: BiorthogonalSystem, alpha: np.ndarray) -> Blocks:
    """sum_n alpha_n (outer product of phi_n with psi_n), read-only."""
    v = _require_length(alpha, sys.dim)
    return read_only((sys.phi * v) @ sys.psi.H)



@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Reference-basis shifts, both transformed families, and the alpha_0 .. alpha_{N-1} and T they come from."""

    h_e: WeightedShift
    a_e: WeightedShift
    b_e: WeightedShift
    h_phi_psi: Blocks
    h_psi_phi: Blocks
    a_phi_psi: Blocks
    b_phi_psi: Blocks
    a_psi_phi: Blocks
    b_psi_phi: Blocks
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


class Eigenrelation(NamedTuple):
    """The eigenrelation H v_k = alpha_k v_k of one family, whose column k is v_k; the residual is read-only."""

    family: Blocks    # v_k
    alpha: np.ndarray
    residual: Blocks  # H v_k - alpha_k v_k

    @property
    def expected(self) -> Blocks:
        """alpha_k v_k, formed on each read, so that a run holds no N x N array for it."""
        return self.family * self.alpha


def eigenrelation_residuals(opset: OperatorSet, sys: BiorthogonalSystem) -> dict[str, Eigenrelation]:
    """H_phi_psi phi - phi alpha ("phi") and H_psi_phi psi - psi alpha ("psi"), one product per family.

    phi alpha is the column scaling T H_e of the offset-0 shift H_e, bit for bit; likewise for psi.
    """
    sides = (("phi", opset.h_phi_psi, sys.phi), ("psi", opset.h_psi_phi, sys.psi))
    return {side: Eigenrelation(m, opset.alpha, read_only(h @ m - m * opset.alpha)) for side, h, m in sides}


def eigen_check(relations: dict[str, Eigenrelation], cond: float, tolerance: float) -> CheckReport:
    """Residual of H v_k = alpha_k v_k over |v_k| at every k of both families, against tolerance * cond(T)."""
    details = {}
    for side, r in relations.items():
        (residual,) = column_residuals(r.family, r.residual)
        details[f"{side}_family"] = float(residual.max())
    residual = worst(details.values())
    return make_report("eigen", residual, tolerance * cond, details=details | {"cond": cond})


def ladder_check(opset: OperatorSet, sys: BiorthogonalSystem, tolerance: float) -> CheckReport:
    """Lowering/raising actions on both families, at every index.

    Column n of A V - V A_e is A v_n - alpha_n v_{n-1}, and column n of
    B V - V B_e is B v_n - alpha_{n+1} v_{n+1}, for the family V whose
    column n is v_n.  A v_0 must vanish (A_e e_0 = 0), and A v_n is compared
    with alpha_n v_{n-1} for n >= 1.  B v_n is compared with
    alpha_{n+1} v_{n+1} for n <= N-2; the finite raising operator is
    truncated, B_e e_{N-1} = 0, so B v_{N-1} = T B_e e_{N-1} must vanish
    too: its norm is the `*_raising_edge_norm` detail and counts towards
    the verdict.  Each column is read over |v_n| (`column_residuals`).
    """
    details = {}
    for side, a, b, m in (
        ("phi", opset.a_phi_psi, opset.b_phi_psi, sys.phi),
        ("psi", opset.a_psi_phi, opset.b_psi_phi, sys.psi),
    ):
        low, high = column_residuals(m, a @ m - m @ opset.a_e, b @ m - m @ opset.b_e)
        details[f"{side}_lowering_ground"] = float(low[0])
        details[f"{side}_lowering_max"] = float(low[1:].max()) if low.size > 1 else 0.0
        details[f"{side}_raising_max"] = float(high[:-1].max()) if high.size > 1 else 0.0
        details[f"{side}_raising_edge_norm"] = float(high[-1])
    return make_report("ladder", worst(details.values()), tolerance, details=details)


def adjoint_relation_check(opset: OperatorSet, tolerance: float) -> CheckReport:
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
        name: relative_frobenius(lhs.H - rhs, rhs)
        for name, (lhs, rhs) in pairs.items()
    }
    return make_report("adjoint_relations", worst(details.values()), tolerance, details=details)


def _words(m: int, l: int) -> tuple[str, str]:
    """A^m B^l and B^m A^l as letter strings, leftmost factor first.

    A^0 B^k = B^k A^0, so the pairs (0, k) and (k, 0) name the same two
    operators; the identity is the empty word.
    """
    return "a" * m + "b" * l, "b" * m + "a" * l


# The product walk's nodes, shortest first: every suffix of a word of
# PRODUCT_PAIRS, and B alone, whose phi-side ket the mixed product reads.
_NODES = tuple(sorted({w[i:] for m, l in PRODUCT_PAIRS for w in _words(m, l) for i in range(len(w))} | {"b"}, key=lambda w: (len(w), w)))
# Per side, each node's (letter, child) pairs in the order they are pushed.
# The child that repeats the word's first letter goes below its sibling,
# whose run of one child per word is walked and freed first.  On the phi
# side A's subtree is walked before B's, and the mixed product, which reads
# B's ket and A_psi_phi, is formed at B's node before its children are:
# its temporaries sit beside B's ket alone.
_CHILDREN = {
    side: {
        word: tuple((x, x + word) for x in sorted(order, key=lambda x: x != word[:1]) if x + word in _NODES)
        for word in ("",) + _NODES
    }
    for side, order in (("phi", "ba"), ("psi", "ab"))
}


def _shift_plan(w: WeightedShift, parts: int, dim: int) -> tuple[tuple[int, slice, slice, np.ndarray], ...]:
    """The blocks of right @ W for a right of dimension dim held in these parts.

    Block q is block r of right times W_q (`_block_shifts`), given as
    (r, the columns of block r it reads, the columns it fills, their
    coefficients).
    """
    plan = []
    for r, wq in _block_shifts(w, parts):
        src, dst = _columns(wq.offset, wq.dim, len(range(r, dim, parts)))
        plan.append((r, src, dst, wq.coefficients[dst]))
    return tuple(plan)


def _shift_deviation(ket: Blocks, right: Blocks, w: WeightedShift, plans: dict[int, tuple]) -> float:
    """||ket - right @ W||_F, formed in ket's blocks from W's `_shift_plan` for each number of parts.

    A ket held whole while right is split, or in other parity blocks than
    right @ W, meets right whole, as `Blocks._aligned` does.  ket's dtype
    holds the reference's: both are complex exactly when T or alpha is.
    """
    if ket.parts != right.parts or ket.shift != w.offset % ket.parts:
        ket, right = ket.whole(), right.whole()
    for k, (r, src, dst, c) in zip(ket.blocks, plans[right.parts]):
        # One reference per block, subtracted from the whole block: an
        # in-place subtraction on a column slice would take a slice-sized buffer.
        reference = np.zeros(k.shape, k.dtype)
        np.multiply(right.blocks[r][:, src], c, out=reference[:, dst])
        np.subtract(k, reference, out=k)
    return ket.frobenius()


def product_identity_check(opset: OperatorSet, tolerance: float) -> CheckReport:
    """A^m B^l products of the transformed operators against conjugated references.

    Each identity is checked with its right factor multiplied in:
    (A_phi_psi^m B_phi_psi^l) T = T (A_e^m B_e^l) on the phi side and
    (A_psi_phi^m B_psi_phi^l) (T*)^-1 = (T*)^-1 (A_e^m B_e^l) on the psi
    side, for both orders, plus the mixed product
    A_psi_phi B_phi_psi T = (T*)^-1 A_e T* T B_e.  Each side walks the
    words of PRODUCT_PAIRS as a suffix tree from its right factor, one `@`
    per word and block, and compares each ket with the right factor times
    the word's weighted shift, formed in the ket once its children are
    formed; the empty word compares the right factor with itself and reads
    0.  The two routes share only T and T^-1.

    A residual is the Frobenius deviation over the larger of the
    reference's norm (from the right factor's column norms) and the
    spectral bound ||right||_2 cond(T) max|a_n|^m max|b_n|^l, with
    ||T||_2 = sigma_max on the phi side, ||(T*)^-1||_2 = 1 / sigma_min on
    the psi side, and cond(T)^2 for the mixed product; the reference can
    vanish (shift operators are nilpotent once m or l reaches the
    dimension).  Returns the report of the worst (m, l) pair; a NaN pair
    is the worst, and on a tie the earlier pair wins.
    """
    t = opset.t
    dim = t.dim
    sigma = t.singular_values
    cond = t.cond_estimate
    letter_shifts = {"a": opset.a_e, "b": opset.b_e}
    # a weighted shift's 2-norm is its largest |coefficient|
    peak = {x: np.abs(w.coefficients).max() for x, w in letter_shifts.items()}
    t_adj_inv = t.adjoint_inverse

    def rel(deviation: float, reference_norm: float, scale: float) -> float:
        return float(deviation / max(reference_norm, scale, 1e-300))

    # W_x W_w once for both sides and before any gemm: a word whose powers overflow fails here
    shifts = {}
    for word in _NODES:
        shifts[word] = letter_shifts[word[0]] @ shifts[word[1:]] if len(word) > 1 else letter_shifts[word]
    plans = {word: {parts: _shift_plan(w, parts, dim) for parts in {1, t.parts, t_adj_inv.parts}} for word, w in shifts.items()}
    powers = {word: (peak["a"] ** word.count("a"), peak["b"] ** word.count("b")) for word in _NODES}
    residuals = {("phi", ""): 0.0, ("psi", ""): 0.0}
    for side, right, right_norm, letters in (
        ("phi", t, sigma[0], {"b": opset.b_phi_psi, "a": opset.a_phi_psi}),
        ("psi", t_adj_inv, 1.0 / sigma[-1], {"a": opset.a_psi_phi, "b": opset.b_psi_phi}),
    ):
        column_norms = right.column_norms()
        # Each word's reference norm and spectral bound, before the walk.
        # Column j of right W is c_j times column j + offset of right: the
        # reference's norm is O(N).
        scales = {}
        for word, plan in plans.items():
            ((_, src, dst, c),) = plan[1]
            shifted_norms = np.zeros(dim, c.dtype)
            np.multiply(column_norms[src], c, out=shifted_norms[dst])
            a_power, b_power = powers[word]
            scales[word] = _frobenius(shifted_norms), right_norm * cond * a_power * b_power
        children = _CHILDREN[side]
        # Depth first on an explicit stack: a nested function that calls itself
        # would be a reference cycle and keep the run's matrices alive until the
        # cyclic collector runs.  Only the pending kets of one chain are held.
        pending = [("", right)]
        while pending:
            word, ket = pending.pop()
            if side == "phi" and word == "b":
                # A_psi_phi (B_phi_psi T) against ((T*)^-1 A_e) (T* (T B_e))
                reference = (t_adj_inv @ opset.a_e) @ (t.H @ (t @ opset.b_e))
                bound = right_norm * cond**2 * peak["a"] * peak["b"]
                mixed = rel((opset.a_psi_phi @ ket - reference).frobenius(), reference.frobenius(), bound)
                del reference
            for x, child in children[word]:
                pending.append((child, letters[x] @ ket))
            if word:
                residuals[side, word] = rel(_shift_deviation(ket, right, shifts[word], plans[word]), *scales[word])
            del ket  # before the walk forms the next children
    pairs = []
    for m, l in PRODUCT_PAIRS:
        words = tuple(zip(("ab", "ba"), _words(m, l)))
        details = {f"{side}_{order}": residuals[side, word] for side in ("phi", "psi") for order, word in words}
        # The mixed product does not depend on (m, l).
        details["mixed"] = mixed
        pairs.append((worst(details.values()), details | {"m": m, "l": l}))
    # argmax takes the first NaN, else the first of the largest; only that pair becomes a report
    residual, details = pairs[int(np.argmax([r for r, _ in pairs]))]
    return make_report("product_identities", residual, tolerance, details=details)


def ccr_check(opset: OperatorSet, tolerance: float) -> CheckReport:
    """Truncated commutator A B - B A = 1 - N P_{N-1} for alpha_n = sqrt(n).

    The identity block spans e_0 .. e_{N-2}; the top basis vector carries
    the exact rank-one truncation defect.  The commutator of the set's
    transformed ladder operators is pulled back through the constructing
    map, T^-1 [A_t, B_t] T = A_e B_e - B_e A_e for the finite pair, and the
    whole matrix is compared against diag(1, ..., 1, 1 - N) at
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
    defect = float(np.abs(comm - expected).max())
    t = opset.t
    at, bt = opset.a_phi_psi, opset.b_phi_psi
    back = invert(t) @ (at @ bt - bt @ at) @ t
    transformed = back.minus_diagonal(expected).max_abs()
    t_tol = CCR_TRANSFORMED_RTOL * t.cond_estimate**2
    details = {
        "defect": defect,
        "transformed": transformed,
        "transformed_tolerance": t_tol,
    }
    # scale onto the base tolerance so pass <=> residual <= tolerance stays exact
    residual = worst([defect, transformed * (tolerance / t_tol)])
    return make_report("ccr", residual, tolerance, details=details)


def domain_mapping_check(relations: dict[str, Eigenrelation], cond: float, tolerance: float) -> CheckReport:
    """Composition order of both similarity transforms on the mapped bases.

    Applying a transformed Hamiltonian to its image basis must reproduce
    the image of the reference action: (T H T^-1)(T e_n) = T (H e_n), and
    likewise with (T*)^-1 for the dual family.  Each side is read as a
    whole-matrix relative Frobenius norm against the raw tolerance; cond(T)
    is reported as the amplification factor.
    """
    details = {
        name: relative_frobenius(relations[side].residual, relations[side].expected)
        for side, name in (("phi", "phi_psi"), ("psi", "psi_phi"))
    }
    residual = worst(details.values())
    return make_report("domain_mapping", residual, tolerance, details=details | {"amplification": cond})
