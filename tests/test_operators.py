"""Tests for Hamiltonians, ladder operators, and their similarity transforms."""

import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest

from rieszlab import (
    LinearMap,
    run_suite,
    adjoint_relation_check,
    build_operator_set,
    build_system,
    ccr_check,
    domain_mapping_check,
    eigen_check,
    eigenrelation_residuals,
    from_diagonal,
    hamiltonian_shift,
    invert,
    ladder_check,
    ladder_shifts,
    make_report,
    product_identity_check,
    sum_form_hamiltonian,
    transform,
)
from rieszlab.errors import DimensionMismatch, NumericallySingular, WrongAlphaKind
from rieszlab import operators, suite
from rieszlab.cli import _hermite_config
from rieszlab.hermite import tail_family
from rieszlab.linalg import SPLIT_FLOOR, Blocks
from rieszlab.operators import PRODUCT_PAIRS, WeightedShift

from helpers import dense, dense_config, random_conditioned_map, scaled, stream_rng


def ladder_matrices(alpha, dim):
    return tuple(dense(shift) for shift in ladder_shifts(alpha, dim))


def reference_opset(alpha):
    """Operator set on T = 1, where every transformed operator is its reference-basis one."""
    return build_operator_set(LinearMap(np.eye(len(alpha))), alpha)


def relation_check(check, opset, sys, tolerance):
    """eigen_check or domain_mapping_check on the eigenrelation of opset and sys, against cond(opset.t)."""
    return check(eigenrelation_residuals(opset, sys), opset.t.cond_estimate, tolerance)


def product_check(opset, pairs, tolerance=1e-10):
    """product_identity_check over the given (m, l) pairs in place of PRODUCT_PAIRS."""
    with mock.patch.object(operators, "PRODUCT_PAIRS", tuple(pairs)):
        return product_identity_check(opset, tolerance)


def test_diag_hamiltonian():
    h = dense(hamiltonian_shift(np.array([1.0, 2.0, 3.0]), 3))
    np.testing.assert_array_equal(np.asarray(h), np.diag([1.0, 2.0, 3.0]))
    assert h.self_adjoint
    h_sqrt = dense(hamiltonian_shift(np.sqrt(np.arange(3)), 3))
    np.testing.assert_allclose(np.diag(np.asarray(h_sqrt)), [0.0, 1.0, np.sqrt(2.0)], atol=0)


def test_diag_hamiltonian_complex_adjoint():
    alpha = np.array([1j, 2j])
    h = dense(hamiltonian_shift(alpha, 2))
    assert not h.self_adjoint
    np.testing.assert_array_equal(
        np.asarray(h).conj().T, np.asarray(dense(hamiltonian_shift(alpha.conj(), 2)))
    )


def test_diag_hamiltonian_length_guard():
    with pytest.raises(DimensionMismatch):
        hamiltonian_shift(np.array([1.0]), 3)


def test_ladder_matrices():
    a, b = ladder_matrices(np.sqrt(np.arange(3)), 3)
    np.testing.assert_allclose(
        np.asarray(a), [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], atol=0
    )
    np.testing.assert_array_equal(np.asarray(b), np.asarray(a).conj().T)
    # lowering annihilates the ground state exactly
    assert np.all(np.asarray(a) @ np.eye(3)[:, 0] == 0.0)


def test_ladder_actions_on_reference_basis():
    dim = 6
    a, b = ladder_matrices(np.sqrt(np.arange(dim)), dim)
    e = np.eye(dim)
    np.testing.assert_array_equal(np.asarray(a) @ e[:, 1], e[:, 0])
    np.testing.assert_array_equal(np.asarray(b) @ e[:, 0], e[:, 1])
    # truncation edge: the raising operator kills the top vector
    assert np.all(np.asarray(b) @ e[:, dim - 1] == 0.0)


def test_transform_identity_and_diagonal():
    h = hamiltonian_shift(np.array([1.0, 2.0]), 2)
    np.testing.assert_allclose(transform(h, LinearMap(np.eye(2)), "phi_psi"), np.asarray(dense(h)), atol=0)
    h3 = hamiltonian_shift(np.array([1.0, 2.0, 3.0]), 3)
    t3 = from_diagonal([1, 2, 3])
    np.testing.assert_allclose(transform(h3, t3, "phi_psi"), np.asarray(dense(h3)), atol=1e-15)


def test_transform_unipotent_by_hand():
    h = hamiltonian_shift(np.array([1.0, 2.0]), 2)
    t = LinearMap([[1, 1], [0, 1]])
    np.testing.assert_allclose(transform(h, t, "phi_psi"), [[1, 1], [0, 2]], atol=1e-14)


def test_transform_rejects_unknown_side():
    with pytest.raises(ValueError):
        transform(LinearMap(np.eye(2)), LinearMap(np.eye(2)), "sideways")


def test_sum_form_reference_basis():
    sys_ = build_system(LinearMap(np.eye(3)))
    h = sum_form_hamiltonian(sys_, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(h, np.diag([1.0, 2.0, 3.0]), atol=0)


def test_sum_form_agrees_with_transform():
    t = LinearMap([[1, 1], [0, 1]])
    alpha = np.array([1.0, 2.0])
    sys_ = build_system(t)
    summed = sum_form_hamiltonian(sys_, alpha)
    np.testing.assert_allclose(summed, [[1, 1], [0, 2]], atol=1e-13)
    conjugated = transform(hamiltonian_shift(alpha, 2), t, "phi_psi")
    np.testing.assert_allclose(summed, conjugated, atol=1e-13)


def test_sum_form_zero_alpha():
    sys_ = build_system(from_diagonal([1, 2]))
    h = sum_form_hamiltonian(sys_, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(h, np.zeros((2, 2)))


def test_sum_form_agreement_random_property():
    rng = stream_rng(41)
    for kind in (lambda n: np.sqrt(np.arange(n)), np.arange):
        for dim in (8, 16, 64):
            t = random_conditioned_map(dim, 100.0, rng)
            sys_ = build_system(t)
            alpha = kind(dim)
            summed = sum_form_hamiltonian(sys_, alpha)
            conjugated = transform(hamiltonian_shift(alpha, dim), t, "phi_psi")
            err = np.linalg.norm(summed - conjugated)
            assert err <= 1e-9 * np.linalg.norm(conjugated)


def test_eigen_check_diagonal_and_unipotent():
    alpha = np.array([1.0, 2.0])
    identity = build_system(LinearMap(np.eye(2)))
    assert relation_check(eigen_check, reference_opset(alpha), identity, 1e-8).residual == 0.0
    # H phi_1 = 2 phi_1 with phi_1 = (1, 1)
    t = LinearMap([[1, 1], [0, 1]])
    sys_ = build_system(t)
    opset = build_operator_set(t, alpha)
    h, phi = np.asarray(opset.h_phi_psi), np.asarray(sys_.phi)
    np.testing.assert_allclose(h @ phi[:, 1], 2.0 * phi[:, 1], atol=1e-14)
    report = relation_check(eigen_check, opset, sys_, 1e-8)
    assert report.passed and report.residual < 1e-14
    assert report.tolerance == 1e-8 * t.cond_estimate and report.details["cond"] == t.cond_estimate


def test_ladder_check_reference_basis():
    dim = 4
    report = ladder_check(reference_opset(np.sqrt(np.arange(dim))), build_system(LinearMap(np.eye(dim))), 1e-9)
    assert report.passed
    assert report.details["phi_lowering_ground"] == report.details["psi_lowering_ground"] == 0.0


def test_ladder_check_diagonal_pair():
    t = from_diagonal([1, 2, 3])
    alpha = np.arange(3)
    sys_ = build_system(t)
    opset = build_operator_set(t, alpha)
    # A phi_2 = 2 phi_1 = (0, 4, 0), by hand
    np.testing.assert_allclose(
        np.asarray(opset.a_phi_psi) @ np.asarray(sys_.phi)[:, 2], [0.0, 4.0, 0.0], atol=1e-13
    )
    report = ladder_check(opset, sys_, 1e-9)
    assert report.passed and report.residual < 1e-13


def test_ladder_check_detects_perturbation():
    dim = 4
    opset = reference_opset(np.sqrt(np.arange(dim)))
    bad = np.array(opset.a_phi_psi)
    bad[0, 1] += 1e-3
    mutated = dataclasses.replace(opset, a_phi_psi=Blocks.of(bad))
    report = ladder_check(mutated, build_system(LinearMap(np.eye(dim))), 1e-9)
    assert not report.passed
    assert report.residual == pytest.approx(1e-3, rel=1e-6)
    assert report.details["psi_lowering_max"] == 0.0


def test_adjoint_relations_identity_pair():
    opset = build_operator_set(LinearMap(np.eye(4)), np.sqrt(np.arange(4)))
    report = adjoint_relation_check(opset, 1e-9)
    assert report.residual == 0.0


def test_adjoint_relations_diagonal():
    opset = build_operator_set(from_diagonal([1, 2]), np.arange(2))
    report = adjoint_relation_check(opset, 1e-9)
    assert report.passed and report.residual < 1e-14


def test_adjoint_relations_random_complex_alpha():
    rng = stream_rng(42)
    t = random_conditioned_map(16, 100.0, rng)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    opset = build_operator_set(t, np.array(values))
    report = adjoint_relation_check(opset, 1e-9)
    assert report.passed, report.details


def test_product_identity_trivial_powers():
    opset = build_operator_set(LinearMap(np.eye(4)), np.sqrt(np.arange(4)))
    report = product_check(opset, [(0, 0)])
    assert report.residual == 0.0


def test_product_identity_diagonal():
    opset = build_operator_set(from_diagonal([1, 2, 3]), np.sqrt(np.arange(3)))
    report = product_check(opset, [(1, 1)])
    assert report.passed and report.residual < 1e-12


def test_product_identity_mixed_positive_constructor():
    # for positive self-adjoint T the mixed product reduces to T^-1 A T^2 B T^-1
    t = from_diagonal([1, 2, 3])
    alpha = np.sqrt(np.arange(3))
    opset = build_operator_set(t, alpha)
    t_inv = np.diag([1.0, 0.5, 1.0 / 3.0])
    expected = t_inv @ np.asarray(dense(opset.a_e)) @ np.asarray(t) @ np.asarray(t) @ np.asarray(dense(opset.b_e)) @ t_inv
    actual = opset.a_psi_phi @ opset.b_phi_psi
    assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)
    report = product_check(opset, [(1, 1)])
    assert report.details["mixed"] < 1e-12


def test_product_identity_nilpotent_powers():
    # shift operators are nilpotent: A_e^m = 0 once m reaches the dimension,
    # so the reference side vanishes while the conjugated side carries noise
    rng = stream_rng(44)
    t = random_conditioned_map(3, 10.0, rng)
    opset = build_operator_set(t, np.array([0.5, 1.5, 2.5]))
    for m, l in ((3, 0), (0, 3), (2, 2), (4, 0)):
        report = product_check(opset, [(m, l)])
        assert report.passed, (m, l, report.residual)


def test_domain_mapping_fails_a_1e_4_defect_in_h_psi_phi_through_the_run():
    # The run's one eigenrelation is built from the set it reads, so a defect
    # planted in the set before either check runs shows in domain_mapping.
    t = random_conditioned_map(8, 10.0, stream_rng(45))
    ctx = suite._SuiteContext(dense_config(t, tolerance=1e-9))
    ctx.opset = dataclasses.replace(ctx.opset, h_psi_phi=Blocks.of(scaled(ctx.opset.h_psi_phi, 1e-4)))
    report = suite._call_check(ctx, "domain_mapping")
    assert not report.passed and report.residual == report.details["psi_phi"]
    assert report.details["phi_psi"] <= 1e-9


def test_product_identity_reports_worst_pair():
    rng = stream_rng(46)
    opset = build_operator_set(random_conditioned_map(6, 20.0, rng), np.sqrt(np.arange(6)))
    pairs = [(m, l) for m in range(3) for l in range(3 - m)]
    single = [product_check(opset, [pair]) for pair in pairs]
    worst = product_check(opset, pairs)
    assert worst.residual == max(r.residual for r in single)
    first = next(r for r in single if r.residual == worst.residual)
    assert (worst.details["m"], worst.details["l"]) == (first.details["m"], first.details["l"])


def test_a_nan_pair_is_the_worst_pair():
    # alpha = 1e50 overflows the norms of the fourth powers into NaN residuals;
    # the first power stays finite, and the NaN pair must win whatever the order
    opset = build_operator_set(from_diagonal(np.arange(1.0, 9.0)), np.full(8, 1e50))
    with np.errstate(all="ignore"):
        assert product_check(opset, [(1, 0)]).passed
        for pairs in ([(1, 0), (4, 0)], [(4, 0), (1, 0)]):
            report = product_check(opset, pairs)
            assert np.isnan(report.residual) and not report.passed
            assert (report.details["m"], report.details["l"]) == (4, 0)


def dense_product_identity_check(opset, pairs, tolerance=1e-10):
    """The definition product_identity_check computes, by dense matrix_power chains, per pair.

    Each chain of transformed ladders is multiplied by the side's right
    factor (T, or (T*)^-1) and compared with right @ W for the dense word W,
    under the spectral scale ||right||_2 cond(T) max|a_n|^m max|b_n|^l
    (cond(T)^2 for the mixed product), each norm from its own SVD.
    """
    t = np.asarray(opset.t)
    t_adj_inv = np.asarray(invert(opset.t)).conj().T
    a_phi, b_phi, a_psi, b_psi = (np.asarray(getattr(opset, f)) for f in ("a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi"))
    a_e, b_e = np.asarray(dense(opset.a_e)), np.asarray(dense(opset.b_e))
    power = np.linalg.matrix_power
    cond = np.linalg.cond(t)
    peak_a, peak_b = np.abs(a_e).max(), np.abs(b_e).max()

    def rel(actual, reference, scale):
        return float(np.linalg.norm(actual - reference) / max(np.linalg.norm(reference), scale, 1e-300))

    sides = {
        "phi": (t, a_phi, b_phi),
        "psi": (t_adj_inv, a_psi, b_psi),
    }
    mixed = rel(
        a_psi @ b_phi @ t,
        t_adj_inv @ a_e @ t.conj().T @ t @ b_e,
        np.linalg.norm(t, 2) * cond**2 * peak_a * peak_b,
    )
    worst = None
    for m, l in pairs:
        details = {}
        for side, (right, a, b) in sides.items():
            right_norm = np.linalg.norm(right, 2)
            details[f"{side}_ab"] = rel(
                power(a, m) @ power(b, l) @ right,
                right @ power(a_e, m) @ power(b_e, l),
                right_norm * cond * peak_a**m * peak_b**l,
            )
            details[f"{side}_ba"] = rel(
                power(b, m) @ power(a, l) @ right,
                right @ power(b_e, m) @ power(a_e, l),
                right_norm * cond * peak_b**m * peak_a**l,
            )
        details["mixed"] = mixed
        report = make_report("product_identities", max(details.values()), tolerance, details={**details, "m": m, "l": l})
        if worst is None or report.residual > worst.residual:
            worst = report
    return worst


# An even and an odd Hermite size, and an odd diagonal size, at or above
# the split floor: their T is held as two parity blocks.
SPLIT_EVEN = SPLIT_FLOOR + SPLIT_FLOOR % 2
SPLIT_ODD = SPLIT_EVEN + 1


@functools.cache
def product_opsets():
    rng = stream_rng(47)
    dense = random_conditioned_map(12, 50.0, rng)
    dense = LinearMap(np.asarray(dense) + 0.3j * rng.standard_normal((12, 12)))
    complex_alpha = np.arange(12) + 0.25j * (-1.0) ** np.arange(12)
    return {
        "hermite-x": build_operator_set(LinearMap(tail_family(SPLIT_EVEN)), np.sqrt(np.arange(SPLIT_EVEN))),
        # odd N: the odd part is one index short, so its blocks are one
        # smaller, and the walk multiplies blocks of unequal sizes
        "hermite-x-odd": build_operator_set(LinearMap(tail_family(SPLIT_ODD)), np.sqrt(np.arange(SPLIT_ODD))),
        "dense-complex-alpha": build_operator_set(dense, complex_alpha),
        "nilpotent": build_operator_set(
            random_conditioned_map(3, 10.0, stream_rng(44)), np.array([0.5, 1.5, 2.5])
        ),
        "upper-unipotent": build_operator_set(
            LinearMap(np.eye(10) + 0.7 * np.eye(10, k=1)), np.arange(10)
        ),
        "diagonal": build_operator_set(
            from_diagonal(np.exp(0.3j * np.arange(SPLIT_ODD)) * 1.05 ** np.arange(SPLIT_ODD)), np.sqrt(np.arange(SPLIT_ODD))
        ),
        # below the split floor a parity-keeping T is one block
        "hermite-x-small": build_operator_set(LinearMap(tail_family(9)), np.sqrt(np.arange(9))),
    }


# The inputs whose T and (T*)^-1 are held as parity-keeping blocks and
# whose transformed ladders as parity-swapping ones, so that the product
# walk forms one block per parity.
PARITY_SPLIT = ("hermite-x", "hermite-x-odd", "diagonal")


@pytest.mark.parametrize("defect", [None, "a_phi_psi", "b_psi_phi"], ids=["clean", "a_phi_psi", "b_psi_phi"])
def test_product_identity_matches_the_dense_oracle(defect):
    # The dense chains and the ket walk associate their products apart, so a
    # normalized residual moves by a few ulps of 1.  A 1e-6 defect moves the
    # worst pair to 4e-9 .. 6e-7, so there the same bound pins the scale and
    # the reference norm to about 1e-7 relative.
    eps = np.finfo(float).eps
    for name, opset in product_opsets().items():
        if defect is not None:
            opset = dataclasses.replace(opset, **{defect: Blocks.of(scaled(getattr(opset, defect), 1e-6))})
        for pair in PRODUCT_PAIRS:
            expected = dense_product_identity_check(opset, [pair])
            actual = product_check(opset, [pair])
            assert list(actual.details) == list(expected.details), name
            for key, value in expected.details.items():
                assert abs(actual.details[key] - value) <= 4 * eps, (name, pair, key)


def with_defect(opset, target, stored):
    """The set with 1e-4 max|M| added to one entry of the input M = target.

    With stored False the entry is one that the split holds as an exact
    zero: [0, 1] of T or (T*)^-1, which keep index parity, and [0, 0] of a
    transformed ladder, which swaps it.  The matrix is then held as one
    dense block, and the walk must take the whole matrices.  With stored
    True the entry lies in a stored block: [0, 0] of T or (T*)^-1 and
    [1, 0] of a ladder, and the walk keeps its two blocks per matrix.
    """

    def placed(m, index):
        m = np.array(m)
        m[index] += 1e-4 * np.abs(m).max()
        return m

    if target == "t":
        return dataclasses.replace(opset, t=LinearMap(placed(opset.t, (0, 0) if stored else (0, 1))))
    if target == "t_adj_inverse":
        t = LinearMap(opset.t)
        t.svd = opset.t.svd
        # entry [0, 1] of (T*)^-1 is entry [1, 0] of the one held T^-1
        t.inverse = Blocks.of(placed(invert(opset.t), (0, 0) if stored else (1, 0)))
        return dataclasses.replace(opset, t=t)
    ladder = getattr(opset, target)
    m = placed(ladder, (1, 0) if stored else (0, 0))
    if stored:
        m = Blocks([m[(p + ladder.shift) % 2 :: 2, p::2] for p in (0, 1)], ladder.shift)
    else:
        m = Blocks.of(m)  # one block: the entry lies off the split
    return dataclasses.replace(opset, **{target: m})


@pytest.mark.parametrize("stored", [False, True], ids=["zero-block", "stored-block"])
@pytest.mark.parametrize("kind", PARITY_SPLIT)
@pytest.mark.parametrize("target", ["t", "t_adj_inverse", "a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi"])
def test_a_parity_block_defect_is_read_as_the_dense_oracle_reads_it(kind, target, stored):
    # Mutation rows: the walk keeps only the blocks that can be nonzero when
    # all six inputs it multiplies are held split.  A defect where the split
    # holds a zero makes its matrix one block, and the walk then reads whole
    # matrices; deciding from T alone would drop the defect of every such row
    # but "t".  A defect in a stored block keeps every input split.
    clean = product_opsets()[kind]
    opset = with_defect(clean, target, stored)
    inputs = (opset.t, opset.t.adjoint_inverse, opset.a_phi_psi, opset.b_phi_psi, opset.a_psi_phi, opset.b_psi_phi)
    assert all(m.parts == 2 for m in inputs) == stored
    eps = np.finfo(float).eps
    # The oracle scales the psi side by the 2-norm of the (T*)^-1 it reads,
    # the check by 1 / sigma_min from T's SVD.  They part only when the
    # cached inverse carries the defect: by up to about 1e-8 relative here.
    scale_gap = abs(np.linalg.norm(np.asarray(invert(opset.t)), 2) * opset.t.singular_values[-1] - 1.0)
    for pair in PRODUCT_PAIRS:
        expected = dense_product_identity_check(opset, [pair])
        actual = product_check(opset, [pair])
        for key, value in expected.details.items():
            assert abs(actual.details[key] - value) <= 4 * eps + 2 * scale_gap * value, (pair, key)
    assert product_identity_check(opset, 1e-10).residual > 1e6 * product_identity_check(clean, 1e-10).residual


class CountedMatrix(np.ndarray):
    """An ndarray that records the operand shapes of the matrix products formed from it and its results."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedMatrix.products.append([np.shape(x) for x in inputs])
        plain = [x.view(np.ndarray) if isinstance(x, CountedMatrix) else x for x in inputs]
        if "out" in kwargs:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, CountedMatrix) else x for x in kwargs["out"])
            return getattr(ufunc, method)(*plain, **kwargs)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(CountedMatrix) if isinstance(result, np.ndarray) else result


def block_products(shapes):
    """How many matrix products one matmul of operands of these shapes forms: one per stacked pair."""
    return math.prod(np.broadcast_shapes(*(shape[:-2] for shape in shapes)))


def test_product_identities_form_one_gemm_per_nonzero_block_per_word():
    # One block product per word and part on each side (20 words each) and
    # three per part for the mixed product: 43 products of whole matrices, or
    # 86 of parity blocks when the inputs are held split, each block unpadded
    # with ceil(N / 2) or floor(N / 2) rows and columns; the dense chains
    # would take 160 whole ones.
    fields = ("a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi")

    def counting(m):
        return Blocks([b.view(CountedMatrix) for b in m.blocks], m.shift)

    for name, opset in product_opsets().items():
        parts = 2 if name in PARITY_SPLIT else 1
        t = LinearMap(opset.t)
        t.blocks = counting(opset.t).blocks
        t.inverse = counting(invert(opset.t))
        t.svd = opset.t.svd
        counted = dataclasses.replace(opset, t=t, **{f: counting(getattr(opset, f)) for f in fields})
        CountedMatrix.products = []
        report = product_identity_check(counted, 1e-10)
        assert sum(block_products(shapes) for shapes in CountedMatrix.products) == 43 * parts, name
        sizes = {t.dim // parts, -(-t.dim // parts)}
        shapes = {shape for shapes in CountedMatrix.products for shape in shapes}
        assert all(len(shape) == 2 and set(shape) <= sizes for shape in shapes), (name, shapes)
        assert report.details == product_identity_check(opset, 1e-10).details, name


def test_product_identities_read_no_np_linalg_norm_and_shift_no_blocks_but_the_mixed_products():
    # The walk forms each word's deviation in its ket from the word's column
    # plan and reads norms through the linalg helpers: the only Blocks @
    # WeightedShift products left are the mixed product's (T*)^-1 A_e and
    # T B_e.  At Hermite N=64 a walk that forms right @ W per word, and reads
    # its norms through np.linalg.norm, makes 42 and 128 such calls.
    opset = suite._SuiteContext(_hermite_config(64, full_suite=True, seed=0)).opset
    shifted = []
    rmatmul = WeightedShift.__rmatmul__

    def counted(self, left):
        shifted.append(isinstance(left, Blocks))
        return rmatmul(self, left)

    with mock.patch.object(WeightedShift, "__rmatmul__", counted), mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
        report = product_identity_check(opset, 1e-6)
    assert report.passed
    assert (norm.call_count, sum(shifted)) == (0, 2)


def test_product_identity_check_leaves_no_reference_cycle():
    # With the cyclic collector off, the set's matrices must be freed as soon
    # as the last reference to the set goes: a walk that held itself in a
    # closure would keep every matrix of the run alive.
    opset = build_operator_set(random_conditioned_map(16, 10.0, stream_rng(73)), np.sqrt(np.arange(16)))
    fields = ("a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi")
    watched = {name: weakref.ref(getattr(opset, name).blocks[0]) for name in fields}
    gc.disable()
    try:
        assert product_identity_check(opset, 1e-10).passed
        del opset
        assert [name for name, ref in watched.items() if ref() is not None] == []
    finally:
        gc.enable()


def test_product_identities_fail_a_1e_6_defect_in_the_cached_inverse():
    # The psi side starts its walk from (T*)^-1 and the mixed product's
    # reference reads it, so a defect in the run's one T^-1, whose adjoint
    # is (T*)^-1, must show.
    t = random_conditioned_map(32, 10.0, stream_rng(50))
    opset = build_operator_set(t, np.sqrt(np.arange(32)))
    assert product_identity_check(opset, 1e-8).passed
    t.inverse = Blocks([scaled(invert(t), 1e-6)])
    del t.adjoint_inverse  # the adjoint of the inverse, so read again from the defective one
    report = product_identity_check(opset, 1e-8)
    assert not report.passed, report.details
    assert report.details["phi_ab"] < 1e-14  # the phi side never reads T^-1


@pytest.mark.parametrize(
    "dim, side, eps, check",
    [
        (32, "psi", 1e-4, "k_relations"),
        (256, "psi", 1e-4, "k_relations"),
        (32, "phi", 1e-3, "eigen"),
        (256, "psi", 1e-2, "eigen"),
    ],
)
def test_suite_checks_fail_a_defect_in_the_last_column(dim, side, eps, check):
    # Mutation rows: the largest entry of column N-1 of one family scaled by
    # 1 + eps after the frame operators are built, in the Hermite example at
    # tolerance 1e-6.  The finite pair satisfies both identities exactly at
    # the edge column too, so the defect must show there: the rows read
    # 2.2e-4, 2.6e-4 and 1.2e-4 against tolerances 1e-6, 1e-6 and 5.2e-5,
    # and the last 2.2x its tolerance.  psi_255 has norm 0.018 at N=256:
    # read over max(1, |psi_255|), that row read 0.039x and passed.
    ctx = suite._SuiteContext(_hermite_config(dim, full_suite=True, seed=0))
    clean = ctx.system
    ctx.frame_ops
    assert suite._call_check(ctx, check).passed
    family = np.array(getattr(clean, side))
    family[:, -1] = scaled(family[:, -1], eps)
    ctx.system = dataclasses.replace(clean, **{side: family})
    vars(ctx).pop("eigenrelation", None)  # built from the system, so rebuilt from the mutated one
    report = suite._call_check(ctx, check)
    assert not report.passed, report.details


@pytest.mark.parametrize("dim", [8, 32, 256])
def test_ladder_and_ccr_fail_a_rank_one_defect_at_the_edge(dim):
    # B_phi_psi + delta psi_(N-1)*, ||delta|| = 1e-4 ||phi_(N-1)||, in the
    # Hermite example at tolerance 1e-6.  By biorthogonality the defect acts
    # on phi_(N-1) alone, where the finite pair has B phi_(N-1) = 0 exactly
    # and T^-1 [A, B] T ends in 1 - N: only the edge column can show it.
    ctx = suite._SuiteContext(_hermite_config(dim, full_suite=True, seed=0))
    opset, system, tolerance = ctx.opset, ctx.system, ctx.cfg.tolerance
    assert ladder_check(opset, system, tolerance).passed
    assert ccr_check(opset, tolerance).passed
    phi_edge = np.asarray(system.phi)[:, -1]
    delta = stream_rng(dim, 21).standard_normal(dim)
    delta *= 1e-4 * np.linalg.norm(phi_edge) / np.linalg.norm(delta)
    b = np.asarray(opset.b_phi_psi) + np.outer(delta, np.asarray(system.psi)[:, -1].conj())
    mutated = dataclasses.replace(opset, b_phi_psi=Blocks.of(b))
    ladder = ladder_check(mutated, system, tolerance)
    assert not ladder.passed
    assert ladder.residual == ladder.details["phi_raising_edge_norm"]
    assert ladder.residual == pytest.approx(1e-4)
    ccr = ccr_check(mutated, tolerance)
    assert not ccr.passed
    assert ccr.details["transformed"] > ccr.details["transformed_tolerance"]


def parent_transform(op_e, t, side):
    """The two-product transform build_operator_set replaced: T op T^-1 or (T*)^-1 op T* as dense gemms."""
    t_inv = np.asarray(invert(t))
    if side == "phi_psi":
        return np.asarray(t) @ np.asarray(dense(op_e)) @ t_inv
    return t_inv.conj().T @ np.asarray(dense(op_e)) @ np.asarray(t).conj().T


def test_operator_set_matches_parent_transform():
    # Real alpha on one block: each column shift holds the bits of the gemm
    # it replaced.  Complex alpha, or a T held split, whose blocks meet
    # other operand sizes than the dense gemm: they may round apart.
    for name, opset in product_opsets().items():
        for field, op_e, side in (
            ("h_phi_psi", opset.h_e, "phi_psi"),
            ("h_psi_phi", opset.h_e, "psi_phi"),
            ("a_phi_psi", opset.a_e, "phi_psi"),
            ("b_phi_psi", opset.b_e, "phi_psi"),
            ("a_psi_phi", opset.a_e, "psi_phi"),
            ("b_psi_phi", opset.b_e, "psi_phi"),
        ):
            expected = parent_transform(op_e, opset.t, side)
            actual = getattr(opset, field)
            if np.isrealobj(opset.alpha) and opset.t.parts == 1:
                np.testing.assert_array_equal(actual, expected, err_msg=f"{name} {field}")
            else:
                scale = np.linalg.norm(np.asarray(opset.t)) * invert(opset.t).frobenius()
                scale *= np.abs(opset.alpha).max()
                assert np.abs(actual - expected).max() <= 4 * np.finfo(float).eps * scale, (name, field)


def test_real_operator_set_matches_complex_arithmetic():
    # Real T and alpha keep the set in float64 and run the real kernels; the
    # same transforms on complex-cast inputs (SVD inverse, then one product
    # per side) differ from it only at rounding level.
    rng = stream_rng(49)
    opsets = {
        "hermite-x": build_operator_set(LinearMap(tail_family(32)), np.sqrt(np.arange(32))),
        "upper-unipotent": build_operator_set(
            LinearMap(np.eye(10) + 0.7 * np.eye(10, k=1)), np.arange(10)
        ),
        "real-dense": build_operator_set(
            LinearMap(rng.standard_normal((12, 12))), np.sqrt(np.arange(12))
        ),
    }
    for name, opset in opsets.items():
        t = np.asarray(opset.t).astype(np.complex128)
        u, s, vh = np.linalg.svd(t)
        t_inv = (vh.conj().T * (1.0 / s)) @ u.conj().T
        scale = np.linalg.norm(t) * np.linalg.norm(t_inv) * np.abs(opset.alpha).max()
        for field, op_e, side in (
            ("h_phi_psi", opset.h_e, "phi_psi"),
            ("h_psi_phi", opset.h_e, "psi_phi"),
            ("a_phi_psi", opset.a_e, "phi_psi"),
            ("b_phi_psi", opset.b_e, "phi_psi"),
            ("a_psi_phi", opset.a_e, "psi_phi"),
            ("b_psi_phi", opset.b_e, "psi_phi"),
        ):
            w = np.asarray(dense(op_e)).astype(np.complex128)
            expected = t @ w @ t_inv if side == "phi_psi" else t_inv.conj().T @ w @ t.conj().T
            actual = getattr(opset, field)
            assert actual.dtype == np.float64, (name, field)
            assert np.abs(actual - expected).max() <= 4 * np.finfo(float).eps * scale, (name, field)


def test_shift_dtype_follows_its_operands():
    real = np.sqrt(np.arange(4))
    complex_alpha = np.array([0, 1 + 0.5j, 2, 3])
    lowering, raising = ladder_shifts(real, 4)
    assert lowering.coefficients.dtype == raising.coefficients.dtype == np.float64
    assert (lowering @ raising).coefficients.dtype == np.float64
    assert (np.eye(4) @ raising).dtype == np.float64
    c_lowering, _ = ladder_shifts(complex_alpha, 4)
    assert c_lowering.coefficients.dtype == np.complex128
    assert (c_lowering @ raising).coefficients.dtype == np.complex128
    assert (np.eye(4) @ c_lowering).dtype == np.complex128
    assert (np.eye(4, dtype=np.complex128) @ raising).dtype == np.complex128
    # coefficients follow the rule of Blocks.of (`real_or_complex`): no imaginary part is real
    assert WeightedShift(1, np.ones(4, dtype=np.complex128)).coefficients.dtype == np.float64
    assert WeightedShift(1, 1j * np.arange(4)).coefficients.dtype == np.complex128


def test_product_identity_defect_shows_on_its_own_side_and_in_both_orders():
    # (0, k) and (k, 0) share their operators; a defect in one psi-side
    # ladder must reach both orders and leave the phi side and mixed alone.
    rng = stream_rng(48)
    opset = build_operator_set(random_conditioned_map(8, 10.0, rng), np.sqrt(np.arange(8)))
    mutated = dataclasses.replace(opset, b_psi_phi=Blocks.of(scaled(opset.b_psi_phi, 1e-6)))
    for pair, changed in (((0, 2), "psi_ab"), ((2, 0), "psi_ba"), ((1, 1), None)):
        clean = product_check(opset, [pair]).details
        defect = product_check(mutated, [pair]).details
        for key in ("phi_ab", "phi_ba", "mixed"):
            assert defect[key] == clean[key], (pair, key)
        if changed is None:
            assert defect["psi_ab"] > 1e3 * clean["psi_ab"] and defect["psi_ba"] > 1e3 * clean["psi_ba"]
        else:
            assert defect[changed] > 1e3 * clean[changed], pair
            other = "psi_ba" if changed == "psi_ab" else "psi_ab"
            assert defect[other] == clean[other], pair


def test_product_identity_working_set():
    # The check keeps norms, not matrices: at N=128 one complex matrix is
    # 0.25 MiB, and a memo of every product would take about 25 MiB.  The
    # walk's traced peak reads 1.66 MiB; forming the mixed product after
    # B's children, beside their kets, reads 1.91 MiB.
    t = random_conditioned_map(128, 100.0, stream_rng(49))
    opset = build_operator_set(t, np.sqrt(np.arange(128)))
    tracemalloc.start()
    try:
        product_identity_check(opset, 1e-10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 2**20, peak


def test_product_identity_working_set_at_hermite_256():
    # The real Hermite X splits by parity, so each ket is held as its two
    # unpadded half-size blocks.  The walk's traced peak reads 1.38 MiB; the
    # bound lies below the 1.57 MiB of the mixed product formed beside B's
    # children, the 2.9 MiB of zero-padded (parts, h, h) copies of the
    # blocks and the 2.74 MiB of the whole-matrix walk, so each of those fails.
    opset = suite._SuiteContext(_hermite_config(256, full_suite=True, seed=0)).opset
    tracemalloc.start()
    try:
        product_identity_check(opset, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, peak


def test_ccr_small_dimensions():
    # commutator diagonals computed by hand from the shifted sqrt entries
    alpha = np.sqrt(np.arange(3))
    a, b = ladder_matrices(alpha, 3)
    comm = np.asarray(a) @ np.asarray(b) - np.asarray(b) @ np.asarray(a)
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, -2.0]), atol=1e-14)
    a2, b2 = ladder_matrices(np.sqrt(np.arange(2)), 2)
    comm2 = np.asarray(a2) @ np.asarray(b2) - np.asarray(b2) @ np.asarray(a2)
    np.testing.assert_allclose(comm2, np.diag([1.0, -1.0]), atol=1e-15)
    assert ccr_check(reference_opset(alpha), 1e-12).passed
    assert ccr_check(reference_opset(np.sqrt(np.arange(2))), 1e-12).passed


def test_ccr_defect_at_64():
    # defect covers every coefficient, the truncated top one included
    report = ccr_check(reference_opset(np.sqrt(np.arange(64))), 1e-12)
    assert report.passed
    assert report.details["defect"] <= 1e-12
    assert list(report.details) == ["defect", "transformed", "transformed_tolerance"]


def test_ccr_transformed_geometric_diagonal():
    t = from_diagonal(1.1 ** np.arange(64))
    report = ccr_check(build_operator_set(t, np.sqrt(np.arange(64))), 1e-12)
    assert report.passed
    assert report.details["transformed"] < 1e-10


def test_ccr_requires_sqrt_alpha():
    with pytest.raises(WrongAlphaKind):
        ccr_check(reference_opset(np.arange(4)), 1e-12)


def test_ccr_reads_the_values_of_alpha_not_their_origin():
    # alpha_n = sqrt(n) however the array was made, and only then
    by_hand = [0.0, 1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]
    assert ccr_check(reference_opset(by_hand), 1e-12).passed
    one_ulp_off = np.sqrt(np.arange(5))
    one_ulp_off[3] = np.nextafter(one_ulp_off[3], 2.0)
    with pytest.raises(WrongAlphaKind):
        ccr_check(reference_opset(one_ulp_off), 1e-12)


def test_domain_mapping_identity():
    report = relation_check(domain_mapping_check, reference_opset(np.arange(4)), build_system(LinearMap(np.eye(4))), 1e-9)
    assert report.residual == 0.0
    assert report.details["amplification"] == pytest.approx(1.0)


def test_domain_mapping_geometric_diagonal():
    t = from_diagonal(2.0 ** np.arange(16))
    opset = build_operator_set(t, np.arange(16))
    report = relation_check(domain_mapping_check, opset, build_system(t), 1e-9)
    assert report.passed, report.details
    for side in ("phi_psi", "psi_phi"):
        assert report.details[side] <= 1e-9
    assert report.details["amplification"] == pytest.approx(2.0**15)


def test_domain_mapping_near_singular_guard():
    # the check reads the operator set, whose transforms need T^-1
    t = from_diagonal([1.0, 1e-13])
    with pytest.raises(NumericallySingular):
        build_operator_set(t, np.arange(2))


def test_operator_set_spectrum_preserved():
    rng = stream_rng(43)
    t = random_conditioned_map(12, 60.0, rng)
    alpha = np.arange(12)
    opset = build_operator_set(t, alpha)
    spectrum = np.sort(np.linalg.eigvals(opset.h_phi_psi).real)
    np.testing.assert_allclose(spectrum, np.arange(12, dtype=float), atol=1e-7 * t.cond_estimate)


def test_operator_set_b_is_adjoint_of_a_for_real_alpha():
    opset = build_operator_set(LinearMap(np.eye(5)), np.sqrt(np.arange(5)))
    np.testing.assert_array_equal(np.asarray(dense(opset.b_e)), np.asarray(dense(opset.a_e)).conj().T)


@pytest.mark.parametrize("dim", [8, 32, 256, 325])
def test_ccr_reference_commutator_by_shift_algebra_matches_dense_products(dim):
    a, b = ladder_shifts(np.sqrt(np.arange(dim)), dim)
    dense_a, dense_b = np.asarray(dense(a)), np.asarray(dense(b))
    assert (a @ b).offset == (b @ a).offset == 0
    by_shifts = np.diag((a @ b).coefficients - (b @ a).coefficients)
    assert np.array_equal(by_shifts, dense_a @ dense_b - dense_b @ dense_a)


def test_ccr_check_matches_the_dense_commutator_formula():
    t = random_conditioned_map(16, 20.0, stream_rng(63))
    opset = build_operator_set(t, np.sqrt(np.arange(16)))
    a, b = np.asarray(dense(opset.a_e)), np.asarray(dense(opset.b_e))
    comm = a @ b - b @ a
    expected = np.eye(16)
    expected[-1, -1] = -15.0
    report = ccr_check(opset, 1e-12)
    assert report.details["defect"] == float(np.abs(comm - expected).max())


@pytest.mark.parametrize(
    "values",
    [
        [5, -1, 3, 0],
        [int(v) for v in np.random.default_rng(16).permutation(np.arange(-8, 8))],
        [[n, 0.5 * (-1) ** n] for n in range(16)],
    ],
    ids=["negative-unordered", "permutation", "complex"],
)
def test_every_check_passes_for_alpha_in_any_order(values):
    # Each identity the suite checks holds for any alpha on the truncation:
    # none needs alpha_0 >= 0, increasing values or bounded gaps.
    t = random_conditioned_map(len(values), 10.0, stream_rng(72))
    reports = run_suite(dense_config(t, alpha={"kind": "custom", "values": values}))
    assert len(reports) == 14
    assert all(r.passed for r in reports), [(r.name, r.residual) for r in reports if not r.passed]
