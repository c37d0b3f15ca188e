"""Tests for Hamiltonians, ladder operators, and their similarity transforms."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rieszlab import (
    LinearMap,
    run_suite,
    adjoint_relation_check,
    build_operator_set,
    build_system,
    build_X,
    ccr_check,
    domain_mapping_check,
    eigen_check,
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
from rieszlab.hermite import tail_coefficient_vector
from rieszlab.operators import WeightedShift
from rieszlab.sampling import stream_rng

from helpers import dense, dense_config, random_conditioned_map


def ladder_matrices(alpha, dim):
    return tuple(dense(shift) for shift in ladder_shifts(alpha, dim))


def reference_opset(alpha):
    """Operator set on T = 1, where every transformed operator is its reference-basis one."""
    return build_operator_set(LinearMap(np.eye(len(alpha))), alpha)


def test_diag_hamiltonian():
    h = dense(hamiltonian_shift(np.array([1.0, 2.0, 3.0]), 3))
    np.testing.assert_array_equal(h.entries, np.diag([1.0, 2.0, 3.0]))
    assert h.self_adjoint
    h_sqrt = dense(hamiltonian_shift(np.sqrt(np.arange(3)), 3))
    np.testing.assert_allclose(np.diag(h_sqrt.entries), [0.0, 1.0, np.sqrt(2.0)], atol=0)


def test_diag_hamiltonian_complex_adjoint():
    alpha = np.array([1j, 2j])
    h = dense(hamiltonian_shift(alpha, 2))
    assert not h.self_adjoint
    np.testing.assert_array_equal(
        h.entries.conj().T, dense(hamiltonian_shift(alpha.conj(), 2)).entries
    )


def test_diag_hamiltonian_length_guard():
    with pytest.raises(DimensionMismatch):
        hamiltonian_shift(np.array([1.0]), 3)


def test_ladder_matrices():
    a, b = ladder_matrices(np.sqrt(np.arange(3)), 3)
    np.testing.assert_allclose(
        a.entries, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], atol=0
    )
    np.testing.assert_array_equal(b.entries, a.entries.conj().T)
    # lowering annihilates the ground state exactly
    assert np.all(a.entries @ np.eye(3)[:, 0] == 0.0)


def test_ladder_actions_on_reference_basis():
    dim = 6
    a, b = ladder_matrices(np.sqrt(np.arange(dim)), dim)
    e = np.eye(dim)
    np.testing.assert_array_equal(a.entries @ e[:, 1], e[:, 0])
    np.testing.assert_array_equal(b.entries @ e[:, 0], e[:, 1])
    # truncation edge: the raising operator kills the top vector
    assert np.all(b.entries @ e[:, dim - 1] == 0.0)


def test_transform_identity_and_diagonal():
    h = hamiltonian_shift(np.array([1.0, 2.0]), 2)
    np.testing.assert_allclose(transform(h, LinearMap(np.eye(2)), "phi_psi").entries, dense(h).entries, atol=0)
    h3 = hamiltonian_shift(np.array([1.0, 2.0, 3.0]), 3)
    t3 = from_diagonal([1, 2, 3])
    np.testing.assert_allclose(transform(h3, t3, "phi_psi").entries, dense(h3).entries, atol=1e-15)


def test_transform_unipotent_by_hand():
    h = hamiltonian_shift(np.array([1.0, 2.0]), 2)
    t = LinearMap([[1, 1], [0, 1]])
    np.testing.assert_allclose(transform(h, t, "phi_psi").entries, [[1, 1], [0, 2]], atol=1e-14)


def test_transform_rejects_unknown_side():
    with pytest.raises(ValueError):
        transform(LinearMap(np.eye(2)), LinearMap(np.eye(2)), "sideways")


def test_sum_form_reference_basis():
    sys_ = build_system(LinearMap(np.eye(3)))
    h = sum_form_hamiltonian(sys_, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(h.entries, np.diag([1.0, 2.0, 3.0]), atol=0)


def test_sum_form_agrees_with_transform():
    t = LinearMap([[1, 1], [0, 1]])
    alpha = np.array([1.0, 2.0])
    sys_ = build_system(t)
    summed = sum_form_hamiltonian(sys_, alpha)
    np.testing.assert_allclose(summed.entries, [[1, 1], [0, 2]], atol=1e-13)
    conjugated = transform(hamiltonian_shift(alpha, 2), t, "phi_psi")
    np.testing.assert_allclose(summed.entries, conjugated.entries, atol=1e-13)


def test_sum_form_zero_alpha():
    sys_ = build_system(from_diagonal([1, 2]))
    h = sum_form_hamiltonian(sys_, np.array([0.0, 0.0]))
    np.testing.assert_array_equal(h.entries, np.zeros((2, 2)))


def test_sum_form_agreement_random_property():
    rng = stream_rng(41)
    for kind in (lambda n: np.sqrt(np.arange(n)), np.arange):
        for dim in (8, 16, 64):
            t = random_conditioned_map(dim, 100.0, rng)
            sys_ = build_system(t)
            alpha = kind(dim)
            summed = sum_form_hamiltonian(sys_, alpha)
            conjugated = transform(hamiltonian_shift(alpha, dim), t, "phi_psi")
            err = np.linalg.norm(summed.entries - conjugated.entries)
            assert err <= 1e-9 * np.linalg.norm(conjugated.entries)


def test_eigen_check_diagonal_and_unipotent():
    alpha = np.array([1.0, 2.0])
    assert eigen_check(dense(hamiltonian_shift(alpha, 2)), np.eye(2), alpha).residual == 0.0
    # H phi_1 = 2 phi_1 with phi_1 = (1, 1)
    t = LinearMap([[1, 1], [0, 1]])
    sys_ = build_system(t)
    h = transform(hamiltonian_shift(alpha, 2), t, "phi_psi")
    np.testing.assert_allclose(h.entries @ sys_.phi[:, 1], 2.0 * sys_.phi[:, 1], atol=1e-14)
    report = eigen_check(h, sys_.phi, alpha)
    assert report.passed and report.residual < 1e-14


def test_eigen_check_hermite_interior():
    from rieszlab.hermite import build_model

    x = build_model(64).X
    sys_ = build_system(x)
    alpha = np.arange(64)
    h = transform(hamiltonian_shift(alpha, 64), x, "phi_psi")
    report = eigen_check(h, sys_.phi, alpha, tolerance=1e-7, indices=range(32))
    assert report.passed, report.residual


def test_ladder_check_reference_basis():
    dim = 4
    alpha = np.sqrt(np.arange(dim))
    a, b = ladder_matrices(alpha, dim)
    report = ladder_check(a, b, np.eye(dim), alpha)
    assert report.passed
    assert report.details["lowering_ground"] == 0.0


def test_ladder_check_diagonal_pair():
    t = from_diagonal([1, 2, 3])
    alpha = np.arange(3)
    sys_ = build_system(t)
    opset = build_operator_set(t, alpha)
    # A phi_2 = 2 phi_1 = (0, 4, 0), by hand
    np.testing.assert_allclose(
        opset.a_phi_psi.entries @ sys_.phi[:, 2], [0.0, 4.0, 0.0], atol=1e-13
    )
    report = ladder_check(opset.a_phi_psi, opset.b_phi_psi, sys_.phi, alpha)
    assert report.passed and report.residual < 1e-13


def test_ladder_check_detects_perturbation():
    dim = 4
    alpha = np.sqrt(np.arange(dim))
    a, b = ladder_matrices(alpha, dim)
    bad = a.entries.copy()
    bad[0, 1] += 1e-3
    report = ladder_check(LinearMap(bad), b, np.eye(dim), alpha)
    assert not report.passed
    assert report.residual == pytest.approx(1e-3, rel=1e-6)


def test_adjoint_relations_identity_pair():
    opset = build_operator_set(LinearMap(np.eye(4)), np.sqrt(np.arange(4)))
    report = adjoint_relation_check(opset)
    assert report.residual == 0.0


def test_adjoint_relations_diagonal():
    opset = build_operator_set(from_diagonal([1, 2]), np.arange(2))
    report = adjoint_relation_check(opset)
    assert report.passed and report.residual < 1e-14


def test_adjoint_relations_random_complex_alpha():
    rng = stream_rng(42)
    t = random_conditioned_map(16, 100.0, rng)
    values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    opset = build_operator_set(t, np.array(values))
    report = adjoint_relation_check(opset, tolerance=1e-9)
    assert report.passed, report.details


def test_product_identity_trivial_powers():
    opset = build_operator_set(LinearMap(np.eye(4)), np.sqrt(np.arange(4)))
    report = product_identity_check(opset, [(0, 0)])
    assert report.residual == 0.0


def test_product_identity_diagonal():
    opset = build_operator_set(from_diagonal([1, 2, 3]), np.sqrt(np.arange(3)))
    report = product_identity_check(opset, [(1, 1)])
    assert report.passed and report.residual < 1e-12


def test_product_identity_mixed_positive_constructor():
    # for positive self-adjoint T the mixed product reduces to T^-1 A T^2 B T^-1
    t = from_diagonal([1, 2, 3])
    alpha = np.sqrt(np.arange(3))
    opset = build_operator_set(t, alpha)
    t_inv = np.diag([1.0, 0.5, 1.0 / 3.0])
    expected = t_inv @ dense(opset.a_e).entries @ t.entries @ t.entries @ dense(opset.b_e).entries @ t_inv
    actual = opset.a_psi_phi.entries @ opset.b_phi_psi.entries
    assert np.linalg.norm(actual - expected) <= 1e-12 * np.linalg.norm(expected)
    report = product_identity_check(opset, [(1, 1)])
    assert report.details["mixed"] < 1e-12


def test_product_identity_power_guard():
    opset = build_operator_set(LinearMap(np.eye(3)), np.sqrt(np.arange(3)))
    with pytest.raises(ValueError):
        product_identity_check(opset, [(5, 4)])


def test_product_identity_nilpotent_powers():
    # shift operators are nilpotent: A_e^m = 0 once m reaches the dimension,
    # so the reference side vanishes while the conjugated side carries noise
    rng = stream_rng(44)
    t = random_conditioned_map(3, 10.0, rng)
    opset = build_operator_set(t, np.array([0.5, 1.5, 2.5]))
    for m, l in ((3, 0), (0, 3), (2, 2), (4, 0)):
        report = product_identity_check(opset, [(m, l)], tolerance=1e-10)
        assert report.passed, (m, l, report.residual)


def test_perturbed_ladder_entry_fails_shared_checks():
    # The conjugate set of a real alpha is the set itself, and product
    # identities share T^-1 across pairs; a one-entry defect must still show.
    t = random_conditioned_map(8, 10.0, stream_rng(45))
    opset = build_operator_set(t, np.sqrt(np.arange(8)))
    assert product_identity_check(opset, [(1, 1)]).passed
    assert adjoint_relation_check(opset).passed
    assert ccr_check(opset).passed
    assert domain_mapping_check(opset).passed
    a = opset.a_phi_psi.entries.copy()
    k = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    a[k] *= 1.0 + 1e-6
    mutated = dataclasses.replace(opset, a_phi_psi=LinearMap(a))
    assert not product_identity_check(mutated, [(1, 1)]).passed
    assert not adjoint_relation_check(mutated).passed
    assert not ccr_check(mutated).passed
    h = opset.h_psi_phi.entries.copy()
    h[np.unravel_index(np.argmax(np.abs(h)), h.shape)] *= 1.0 + 1e-6
    assert not domain_mapping_check(dataclasses.replace(opset, h_psi_phi=LinearMap(h))).passed


def test_product_identity_reports_worst_pair():
    rng = stream_rng(46)
    opset = build_operator_set(random_conditioned_map(6, 20.0, rng), np.sqrt(np.arange(6)))
    pairs = [(m, l) for m in range(3) for l in range(3 - m)]
    single = [product_identity_check(opset, [pair]) for pair in pairs]
    worst = product_identity_check(opset, pairs)
    assert worst.residual == max(r.residual for r in single)
    first = next(r for r in single if r.residual == worst.residual)
    assert (worst.details["m"], worst.details["l"]) == (first.details["m"], first.details["l"])
    with pytest.raises(ValueError):
        product_identity_check(opset, [])


def parent_product_identity_check(opset, pairs, tolerance=1e-10):
    """The algorithm product_identity_check replaced: every chain through matrix_power, per pair."""
    t = opset.t.entries
    t_inv = invert(opset.t).entries
    t_adj = t.conj().T
    t_adj_inv = t_inv.conj().T
    a_e, b_e = dense(opset.a_e).entries, dense(opset.b_e).entries
    power = np.linalg.matrix_power

    def chain(mat, p, mat2, q):
        return power(mat, p) @ power(mat2, q)

    def rel(actual, reference, scale):
        return float(np.linalg.norm(actual - reference) / max(np.linalg.norm(reference), scale, 1e-300))

    conjugation = np.linalg.norm(t) * np.linalg.norm(t_inv)
    a_norm, b_norm = np.linalg.norm(a_e), np.linalg.norm(b_e)
    mixed = rel(
        opset.a_psi_phi.entries @ opset.b_phi_psi.entries,
        t_adj_inv @ a_e @ t_adj @ t @ b_e @ t_inv,
        conjugation**2 * a_norm * b_norm,
    )
    worst = None
    for m, l in pairs:
        plain_scale = conjugation * a_norm**m * b_norm**l
        ab_e, ba_e = chain(a_e, m, b_e, l), chain(b_e, m, a_e, l)
        ap, bp = opset.a_phi_psi.entries, opset.b_phi_psi.entries
        aq, bq = opset.a_psi_phi.entries, opset.b_psi_phi.entries
        details = {
            "phi_ab": rel(chain(ap, m, bp, l), t @ ab_e @ t_inv, plain_scale),
            "phi_ba": rel(chain(bp, m, ap, l), t @ ba_e @ t_inv, plain_scale),
            "psi_ab": rel(chain(aq, m, bq, l), t_adj_inv @ ab_e @ t_adj, plain_scale),
            "psi_ba": rel(chain(bq, m, aq, l), t_adj_inv @ ba_e @ t_adj, plain_scale),
            "mixed": mixed,
        }
        report = make_report("product_identities", max(details.values()), tolerance, details={**details, "m": m, "l": l})
        if worst is None or report.residual > worst.residual:
            worst = report
    return worst


SUITE_PAIRS = [(m, l) for m in range(5) for l in range(5 - m)]


def product_opsets():
    rng = stream_rng(47)
    dense = random_conditioned_map(12, 50.0, rng)
    dense = LinearMap(dense.entries + 0.3j * rng.standard_normal((12, 12)))
    complex_alpha = np.arange(12) + 0.25j * (-1.0) ** np.arange(12)
    return {
        "hermite-x": build_operator_set(build_X(32), np.sqrt(np.arange(32))),
        "dense-complex-alpha": build_operator_set(dense, complex_alpha),
        "nilpotent": build_operator_set(
            random_conditioned_map(3, 10.0, stream_rng(44)), np.array([0.5, 1.5, 2.5])
        ),
        "upper-unipotent": build_operator_set(
            LinearMap(np.eye(10) + 0.7 * np.eye(10, k=1)), np.arange(10)
        ),
    }


@pytest.mark.parametrize(
    "pairs",
    [SUITE_PAIRS, [(m, l) for m in range(9) for l in range(9 - m)], [(3, 5), (8, 0), (0, 7)]],
    ids=["suite", "all-up-to-8", "sparse"],
)
def test_product_identity_matches_parent_algorithm_bit_for_bit(pairs):
    # A weighted shift forms each entry's one nonzero product as the gemm
    # does; with complex alpha the gemm kernel may round that complex
    # product differently, so the reference moves by a few ulps of the
    # scale that normalizes every residual.
    for name, opset in product_opsets().items():
        expected = parent_product_identity_check(opset, pairs)
        actual = product_identity_check(opset, pairs)
        assert list(actual.details) == list(expected.details), name
        if np.isrealobj(opset.alpha):
            assert actual.residual == expected.residual, name
            assert actual.details == expected.details, name
        else:
            for key, value in expected.details.items():
                assert abs(actual.details[key] - value) <= 4 * np.finfo(float).eps, (name, key)


def parent_transform(op_e, t, side):
    """The two-product transform build_operator_set replaced: T op T^-1 or (T*)^-1 op T* as gemms."""
    t_inv = invert(t).entries
    if side == "phi_psi":
        return t.entries @ dense(op_e).entries @ t_inv
    return t_inv.conj().T @ dense(op_e).entries @ t.entries.conj().T


def test_operator_set_matches_parent_transform():
    # Real alpha: each column shift holds the bits of the gemm it replaced.
    # Complex alpha: the one complex product per entry may round apart.
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
            actual = getattr(opset, field).entries
            if np.isrealobj(opset.alpha):
                np.testing.assert_array_equal(actual, expected, err_msg=f"{name} {field}")
            else:
                scale = np.linalg.norm(opset.t.entries) * np.linalg.norm(invert(opset.t).entries)
                scale *= np.abs(opset.alpha).max()
                assert np.abs(actual - expected).max() <= 4 * np.finfo(float).eps * scale, (name, field)


def test_real_operator_set_matches_complex_arithmetic():
    # Real T and alpha keep the set in float64 and run the real kernels; the
    # same transforms on complex-cast inputs (SVD inverse, then one product
    # per side) differ from it only at rounding level.
    rng = stream_rng(49)
    opsets = {
        "hermite-x": build_operator_set(build_X(32), np.sqrt(np.arange(32))),
        "upper-unipotent": build_operator_set(
            LinearMap(np.eye(10) + 0.7 * np.eye(10, k=1)), np.arange(10)
        ),
        "real-dense": build_operator_set(
            LinearMap(rng.standard_normal((12, 12))), np.sqrt(np.arange(12))
        ),
    }
    for name, opset in opsets.items():
        t = opset.t.entries.astype(np.complex128)
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
            w = dense(op_e).entries.astype(np.complex128)
            expected = t @ w @ t_inv if side == "phi_psi" else t_inv.conj().T @ w @ t.conj().T
            actual = getattr(opset, field).entries
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
    # coefficients follow the rule of LinearMap: no imaginary part is real
    assert WeightedShift(1, np.ones(4, dtype=np.complex128)).coefficients.dtype == np.float64
    assert tail_coefficient_vector(lambda n: complex(n), 4).dtype == np.float64
    assert tail_coefficient_vector(lambda n: 1j * n, 4).dtype == np.complex128


def test_product_identity_defect_shows_on_its_own_side_and_in_both_orders():
    # (0, k) and (k, 0) share their operators; a defect in one psi-side
    # ladder must reach both orders and leave the phi side and mixed alone.
    rng = stream_rng(48)
    opset = build_operator_set(random_conditioned_map(8, 10.0, rng), np.sqrt(np.arange(8)))
    b = opset.b_psi_phi.entries.copy()
    b[np.unravel_index(np.argmax(np.abs(b)), b.shape)] *= 1.0 + 1e-6
    mutated = dataclasses.replace(opset, b_psi_phi=LinearMap(b))
    for pair, changed in (((0, 2), "psi_ab"), ((2, 0), "psi_ba"), ((1, 1), None)):
        clean = product_identity_check(opset, [pair]).details
        defect = product_identity_check(mutated, [pair]).details
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
    # 0.25 MiB, and a memo of every product would take about 25 MiB.
    t = random_conditioned_map(128, 100.0, stream_rng(49))
    opset = build_operator_set(t, np.sqrt(np.arange(128)))
    tracemalloc.start()
    try:
        product_identity_check(opset, SUITE_PAIRS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak


def test_ccr_small_dimensions():
    # commutator diagonals computed by hand from the shifted sqrt entries
    alpha = np.sqrt(np.arange(3))
    a, b = ladder_matrices(alpha, 3)
    comm = a.entries @ b.entries - b.entries @ a.entries
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, -2.0]), atol=1e-14)
    a2, b2 = ladder_matrices(np.sqrt(np.arange(2)), 2)
    comm2 = a2.entries @ b2.entries - b2.entries @ a2.entries
    np.testing.assert_allclose(comm2, np.diag([1.0, -1.0]), atol=1e-15)
    assert ccr_check(reference_opset(alpha)).passed
    assert ccr_check(reference_opset(np.sqrt(np.arange(2)))).passed


def test_ccr_interior_and_defect_at_64():
    report = ccr_check(reference_opset(np.sqrt(np.arange(64))))
    assert report.passed
    assert report.details["interior"] <= 1e-12
    assert report.details["defect"] <= 1e-12


def test_ccr_transformed_geometric_diagonal():
    t = from_diagonal(1.1 ** np.arange(64))
    report = ccr_check(build_operator_set(t, np.sqrt(np.arange(64))))
    assert report.passed
    assert report.details["transformed_interior"] < 1e-10


def test_ccr_requires_sqrt_alpha():
    with pytest.raises(WrongAlphaKind):
        ccr_check(reference_opset(np.arange(4)))


def test_ccr_reads_the_values_of_alpha_not_their_origin():
    # alpha_n = sqrt(n) however the array was made, and only then
    by_hand = [0.0, 1.0, np.sqrt(2.0), np.sqrt(3.0), 2.0]
    assert ccr_check(reference_opset(by_hand)).passed
    one_ulp_off = np.sqrt(np.arange(5))
    one_ulp_off[3] = np.nextafter(one_ulp_off[3], 2.0)
    with pytest.raises(WrongAlphaKind):
        ccr_check(reference_opset(one_ulp_off))


def test_domain_mapping_identity():
    report = domain_mapping_check(reference_opset(np.arange(4)))
    assert report.residual == 0.0
    assert report.details["amplification"] == pytest.approx(1.0)


def test_domain_mapping_geometric_diagonal():
    t = from_diagonal(2.0 ** np.arange(16))
    opset = build_operator_set(t, np.arange(16))
    report = domain_mapping_check(opset, tolerance=1e-9)
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
    spectrum = np.sort(np.linalg.eigvals(opset.h_phi_psi.entries).real)
    np.testing.assert_allclose(spectrum, np.arange(12, dtype=float), atol=1e-7 * t.cond_estimate)


def test_operator_set_b_is_adjoint_of_a_for_real_alpha():
    opset = build_operator_set(LinearMap(np.eye(5)), np.sqrt(np.arange(5)))
    np.testing.assert_array_equal(dense(opset.b_e).entries, dense(opset.a_e).entries.conj().T)


@pytest.mark.parametrize("dim", [8, 32, 256, 325])
def test_ccr_reference_commutator_by_shift_algebra_matches_dense_products(dim):
    a, b = ladder_shifts(np.sqrt(np.arange(dim)), dim)
    dense_a, dense_b = dense(a).entries, dense(b).entries
    assert (a @ b).offset == (b @ a).offset == 0
    by_shifts = np.diag((a @ b).coefficients - (b @ a).coefficients)
    assert np.array_equal(by_shifts, dense_a @ dense_b - dense_b @ dense_a)


def test_ccr_check_matches_the_dense_commutator_formula():
    t = random_conditioned_map(16, 20.0, stream_rng(63))
    opset = build_operator_set(t, np.sqrt(np.arange(16)))
    a, b = dense(opset.a_e).entries, dense(opset.b_e).entries
    comm = a @ b - b @ a
    expected = np.eye(16)
    expected[-1, -1] = -15.0
    report = ccr_check(opset)
    assert np.array_equal(
        [report.details["interior"], report.details["defect"]],
        [float(np.abs(comm[:15, :15] - np.eye(15)).max()), float(np.abs(comm - expected).max())],
    )


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
