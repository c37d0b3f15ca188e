"""Tests for biorthogonal systems built from a map T, their frame operators, and the polar check."""

import math

import numpy as np
import pytest

from rieszlab import (
    BiorthogonalSystem,
    FrameOperators,
    LinearMap,
    PolarFactors,
    build_frame_operators,
    build_operator_set,
    build_system,
    check_biorthogonality,
    frame_operator,
    from_diagonal,
    invert,
    polar_decompose,
    reconstruct_onb,
    verify_K_relations,
    verify_clause_i3,
)
from rieszlab import suite
from rieszlab.errors import DimensionMismatch, NumericallySingular
from rieszlab.sampling import random_kets, stream_rng
from rieszlab.systems import family_matrix

from helpers import dense_config, random_conditioned_map, random_unitary


def diag_system(values=(1.0, 2.0, 3.0)):
    return build_system(from_diagonal(values))


def test_build_system_identity():
    sys_ = build_system(LinearMap(np.eye(4)))
    assert check_biorthogonality(sys_).residual == 0.0
    for n in range(4):
        np.testing.assert_array_equal(sys_.phi[:, n], np.eye(4)[:, n])
        np.testing.assert_array_equal(sys_.psi[:, n], np.eye(4)[:, n])


def test_build_system_families_are_read_only_arrays():
    # the families are real exactly when T is
    for values, dtype in (([1.0, 2.0, 3.0], np.float64), ([1.0, 2.0j, 3.0], np.complex128)):
        sys_ = build_system(from_diagonal(values))
        for family in (sys_.phi, sys_.psi):
            assert family.shape == (3, 3) and family.dtype == dtype
            assert family.flags.c_contiguous and not family.flags.writeable
            with pytest.raises(ValueError):
                family[0, 0] = 5.0
        # the family format check hands an array already in that layout back as it is
        assert np.shares_memory(family_matrix(sys_.phi), sys_.phi)
        assert np.shares_memory(family_matrix(sys_.psi), sys_.psi)
    # a complex family with no imaginary part is real, by the rule of LinearMap
    assert family_matrix(np.eye(3, dtype=np.complex128)).dtype == np.float64


def test_build_system_diagonal():
    sys_ = diag_system()
    np.testing.assert_allclose(sys_.phi, np.diag([1.0, 2.0, 3.0]), atol=0)
    np.testing.assert_allclose(sys_.psi, np.diag([1.0, 0.5, 1.0 / 3.0]), atol=1e-16)
    assert check_biorthogonality(sys_).residual < 1e-15


def test_build_system_rejects_singular():
    with pytest.raises(NumericallySingular):
        build_system(from_diagonal([1.0, 0.0, 2.0]))


def test_check_biorthogonality_passes_for_construction():
    report = check_biorthogonality(diag_system())
    assert report.passed and report.residual < 1e-15


def test_check_biorthogonality_reference_basis():
    report = check_biorthogonality(BiorthogonalSystem(np.eye(3), np.eye(3)))
    assert report.passed and report.residual == 0.0


def test_check_biorthogonality_detects_scaling():
    sys_ = diag_system()
    phi = sys_.phi.copy()
    phi[:, 0] *= 2.0
    corrupted = BiorthogonalSystem(phi, sys_.psi)
    report = check_biorthogonality(corrupted)
    assert not report.passed
    assert report.residual == pytest.approx(1.0)
    assert (report.details["worst_row"], report.details["worst_col"]) == (0, 0)


def test_frame_operator_resolution_of_identity():
    np.testing.assert_array_equal(frame_operator(np.eye(4)).entries, np.eye(4))


def test_frame_operator_diagonal_families():
    sys_ = diag_system()
    np.testing.assert_allclose(frame_operator(sys_.phi).entries, np.diag([1.0, 4.0, 9.0]), atol=0)
    np.testing.assert_allclose(
        frame_operator(sys_.psi).entries, np.diag([1.0, 0.25, 1.0 / 9.0]), atol=1e-16
    )


def test_frame_operator_matches_tt_star():
    rng = stream_rng(21)
    for _ in range(5):
        t = random_conditioned_map(10, 30.0, rng)
        sys_ = build_system(t)
        k_phi = frame_operator(sys_.phi).entries
        expected = t.entries @ t.entries.conj().T
        assert np.linalg.norm(k_phi - expected) <= 1e-10 * np.linalg.norm(expected)
        k_psi = frame_operator(sys_.psi).entries
        expected_inv = np.linalg.inv(expected)
        assert np.linalg.norm(k_psi - expected_inv) <= 1e-9 * np.linalg.norm(expected_inv)


def test_frame_operator_dimension_guard():
    # a family is a nonempty 2-D array: a single vector or an empty array is rejected
    with pytest.raises(DimensionMismatch):
        frame_operator(np.eye(3)[:, 0])
    with pytest.raises(DimensionMismatch):
        frame_operator(np.zeros((3, 0)))


def test_k_relations_diagonal():
    sys_ = diag_system()
    report = verify_K_relations(sys_, build_frame_operators(sys_))
    assert report.passed
    assert report.residual < 1e-14
    # K_phi psi_1 = diag(1,4,9) e_1 / 2 = 2 e_1 = phi_1, by hand
    k_phi = frame_operator(sys_.phi).entries
    np.testing.assert_allclose(k_phi @ sys_.psi[:, 1], sys_.phi[:, 1], atol=1e-15)


def test_k_relations_identity_pair():
    sys_ = build_system(LinearMap(np.eye(5)))
    report = verify_K_relations(sys_, build_frame_operators(sys_))
    assert report.residual == 0.0


def test_k_product_identity_random():
    rng = stream_rng(22)
    for dim in (8, 32, 64):
        t = random_conditioned_map(dim, 100.0, rng)
        sys_ = build_system(t)
        report = verify_K_relations(sys_, build_frame_operators(sys_))
        assert report.passed, report.details
        assert report.details["product_identity"] < 1e-8


def test_reconstruct_onb_diagonal_recovers_reference():
    sys_ = diag_system()
    e_from_psi, e_from_phi, report = reconstruct_onb(sys_, build_frame_operators(sys_))
    assert report.passed
    np.testing.assert_allclose(e_from_psi, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(e_from_phi, np.eye(3), atol=1e-14)


def test_reconstruct_onb_swap_operator():
    # the reconstructed basis is the unitary polar factor's image: {e_1, e_0}
    sys_ = build_system(LinearMap([[0, 2], [1, 0]]))
    e_from_psi, _, report = reconstruct_onb(sys_, build_frame_operators(sys_))
    assert report.passed
    np.testing.assert_allclose(e_from_psi[:, 0], np.eye(2)[:, 1], atol=1e-14)
    np.testing.assert_allclose(e_from_psi[:, 1], np.eye(2)[:, 0], atol=1e-14)


def test_reconstruct_onb_equals_polar_image():
    rng = stream_rng(23)
    for _ in range(5):
        t = random_conditioned_map(12, 40.0, rng)
        sys_ = build_system(t)
        e_from_psi, e_from_phi, report = reconstruct_onb(sys_, build_frame_operators(sys_))
        assert report.passed, report.details
        u = polar_decompose(t).unitary_part.entries
        np.testing.assert_allclose(e_from_psi, u, atol=1e-9)
        assert report.details["cross_agreement"] <= 1e-9


def test_clause_i3_diagonal_and_identity():
    for t in (from_diagonal([1, 2, 3]), LinearMap(np.eye(3))):
        sys_ = build_system(t)
        report = verify_clause_i3(sys_, build_frame_operators(sys_), np.eye(3))
        assert report.residual < 1e-14


def test_clause_i3_random_samples():
    rng = stream_rng(24)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(t)
    samples = random_kets(16, 100, rng)
    report = verify_clause_i3(sys_, build_frame_operators(sys_), samples, tolerance=1e-9)
    assert report.passed


def test_clause_i3_needs_samples():
    sys_ = diag_system()
    with pytest.raises(ValueError):
        verify_clause_i3(sys_, build_frame_operators(sys_), np.zeros((3, 0)))


def test_clause_i3_flags_last_column_of_wide_sample_set():
    # K_phi^(1/2) = diag(1, 1, 1, 2) and K_psi^(1/2) = 1, so only e_3 is moved;
    # count != N, the zero column is skipped, and the one bad column is the last
    sys_ = build_system(LinearMap(np.eye(4)))
    ops = FrameOperators(k_phi=from_diagonal([1.0, 1.0, 1.0, 4.0]), k_psi=LinearMap(np.eye(4)))
    samples = np.zeros((4, 6))
    samples[:3, :3] = np.eye(3)
    samples[:, 4] = [1.0, -1.0, 2.0, 0.0]
    samples[3, 5] = 3.0
    report = verify_clause_i3(sys_, ops, samples)
    assert not report.passed
    assert report.residual == pytest.approx(1.0)
    assert report.details["samples"] == 6
    assert verify_clause_i3(sys_, ops, samples[:, :-1]).residual == 0.0


def polar_report(t):
    (report,) = suite.run_suite(dense_config(t, checks=["polar"]))
    return report


def test_polar_check_positive_input():
    # a positive T is its own positive factor, and U = 1
    t = from_diagonal([1, 2])
    factors = polar_decompose(t)
    np.testing.assert_allclose(factors.unitary_part.entries, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(factors.positive_part.entries, np.diag([1.0, 2.0]), atol=1e-14)
    report = polar_report(t)
    assert report.passed and report.residual <= 1e-14


def test_polar_check_swap_example():
    # P = diag(2, 1) acts on the rotated basis f_n = U e_n: f_0 = e_1, and P f_0 = (0, 1) = T e_0
    t = LinearMap([[0, 2], [1, 0]])
    factors = polar_decompose(t)
    f_0 = factors.unitary_part.entries[:, 0]
    np.testing.assert_allclose(factors.positive_part.entries, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(f_0, [0, 1], atol=1e-14)
    np.testing.assert_allclose(factors.positive_part.entries @ f_0, t.entries[:, 0], atol=1e-14)
    report = polar_report(t)
    assert report.passed and report.residual <= 1e-14


def test_polar_check_reassembles():
    t = random_conditioned_map(16, 60.0, stream_rng(25))
    factors = polar_decompose(t)
    assert factors.positive_part.positive
    rebuilt = factors.positive_part.entries @ factors.unitary_part.entries
    assert np.linalg.norm(rebuilt - t.entries, axis=0).max() <= 1e-9 * np.linalg.norm(t.entries)
    # P on the rotated basis constructs the same phi family as T
    again = build_system(LinearMap(rebuilt))
    assert np.abs(again.phi - build_system(t).phi).max() <= 1e-9
    report = polar_report(t)
    assert report.passed and 0.0 < report.details["reassembly"] <= 1e-12


def test_basis_gram_defect_reads_the_unitarity_gate_gram():
    # the polar check reports max |(U* U - 1)_jk| of the Gram its unitarity gate formed, bit for bit
    t = random_conditioned_map(16, 60.0, stream_rng(25))
    u = polar_decompose(t).unitary_part.entries
    gram = polar_report(t).details["f_basis_gram"]
    assert gram == float(np.abs(u.conj().T @ u - np.eye(16)).max())
    assert 0.0 < gram < 1e-12


@pytest.mark.parametrize("stretch, gated", [(1e-10, False), (2e-10, True)])
def test_polar_check_gates_a_non_unitary_factor(monkeypatch, stretch, gated):
    # stretching one column of U by 1 + s puts about 2 s into the Gram, and the
    # gate raises above ||U* U - 1||_F = 1e-10 * sqrt(6), about 2.4e-10
    t = random_conditioned_map(6, 20.0, stream_rng(28))

    def stretched(a):
        factors = polar_decompose(a)
        u = factors.unitary_part.entries.copy()
        u[:, 0] *= 1.0 + stretch
        return PolarFactors(unitary_part=LinearMap(u), positive_part=factors.positive_part)

    monkeypatch.setattr(suite, "polar_decompose", stretched)
    report = polar_report(t)
    if gated:
        assert report.residual == math.inf and report.details["error"] == "ValueError"
    else:
        assert report.passed and report.details["f_basis_gram"] == pytest.approx(2 * stretch, rel=1e-3)


def test_the_map_is_the_one_representation():
    # phi is T's own read-only entries, and the operator set keeps T itself
    t = random_conditioned_map(6, 20.0, stream_rng(30))
    assert np.shares_memory(build_system(t).phi, t.entries)
    assert build_operator_set(t, np.sqrt(np.arange(6))).t is t


def test_biorthogonality_random_property():
    rng = stream_rng(26)
    for dim in (8, 32, 64):
        t = random_conditioned_map(dim, 100.0, rng)
        sys_ = build_system(t)
        assert check_biorthogonality(sys_, tolerance=1e-8).passed


def test_scaling_covariance():
    rng = stream_rng(27)
    t = random_conditioned_map(8, 10.0, rng)
    sys_ = build_system(t)
    scaled = build_system(LinearMap(2.5 * t.entries))
    np.testing.assert_allclose(scaled.phi, 2.5 * sys_.phi, rtol=1e-12)
    np.testing.assert_allclose(scaled.psi, sys_.psi / 2.5, rtol=1e-11)
    assert abs(check_biorthogonality(scaled).residual - check_biorthogonality(sys_).residual) < 1e-12


def test_explicit_basis_pair():
    # an orthonormal basis {V e_n} folds into T: the map T V gives phi_n = T (V e_n)
    # and psi_n = (T^-1)* (V e_n), because ((T V)^-1)* = (T^-1)* V for unitary V
    rng = stream_rng(28)
    v = random_unitary(6, rng)
    t = random_conditioned_map(6, 20.0, rng)
    sys_ = build_system(LinearMap(t.entries @ v.entries))
    assert check_biorthogonality(sys_).residual <= 1e-10
    np.testing.assert_allclose(sys_.psi, invert(t).entries.conj().T @ v.entries, atol=1e-12)


def test_system_from_families_shape_guard():
    with pytest.raises(DimensionMismatch):
        BiorthogonalSystem(np.eye(3), np.eye(3)[:, :2])


def test_user_supplied_system_reconstruction():
    # hand the families over without T and recover it: the square roots act
    # as constructing operators on the reconstructed basis
    rng = stream_rng(29)
    t = random_conditioned_map(10, 25.0, rng)
    constructed = build_system(t)
    supplied = BiorthogonalSystem(constructed.phi, constructed.psi)
    assert check_biorthogonality(supplied).passed
    ops = build_frame_operators(supplied)
    e_from_psi, e_from_phi, report = reconstruct_onb(supplied, ops)
    assert report.passed, report.details
    np.testing.assert_allclose(ops.k_phi_sqrt.entries @ e_from_psi, supplied.phi, atol=1e-9)
    np.testing.assert_allclose(ops.k_psi_sqrt.entries @ e_from_phi, supplied.psi, atol=1e-9)


@pytest.mark.parametrize("complex_t", [False, True])
def test_k_relations_reuse_the_one_step_products_bit_for_bit(complex_t):
    # the round trips reuse K_phi psi and K_psi phi; the old formula formed each twice
    t = random_conditioned_map(12, 30.0, stream_rng(61))
    t = t if complex_t else LinearMap(t.entries.real)
    sys_ = build_system(t)
    ops = build_frame_operators(sys_)
    phi, psi, k_phi, k_psi = sys_.phi, sys_.psi, ops.k_phi.entries, ops.k_psi.entries

    def worst(actual, expected):
        norms = np.maximum(1.0, np.linalg.norm(expected, axis=0))
        return float((np.linalg.norm(actual - expected, axis=0) / norms).max())

    old = {
        "phi_from_psi": worst(k_phi @ psi, phi),
        "psi_from_phi": worst(k_psi @ phi, psi),
        "psi_roundtrip": worst(k_psi @ (k_phi @ psi), psi),
        "phi_roundtrip": worst(k_phi @ (k_psi @ phi), phi),
        "product_identity": float(np.linalg.norm(k_phi @ k_psi - np.eye(12)) / np.sqrt(12)),
    }
    report = verify_K_relations(sys_, ops)
    assert list(report.details) == list(old)
    assert np.array_equal(list(report.details.values()), list(old.values()))
