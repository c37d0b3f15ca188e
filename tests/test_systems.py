"""Tests for biorthogonal systems built from a map T, their frame operators, and the polar check."""

import tracemalloc

import numpy as np
import pytest

from rieszlab import (
    BiorthogonalSystem,
    FrameOperators,
    LinearMap,
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
from rieszlab.cli import _hermite_config
from rieszlab.linalg import SPLIT_FLOOR, Blocks
from rieszlab.errors import DimensionMismatch, NumericallySingular
from rieszlab.hermite import quadrature_gram, tail_family, trapezoid_rule
from rieszlab.systems import family_matrix

from helpers import dense_config, random_conditioned_map, random_unitary, stream_rng


def diag_system(values=(1.0, 2.0, 3.0)):
    return build_system(from_diagonal(values))


def onb_routes(sys_, ops):
    """The two reconstructions K_phi^(1/2) psi and K_psi^(1/2) phi that reconstruct_onb compares."""
    return np.asarray(ops.k_phi_sqrt @ sys_.psi), np.asarray(ops.k_psi_sqrt @ sys_.phi)


def test_build_system_identity():
    sys_ = build_system(LinearMap(np.eye(4)))
    assert check_biorthogonality(sys_, 1e-8).residual == 0.0
    np.testing.assert_array_equal(sys_.phi, np.eye(4))
    np.testing.assert_array_equal(sys_.psi, np.eye(4))


@pytest.mark.parametrize("dim", [3, 64])
def test_build_system_families_are_read_only_blocks(dim):
    # the families are real exactly when T is; a diagonal T below the split
    # floor is one block, and above it two parity blocks
    for values, dtype in ((np.arange(1.0, dim + 1), np.float64), (np.arange(1.0, dim + 1) * 1j ** np.arange(dim), np.complex128)):
        t = from_diagonal(values)
        sys_ = build_system(t)
        for family in (sys_.phi, sys_.psi):
            assert isinstance(family, Blocks) and family.parts == (2 if dim >= SPLIT_FLOOR else 1)
            assert family.shape == (dim, dim) and family.dtype == dtype
            for block in family.blocks:
                assert not block.flags.writeable
                with pytest.raises(ValueError):
                    block[0, 0] = 5.0
        # phi is T itself, psi the adjoint of T's one inverse
        assert sys_.phi is t
        assert all(np.shares_memory(p, i) for p, i in zip(sys_.psi.blocks, invert(t).blocks)) == (dtype == np.float64)
        # the family format check hands an array already in that layout back as it is
        dense = np.asarray(sys_.phi)
        assert np.shares_memory(family_matrix(dense), dense)
    # a complex family with no imaginary part is real, by the package's one dtype rule
    assert family_matrix(np.eye(3, dtype=np.complex128)).dtype == np.float64


def test_build_system_holds_no_second_inverse():
    # psi = (T^-1)* is the adjoint view of the map's one held T^-1: with the
    # inverse built, the real system allocates no block at all
    t = LinearMap(tail_family(256))
    invert(t)
    tracemalloc.start()
    try:
        sys_ = build_system(t)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 128 * 128 * 8
    assert peak < 0.1 * block and kept < 0.1 * block, (peak, kept)
    assert sys_.phi is t
    assert all(np.shares_memory(p, i) for p, i in zip(sys_.psi.blocks, invert(t).blocks))


def test_psi_is_the_maps_adjoint_inverse():
    # the dual family is the adjoint of the map's one T^-1, block by block
    for t in (LinearMap(tail_family(8)), LinearMap(tail_family(65)), random_conditioned_map(6, 10.0, stream_rng(29))):
        psi = build_system(t).psi
        assert psi is t.adjoint_inverse
        assert psi.parts == invert(t).parts == t.parts
        np.testing.assert_array_equal(psi, np.asarray(invert(t)).conj().T)


def test_family_of_a_writable_caller_buffer_is_copied():
    # Blocks.of holds a read-only array; a writable buffer of the caller's
    # is copied, so the caller keeps writing to its own, also through a
    # read-only view of it
    writable = np.eye(3)
    view = writable.view()
    view.setflags(write=False)
    for family in (np.eye(3), np.eye(6)[:3], np.eye(3, dtype=np.complex128), np.eye(SPLIT_FLOOR), view):
        for held in (Blocks.of(family), BiorthogonalSystem(phi=family, psi=family).phi):
            assert not any(np.shares_memory(b, family) or b.flags.writeable for b in held.blocks)
            assert family is view or family.flags.writeable
    assert not np.shares_memory(np.asarray(LinearMap(view)), writable) and writable.flags.writeable
    # a read-only array in the package's layout is held as it is
    frozen = np.eye(3)
    frozen.setflags(write=False)
    (block,) = Blocks.of(frozen).blocks
    assert block is frozen
    # a map, a system family or any other read-only Blocks comes back as it is
    t = from_diagonal([1.0, 2.0])
    assert Blocks.of(t) is t and BiorthogonalSystem(phi=t, psi=t).phi is t
    assert Blocks.of(t.adjoint_inverse) is t.adjoint_inverse


def test_fresh_hermite_arrays_are_held_without_a_copy():
    # below the split floor Blocks.of holds the model's read-only arrays
    # as they are
    for fresh in (tail_family(16), quadrature_gram(lambda x: 1.0 + x * x, trapezoid_rule(16))):
        assert not fresh.flags.writeable
        (block,) = Blocks.of(fresh).blocks
        assert block is fresh


def test_a_split_map_holds_only_its_parity_blocks():
    # T is held once: a Hermite X from the split floor is its two parity
    # blocks, with no dense copy among its cached values, and phi is T itself
    t = LinearMap(tail_family(256))
    sys_ = build_system(t)
    polar_decompose(t)
    assert t.parts == 2 and [b.shape for b in t.blocks] == [(128, 128)] * 2
    assert sys_.phi is t and np.shares_memory(sys_.phi.blocks[0], t.blocks[0])

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Blocks):
            yield from value.blocks
        elif isinstance(value, tuple):
            for v in value:
                yield from arrays(v)

    held = list(arrays(tuple(vars(t).values())))
    assert {"svd", "inverse", "adjoint_inverse"} <= vars(t).keys() and held
    assert all(a.ndim < 2 or max(a.shape) <= 128 for a in held), [a.shape for a in held]


def warm_suite_peak(cfg) -> float:
    """The traced peak of one run after a warm-up run, in MiB; every check must pass."""
    suite.run_suite(cfg)
    tracemalloc.start()
    try:
        reports = suite.run_suite(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    return peak / 2**20


def test_hermite_full_suite_peak_at_256():
    # T held as its parity blocks only, each stage dropped after its last
    # reader, the walk's mixed product formed before B's children and no
    # sample set drawn: 4.15 MiB, set by product_identities.  frame_bounds
    # reads Omega_phi on the N x N identity built in phi's two parity
    # blocks: 3.53 MiB while it runs, 3.78 MiB when Blocks.of split the whole
    # identity into them.  Multiplying the split family into the whole
    # identity read 4.28 MiB, and with representation reading two
    # 100-column sample sets 4.48 MiB.  Dropping the eigenrelation only with
    # the operator set, after product_identities, read 4.84 MiB; holding
    # both to the end 6.75 MiB, and 6.81 MiB with the dense tail_family(512)
    # the tail check once built.
    assert warm_suite_peak(_hermite_config(256, full_suite=True, seed=0)) <= 4.25


def test_dense_complex_default_suite_peak_at_128():
    # the default checks of a dense complex T, cond 1e3: 4.42 MiB, set by
    # product_identities, with each stage dropped after its last reader and
    # the mixed product formed before B's children; 5.17 MiB with the
    # eigenrelation held to the end of the walk and the mixed product formed
    # beside B's children, and 6.68 MiB with the operator set held to the end
    cfg = dense_config(random_conditioned_map(128, 1e3, stream_rng(0)))
    assert warm_suite_peak(cfg) <= 4.6


def test_biorthogonality_reads_the_diagonal_of_a_parity_swapping_product():
    # phi swaps e_2i and e_2i+1; psi is the identity: <phi_k, psi_k> = 0 and
    # <phi_2i, psi_2i+1> = 1, so the deviation from the Kronecker delta is 1
    half = np.eye(32)
    sys_ = BiorthogonalSystem(phi=Blocks([half, half], 1), psi=Blocks([half, half]))
    report = check_biorthogonality(sys_, 1e-8)
    assert report.residual == 1.0 and not report.passed
    assert (report.details["worst_row"], report.details["worst_col"]) == (0, 0)


def test_build_system_diagonal():
    sys_ = diag_system()
    np.testing.assert_allclose(sys_.phi, np.diag([1.0, 2.0, 3.0]), atol=0)
    np.testing.assert_allclose(sys_.psi, np.diag([1.0, 0.5, 1.0 / 3.0]), atol=1e-16)
    assert check_biorthogonality(sys_, 1e-8).residual < 1e-15


def test_build_system_rejects_singular():
    with pytest.raises(NumericallySingular):
        build_system(from_diagonal([1.0, 0.0, 2.0]))


def test_check_biorthogonality_passes_for_construction():
    report = check_biorthogonality(diag_system(), 1e-8)
    assert report.passed and report.residual < 1e-15


def test_check_biorthogonality_reference_basis():
    report = check_biorthogonality(BiorthogonalSystem(np.eye(3), np.eye(3)), 1e-8)
    assert report.passed and report.residual == 0.0


def test_check_biorthogonality_detects_scaling():
    sys_ = diag_system()
    phi = np.array(sys_.phi)
    phi[:, 0] *= 2.0
    corrupted = BiorthogonalSystem(phi, sys_.psi)
    report = check_biorthogonality(corrupted, 1e-8)
    assert not report.passed
    assert report.residual == pytest.approx(1.0)
    assert (report.details["worst_row"], report.details["worst_col"]) == (0, 0)


def test_frame_operator_resolution_of_identity():
    np.testing.assert_array_equal(np.asarray(frame_operator(np.eye(4))), np.eye(4))


def test_frame_operator_diagonal_families():
    sys_ = diag_system()
    np.testing.assert_allclose(np.asarray(frame_operator(sys_.phi)), np.diag([1.0, 4.0, 9.0]), atol=0)
    np.testing.assert_allclose(
        np.asarray(frame_operator(sys_.psi)), np.diag([1.0, 0.25, 1.0 / 9.0]), atol=1e-16
    )


def test_frame_operator_matches_tt_star():
    rng = stream_rng(21)
    for _ in range(5):
        t = random_conditioned_map(10, 30.0, rng)
        sys_ = build_system(t)
        k_phi = np.asarray(frame_operator(sys_.phi))
        expected = np.asarray(t) @ np.asarray(t).conj().T
        assert np.linalg.norm(k_phi - expected) <= 1e-10 * np.linalg.norm(expected)
        k_psi = np.asarray(frame_operator(sys_.psi))
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
    report = verify_K_relations(sys_, build_frame_operators(sys_), 1e-8)
    assert report.passed
    assert report.residual < 1e-14
    # K_phi psi_1 = diag(1,4,9) e_1 / 2 = 2 e_1 = phi_1, by hand
    k_phi = np.asarray(frame_operator(sys_.phi))
    np.testing.assert_allclose(k_phi @ np.asarray(sys_.psi)[:, 1], np.asarray(sys_.phi)[:, 1], atol=1e-15)


def test_k_relations_identity_pair():
    sys_ = build_system(LinearMap(np.eye(5)))
    report = verify_K_relations(sys_, build_frame_operators(sys_), 1e-8)
    assert report.residual == 0.0


def test_k_product_identity_random():
    rng = stream_rng(22)
    for dim in (8, 32, 64):
        t = random_conditioned_map(dim, 100.0, rng)
        sys_ = build_system(t)
        report = verify_K_relations(sys_, build_frame_operators(sys_), 1e-8)
        assert report.passed, report.details
        assert report.details["product_identity"] < 1e-8


def test_reconstruct_onb_diagonal_recovers_reference():
    sys_ = diag_system()
    ops = build_frame_operators(sys_)
    report = reconstruct_onb(sys_, ops, 1e-9)
    assert report.passed
    e_from_psi, e_from_phi = onb_routes(sys_, ops)
    np.testing.assert_allclose(e_from_psi, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(e_from_phi, np.eye(3), atol=1e-14)


def test_reconstruct_onb_swap_operator():
    # the reconstructed basis is the unitary polar factor's image: {e_1, e_0}
    sys_ = build_system(LinearMap([[0, 2], [1, 0]]))
    ops = build_frame_operators(sys_)
    assert reconstruct_onb(sys_, ops, 1e-9).passed
    e_from_psi, _ = onb_routes(sys_, ops)
    np.testing.assert_allclose(e_from_psi[:, 0], np.eye(2)[:, 1], atol=1e-14)
    np.testing.assert_allclose(e_from_psi[:, 1], np.eye(2)[:, 0], atol=1e-14)


def test_reconstruct_onb_equals_polar_image():
    rng = stream_rng(23)
    for _ in range(5):
        t = random_conditioned_map(12, 40.0, rng)
        sys_ = build_system(t)
        ops = build_frame_operators(sys_)
        report = reconstruct_onb(sys_, ops, 1e-9)
        assert report.passed, report.details
        e_from_psi, _ = onb_routes(sys_, ops)
        _, u = polar_decompose(t)
        np.testing.assert_allclose(e_from_psi, u, atol=1e-9)
        assert report.details["cross_agreement"] <= 1e-9


def test_clause_i3_diagonal_and_identity():
    for t in (from_diagonal([1, 2, 3]), LinearMap(np.eye(3))):
        sys_ = build_system(t)
        report = verify_clause_i3(build_frame_operators(sys_), 1e-9)
        assert report.residual < 1e-14
        assert report.details == {}


def test_clause_i3_random_map():
    rng = stream_rng(24)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(t)
    report = verify_clause_i3(build_frame_operators(sys_), 1e-9)
    assert report.passed


def test_clause_i3_flags_the_last_column():
    # K_phi^(1/2) = diag(1, 1, 1, 2) and K_psi^(1/2) = 1, so only e_3 is
    # moved: the product minus 1 is 1 in the last column and 0 elsewhere
    ops = FrameOperators(k_phi=from_diagonal([1.0, 1.0, 1.0, 4.0]), k_psi=LinearMap(np.eye(4)))
    report = verify_clause_i3(ops, 1e-9)
    assert not report.passed
    assert report.residual == 1.0


def polar_report(t):
    (report,) = suite.run_suite(dense_config(t, checks=["polar"]))
    return report


def test_polar_check_positive_input():
    # a positive T is its own positive factor, and U = 1
    t = from_diagonal([1, 2])
    positive, unitary = polar_decompose(t)
    np.testing.assert_allclose(unitary, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(positive, np.diag([1.0, 2.0]), atol=1e-14)
    report = polar_report(t)
    assert report.passed and report.residual <= 1e-14


def test_polar_check_swap_example():
    # P = diag(2, 1) acts on the rotated basis f_n = U e_n: f_0 = e_1, and P f_0 = (0, 1) = T e_0
    t = LinearMap([[0, 2], [1, 0]])
    positive, unitary = polar_decompose(t)
    f_0 = np.asarray(unitary)[:, 0]
    np.testing.assert_allclose(positive, np.diag([2.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(f_0, [0, 1], atol=1e-14)
    np.testing.assert_allclose(np.asarray(positive) @ f_0, np.asarray(t)[:, 0], atol=1e-14)
    report = polar_report(t)
    assert report.passed and report.residual <= 1e-14


def test_polar_check_reassembles():
    t = random_conditioned_map(16, 60.0, stream_rng(25))
    positive, unitary = polar_decompose(t)
    assert LinearMap(positive).positive
    rebuilt = np.asarray(positive @ unitary)
    assert np.linalg.norm(rebuilt - np.asarray(t), axis=0).max() <= 1e-9 * np.linalg.norm(np.asarray(t))
    # P on the rotated basis constructs the same phi family as T
    again = build_system(LinearMap(rebuilt))
    assert np.abs(np.asarray(again.phi) - build_system(t).phi).max() <= 1e-9
    report = polar_report(t)
    assert report.passed and 0.0 < report.details["reassembly"] <= 1e-12


def test_basis_gram_defect_reads_the_unitarity_gate_gram():
    # the polar check reports max |(U* U - 1)_jk| of U's Gram, bit for bit
    t = random_conditioned_map(16, 60.0, stream_rng(25))
    _, u = map(np.asarray, polar_decompose(t))
    gram = polar_report(t).details["f_basis_gram"]
    assert gram == float(np.abs(u.conj().T @ u - np.eye(16)).max())
    assert 0.0 < gram < 1e-12


@pytest.mark.parametrize("tolerance, passes", [(1e-8, True), (1e-10, False)])
def test_polar_check_reads_a_non_unitary_factor_against_the_tolerance(monkeypatch, tolerance, passes):
    # stretching one column of U by 1 + s puts about 2 s into the Gram; the
    # verdict comes from the run's tolerance alone, never from an error
    t = random_conditioned_map(6, 20.0, stream_rng(28))
    stretch = 2e-10

    def stretched(a):
        positive, u = polar_decompose(a)
        u = np.array(u)
        u[:, 0] *= 1.0 + stretch
        return positive, Blocks([u])

    monkeypatch.setattr(suite, "polar_decompose", stretched)
    (report,) = suite.run_suite(dense_config(t, checks=["polar"], tolerance=tolerance))
    assert "error" not in report.details
    assert report.details["f_basis_gram"] == pytest.approx(2 * stretch, rel=1e-3)
    assert report.residual == report.details["f_basis_gram"]
    assert report.passed is passes


def test_the_map_is_the_one_representation():
    # phi is T itself, and the operator set keeps T itself
    t = random_conditioned_map(6, 20.0, stream_rng(30))
    assert build_system(t).phi is t
    assert build_operator_set(t, np.sqrt(np.arange(6))).t is t


def test_biorthogonality_random_property():
    rng = stream_rng(26)
    for dim in (8, 32, 64):
        t = random_conditioned_map(dim, 100.0, rng)
        sys_ = build_system(t)
        assert check_biorthogonality(sys_, 1e-8).passed


def test_scaling_covariance():
    rng = stream_rng(27)
    t = random_conditioned_map(8, 10.0, rng)
    sys_ = build_system(t)
    scaled = build_system(LinearMap(2.5 * np.asarray(t)))
    np.testing.assert_allclose(scaled.phi, 2.5 * np.asarray(sys_.phi), rtol=1e-12)
    np.testing.assert_allclose(scaled.psi, np.asarray(sys_.psi) / 2.5, rtol=1e-11)
    assert abs(check_biorthogonality(scaled, 1e-8).residual - check_biorthogonality(sys_, 1e-8).residual) < 1e-12


def test_explicit_basis_pair():
    # an orthonormal basis {V e_n} folds into T: the map T V gives phi_n = T (V e_n)
    # and psi_n = (T^-1)* (V e_n), because ((T V)^-1)* = (T^-1)* V for unitary V
    rng = stream_rng(28)
    v = random_unitary(6, rng)
    t = random_conditioned_map(6, 20.0, rng)
    sys_ = build_system(LinearMap(np.asarray(t) @ np.asarray(v)))
    assert check_biorthogonality(sys_, 1e-8).residual <= 1e-10
    np.testing.assert_allclose(sys_.psi, np.asarray(invert(t)).conj().T @ np.asarray(v), atol=1e-12)


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
    assert check_biorthogonality(supplied, 1e-8).passed
    ops = build_frame_operators(supplied)
    report = reconstruct_onb(supplied, ops, 1e-9)
    assert report.passed, report.details
    e_from_psi, e_from_phi = onb_routes(supplied, ops)
    np.testing.assert_allclose(ops.k_phi_sqrt @ e_from_psi, supplied.phi, atol=1e-9)
    np.testing.assert_allclose(ops.k_psi_sqrt @ e_from_phi, supplied.psi, atol=1e-9)


@pytest.mark.parametrize("complex_t", [False, True])
def test_k_relations_reuse_the_one_step_products_bit_for_bit(complex_t):
    # the round trips reuse K_phi psi and K_psi phi; the old formula formed each twice
    t = random_conditioned_map(12, 30.0, stream_rng(61))
    t = t if complex_t else LinearMap(np.asarray(t).real)
    sys_ = build_system(t)
    ops = build_frame_operators(sys_)
    phi, psi, k_phi, k_psi = (np.asarray(m) for m in (sys_.phi, sys_.psi, ops.k_phi, ops.k_psi))

    def worst(actual, expected):
        return float((np.linalg.norm(actual - expected, axis=0) / np.linalg.norm(expected, axis=0)).max())

    old = {
        "phi_from_psi": worst(k_phi @ psi, phi),
        "psi_from_phi": worst(k_psi @ phi, psi),
        "psi_roundtrip": worst(k_psi @ (k_phi @ psi), psi),
        "phi_roundtrip": worst(k_phi @ (k_psi @ phi), phi),
        "product_identity": float(np.linalg.norm(k_phi @ k_psi - np.eye(12)) / np.sqrt(12)),
    }
    report = verify_K_relations(sys_, ops, 1e-8)
    assert list(report.details) == list(old)
    assert np.array_equal(list(report.details.values()), list(old.values()))
