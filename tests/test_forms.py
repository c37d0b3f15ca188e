"""Tests for sesquilinear forms, frame bounds, and tail diagnostics."""

import numpy as np
import pytest

from rieszlab import (
    BiorthogonalSystem,
    FrameOperators,
    build_frame_operators,
    build_system,
    frame_bounds,
    from_diagonal,
    omega,
    quasi_basis_residual,
    tail_diagnostic,
    verify_representation,
)
from rieszlab.errors import DimensionMismatch, NotPositive
from rieszlab.forms import TAIL_GRID
from rieszlab.hermite import tail_family, tail_pairings
from rieszlab.linalg import LinearMap

from helpers import random_conditioned_map, random_kets, stream_rng

GRID = TAIL_GRID


def pentadiagonal_x(dim):
    x = np.zeros((dim, dim))
    for n in range(dim):
        x[n, n] = n + 1.5
        if n + 2 < dim:
            x[n, n + 2] = x[n + 2, n] = np.sqrt((n + 1.0) * (n + 2.0)) / 2.0
    return x


def hermite_phi_family(dim):
    return pentadiagonal_x(dim)


def onb(dim):
    return np.eye(dim)


def test_omega_parseval():
    rng = stream_rng(31)
    x, y = random_kets(6, 10, rng), random_kets(6, 10, rng)
    values = omega(x, y, onb(6))
    assert values.shape == (10,)
    for k in range(10):
        assert abs(values[k] - np.vdot(x[:, k], y[:, k])) < 1e-13


def test_omega_single_term():
    sys_ = build_system(from_diagonal([1, 2, 3]))
    e1 = np.eye(3)[:, 1]
    assert omega(e1, e1, sys_.phi) == pytest.approx(4.0)
    # a sample set gives one value per column: Omega(e_k, e_k) = |phi_k|^2
    np.testing.assert_allclose(omega(np.eye(3), np.eye(3), sys_.phi), [1.0, 4.0, 9.0], atol=0)


def test_omega_hermite_ground_state():
    # phi_0 = 1.5 e_0 + (sqrt(2)/2) e_2 and phi_2 contributes <e_0, phi_2> = sqrt(2)/2,
    # so Omega(e_0, e_0) = 9/4 + 1/2 = 11/4.  Oracle: quadrature inner products
    # computed with an independent Gauss-Hermite rule and explicit H_0, H_2.
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    h0 = np.pi**-0.25 * np.ones_like(nodes)
    h2 = (4 * nodes**2 - 2) / np.sqrt(2**2 * 2 * np.sqrt(np.pi))
    mult = 1 + nodes**2
    pair_00 = float(np.sum(weights * h0 * mult * h0))
    pair_02 = float(np.sum(weights * h0 * mult * h2))
    oracle = pair_00**2 + pair_02**2
    assert oracle == pytest.approx(2.75, abs=1e-10)
    e0 = np.eye(64)[:, 0]
    value = omega(e0, e0, hermite_phi_family(64))
    assert value == pytest.approx(oracle, abs=1e-10)


def test_omega_hermitian_symmetry_and_positivity():
    rng = stream_rng(32)
    family = hermite_phi_family(16)
    x, y = random_kets(16, 10, rng), random_kets(16, 10, rng)
    a = omega(x, y, family)
    b = omega(y, x, family)
    assert np.all(np.abs(a - np.conj(b)) <= 1e-12 * np.maximum(1.0, np.abs(a)))
    diag = omega(x, x, family)
    assert np.all(diag.real >= 0.0)
    assert np.all(np.abs(diag.imag) <= 1e-12 * np.maximum(1.0, diag.real))
    squared_moduli = np.sum(np.abs(family.conj().T @ x) ** 2, axis=0)
    np.testing.assert_allclose(diag.real, squared_moduli, rtol=1e-12)
    # the batched columns agree with one vector pair at a time
    for k in range(10):
        assert omega(x[:, k], y[:, k], family) == pytest.approx(a[k], rel=1e-13)


def test_omega_dimension_guard():
    with pytest.raises(DimensionMismatch):
        omega(np.eye(3)[:, 0], np.eye(3)[:, 0], onb(4))
    with pytest.raises(DimensionMismatch):
        omega(np.ones((4, 2)), np.ones((4, 3)), onb(4))


def test_representation_reference_basis():
    sys_ = BiorthogonalSystem(onb(4), onb(4))
    ops = FrameOperators(k_phi=LinearMap(np.eye(4)), k_psi=LinearMap(np.eye(4)))
    report = verify_representation(sys_, ops, 1e-9)
    assert report.passed and report.residual == 0.0


def test_representation_diagonal():
    sys_ = build_system(from_diagonal([1, 2, 3]))
    ops = build_frame_operators(sys_)
    report = verify_representation(sys_, ops, 1e-9)
    assert report.passed
    # both routes give 4 on e_1: Omega(e_1, e_1) = |<e_1, phi_1>|^2 and |K^(1/2) e_1|^2 = K_11
    e1 = np.eye(3)[:, 1]
    assert omega(e1, e1, sys_.phi) == pytest.approx(4.0)
    assert np.asarray(ops.k_phi)[1, 1] == pytest.approx(4.0)


def test_representation_random_property():
    rng = stream_rng(34)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(t)
    ops = build_frame_operators(sys_)
    report = verify_representation(sys_, ops, 1e-9)
    assert report.passed, report.residual
    assert report.details.keys() == {"phi_family", "psi_family"}
    assert report.residual == max(report.details.values())


def basis_pair_reading(family, root):
    """Worst |Omega(e_n, e_m) - <K^(1/2) e_n, K^(1/2) e_m>| / (|K^(1/2) e_n| |K^(1/2) e_m|) over the pairs, one at a time."""
    dim = family.shape[0]
    root = np.asarray(root)
    worst = 0.0
    for m in range(dim):
        for n in range(dim):
            e_m, e_n = np.eye(dim)[:, m], np.eye(dim)[:, n]
            form = omega(e_n, e_m, family)
            direct = np.vdot(root @ e_n, root @ e_m)
            worst = max(worst, abs(form - direct) / (np.linalg.norm(root @ e_n) * np.linalg.norm(root @ e_m)))
    return worst


def test_representation_detects_perturbed_root():
    # a K_phi that is not the phi family's frame operator moves its root, and
    # only the phi side; the reading is the form's over every basis pair
    rng = stream_rng(37)
    sys_ = build_system(random_conditioned_map(8, 10.0, rng))
    ops = build_frame_operators(sys_)
    k_phi = np.asarray(ops.k_phi).copy()
    k_phi[0, 0] *= 1.0 + 2e-6
    perturbed = FrameOperators(k_phi=LinearMap(k_phi), k_psi=ops.k_psi)
    report = verify_representation(sys_, perturbed, 1e-9)
    assert not report.passed
    assert report.details["psi_family"] <= 1e-9 < report.details["phi_family"]
    expected = basis_pair_reading(np.asarray(sys_.phi), perturbed.k_phi_sqrt)
    assert report.details["phi_family"] == pytest.approx(expected, rel=1e-6)


def test_quasi_basis_reference():
    family = onb(5)
    sys_ = BiorthogonalSystem(family, family)
    report = quasi_basis_residual(sys_, 1e-9)
    assert report.passed and report.residual == 0.0
    assert report.details.keys() == {"phi_psi_order", "psi_phi_order"}


def test_quasi_basis_constructed_property():
    rng = stream_rng(35)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(t)
    report = quasi_basis_residual(sys_, 1e-9)
    assert report.passed, report.details


def test_quasi_basis_detects_corruption():
    # with psi_0 = 0 both products miss e_0 entirely
    sys_ = build_system(from_diagonal([1, 2, 3]))
    psi = np.array(sys_.psi)
    psi[:, 0] = 0.0
    report = quasi_basis_residual(BiorthogonalSystem(sys_.phi, psi), 1e-9)
    assert not report.passed
    assert report.details == {"phi_psi_order": 1.0, "psi_phi_order": 1.0}


def test_quasi_basis_reads_the_last_column():
    # psi_(N-1) scaled by 1 + 1e-6: phi psi* - 1 is 1e-6 at (N-1, N-1) alone
    sys_ = build_system(from_diagonal([1, 2, 3]))
    psi = np.array(sys_.psi)
    psi[:, -1] *= 1.0 + 1e-6
    corrupted = BiorthogonalSystem(sys_.phi, psi)
    report = quasi_basis_residual(corrupted, 1e-7)
    assert not report.passed
    assert report.details["phi_psi_order"] == pytest.approx(1e-6, rel=1e-9)
    assert report.details["psi_phi_order"] == pytest.approx(1e-6, rel=1e-9)
    assert quasi_basis_residual(corrupted, 1e-5).passed


def test_frame_bounds_reference_and_diagonal():
    assert frame_bounds(LinearMap(np.eye(4))) == (pytest.approx(1.0), pytest.approx(1.0))
    sys_ = build_system(from_diagonal([1, 2, 3]))
    ops = build_frame_operators(sys_)
    c, big_c = frame_bounds(ops.k_phi)
    assert c == pytest.approx(1.0) and big_c == pytest.approx(9.0)


def test_frame_bounds_requires_positive():
    with pytest.raises(NotPositive):
        frame_bounds(from_diagonal([1, -1]))


def test_frame_bounds_sandwich():
    rng = stream_rng(36)
    t = random_conditioned_map(12, 50.0, rng)
    sys_ = build_system(t)
    c, big_c = frame_bounds(build_frame_operators(sys_).k_phi)
    x = random_kets(12, 100, rng)
    sq = np.linalg.norm(x, axis=0) ** 2
    value = omega(x, x, sys_.phi).real
    assert np.all(value >= c * sq - 1e-10 * value)
    assert np.all(value <= big_c * sq + 1e-10 * value)


def tail_x(coeff):
    """The first GRID[-1] coefficients, where the tail diagnostic takes its vector."""
    return np.array([coeff(k) for k in range(GRID[-1])], dtype=complex)


def tail_of(coeff):
    """The diagnostic of a coefficient vector's pairings with X's columns, from X's bands."""
    return tail_diagnostic(tail_pairings(tail_x(coeff)))


def test_tail_finitely_supported_is_convergent():
    diag = tail_diagnostic(tail_pairings(np.eye(GRID[-1])[:, 0]))
    assert diag.classification == "convergent"
    # S_N is constant once the support (indices 0 and 2) is inside the truncation
    assert diag.partial_sums[-1] == pytest.approx(diag.partial_sums[0])


def test_tail_harmonic_coefficients_diverge():
    diag = tail_of(lambda k: 1.0 / (k + 1.0))
    assert diag.classification == "divergent"
    assert diag.growth_exponent > 0.5
    # oracle: direct partial sums of |(X x)_k|^2 with the pentadiagonal entries
    n_max = GRID[-1]
    x = np.array([1.0 / (k + 1.0) for k in range(n_max)])
    ips = pentadiagonal_x(n_max) @ x
    direct = {n: float(np.sum(ips[:n] ** 2)) for n in GRID}
    for n, s in zip(diag.truncations, diag.partial_sums):
        assert s == pytest.approx(direct[n], rel=1e-12)
    # the per-truncation slope approaches 4: (X x)_k -> 2 asymptotically
    assert (direct[512] - direct[256]) / 256 == pytest.approx(4.0, abs=0.1)


def test_tail_geometric_coefficients_converge():
    assert tail_of(lambda k: 2.0**-k).classification == "convergent"


def test_tail_partial_sums_nondecreasing():
    for coeff in (lambda k: 1.0 / (k + 1.0), lambda k: 2.0**-k):
        sums = np.asarray(tail_of(coeff).partial_sums)
        assert np.all(np.diff(sums) >= 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("label", ["harmonic", "geometric"])
def test_band_pairings_match_the_dense_family(label, dtype):
    # the pairings the tail check reads, from X's three bands, against the
    # dense tail_family(512).T @ x they replace, to a few ulp at every k
    k = np.arange(GRID[-1])
    x = (1.0 / (k + 1.0) if label == "harmonic" else 2.0**-k).astype(dtype)
    bands = tail_pairings(x)
    dense = tail_family(GRID[-1]).T @ x
    assert bands.shape == dense.shape and bands.dtype == dense.dtype
    assert np.allclose(bands, dense, rtol=4 * np.finfo(float).eps, atol=0.0)


def test_band_pairings_of_a_unit_vector_are_a_column_of_x_bit_for_bit():
    family = tail_family(GRID[-1])
    for k in (0, 1, 2, 255, GRID[-1] - 1):
        assert np.array_equal(tail_pairings(np.eye(GRID[-1])[:, k]), family[:, k])


def test_omega_of_x_with_itself_matches_the_two_product_formula():
    # omega(x, x, phi) forms phi* x once; the old formula formed it for each side
    rng = stream_rng(62)
    phi = np.asarray(random_conditioned_map(10, 20.0, rng))
    x = random_kets(10, 7, rng)
    adj = phi.conj().T
    old = np.sum(np.conj(adj @ x) * (adj @ x), axis=0)
    assert np.array_equal(omega(x, x, phi), old)
    assert np.array_equal(omega(x, x.copy(), phi), old)


def test_tail_rejects_pairings_other_than_one_vector_at_the_largest_truncation():
    with pytest.raises(DimensionMismatch):
        tail_diagnostic(tail_pairings(tail_x(lambda k: 1.0)[: GRID[-2]]))
    with pytest.raises(DimensionMismatch):
        tail_diagnostic(tail_pairings(tail_x(lambda k: 1.0))[:, None])
