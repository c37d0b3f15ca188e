"""Tests for sesquilinear forms, frame bounds, and tail diagnostics."""

import numpy as np
import pytest

from rieszlab import (
    BiorthogonalSystem,
    ConstructingPair,
    KetVector,
    basis_vector,
    build_frame_operators,
    build_system,
    frame_bounds,
    from_diagonal,
    omega,
    quasi_basis_residual,
    tail_diagnostic,
    verify_representation,
)
from rieszlab.errors import DimensionMismatch, InconsistentPrefix, NotPositive
from rieszlab.forms import DEFAULT_TAIL_GRID
from rieszlab.linalg import LinearMap
from rieszlab.sampling import random_conditioned_map, random_ket_pairs, random_kets, stream_rng

GRID = DEFAULT_TAIL_GRID


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
    family = onb(6)
    for x, y in random_ket_pairs(6, 10, rng):
        value = omega(x, y, family).value
        assert abs(value - np.vdot(x.coeffs, y.coeffs)) < 1e-13


def test_omega_single_term():
    sys_ = build_system(ConstructingPair(from_diagonal([1, 2, 3])))
    e1 = basis_vector(1, 3)
    evaluation = omega(e1, e1, sys_.phi)
    assert evaluation.value == pytest.approx(4.0)
    assert evaluation.terms_used == 3


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
    value = omega(basis_vector(0, 64), basis_vector(0, 64), hermite_phi_family(64)).value
    assert value == pytest.approx(oracle, abs=1e-10)


def test_omega_hermitian_symmetry_and_positivity():
    rng = stream_rng(32)
    family = hermite_phi_family(16)
    for x, y in random_ket_pairs(16, 10, rng):
        a = omega(x, y, family).value
        b = omega(y, x, family).value
        assert abs(a - np.conj(b)) <= 1e-12 * max(1.0, abs(a))
        diag = omega(x, x, family).value
        assert diag.real >= 0.0
        assert abs(diag.imag) <= 1e-12 * max(1.0, diag.real)
        squared_moduli = float(np.sum(np.abs(family.conj().T @ x.coeffs) ** 2))
        assert diag.real == pytest.approx(squared_moduli, rel=1e-12)


def test_omega_dimension_guard():
    with pytest.raises(DimensionMismatch):
        omega(basis_vector(0, 3), basis_vector(0, 3), onb(4))


def test_representation_reference_basis():
    family = onb(4)
    k_sqrt = LinearMap(np.eye(4))
    x, y = basis_vector(0, 4), basis_vector(2, 4)
    report = verify_representation([(x, y)], family, k_sqrt)
    assert report.passed and report.residual == 0.0


def test_representation_diagonal():
    sys_ = build_system(ConstructingPair(from_diagonal([1, 2, 3])))
    ops = build_frame_operators(sys_)
    e1 = basis_vector(1, 3)
    report = verify_representation([(e1, e1)], sys_.phi, ops.k_phi_sqrt)
    assert report.passed
    # both routes give 4: Omega(e_1, e_1) = |<e_1, phi_1>|^2 and |K^(1/2) e_1|^2 = K_11
    assert omega(e1, e1, sys_.phi).value == pytest.approx(4.0)
    assert ops.k_phi.entries[1, 1] == pytest.approx(4.0)


def test_representation_random_property():
    rng = stream_rng(34)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(ConstructingPair(t))
    ops = build_frame_operators(sys_)
    pairs = random_ket_pairs(16, 100, rng)
    for family, k_sqrt in ((sys_.phi, ops.k_phi_sqrt), (sys_.psi, ops.k_psi_sqrt)):
        report = verify_representation(pairs, family, k_sqrt, tolerance=1e-9)
        assert report.passed, report.residual
        assert report.details["samples"] == 100


def test_representation_detects_perturbed_root():
    rng = stream_rng(37)
    sys_ = build_system(ConstructingPair(random_conditioned_map(8, 10.0, rng)))
    k_sqrt = build_frame_operators(sys_).k_phi_sqrt.entries.copy()
    k_sqrt[0, 0] *= 1.0 + 1e-6
    report = verify_representation(random_ket_pairs(8, 20, rng), sys_.phi, LinearMap(k_sqrt))
    assert not report.passed
    with pytest.raises(ValueError):
        verify_representation([], sys_.phi, LinearMap(k_sqrt))


def test_quasi_basis_reference():
    family = onb(5)
    sys_ = BiorthogonalSystem(family, family)
    pairs = [(basis_vector(0, 5), basis_vector(0, 5)), (basis_vector(1, 5), basis_vector(2, 5))]
    report = quasi_basis_residual(sys_, pairs)
    assert report.passed and report.residual == 0.0


def test_quasi_basis_constructed_property():
    rng = stream_rng(35)
    t = random_conditioned_map(16, 100.0, rng)
    sys_ = build_system(ConstructingPair(t))
    report = quasi_basis_residual(sys_, random_ket_pairs(16, 100, rng), tolerance=1e-9)
    assert report.passed, report.details


def test_quasi_basis_detects_corruption():
    sys_ = build_system(ConstructingPair(from_diagonal([1, 2, 3])))
    psi = sys_.psi.copy()
    psi[:, 0] = 0.0
    corrupted = BiorthogonalSystem(sys_.phi, psi)
    phi0 = KetVector(sys_.phi[:, 0])
    probe = KetVector(phi0.coeffs / (phi0.norm**2))
    report = quasi_basis_residual(corrupted, [(probe, basis_vector(0, 3))])
    assert not report.passed
    assert report.residual > 0.1


def test_frame_bounds_reference_and_diagonal():
    assert frame_bounds(LinearMap(np.eye(4))) == (pytest.approx(1.0), pytest.approx(1.0))
    sys_ = build_system(ConstructingPair(from_diagonal([1, 2, 3])))
    ops = build_frame_operators(sys_)
    c, big_c = frame_bounds(ops.k_phi)
    assert c == pytest.approx(1.0) and big_c == pytest.approx(9.0)


def test_frame_bounds_requires_positive():
    with pytest.raises(NotPositive):
        frame_bounds(from_diagonal([1, -1]))


def test_frame_bounds_sandwich():
    rng = stream_rng(36)
    t = random_conditioned_map(12, 50.0, rng)
    sys_ = build_system(ConstructingPair(t))
    c, big_c = frame_bounds(build_frame_operators(sys_).k_phi)
    for x in random_kets(12, 100, rng):
        sq = np.linalg.norm(x.coeffs) ** 2
        value = omega(x, x, sys_.phi).value.real
        assert value >= c * sq - 1e-10 * value
        assert value <= big_c * sq + 1e-10 * value


def tail_x(coeff):
    return lambda n: KetVector(np.array([coeff(k) for k in range(n)], dtype=complex))


def tail_family(n):
    return hermite_phi_family(n)


def test_tail_finitely_supported_is_convergent():
    diag = tail_diagnostic(lambda n: basis_vector(0, n), tail_family, grid=GRID)
    assert diag.classification == "convergent"
    # S_N is constant once the support (indices 0 and 2) is inside the truncation
    assert diag.partial_sums[-1] == pytest.approx(diag.partial_sums[0])


def test_tail_harmonic_coefficients_diverge():
    diag = tail_diagnostic(tail_x(lambda k: 1.0 / (k + 1.0)), tail_family, grid=GRID)
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
    diag = tail_diagnostic(tail_x(lambda k: 2.0**-k), tail_family, grid=GRID)
    assert diag.classification == "convergent"


def test_tail_partial_sums_nondecreasing():
    for coeff in (lambda k: 1.0 / (k + 1.0), lambda k: 2.0**-k):
        diag = tail_diagnostic(tail_x(coeff), tail_family, grid=GRID)
        sums = np.asarray(diag.partial_sums)
        assert np.all(np.diff(sums) >= 0.0)


def test_tail_detects_inconsistent_prefix():
    def broken_family(n):
        scale = 1.0 if n <= 64 else 2.0  # interior values jump between truncations
        return scale * pentadiagonal_x(n)

    with pytest.raises(InconsistentPrefix):
        tail_diagnostic(tail_x(lambda k: 1.0 / (k + 1.0)), broken_family, grid=GRID)


def test_tail_grid_validation():
    with pytest.raises(ValueError):
        tail_diagnostic(tail_x(lambda k: 1.0), tail_family, grid=(32, 16))
    with pytest.raises(ValueError):
        tail_diagnostic(tail_x(lambda k: 1.0), tail_family, grid=(64,))
    with pytest.raises(ValueError):
        tail_diagnostic(tail_x(lambda k: 1.0), tail_family, grid=(400, 512))
