"""Tests for the Hermite-function model and its quadrature oracle."""

import math

import numpy as np
import pytest

from rieszlab import (
    FrameOperators,
    LinearMap,
    build_frame_operators,
    build_system,
    build_X,
    build_model,
    check_biorthogonality,
    invert,
    verify_K_psi,
)
from rieszlab.errors import OracleMismatch
from rieszlab.hermite import (
    gauss_hermite_rule,
    hermite_function_table,
    oracle_deviation,
    quadrature_gram,
    roots_hermite,
    tail_family,
    x_entry,
)

# Explicit physicists' Hermite polynomials for the closed-form oracle.
_HERMITE_POLY = {
    0: lambda x: np.ones_like(x),
    1: lambda x: 2 * x,
    2: lambda x: 4 * x**2 - 2,
    3: lambda x: 8 * x**3 - 12 * x,
    4: lambda x: 16 * x**4 - 48 * x**2 + 12,
}


def closed_form(n, x):
    x = np.asarray(x, dtype=float)
    norm = math.sqrt(2**n * math.factorial(n) * math.sqrt(math.pi))
    return _HERMITE_POLY[n](x) * np.exp(-x * x / 2.0) / norm


def example_system(dim):
    # phi_n = X e_n, psi_n = X^-1 e_n on the gated model (X is self-adjoint)
    return build_system(build_model(dim).X)


@pytest.mark.parametrize("n", range(5))
def test_hermite_function_matches_closed_form(n):
    grid = np.linspace(-3.0, 3.0, 25)
    table = hermite_function_table(5, grid)
    np.testing.assert_allclose(table[n], closed_form(n, grid), atol=1e-13)


def test_hermite_function_at_origin():
    at_origin = hermite_function_table(2, np.array([0.0]))[:, 0]
    assert at_origin[0] == pytest.approx(math.pi**-0.25, abs=1e-12)
    assert at_origin[1] == 0.0  # odd function


def test_hermite_function_is_normalized():
    # quadrature of the recurrence output with an independent rule
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    values = hermite_function_table(4, nodes)[3]
    integral = float(np.sum(weights * np.exp(nodes**2) * values**2))
    assert integral == pytest.approx(1.0, abs=1e-12)


def test_quadrature_orthonormality():
    gram = quadrature_gram(4, "one", 32)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_quadrature_x_matrix_elements():
    gram = quadrature_gram(3, "one_plus_x2", 32)
    assert gram[0, 0] == pytest.approx(1.5, abs=1e-10)
    assert gram[0, 2] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)


def test_quadrature_rational_doubling_agreement():
    once = quadrature_gram(8, "inv_one_plus_x2", 256)
    twice = quadrature_gram(8, "inv_one_plus_x2", 512)
    for m, n in ((0, 0), (0, 2), (5, 7)):
        assert abs(once[m, n] - twice[m, n]) <= 1e-10


def test_quadrature_rejects_unknown_multiplier():
    with pytest.raises(ValueError):
        quadrature_gram(1, "x_cubed", 32)


def test_build_x_smallest_truncation():
    x = build_X(1)
    np.testing.assert_allclose(x.entries, [[1.5]], atol=1e-12)


def test_build_x_entries_by_formula():
    x = build_X(4)
    np.testing.assert_allclose(np.diag(x.entries).real, [1.5, 2.5, 3.5, 4.5], atol=0)
    np.testing.assert_allclose(
        np.diag(x.entries, k=2).real, [np.sqrt(2.0) / 2.0, np.sqrt(6.0) / 2.0], atol=0
    )
    assert np.abs(x.entries - x.entries.T).max() == 0.0  # symmetric by construction
    assert x.self_adjoint and x.positive


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_build_x_spectrum_floor(dim):
    lam = np.linalg.eigvalsh(build_X(dim).entries.real)
    assert lam[0] >= 1.0  # 1 + x^2 >= 1 survives truncation


def test_oracle_gate_trips_on_corruption(monkeypatch):
    import rieszlab.hermite as hermite_mod

    true_entry = hermite_mod.x_entry
    # x_entry is evaluated over index arrays; corrupt the (0, 0) element only
    monkeypatch.setattr(
        hermite_mod, "x_entry", lambda i, j: true_entry(i, j) + 1e-6 * ((np.asarray(i) == 0) & (np.asarray(j) == 0))
    )
    with pytest.raises(OracleMismatch):
        hermite_mod.build_model(8)


def test_oracle_deviation_measures_perturbation():
    entries = build_X(8).entries.real.copy()
    assert oracle_deviation(entries, "one_plus_x2", 64) < 1e-9
    entries[0, 0] += 1e-6
    assert oracle_deviation(entries, "one_plus_x2", 64) > 1e-7


def test_build_model_metadata():
    model = build_model(16)
    assert model.oracle_residual <= 1e-9
    assert model.rational_convergence <= 1e-10
    np.testing.assert_array_equal(model.X.entries, build_X(16).entries)


def test_example_system_ground_state():
    sys_ = example_system(8)
    expected = np.zeros(8)
    expected[0] = 1.5
    expected[2] = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(sys_.phi[:, 0], expected, atol=0)
    assert np.linalg.norm(sys_.phi[:, 0]) ** 2 == pytest.approx(2.75, abs=1e-14)


def test_example_system_biorthogonal_at_64():
    sys_ = example_system(64)
    assert check_biorthogonality(sys_).residual < 1e-8  # holds on all indices, not just the interior


def test_truncated_inverse_approaches_integral_operator():
    # psi entries from inverting the truncation vs the quadrature values of
    # the exact multiplication by 1/(1+x^2); agreement improves away from
    # the truncation edge and with growing dimension.
    for dim, block, bound in ((64, 16, 1e-5), (128, 32, 1e-6)):
        x_inv = invert(build_X(dim)).entries.real
        integral = quadrature_gram(dim, "inv_one_plus_x2", max(4 * dim, 512))
        dev = np.abs(x_inv[:block, :block] - integral[:block, :block]).max()
        assert dev < bound, (dim, block, dev)


def test_interior_biorthogonality_against_quadrature():
    # <phi_n, psi_k> for the exact functions is the identity through the
    # multiplier product (1+x^2) * 1/(1+x^2) = 1
    dim = 64
    sys_ = example_system(dim)
    x_inv_cols = quadrature_gram(dim, "inv_one_plus_x2", 4 * dim)
    phi_m = sys_.phi.real
    gram = phi_m.T @ x_inv_cols
    dev = np.abs(gram[:16, :16] - np.eye(16)).max()
    assert dev < 1e-4  # edge pollution of the exact-inverse columns stays bounded


def test_verify_k_psi_interior_identities():
    model = build_model(64)
    sys_ = build_system(model.X)
    report = verify_K_psi(model, sys_, build_frame_operators(sys_))
    assert report.passed, report.details
    assert report.details["k_phi_vs_x_squared"] < 1e-8
    assert report.details["k_psi_vs_x_inverse_squared"] < 1e-6
    assert report.details["omega_psi_through_inverse"] < 1e-8


def test_k_phi_vs_x_squared_sees_defects():
    # K_phi = X X* is compared with the quadrature Gram of (1 + x^2)^2, not
    # with X X: a defect in X or in K_phi must show.  The clean details read
    # about 1e-14; a relative 1e-6 defect in one entry moves the relative
    # Frobenius norm of the 16 x 16 interior block by about 4e-7, so the
    # check runs at the suite's default 1e-8 rather than the model's 1e-6.
    model = build_model(32)
    sys_ = build_system(model.X)
    ops = build_frame_operators(sys_)
    clean = verify_K_psi(model, sys_, ops, tolerance=1e-8)
    assert clean.passed and 0.0 < clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = ops.k_phi.entries.copy()
    k_phi[15, 15] *= 1.0 + 1e-6
    report = verify_K_psi(model, sys_, FrameOperators(LinearMap(k_phi), ops.k_psi), tolerance=1e-8)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 1e-7
    x = model.X.entries.copy()
    x[15, 15] *= 1.0 + 1e-6
    mutated = build_system(LinearMap(x))
    report = verify_K_psi(model, mutated, build_frame_operators(mutated), tolerance=1e-8)
    assert report.details["k_phi_vs_x_squared"] > 1e-7


def test_k_phi_block_stops_where_the_truncation_reaches():
    # With margin 0 the K_phi block runs to dim - 3: a defect there shows,
    # while rows dim - 2 and dim - 1 of X X* differ from the Gram by truncation.
    model = build_model(16)
    sys_ = build_system(model.X)
    ops = build_frame_operators(sys_)
    clean = verify_K_psi(model, sys_, ops, margin=0, tolerance=1e-8)
    assert clean.passed and clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = ops.k_phi.entries.copy()
    k_phi[13, 13] *= 1.0 + 1e-6
    report = verify_K_psi(model, sys_, FrameOperators(LinearMap(k_phi), ops.k_psi), margin=0, tolerance=1e-8)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 1e-7


def test_model_keeps_a_real_gram_of_x_squared():
    model = build_model(16)
    gram = model.x_squared_gram
    assert gram.dtype == np.float64 and gram.shape == (16, 16) and not gram.flags.writeable
    # away from the truncation edge X X holds the matrix elements of (1 + x^2)^2
    x2 = model.X.entries @ model.X.entries
    np.testing.assert_allclose(gram[:14, :14], x2[:14, :14], rtol=0, atol=1e-12 * np.abs(x2).max())
    assert tail_family(16).dtype == np.float64


def test_verify_k_psi_draws_match_per_sample_loop(monkeypatch):
    import rieszlab.hermite as hermite_mod

    model = build_model(16)
    sys_ = build_system(model.X)
    seen = []
    omega = hermite_mod.omega
    monkeypatch.setattr(hermite_mod, "omega", lambda f, g, family: seen.append((f, g)) or omega(f, g, family))
    report = verify_K_psi(model, sys_, build_frame_operators(sys_), margin=6, seed=3, samples=5)
    assert report.passed, report.details
    ((f, g),) = seen
    assert f.shape == g.shape == (16, 5)
    # reference: one sample at a time, drawing Re f, Im f, Re g, Im g
    rng = np.random.default_rng(3)
    for k in range(5):
        expected_f = np.zeros(16, dtype=complex)
        expected_g = np.zeros(16, dtype=complex)
        expected_f[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        expected_g[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        np.testing.assert_array_equal(f[:, k], expected_f)
        np.testing.assert_array_equal(g[:, k], expected_g)


def test_tail_family_prefix_consistency():
    small = tail_family(32)
    big = tail_family(64)
    np.testing.assert_array_equal(small[:, :30], big[:32, :30])


def loop_tail_family(dim):
    """The per-entry loop tail_family replaced."""
    entries = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(dim):
        entries[n, n] = n + 1.5
        if n + 2 < dim:
            entries[n, n + 2] = entries[n + 2, n] = np.sqrt((n + 1.0) * (n + 2.0)) / 2.0
    return entries


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 64, 256, 512])
def test_tail_family_matches_loop_bit_for_bit(dim):
    np.testing.assert_array_equal(tail_family(dim), loop_tail_family(dim))


def test_build_model_shares_the_entry_rule(monkeypatch):
    # From dim 64 on (order 4 * dim reaches RATIONAL_ORDER_FLOOR) the entry gate
    # and the first rational Gram use one rule; the values keep their bits.
    import rieszlab.hermite as hermite_mod

    calls = []
    roots = hermite_mod.roots_hermite
    monkeypatch.setattr(hermite_mod, "roots_hermite", lambda order: calls.append(order) or roots(order))
    for dim, orders in ((16, [64, 256, 512]), (64, [256, 512])):
        calls.clear()
        model = hermite_mod.build_model(dim)
        assert calls == orders
        base = max(4 * dim, hermite_mod.RATIONAL_ORDER_FLOOR)
        once = quadrature_gram(dim, "inv_one_plus_x2", base)
        twice = quadrature_gram(dim, "inv_one_plus_x2", 2 * base)
        assert model.rational_convergence == float(np.abs(once - twice).max())
        assert model.oracle_residual == oracle_deviation(build_X(dim).entries, "one_plus_x2", 4 * dim)


def test_x_entry_formula():
    assert x_entry(3, 3) == 4.5
    assert x_entry(0, 2) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert x_entry(2, 0) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert x_entry(0, 1) == 0.0
    assert x_entry(0, 4) == 0.0


def all_node_gram(count, multiplier, order):
    # the Gram over every node of scipy's rule, as built before the parity split
    import rieszlab.hermite as hermite_mod

    nodes, weights = roots_hermite(order)
    table = hermite_function_table(count, nodes)
    factors = hermite_mod._lifted_weights(nodes, weights) * hermite_mod._multiplier_values(multiplier, nodes)
    return (table * factors) @ table.T


# 32: scipy's eigenvalue branch; 33: an odd order, whose centre node counts once;
# 512: scipy's asymptotic branch
@pytest.mark.parametrize("order, count", [(32, 8), (33, 8), (512, 128)])
@pytest.mark.parametrize("multiplier", ["one", "one_plus_x2", "one_plus_x2_squared", "inv_one_plus_x2"])
def test_quadrature_gram_by_parity_matches_the_all_node_sum(order, count, multiplier):
    gram = quadrature_gram(count, multiplier, order)
    reference = all_node_gram(count, multiplier, order)
    odd = np.add.outer(np.arange(count), np.arange(count)) % 2 == 1
    assert np.all(gram[odd] == 0.0)
    assert np.abs(gram - reference)[~odd].max() <= 1e-14 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("order", [32, 33, 512])
def test_gauss_hermite_rule_keeps_the_nonnegative_half(order):
    import rieszlab.hermite as hermite_mod

    nodes, weights = roots_hermite(order)
    half_nodes, lifted, table = gauss_hermite_rule(6, order)
    positive = order - order // 2
    np.testing.assert_array_equal(half_nodes, nodes[order // 2 :])
    assert half_nodes[0] >= 0.0 and (half_nodes[0] == 0.0) == bool(order % 2)
    full = hermite_mod._lifted_weights(nodes, weights)[order // 2 :]
    np.testing.assert_array_equal(lifted[order % 2 :], 2.0 * full[order % 2 :])
    if order % 2:
        assert lifted[0] == full[0]
    # e_k(-x) = (-1)^k e_k(x) bit for bit on the mirrored nodes
    full_table = hermite_function_table(6, nodes)
    signs = (-1.0) ** np.arange(6)[:, None]
    np.testing.assert_array_equal(full_table[:, order // 2 :], table)
    np.testing.assert_array_equal(full_table[:, :positive][:, ::-1], signs * table)


def test_gauss_hermite_rule_refuses_an_asymmetric_rule(monkeypatch):
    import rieszlab.hermite as hermite_mod

    def skewed(order):
        nodes, weights = roots_hermite(order)
        weights = weights.copy()
        weights[0] *= 1.0 + 1e-15
        return nodes, weights

    monkeypatch.setattr(hermite_mod, "roots_hermite", skewed)
    with pytest.raises(OracleMismatch):
        gauss_hermite_rule(4, 16)


def test_oracle_gate_trips_on_odd_parity_defect(monkeypatch):
    # X[0, 1] is 0 in closed form and exactly 0 in the parity-split oracle
    import rieszlab.hermite as hermite_mod

    def defective(dim):
        entries = tail_family(dim)
        entries[0, 1] += 1e-6
        return LinearMap(entries)

    assert build_model(8).oracle_residual <= hermite_mod.ORACLE_TOLERANCE
    monkeypatch.setattr(hermite_mod, "build_X", defective)
    with pytest.raises(OracleMismatch):
        hermite_mod.build_model(8)
