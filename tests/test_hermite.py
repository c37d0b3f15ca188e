"""Tests for the Hermite-function model and its quadrature oracle."""

import math

import numpy as np
import pytest

from rieszlab import (
    FrameOperators,
    LinearMap,
    build_frame_operators,
    build_system,
    build_model,
    check_biorthogonality,
    invert,
    verify_K_psi,
)
from rieszlab.errors import OracleMismatch
from rieszlab.hermite import (
    FORM_SAMPLES,
    MAX_DIMENSION,
    ORACLE_TOLERANCE,
    REACH,
    _every_other_node,
    hermite_function_table,
    quadrature_gram,
    tail_family,
    trapezoid_rule,
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
    gram = quadrature_gram("one", trapezoid_rule(4, 1))
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_quadrature_x_matrix_elements():
    gram = quadrature_gram("one_plus_x2", trapezoid_rule(3, 1))
    assert gram[0, 0] == pytest.approx(1.5, abs=1e-10)
    assert gram[0, 2] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)


def test_quadrature_rational_doubling_agreement():
    once = quadrature_gram("inv_one_plus_x2", trapezoid_rule(8, 1))
    twice = quadrature_gram("inv_one_plus_x2", trapezoid_rule(8, 2))
    for m, n in ((0, 0), (0, 2), (5, 7)):
        assert abs(once[m, n] - twice[m, n]) <= 1e-10


def test_quadrature_rejects_unknown_multiplier():
    with pytest.raises(ValueError):
        quadrature_gram("x_cubed", trapezoid_rule(1, 1))


def test_build_x_smallest_truncation():
    x = LinearMap(tail_family(1))
    np.testing.assert_allclose(np.asarray(x), [[1.5]], atol=1e-12)


def test_build_x_entries_by_formula():
    x = LinearMap(tail_family(4))
    np.testing.assert_allclose(np.diag(np.asarray(x)).real, [1.5, 2.5, 3.5, 4.5], atol=0)
    np.testing.assert_allclose(
        np.diag(np.asarray(x), k=2).real, [np.sqrt(2.0) / 2.0, np.sqrt(6.0) / 2.0], atol=0
    )
    assert np.abs(np.asarray(x) - np.asarray(x).T).max() == 0.0  # symmetric by construction
    assert x.self_adjoint and x.positive


@pytest.mark.parametrize("dim", [8, 16, 32, 64])
def test_build_x_spectrum_floor(dim):
    lam = np.linalg.eigvalsh(np.asarray(LinearMap(tail_family(dim))).real)
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
    entries = np.asarray(LinearMap(tail_family(8))).real.copy()
    gram = quadrature_gram("one_plus_x2", trapezoid_rule(8, 1))
    assert np.abs(entries - gram).max() < 1e-9
    entries[0, 0] += 1e-6
    assert np.abs(entries - gram).max() > 1e-7


def test_build_model_metadata():
    model = build_model(16)
    assert model.oracle_residual <= 1e-9
    assert model.rational_convergence <= 1e-10
    np.testing.assert_array_equal(np.asarray(model.X), np.asarray(LinearMap(tail_family(16))))


def test_example_system_ground_state():
    sys_ = example_system(8)
    expected = np.zeros(8)
    expected[0] = 1.5
    expected[2] = np.sqrt(2.0) / 2.0
    phi = np.asarray(sys_.phi)
    np.testing.assert_allclose(phi[:, 0], expected, atol=0)
    assert np.linalg.norm(phi[:, 0]) ** 2 == pytest.approx(2.75, abs=1e-14)


def test_example_system_biorthogonal_at_64():
    sys_ = example_system(64)
    assert check_biorthogonality(sys_, 1e-8).residual < 1e-8  # holds on all indices, not just the interior


def test_truncated_inverse_approaches_integral_operator():
    # psi entries from inverting the truncation vs the quadrature values of
    # the exact multiplication by 1/(1+x^2); agreement improves away from
    # the truncation edge and with growing dimension.
    for dim, block, bound in ((64, 16, 1e-5), (128, 32, 1e-6)):
        x_inv = np.asarray(invert(LinearMap(tail_family(dim)))).real
        integral = quadrature_gram("inv_one_plus_x2", trapezoid_rule(dim, 1))
        dev = np.abs(x_inv[:block, :block] - integral[:block, :block]).max()
        assert dev < bound, (dim, block, dev)


def test_interior_biorthogonality_against_quadrature():
    # <phi_n, psi_k> for the exact functions is the identity through the
    # multiplier product (1+x^2) * 1/(1+x^2) = 1
    dim = 64
    sys_ = example_system(dim)
    x_inv_cols = quadrature_gram("inv_one_plus_x2", trapezoid_rule(dim, 1))
    phi_m = np.asarray(sys_.phi).real
    gram = phi_m.T @ x_inv_cols
    dev = np.abs(gram[:16, :16] - np.eye(16)).max()
    assert dev < 1e-4  # edge pollution of the exact-inverse columns stays bounded


def test_verify_k_psi_interior_identities():
    model = build_model(64)
    sys_ = build_system(model.X)
    report = verify_K_psi(model, sys_, build_frame_operators(sys_), 1e-6, 0)
    assert report.passed, report.details
    assert report.details["k_phi_vs_x_squared"] < 1e-8
    assert report.details["k_psi_vs_x_inverse_squared"] < 1e-6
    assert report.details["omega_psi_through_inverse"] < 1e-8


def test_k_phi_vs_x_squared_sees_defects():
    # K_phi = X X* is compared with the quadrature Gram of (1 + x^2)^2, not
    # with X X: a defect in X or in K_phi must show.  The clean details read
    # about 1e-14; a relative 1e-6 defect in one entry moves the relative
    # Frobenius norm of the 30 x 30 block below N - 2 by about 8.5e-8 (of a
    # 16 x 16 block, by 4e-7), so the check runs at the suite's default 1e-8
    # rather than the model's 1e-6.
    model = build_model(32)
    sys_ = build_system(model.X)
    ops = build_frame_operators(sys_)
    clean = verify_K_psi(model, sys_, ops, 1e-8, 0)
    assert clean.passed and 0.0 < clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = np.asarray(ops.k_phi).copy()
    k_phi[15, 15] *= 1.0 + 1e-6
    report = verify_K_psi(model, sys_, FrameOperators(LinearMap(k_phi), ops.k_psi), 1e-8, 0)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 5e-8
    x = np.asarray(model.X).copy()
    x[15, 15] *= 1.0 + 1e-6
    mutated = build_system(LinearMap(x))
    report = verify_K_psi(model, mutated, build_frame_operators(mutated), 1e-8, 0)
    assert report.details["k_phi_vs_x_squared"] > 1e-7


def test_k_phi_block_stops_where_the_truncation_reaches():
    # The K_phi block runs to dim - 3: a defect there shows, while rows
    # dim - 2 and dim - 1 of X X* differ from the Gram by truncation.
    model = build_model(16)
    sys_ = build_system(model.X)
    ops = build_frame_operators(sys_)
    clean = verify_K_psi(model, sys_, ops, 1e-8, 0)
    assert clean.passed and clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = np.asarray(ops.k_phi).copy()
    k_phi[13, 13] *= 1.0 + 1e-6
    report = verify_K_psi(model, sys_, FrameOperators(LinearMap(k_phi), ops.k_psi), 1e-8, 0)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 1e-7


def test_model_keeps_a_real_gram_of_x_squared():
    model = build_model(16)
    gram = model.x_squared_gram
    assert gram.dtype == np.float64 and gram.shape == (16, 16) and not gram.flags.writeable
    # away from the truncation edge X X holds the matrix elements of (1 + x^2)^2
    x2 = np.asarray(model.X) @ np.asarray(model.X)
    np.testing.assert_allclose(gram[:14, :14], x2[:14, :14], rtol=0, atol=1e-12 * np.abs(x2).max())
    assert tail_family(16).dtype == np.float64


def test_verify_k_psi_draws_match_per_sample_loop(monkeypatch):
    import rieszlab.hermite as hermite_mod

    model = build_model(16)
    sys_ = build_system(model.X)
    seen = []
    omega = hermite_mod.omega
    monkeypatch.setattr(hermite_mod, "omega", lambda f, g, family: seen.append((f, g)) or omega(f, g, family))
    report = verify_K_psi(model, sys_, build_frame_operators(sys_), 1e-6, 3)
    assert report.passed, report.details
    ((f, g),) = seen
    assert f.shape == g.shape == (16, FORM_SAMPLES)
    # reference: one sample at a time, drawing Re f, Im f, Re g, Im g
    rng = np.random.default_rng(3)
    for k in range(FORM_SAMPLES):
        expected_f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        expected_g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        np.testing.assert_array_equal(f[:, k], expected_f)
        np.testing.assert_array_equal(g[:, k], expected_g)


def test_tail_family_prefix_consistency():
    # X at a truncation n is the leading n x n block of X at any larger one,
    # which frame_bound_growth reads in place of building each truncation
    big = tail_family(64)
    for n in (16, 32):
        np.testing.assert_array_equal(tail_family(n), big[:n, :n])


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
    # One rule per model, step h/2, for the doubling gate; the entry gate,
    # the first rational Gram and the Gram of (1 + x^2)^2 share its every
    # other node, which is the step-h rule.
    import rieszlab.hermite as hermite_mod

    calls = []
    rule = hermite_mod.trapezoid_rule
    monkeypatch.setattr(
        hermite_mod, "trapezoid_rule", lambda count, refinement: calls.append((count, refinement)) or rule(count, refinement)
    )
    for dim in (16, 64):
        calls.clear()
        model = hermite_mod.build_model(dim)
        assert calls == [(dim, 2)]
        once = quadrature_gram("inv_one_plus_x2", rule(dim, 1))
        twice = quadrature_gram("inv_one_plus_x2", rule(dim, 2))
        assert model.rational_convergence == float(np.abs(once - twice).max())
        gram = quadrature_gram("one_plus_x2", rule(dim, 1))
        assert model.oracle_residual == float(np.abs(tail_family(dim) - gram).max())
        np.testing.assert_array_equal(model.x_squared_gram, quadrature_gram("one_plus_x2_squared", rule(dim, 1)))


def test_trapezoid_rule_step_and_reach():
    # step pi / (t + REACH) with t = sqrt(2 count + 1); halving it keeps
    # every node of the coarse rule, bit for bit
    for count in (2, 32, 256):
        reach = math.sqrt(2 * count + 1) + REACH
        nodes, weights, table = trapezoid_rule(count, 1)
        step = math.pi / reach
        assert nodes[0] == 0.0 and nodes[-1] <= reach < nodes[-1] + step
        np.testing.assert_allclose(np.diff(nodes), step, rtol=1e-12)
        assert weights[0] == nodes[1] and np.all(weights[1:] == 2 * nodes[1])
        assert table.shape == (count, nodes.size)
        fine = trapezoid_rule(count, 2)[0]
        np.testing.assert_array_equal(fine[::2], nodes)
        assert fine[-1] <= reach < fine[-1] + step / 2


@pytest.mark.parametrize("count", [1, 2, 3, 16, 255, 256, MAX_DIMENSION])
def test_every_other_node_of_the_halved_step_is_the_rule_bit_for_bit(count):
    # halving the step is exact in binary and the table is evaluated node
    # by node, so build_model evaluates the Hermite functions only once
    coarse = trapezoid_rule(count, 1)
    from_fine = _every_other_node(trapezoid_rule(count, 2))
    for name, expected, actual in zip(("nodes", "weights", "table"), coarse, from_fine):
        assert np.array_equal(actual, expected), name
        assert actual.flags.c_contiguous, name


def test_build_model_gate_holds_up_to_the_limit():
    model = build_model(MAX_DIMENSION)
    assert model.oracle_residual <= ORACLE_TOLERANCE
    with pytest.raises(OracleMismatch, match="deviates from quadrature"):
        build_model(MAX_DIMENSION + 1)


def test_x_entry_formula():
    assert x_entry(3, 3) == 4.5
    assert x_entry(0, 2) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert x_entry(2, 0) == pytest.approx(np.sqrt(2.0) / 2.0)
    assert x_entry(0, 1) == 0.0
    assert x_entry(0, 4) == 0.0


def all_node_gram(multiplier, count, nodes, weights):
    # the Gram over every node of a rule on the whole line, as a sum over
    # all nodes before the parity split
    import rieszlab.hermite as hermite_mod

    table = hermite_function_table(count, nodes)
    return (table * (weights * hermite_mod._multiplier_values(multiplier, nodes))) @ table.T


def assert_parity_split_matches(gram, reference):
    count = gram.shape[0]
    odd = np.add.outer(np.arange(count), np.arange(count)) % 2 == 1
    assert np.all(gram[odd] == 0.0)
    assert np.abs(gram - reference)[~odd].max() <= 1e-14 * max(1.0, np.abs(reference).max())


def gauss_hermite_rule(order):
    # Golub-Welsch: the order-point Gauss-Hermite nodes are the eigenvalues
    # of the Hermite functions' Jacobi matrix, mirrored here so that they are
    # exact negatives; the weights times e^{x^2} are 1 / sum_k e_k(x)^2
    # (Christoffel), which stays finite where e^{-x^2} underflows
    off = np.sqrt(np.arange(1, order) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    nodes = (nodes - nodes[::-1]) / 2.0
    return nodes, 1.0 / (hermite_function_table(order, nodes) ** 2).sum(axis=0)


# quadrature_gram takes any rule on the nonnegative half-line, not only the
# trapezoidal one: 32 is an even order, whose nodes are all positive; 33 an
# odd order, whose centre node 0 counts once
@pytest.mark.parametrize("order, count", [(32, 8), (33, 8), (512, 128)])
@pytest.mark.parametrize("multiplier", ["one", "one_plus_x2", "one_plus_x2_squared", "inv_one_plus_x2"])
def test_quadrature_gram_by_parity_matches_the_all_node_sum(order, count, multiplier):
    nodes, lifted = gauss_hermite_rule(order)
    half = nodes[order // 2 :]
    weights = 2.0 * lifted[order // 2 :]
    if order % 2:
        assert half[0] == 0.0
        weights[0] = lifted[order // 2]
    else:
        assert half[0] > 0.0
    gram = quadrature_gram(multiplier, (half, weights, hermite_function_table(count, half)))
    assert_parity_split_matches(gram, all_node_gram(multiplier, count, nodes, lifted))
    if multiplier == "one":
        # a Gauss-Hermite rule: exact on e_m e_n for m + n < 2 order
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-12)


@pytest.mark.parametrize("count, refinement", [(8, 1), (8, 2), (128, 1)])
@pytest.mark.parametrize("multiplier", ["one", "one_plus_x2", "one_plus_x2_squared", "inv_one_plus_x2"])
def test_trapezoid_gram_by_parity_matches_the_full_grid_sum(count, refinement, multiplier):
    # the trapezoidal rule's full symmetric grid, every node with weight h
    nodes, weights, _ = trapezoid_rule(count, refinement)
    grid = np.concatenate([-nodes[:0:-1], nodes])
    gram = quadrature_gram(multiplier, trapezoid_rule(count, refinement))
    assert_parity_split_matches(gram, all_node_gram(multiplier, count, grid, np.full(grid.size, weights[0])))


def test_mirrored_nodes_give_signed_hermite_functions_bit_for_bit():
    # e_k(-x) = (-1)^k e_k(x) exactly, which makes the parity split exact
    nodes, _, table = trapezoid_rule(16, 1)
    signs = (-1.0) ** np.arange(16)[:, None]
    np.testing.assert_array_equal(hermite_function_table(16, -nodes), signs * table)


_MULTIPLIER_FUNCTIONS = {
    "one": lambda x: np.ones_like(x),
    "one_plus_x2": lambda x: 1 + x**2,
    "one_plus_x2_squared": lambda x: (1 + x**2) ** 2,
    "inv_one_plus_x2": lambda x: 1 / (1 + x**2),
}


# numpy's Gauss-Hermite rule of order 128 integrates the polynomial
# multipliers exactly up to count 32 (degree 2 * 31 + 4 < 256).  On
# 1 / (1 + x^2) it converges slowly: its own error at order 128 is about
# 7e-12 at count 8 and 1e-8 at count 32, so the rational Gram is compared
# at count 8.
@pytest.mark.parametrize(
    "multiplier, count, bound",
    [("one", 32, 1e-14), ("one_plus_x2", 32, 1e-14), ("one_plus_x2_squared", 32, 1e-14), ("inv_one_plus_x2", 8, 1e-10)],
)
def test_trapezoid_gram_matches_numpys_gauss_hermite_rule(multiplier, count, bound):
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    table = hermite_function_table(count, nodes)
    factors = weights * np.exp(nodes**2) * _MULTIPLIER_FUNCTIONS[multiplier](nodes)
    reference = (table * factors) @ table.T
    gram = quadrature_gram(multiplier, trapezoid_rule(count, 1))
    assert np.abs(gram - reference).max() <= bound * np.abs(reference).max()


def test_oracle_gate_trips_on_odd_parity_defect(monkeypatch):
    # X[0, 1] is 0 in closed form and exactly 0 in the parity-split oracle
    import rieszlab.hermite as hermite_mod

    def defective(dim):
        entries = tail_family(dim)
        entries[0, 1] += 1e-6
        return entries

    assert build_model(8).oracle_residual <= hermite_mod.ORACLE_TOLERANCE
    monkeypatch.setattr(hermite_mod, "tail_family", defective)
    with pytest.raises(OracleMismatch):
        hermite_mod.build_model(8)
