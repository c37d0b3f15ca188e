"""Tests for the Hermite-function model and its quadrature oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from rieszlab import (
    Blocks,
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
    MAX_DIMENSION,
    ORACLE_TOLERANCE,
    REACH,
    hermite_function_table,
    quadrature_gram,
    tail_family,
    trapezoid_rule,
    x_entry,
)

from helpers import scaled

# Explicit physicists' Hermite polynomials for the closed-form oracle.
_HERMITE_POLY = {
    0: lambda x: np.ones_like(x),
    1: lambda x: 2 * x,
    2: lambda x: 4 * x**2 - 2,
    3: lambda x: 8 * x**3 - 12 * x,
    4: lambda x: 16 * x**4 - 48 * x**2 + 12,
}


# The model's multipliers as functions of the nodes, each even.
MULTIPLIERS = {
    "one": np.ones_like,
    "one_plus_x2": lambda x: 1.0 + x * x,
    "one_plus_x2_squared": lambda x: (1.0 + x * x) ** 2,
    "inv_one_plus_x2": lambda x: 1.0 / (1.0 + x * x),
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
    gram = quadrature_gram(MULTIPLIERS["one"], trapezoid_rule(4))
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_quadrature_x_matrix_elements():
    gram = quadrature_gram(MULTIPLIERS["one_plus_x2"], trapezoid_rule(3))
    assert gram[0, 0] == pytest.approx(1.5, abs=1e-10)
    assert gram[0, 2] == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-10)


def halved_step_rule(count):
    # the trapezoidal rule of trapezoid_rule(count) at half its step, over
    # the same reach
    step = math.pi / (math.sqrt(2 * count + 1) + REACH) / 2.0
    nodes = step * np.arange(int((math.sqrt(2 * count + 1) + REACH) / step) + 1)
    weights = np.full(nodes.size, 2.0 * step)
    weights[0] = step
    return nodes, weights, hermite_function_table(count, nodes)


# REACH is pinned here: no run reads the Gram of 1 / (1 + x^2), but the
# rule that builds X's entry gate and the Gram of (1 + x^2)^2 must resolve
# that rational integrand, whose aliasing error is near e^{-2 REACH}
@pytest.mark.parametrize("count", [2, 3, 17, 55, 56, 255, 256, 685, MAX_DIMENSION])
def test_quadrature_rational_doubling_agreement(count):
    once = quadrature_gram(MULTIPLIERS["inv_one_plus_x2"], trapezoid_rule(count))
    twice = quadrature_gram(MULTIPLIERS["inv_one_plus_x2"], halved_step_rule(count))
    assert np.abs(once - twice).max() <= 1e-10


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
    gram = quadrature_gram(MULTIPLIERS["one_plus_x2"], trapezoid_rule(8))
    assert np.abs(entries - gram).max() < 1e-9
    entries[0, 0] += 1e-6
    assert np.abs(entries - gram).max() > 1e-7


def test_build_model_metadata():
    model = build_model(16)
    assert model.oracle_residual <= 1e-9
    assert set(vars(model)) == {"X", "oracle_residual", "x_squared_gram"}
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
        integral = quadrature_gram(MULTIPLIERS["inv_one_plus_x2"], trapezoid_rule(dim))
        dev = np.abs(x_inv[:block, :block] - integral[:block, :block]).max()
        assert dev < bound, (dim, block, dev)


def test_interior_biorthogonality_against_quadrature():
    # <phi_n, psi_k> for the exact functions is the identity through the
    # multiplier product (1+x^2) * 1/(1+x^2) = 1
    dim = 64
    sys_ = example_system(dim)
    x_inv_cols = quadrature_gram(MULTIPLIERS["inv_one_plus_x2"], trapezoid_rule(dim))
    phi_m = np.asarray(sys_.phi).real
    gram = phi_m.T @ x_inv_cols
    dev = np.abs(gram[:16, :16] - np.eye(16)).max()
    assert dev < 1e-4  # edge pollution of the exact-inverse columns stays bounded


def test_verify_k_psi_interior_identities():
    model = build_model(64)
    sys_ = build_system(model.X)
    report = verify_K_psi(model, build_frame_operators(sys_), 1e-6)
    assert report.passed, report.details
    assert report.details.keys() == {"k_phi_vs_x_squared", "k_psi_vs_solved_inverse_squared", "entry_oracle"}
    assert report.details["k_phi_vs_x_squared"] < 1e-8
    assert report.details["k_psi_vs_solved_inverse_squared"] < 1e-12


@pytest.mark.parametrize("dim", [32, 64])
def test_k_psi_reading_sees_a_symmetric_defect_in_the_cached_inverse(dim):
    # K_psi is built from the held SVD inverse of X, and read against the
    # square of an LU inverse: a defect in the held one, scaled with its
    # mirror so psi stays its adjoint, must show in that detail.  Against
    # the square of the held inverse itself the defect cancels (1.6e-15).
    model = build_model(dim)
    x = model.X
    x.inverse = Blocks.of(scaled(invert(x), 1e-4, hermitian=True, off_diagonal=True))
    sys_ = build_system(x)
    report = verify_K_psi(model, build_frame_operators(sys_), 1e-6)
    assert not report.passed
    assert report.residual == report.details["k_psi_vs_solved_inverse_squared"] > 1e-5


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
    clean = verify_K_psi(model, ops, 1e-8)
    assert clean.passed and 0.0 < clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = np.asarray(ops.k_phi).copy()
    k_phi[15, 15] *= 1.0 + 1e-6
    report = verify_K_psi(model, FrameOperators(LinearMap(k_phi), ops.k_psi), 1e-8)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 5e-8
    x = np.asarray(model.X).copy()
    x[15, 15] *= 1.0 + 1e-6
    mutated = build_system(LinearMap(x))
    report = verify_K_psi(model, build_frame_operators(mutated), 1e-8)
    assert report.details["k_phi_vs_x_squared"] > 1e-7


def test_k_phi_block_stops_where_the_truncation_reaches():
    # The K_phi block runs to dim - 3: a defect there shows, while rows
    # dim - 2 and dim - 1 of X X* differ from the Gram by truncation.
    model = build_model(16)
    sys_ = build_system(model.X)
    ops = build_frame_operators(sys_)
    clean = verify_K_psi(model, ops, 1e-8)
    assert clean.passed and clean.details["k_phi_vs_x_squared"] < 1e-13
    k_phi = np.asarray(ops.k_phi).copy()
    k_phi[13, 13] *= 1.0 + 1e-6
    report = verify_K_psi(model, FrameOperators(LinearMap(k_phi), ops.k_psi), 1e-8)
    assert not report.passed and report.details["k_phi_vs_x_squared"] > 1e-7


def test_model_keeps_a_real_gram_of_x_squared():
    model = build_model(16)
    gram = np.asarray(model.x_squared_gram)
    assert gram.dtype == np.float64 and gram.shape == (16, 16)
    # away from the truncation edge X X holds the matrix elements of (1 + x^2)^2
    x2 = np.asarray(model.X) @ np.asarray(model.X)
    np.testing.assert_allclose(gram[:14, :14], x2[:14, :14], rtol=0, atol=1e-12 * np.abs(x2).max())
    assert tail_family(16).dtype == np.float64


@pytest.mark.parametrize("dim, parts", [(32, 1), (256, 2)])
def test_model_holds_the_gram_of_x_squared_as_read_only_blocks_split_like_x(dim, parts):
    model = build_model(dim)
    gram = model.x_squared_gram
    assert isinstance(gram, Blocks) and gram.parts == model.X.parts == parts
    assert not any(b.flags.writeable for b in gram.blocks)
    assert Blocks.of(gram) is gram
    # no dense N x N array is held beside the blocks
    assert not [name for name, value in vars(model).items() if isinstance(value, np.ndarray) and value.shape == (dim, dim)]


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
    # One rule per model: the entry gate and the Gram of (1 + x^2)^2 are
    # its only two Grams.
    import rieszlab.hermite as hermite_mod

    rules, grams = [], []
    rule = hermite_mod.trapezoid_rule
    gram = hermite_mod.quadrature_gram
    monkeypatch.setattr(hermite_mod, "trapezoid_rule", lambda count: rules.append(rule(count)) or rules[-1])
    monkeypatch.setattr(hermite_mod, "quadrature_gram", lambda multiplier, r: grams.append(r) or gram(multiplier, r))
    for dim in (16, 64):
        rules.clear()
        grams.clear()
        model = hermite_mod.build_model(dim)
        assert len(rules) == 1 and rules[0][2].shape[0] == dim
        assert len(grams) == 2 and all(r is rules[0] for r in grams)
        entries = gram(MULTIPLIERS["one_plus_x2"], rule(dim))
        assert model.oracle_residual == float(np.abs(tail_family(dim) - entries).max())
        np.testing.assert_array_equal(model.x_squared_gram, gram(MULTIPLIERS["one_plus_x2_squared"], rule(dim)))


def test_trapezoid_rule_step_and_reach():
    # step pi / (t + REACH) with t = sqrt(2 count + 1)
    for count in (2, 32, 256):
        reach = math.sqrt(2 * count + 1) + REACH
        nodes, weights, table = trapezoid_rule(count)
        step = math.pi / reach
        assert nodes[0] == 0.0 and nodes[-1] <= reach < nodes[-1] + step
        np.testing.assert_allclose(np.diff(nodes), step, rtol=1e-12)
        assert weights[0] == nodes[1] and np.all(weights[1:] == 2 * nodes[1])
        assert table.shape == (count, nodes.size)


def test_build_model_traced_peak_at_256():
    # one rule and two Grams: no halved-step table (256 x 1001 floats)
    build_model(256)
    tracemalloc.start()
    try:
        build_model(256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 2**20, peak / 2**20


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
    table = hermite_function_table(count, nodes)
    return (table * (weights * MULTIPLIERS[multiplier](nodes))) @ table.T


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
@pytest.mark.parametrize("multiplier", MULTIPLIERS)
def test_quadrature_gram_by_parity_matches_the_all_node_sum(order, count, multiplier):
    nodes, lifted = gauss_hermite_rule(order)
    half = nodes[order // 2 :]
    weights = 2.0 * lifted[order // 2 :]
    if order % 2:
        assert half[0] == 0.0
        weights[0] = lifted[order // 2]
    else:
        assert half[0] > 0.0
    gram = quadrature_gram(MULTIPLIERS[multiplier], (half, weights, hermite_function_table(count, half)))
    assert_parity_split_matches(gram, all_node_gram(multiplier, count, nodes, lifted))
    if multiplier == "one":
        # a Gauss-Hermite rule: exact on e_m e_n for m + n < 2 order
        np.testing.assert_allclose(gram, np.eye(count), atol=1e-12)


@pytest.mark.parametrize(
    "count, make_rule", [(8, trapezoid_rule), (8, halved_step_rule), (128, trapezoid_rule)], ids=["8", "8-halved", "128"]
)
@pytest.mark.parametrize("multiplier", MULTIPLIERS)
def test_trapezoid_gram_by_parity_matches_the_full_grid_sum(count, make_rule, multiplier):
    # the trapezoidal rule's full symmetric grid, every node with weight h
    nodes, weights, _ = make_rule(count)
    grid = np.concatenate([-nodes[:0:-1], nodes])
    gram = quadrature_gram(MULTIPLIERS[multiplier], make_rule(count))
    assert_parity_split_matches(gram, all_node_gram(multiplier, count, grid, np.full(grid.size, weights[0])))


def test_mirrored_nodes_give_signed_hermite_functions_bit_for_bit():
    # e_k(-x) = (-1)^k e_k(x) exactly, which makes the parity split exact
    nodes, _, table = trapezoid_rule(16)
    signs = (-1.0) ** np.arange(16)[:, None]
    np.testing.assert_array_equal(hermite_function_table(16, -nodes), signs * table)


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
    factors = weights * np.exp(nodes**2) * MULTIPLIERS[multiplier](nodes)
    reference = (table * factors) @ table.T
    gram = quadrature_gram(MULTIPLIERS[multiplier], trapezoid_rule(count))
    assert np.abs(gram - reference).max() <= bound * np.abs(reference).max()


def test_oracle_gate_trips_on_odd_parity_defect(monkeypatch):
    # X[0, 1] is 0 in closed form and exactly 0 in the parity-split oracle
    import rieszlab.hermite as hermite_mod

    def defective(dim):
        entries = tail_family(dim).copy()
        entries[0, 1] += 1e-6
        return entries

    assert build_model(8).oracle_residual <= hermite_mod.ORACLE_TOLERANCE
    monkeypatch.setattr(hermite_mod, "tail_family", defective)
    with pytest.raises(OracleMismatch):
        hermite_mod.build_model(8)
