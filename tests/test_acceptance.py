"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
criterion.
"""

import json

import numpy as np

from rieszlab import (
    LinearMap,
    build_frame_operators,
    build_model,
    build_operator_set,
    build_system,
    ccr_check,
    check_biorthogonality,
    eigen_check,
    eigenrelation_residuals,
    from_diagonal,
    ladder_check,
    omega,
    polar_decompose,
    product_identity_check,
    quasi_basis_residual,
    reconstruct_onb,
    run_suite,
    sum_form_hamiltonian,
    tail_diagnostic,
    verify_K_psi,
    verify_clause_i3,
)
from rieszlab.cli import main
from rieszlab.forms import TAIL_GRID, frame_bounds
from rieszlab.hermite import tail_family, tail_pairings
from rieszlab.systems import frame_operator

from helpers import dense_config, random_conditioned_map, random_kets, stream_rng


def _verdict(number: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number:02d}] {title}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _hermite_system(dim):
    return build_system(build_model(dim).X)


def _systems_under_test():
    rng = stream_rng(1000)
    return {
        "diag32": build_system(from_diagonal(np.arange(1, 33, dtype=float))),
        "random16": build_system(random_conditioned_map(16, 100.0, rng)),
        "hermite64": _hermite_system(64),
    }


def test_criterion_01_biorthogonality():
    diag = build_system(from_diagonal(np.arange(1.0, 33.0)))
    diag_residual = check_biorthogonality(diag, 1e-8).residual
    hermite = _hermite_system(64)
    gram = np.asarray(hermite.phi.H @ hermite.psi)
    interior = np.abs(gram[:32, :32] - np.eye(32)).max()
    ok = diag_residual < 1e-12 and interior < 1e-8
    _verdict(
        1,
        "biorthogonality",
        ok,
        f"diag residual {diag_residual:.2e}, hermite interior {interior:.2e}",
    )


def test_criterion_02_representation_identity():
    rng = stream_rng(1002)
    worst = 0.0
    for _ in range(4):
        sys_ = build_system(random_conditioned_map(16, 100.0, rng))
        k_sqrt = build_frame_operators(sys_).k_phi_sqrt
        x, y = random_kets(16, 25, rng), random_kets(16, 25, rng)
        lhs = omega(x, y, sys_.phi)
        rhs = np.sum(np.conj(k_sqrt @ x) * (k_sqrt @ y), axis=0)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs)))))
    _verdict(2, "representation identity", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_03_k_relations():
    from rieszlab.systems import verify_K_relations

    worst = 0.0
    for name, sys_ in _systems_under_test().items():
        report = verify_K_relations(sys_, build_frame_operators(sys_), 1e-8)
        worst = max(worst, report.residual)
    _verdict(3, "K-relations and K_phi K_psi = 1", worst < 1e-8, f"worst residual {worst:.2e}")


def test_criterion_04_onb_reconstruction():
    worst_entry = 0.0
    worst_gram = 0.0
    worst_i3 = 0.0
    for name, sys_ in _systems_under_test().items():
        ops = build_frame_operators(sys_)
        report = reconstruct_onb(sys_, ops, 1e-9)
        e_from_psi = ops.k_phi_sqrt @ sys_.psi
        e_from_phi = ops.k_psi_sqrt @ sys_.phi
        entrywise = np.abs(e_from_psi - e_from_phi).max()
        worst_entry = max(worst_entry, entrywise)
        worst_gram = max(worst_gram, report.details["gram_from_psi"], report.details["gram_from_phi"])
        worst_i3 = max(worst_i3, verify_clause_i3(sys_, ops, 1e-9).residual)
    ok = worst_entry < 1e-9 and worst_gram < 1e-9 and worst_i3 < 1e-9
    _verdict(
        4,
        "constructive orthonormal basis",
        ok,
        f"entrywise {worst_entry:.2e}, gram {worst_gram:.2e}, clause i3 {worst_i3:.2e}",
    )


def test_criterion_05_quasi_basis_resolution():
    worst = 0.0
    for name, sys_ in _systems_under_test().items():
        report = quasi_basis_residual(sys_, 1e-9)
        worst = max(worst, report.residual)
    _verdict(5, "quasi-basis resolution of identity", worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_06_hamiltonian_agreement():
    rng = stream_rng(1006)
    worst_diff = 0.0
    worst_eigen = 0.0
    for alpha in (np.sqrt(np.arange(16)), np.arange(16)):
        t = random_conditioned_map(16, 100.0, rng)
        sys_ = build_system(t)
        opset = build_operator_set(t, alpha)
        summed = sum_form_hamiltonian(sys_, alpha)
        conjugated = opset.h_phi_psi
        worst_diff = max(
            worst_diff,
            np.linalg.norm(summed - conjugated) / np.linalg.norm(conjugated),
        )
        report = eigen_check(eigenrelation_residuals(opset, sys_), t.cond_estimate, 1e-8)
        worst_eigen = max(worst_eigen, report.residual / report.tolerance)
    ok = worst_diff < 1e-9 and worst_eigen < 1.0
    _verdict(
        6,
        "sum-form vs similarity Hamiltonians",
        ok,
        f"frobenius {worst_diff:.2e}, eigen residual at {worst_eigen:.2e} of budget",
    )


def test_criterion_07_ladder_actions():
    alpha = np.sqrt(np.arange(64))
    reference = build_system(LinearMap(np.eye(64)))
    ref_set = build_operator_set(LinearMap(np.eye(64)), alpha)
    ref_report = ladder_check(ref_set, reference, 1e-9)
    exact_ground = ref_report.details["phi_lowering_ground"] == ref_report.details["psi_lowering_ground"] == 0.0
    worst = 0.0
    for name, sys_ in _systems_under_test().items():
        dim = sys_.dim
        opset = build_operator_set(LinearMap(sys_.phi), np.sqrt(np.arange(dim)))
        report = ladder_check(opset, sys_, 1e-9)
        worst = max(worst, report.residual)
    ok = exact_ground and worst < 1e-9
    _verdict(
        7,
        "ladder actions",
        ok,
        f"reference ground exactly zero: {exact_ground}, worst residual {worst:.2e}",
    )


def test_criterion_08_ccr_with_defect():
    worst_defect = 0.0
    for dim in (2, 3, 64):
        reference = build_operator_set(LinearMap(np.eye(dim)), np.sqrt(np.arange(dim)))
        report = ccr_check(reference, 1e-12)
        worst_defect = max(worst_defect, report.details["defect"])
    rng = stream_rng(1008)
    t = random_conditioned_map(64, 100.0, rng)
    transformed = ccr_check(build_operator_set(t, np.sqrt(np.arange(64))), 1e-12)
    budget = 1e-10 * t.cond_estimate**2
    t_resid = transformed.details["transformed"]
    ok = worst_defect < 1e-12 and t_resid < budget
    _verdict(
        8,
        "truncated commutation relation",
        ok,
        f"defect {worst_defect:.2e}, transformed {t_resid:.2e} vs {budget:.2e}",
    )


def test_criterion_09_product_identities():
    rng = stream_rng(1009)
    worst = 0.0
    for pair in (
        random_conditioned_map(16, 50.0, rng),
        from_diagonal(np.linspace(1.0, 4.0, 16)),
    ):
        opset = build_operator_set(pair, np.sqrt(np.arange(16)))
        # the report holds the worst of the pairs m + l <= 4
        worst = max(worst, product_identity_check(opset, 1e-10).residual)
    _verdict(9, "operator product identities", worst < 1e-10, f"worst residual {worst:.2e}")


def test_criterion_10_polar_normalization():
    rng = stream_rng(1010)
    worst_reassembly = 0.0
    worst_gram = 0.0
    worst_check = 0.0
    for _ in range(100):
        # T = P U: P acts on the rotated orthonormal basis f_n = U e_n
        t = random_conditioned_map(16, 100.0, rng)
        positive, f_basis = map(np.asarray, polar_decompose(t))
        rebuilt = positive @ f_basis
        worst_reassembly = max(
            worst_reassembly,
            np.linalg.norm(rebuilt - np.asarray(t)) / np.linalg.norm(np.asarray(t)),
        )
        gram = np.abs(f_basis.conj().T @ f_basis - np.eye(16)).max()
        worst_gram = max(worst_gram, gram)
        (report,) = run_suite(dense_config(t, checks=["polar"]))
        worst_check = max(worst_check, report.residual)
    ok = worst_reassembly < 1e-9 and worst_gram < 1e-10 and worst_check < 1e-9
    _verdict(
        10,
        "polar normalization T = P U",
        ok,
        f"reassembly {worst_reassembly:.2e}, gram {worst_gram:.2e}, polar check {worst_check:.2e}",
    )


def test_criterion_11_hermite_oracle_gate():
    model = build_model(32)
    big = build_model(64)
    sys_ = build_system(big.X)
    identities = verify_K_psi(big, sys_, build_frame_operators(sys_), 1e-6)
    k_psi_resid = identities.details["k_psi_vs_solved_inverse_squared"]
    ok = model.oracle_residual < 1e-9 and k_psi_resid < 1e-6
    _verdict(
        11,
        "quadrature oracle gate",
        ok,
        f"entry deviation {model.oracle_residual:.2e}, K_psi {k_psi_resid:.2e}",
    )


def test_criterion_12_frame_bound_growth():
    lower = {}
    upper = {}
    for dim in (16, 32, 64):
        lower[dim], upper[dim] = frame_bounds(frame_operator(tail_family(dim)))
    ratio = upper[64] / upper[32]
    ok = (
        min(lower.values()) >= 1.0
        and upper[16] < upper[32] < upper[64]
        and ratio > 3.0
    )
    _verdict(
        12,
        "no uniform upper frame bound",
        ok,
        f"c >= {min(lower.values()):.6f}, C = ({upper[16]:.1f}, {upper[32]:.1f}, {upper[64]:.1f}), "
        f"C(64)/C(32) = {ratio:.2f}",
    )


def test_criterion_13_tail_dichotomy():
    k = np.arange(TAIL_GRID[-1])
    harmonic = tail_diagnostic(tail_pairings(1.0 / (k + 1.0)))
    geometric = tail_diagnostic(tail_pairings(2.0**-k))
    ok = harmonic.classification == "divergent" and geometric.classification == "convergent"
    _verdict(
        13,
        "tail growth dichotomy",
        ok,
        f"1/(n+1) -> {harmonic.classification} (exponent {harmonic.growth_exponent:.3f}), "
        f"2^-n -> {geometric.classification}",
    )


def test_criterion_14_cli_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code_a = main(["example", "hermite", "--dim", "16", "--full-suite", "--out", str(first)])
    code_b = main(["example", "hermite", "--dim", "16", "--full-suite", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    config = tmp_path / "diag.json"
    config.write_text(
        json.dumps({"dimension": 8, "operator": {"kind": "diagonal", "values": list(range(1, 9))}}),
        encoding="utf-8",
    )
    code_c = main(["run", "--config", str(config), "--out", str(tmp_path / "diag_report.json")])
    ok = code_a == 0 and code_b == 0 and code_c == 0 and identical
    _verdict(
        14,
        "CLI determinism and default suite",
        ok,
        f"exit codes ({code_a}, {code_b}, {code_c}), byte-identical: {identical}",
    )
