"""Each shared quantity of a run is computed once: factorization, operator-set and map counts."""

import json
import sys

import numpy as np
import pytest

from rieszlab import (
    LinearMap,
    forms,
    hermite,
    invert,
    operators,
    parse_config,
    polar_decompose,
    run_suite,
    suite,
    systems,
)
from rieszlab.cli import _hermite_config, main
from rieszlab.config import config_to_dict
from rieszlab.linalg import SPLIT_FLOOR, Blocks
from rieszlab.sampling import stream_rng

from helpers import dense_config, random_conditioned_map


def count_calls(monkeypatch):
    counts = {
        "svd": 0,
        "eigvalsh": 0,
        "eigh": 0,
        "matrix_power": 0,
        "build_operator_set": 0,
        "build_system": 0,
        "ladder_shifts": 0,
        "hamiltonian_shift": 0,
        "LinearMap": 0,
    }

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        # every module-level binding, so a call through `from .x import name` is counted too
        for module in [owner, *(m for k, m in list(sys.modules.items()) if k.startswith("rieszlab"))]:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "svd")
    counted(np.linalg, "eigvalsh")
    counted(np.linalg, "eigh")
    counted(np.linalg, "matrix_power")
    counted(operators, "build_operator_set")
    counted(systems, "build_system")
    counted(operators, "ladder_shifts")
    counted(operators, "hamiltonian_shift")
    linear_map_init = LinearMap.__init__

    def counted_init(self, entries):
        counts["LinearMap"] += 1
        linear_map_init(self, entries)

    monkeypatch.setattr(LinearMap, "__init__", counted_init)
    return counts


def blocks_at(dim: int) -> int:
    """How many blocks a parity-keeping map of this dimension is factored by."""
    return 2 if dim >= SPLIT_FLOOR else 1


@pytest.mark.parametrize("dim", [32, 64])
def test_hermite_full_suite_shares_factorizations(monkeypatch, dim):
    # `rieszlab example hermite --dim 32 --full-suite`, and at 64
    counts = count_calls(monkeypatch)
    reports = run_suite(_hermite_config(dim, full_suite=True, seed=0))
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    # one SVD of T: T^-1, the polar factors and cond(T); X keeps parity,
    # so from the split floor that SVD is one LAPACK call per parity block
    assert counts["svd"] == blocks_at(dim)
    # positivity is certified by eigh, whose eigenvalues frame_bounds reads
    assert counts["eigvalsh"] == 0
    # product identities form each word as one product with a shorter word
    assert counts["matrix_power"] == 0
    # real alpha: the conjugate set of adjoint_relations is the set itself
    assert counts["build_operator_set"] == 1
    # every check reads the reference shifts from that one set
    assert counts["ladder_shifts"] == 1
    assert counts["hamiltonian_shift"] == 1
    # one system per run, shared by every check, hermite_oracle included
    assert counts["build_system"] == 1
    # K_phi and K_psi once each, certificate and square root from one
    # eigendecomposition, plus one per growth size (16, 32, 64); every one
    # of these maps keeps parity, one LAPACK call per block from the split floor
    assert counts["eigh"] == 2 * blocks_at(dim) + sum(blocks_at(n) for n in (16, 32, 64))
    # only the maps that are certified or factored: X, which is T, K_phi and
    # K_psi, and one frame operator per growth size; every other matrix is
    # a read-only Blocks
    assert counts["LinearMap"] == 6


def test_eigen_and_domain_mapping_read_one_eigenrelation(monkeypatch):
    # `rieszlab example hermite --dim 32 --full-suite`: both checks of
    # H v_k = alpha_k v_k read the residuals formed once per run
    calls = []
    original = operators.eigenrelation_residuals
    monkeypatch.setattr(operators, "eigenrelation_residuals", lambda *a: calls.append(1) or original(*a))
    reports = {r.name: r for r in run_suite(_hermite_config(32, full_suite=True, seed=0))}
    assert reports["eigen"].passed and reports["domain_mapping"].passed
    assert len(calls) == 1


def test_hermite_full_suite_factors_in_real_arithmetic(monkeypatch):
    # `rieszlab example hermite --dim 32 --full-suite`: X is real symmetric,
    # so every factorization of the run takes a float64 array
    seen = []

    def recording(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            seen.append((name, np.asarray(a).dtype))
            return original(a, *args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    reports = run_suite(_hermite_config(32, full_suite=True, seed=0))
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    # one SVD and five eigh, each one call below the split floor (16, 32)
    # and one per parity block from it (64)
    assert len(seen) == 1 + 2 + 1 + 1 + 2
    assert all(dtype == np.float64 for _, dtype in seen), seen


def test_operator_and_alpha_dtype_follow_the_config():
    # config numbers are complex pairs; zero imaginary parts give real data
    real_dense = {
        "dimension": 2,
        "operator": {"kind": "dense", "entries": [[2, 0], [1, 0], [0, 0], [3, 0]]},
        "alpha": {"kind": "custom", "values": [[0, 0], [1, 0]]},
    }
    cfg = parse_config(json.dumps(real_dense))
    assert suite.build_operator(cfg).dtype == np.float64
    assert suite._SuiteContext(cfg).opset.alpha.dtype == np.float64
    phases = {
        "dimension": 3,
        "operator": {"kind": "diagonal", "values": [[1, 0], [0, 2], [-0.5, 0.5]]},
        "alpha": {"kind": "custom", "values": [[0, 0], [1, 0.5], [2, 0]]},
    }
    cfg = parse_config(json.dumps(phases))
    assert suite.build_operator(cfg).dtype == np.complex128
    assert suite._SuiteContext(cfg).opset.alpha.dtype == np.complex128


def test_hermite_example_builds_no_square_roots(monkeypatch):
    # `rieszlab example hermite --dim 32`: biorthogonality and hermite_oracle read K_phi and K_psi only
    counts = count_calls(monkeypatch)
    reports = run_suite(_hermite_config(32, full_suite=False, seed=0))
    assert [r.name for r in reports] == ["biorthogonality", "hermite_oracle"]
    assert all(r.passed for r in reports)
    assert counts["eigh"] == 0


def test_complex_alpha_builds_conjugate_set(monkeypatch):
    counts = count_calls(monkeypatch)
    payload = {
        "dimension": 4,
        "operator": {"kind": "diagonal", "values": [1, 2, 3, 4]},
        "alpha": {"kind": "custom", "values": [[0, 0], [1, 0.5], [2, -0.5], [3, 1]]},
        "checks": ["adjoint_relations"],
    }
    (report,) = run_suite(parse_config(json.dumps(payload)))
    assert report.passed, report.details
    assert counts["build_operator_set"] == 2


def test_each_bulk_value_list_is_converted_once(monkeypatch):
    # parsing converts each value list to the one read-only complex128 array
    # that the run and the report echo share; no sequence is converted after it
    converted = []
    for name in ("asarray", "array"):

        def converting(obj, *args, _original=getattr(np, name), **kwargs):
            if type(obj) in (list, tuple):
                converted.append(len(obj))
            return _original(obj, *args, **kwargs)

        monkeypatch.setattr(np, name, converting)
    t = random_conditioned_map(4, 10.0, stream_rng(71))
    converted.clear()
    cfg = dense_config(t, alpha={"kind": "custom", "values": [0, [1, 0.5], 2, 3, 4]}, checks=["eigen"])
    assert sorted(converted) == [5, 16]
    for values in (cfg.operator.values, cfg.alpha.values):
        assert type(values) is np.ndarray and values.dtype == np.complex128 and not values.flags.writeable
    converted.clear()
    (report,) = run_suite(cfg)
    config_to_dict(cfg)
    assert report.passed
    assert 5 not in converted and 16 not in converted


def test_hamiltonian_agreement_sees_a_defect_in_the_cached_inverse():
    # The sum form takes psi from an LU solve, the operator set conjugates
    # with the run's cached SVD inverse: a defect there must show.
    cfg = dense_config(random_conditioned_map(8, 10.0, stream_rng(50)), checks=["hamiltonian_agreement"])
    clean = suite._check_hamiltonian_agreement(suite._SuiteContext(cfg))
    assert clean.passed and clean.residual > 0.0
    ctx = suite._SuiteContext(cfg)
    t_map = ctx.operator
    t_inv = np.array(invert(t_map))
    t_inv[np.unravel_index(np.argmax(np.abs(t_inv)), t_inv.shape)] *= 1.0 + 1e-6
    t_map.inverse = Blocks([t_inv])
    assert not suite._check_hamiltonian_agreement(ctx).passed


def test_hermite_full_suite_builds_each_tail_family_once(monkeypatch, tmp_path):
    # `rieszlab example hermite --dim 8 --full-suite`: build_model's X, the
    # family whose leading blocks frame_bound_growth reads, and the largest
    # truncation, shared by both tail diagnostics
    built = []
    original = hermite.tail_family
    monkeypatch.setattr(hermite, "tail_family", lambda dim: built.append(dim) or original(dim))
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", "8", "--full-suite", "--out", str(out)]) == 0
    assert sorted(built) == [8, 64, forms.TAIL_GRID[-1]]


def test_growth_checks_pass_at_dimension_8():
    # the smallest Hermite size a benchmark round selects them at; the
    # bounds of each leading block are those of that truncation's own X
    ctx = suite._SuiteContext(_hermite_config(8, full_suite=True, seed=0))
    growth = suite._check_frame_bound_growth(ctx)
    assert growth.passed, growth.details
    for n in (16, 32, 64):
        lower, upper = forms.frame_bounds(systems.frame_operator(hermite.tail_family(n)))
        assert (growth.details[f"c_{n}"], growth.details[f"C_{n}"]) == (lower, upper)
    tail = suite._check_tail_dichotomy(ctx)
    assert tail.passed, tail.details
    assert tail.details["harmonic_classification"] == "divergent"
    assert tail.details["geometric_classification"] == "convergent"


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
@pytest.mark.parametrize("alpha", ["sqrt_n", "complex"])
def test_every_derived_matrix_is_a_read_only_blocks(alpha, kind):
    # T^-1, (T^-1)*, the operator set, the eigenrelation, both roots and both
    # polar factors are read-only Blocks; only T and the frame operators are
    # maps.  A dense T is one block, and every derived matrix with it; a
    # complex diagonal T of odd N above the split floor is two unequal
    # parity blocks, and every derived matrix inherits them: the ladders swap
    # parity, everything else keeps it.
    dim = 6 if kind == "dense" else SPLIT_FLOOR + 1
    if kind == "dense":
        t = random_conditioned_map(dim, 10.0, stream_rng(72))
    else:
        t = LinearMap(np.diag(np.exp(0.3j * np.arange(dim)) * 1.05 ** np.arange(dim)))
    values = {"kind": "custom", "values": [[n, 0.5 * (-1) ** n] for n in range(dim)]}
    cfg = dense_config(t, **({} if alpha == "sqrt_n" else {"alpha": values}))
    ctx = suite._SuiteContext(cfg)
    opset, frame_ops = ctx.opset, ctx.frame_ops
    transformed = ("h_phi_psi", "h_psi_phi", "a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi")
    matrices = {
        "inverse": invert(ctx.operator),
        "adjoint_inverse": ctx.operator.adjoint_inverse,
        **{name: getattr(opset, name) for name in transformed},
        "k_phi_sqrt": frame_ops.k_phi_sqrt,
        "k_psi_sqrt": frame_ops.k_psi_sqrt,
        **dict(zip(("positive", "unitary"), polar_decompose(ctx.operator))),
        **{f"{side}_residual": r.residual for side, r in ctx.eigenrelation.items()},
    }
    parts = 1 if kind == "dense" else 2
    for name, m in matrices.items():
        assert type(m) is Blocks and m.shape == (dim, dim), name
        assert m.parts == parts and m.shift == (parts == 2 and name[:2] in ("a_", "b_")), name
        assert not any(b.flags.writeable for b in m.blocks), name
    assert isinstance(opset.t, LinearMap) and isinstance(frame_ops.k_phi, LinearMap)
    assert frame_ops.k_phi.parts == frame_ops.k_psi.parts == parts
