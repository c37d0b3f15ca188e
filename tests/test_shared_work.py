"""Each shared quantity of a run is computed once: factorization, operator-set and map counts."""

import json
import sys

import numpy as np

from rieszlab import LinearMap, forms, hermite, invert, operators, parse_config, run_suite, suite, systems
from rieszlab.cli import _hermite_config, main
from rieszlab.config import config_to_dict
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


def test_hermite_full_suite_shares_factorizations(monkeypatch):
    # `rieszlab example hermite --dim 32 --full-suite`
    counts = count_calls(monkeypatch)
    reports = run_suite(_hermite_config(32, full_suite=True, seed=0))
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    # one SVD of T: T^-1, the polar factors and cond(T)
    assert counts["svd"] == 1
    # positivity is certified by eigh, whose eigenvalues frame_bounds reads
    assert counts["eigvalsh"] == 0
    # product identities form the powers up to 4 as products of the square
    assert counts["matrix_power"] <= 24
    # real alpha: the conjugate set of adjoint_relations is the set itself
    assert counts["build_operator_set"] == 1
    # every check reads the reference shifts from that one set
    assert counts["ladder_shifts"] == 1
    assert counts["hamiltonian_shift"] == 1
    # one system per run, shared by every check, hermite_oracle included
    assert counts["build_system"] == 1
    # K_phi and K_psi once each, certificate and square root from one
    # eigendecomposition, plus one per growth size (16, 32, 64)
    assert counts["eigh"] == 5
    # X, T^-1, K_phi and K_psi with their square roots, the polar factors, the
    # six transformed operators, the sum-form Hamiltonian, and one frame
    # operator per growth size: no map is copied to be read
    assert counts["LinearMap"] == 18


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
    assert len(seen) == 6
    assert all(dtype == np.float64 for _, dtype in seen), seen


def test_operator_and_alpha_dtype_follow_the_config():
    # config numbers are complex pairs; zero imaginary parts give real data
    real_dense = {
        "dimension": 2,
        "operator": {"kind": "dense", "entries": [[2, 0], [1, 0], [0, 0], [3, 0]]},
        "alpha": {"kind": "custom", "values": [[0, 0], [1, 0]]},
    }
    cfg = parse_config(json.dumps(real_dense))
    assert suite.build_operator(cfg).entries.dtype == np.float64
    assert suite._SuiteContext(cfg).opset().alpha.dtype == np.float64
    phases = {
        "dimension": 3,
        "operator": {"kind": "diagonal", "values": [[1, 0], [0, 2], [-0.5, 0.5]]},
        "alpha": {"kind": "custom", "values": [[0, 0], [1, 0.5], [2, 0]]},
    }
    cfg = parse_config(json.dumps(phases))
    assert suite.build_operator(cfg).entries.dtype == np.complex128
    assert suite._SuiteContext(cfg).opset().alpha.dtype == np.complex128


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
    # parse, run and report echo share one complex128 array per value list
    converted = []
    for name in ("asarray", "array"):

        def converting(obj, *args, _original=getattr(np, name), **kwargs):
            if type(obj) is tuple:
                converted.append(obj)
            return _original(obj, *args, **kwargs)

        monkeypatch.setattr(np, name, converting)
    t = random_conditioned_map(4, 10.0, stream_rng(71))
    cfg = dense_config(t, alpha={"kind": "custom", "values": [0, [1, 0.5], 2, 3, 4]}, checks=["eigen"])
    (report,) = run_suite(cfg)
    config_to_dict(cfg)
    assert report.passed
    assert sum(v is cfg.operator.values for v in converted) == 1
    assert sum(v is cfg.alpha.values for v in converted) == 1


def test_hamiltonian_agreement_sees_a_defect_in_the_cached_inverse():
    # The sum form takes psi from an LU solve, the operator set conjugates
    # with the run's cached SVD inverse: a defect there must show.
    cfg = dense_config(random_conditioned_map(8, 10.0, stream_rng(50)), checks=["hamiltonian_agreement"])
    clean = suite._check_hamiltonian_agreement(suite._SuiteContext(cfg))
    assert clean.passed and clean.residual > 0.0
    ctx = suite._SuiteContext(cfg)
    t_map = ctx.operator()
    t_inv = invert(t_map).entries.copy()
    t_inv[np.unravel_index(np.argmax(np.abs(t_inv)), t_inv.shape)] *= 1.0 + 1e-6
    t_map._inverse = LinearMap(t_inv)
    assert not suite._check_hamiltonian_agreement(ctx).passed


def test_hermite_full_suite_builds_each_tail_family_once(monkeypatch, tmp_path):
    # `rieszlab example hermite --dim 8 --full-suite`: build_model's X plus one
    # family per size, shared by frame_bound_growth and both tail diagnostics
    built = []
    original = hermite.tail_family
    monkeypatch.setattr(hermite, "tail_family", lambda dim: built.append(dim) or original(dim))
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", "8", "--full-suite", "--out", str(out)]) == 0
    assert sorted(built) == [8, *forms.DEFAULT_TAIL_GRID]
    ctx = suite._SuiteContext(_hermite_config(8, full_suite=True, seed=0))
    assert ctx.tail_family(16) is ctx.tail_family(16)
    assert not ctx.tail_family(16).flags.writeable
