"""Each shared quantity of a run is computed once: factorization, operator-set and map counts."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc

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

from helpers import dense16_payload, dense_config, random_conditioned_map, scaled, stream_rng


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


def full_suite_configs():
    """A Hermite full suite and a dense complex T with every general check, ccr included."""
    return {
        "hermite": _hermite_config(32, full_suite=True, seed=0),
        "dense": dense_config(random_conditioned_map(12, 10.0, stream_rng(33)), seed=4),
    }


# Each stage of the reader table and the function that builds it.
STAGE_BUILDERS = {
    "opset": (operators, "build_operator_set"),
    "eigenrelation": (operators, "eigenrelation_residuals"),
    "hermite_model": (hermite, "build_model"),
}


@pytest.mark.parametrize("kind", ["hermite", "dense"])
def test_each_stage_is_built_once_and_dropped_after_its_last_reader(monkeypatch, kind):
    # a stage with a reader in the run is built once, and no check after
    # its last reader runs with it held, nor builds it again
    cfg = full_suite_configs()[kind]
    assert STAGE_BUILDERS.keys() == suite._STAGE_READERS.keys()
    assert suite._STAGE_READERS["opset"] <= set(cfg.checks)
    calls = []
    for stage, (module, name) in STAGE_BUILDERS.items():
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _stage=stage, _f=original: calls.append(_stage) or _f(*a))
    held = {}
    run_check = suite._run_check

    def recording(ctx, name):
        held[name] = suite._STAGE_READERS.keys() & vars(ctx).keys()
        return run_check(ctx, name)

    monkeypatch.setattr(suite, "_run_check", recording)
    reports = run_suite(cfg)
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    read = sorted(stage for stage, readers in suite._STAGE_READERS.items() if readers & set(cfg.checks))
    assert sorted(calls) == read
    assert ("hermite_model" in read) == (kind == "hermite")
    order = list(held)
    for i, name in enumerate(order):
        for stage in held[name]:
            assert suite._STAGE_READERS[stage] & set(order[i:]), (name, stage)


@pytest.mark.parametrize("kind", ["hermite", "dense"])
@pytest.mark.parametrize("stage", sorted(STAGE_BUILDERS))
def test_a_stage_that_raises_fails_exactly_its_readers(monkeypatch, kind, stage):
    # with the operator built, a context whose stage raises fails every
    # check the table names as its reader, and only those (hermite_oracle
    # reads the Hermite model)
    cfg = full_suite_configs()[kind]
    ctx = suite._SuiteContext(cfg)
    ctx.operator

    def dropped(ctx):
        raise LookupError("a dropped stage was read")

    monkeypatch.setattr(suite._SuiteContext, stage, property(dropped))
    readers = suite._STAGE_READERS[stage] & set(cfg.checks)
    assert readers or (stage, kind) == ("hermite_model", "dense")
    for name in sorted(set(cfg.checks) - readers):
        assert suite._call_check(ctx, name).passed, name
    for name in sorted(readers):
        with pytest.raises(LookupError):
            suite._call_check(ctx, name)


# The configs whose check order is also read through the CLI: the dense
# complex T at N=16 with complex custom alpha, and hermite-x at N=64, above
# the split floor, whose Hermite model is dropped after its last reader.
CLI_ORDER_PAYLOADS = {
    "dense16": dense16_payload(),
    "hermite64": {"dimension": 64, "operator": {"kind": "hermite-x"}, "tolerance": 1e-6},
}


@pytest.mark.parametrize("kind", ["hermite", "dense", *CLI_ORDER_PAYLOADS])
def test_check_order_never_reaches_the_reports(kind, tmp_path):
    # the checks run grouped by the stage they read; the reports come back,
    # and are emitted, in name order whatever order the config lists them in
    payload = CLI_ORDER_PAYLOADS.get(kind)
    cfg = full_suite_configs()[kind] if payload is None else parse_config(json.dumps(payload))
    reversed_cfg = dataclasses.replace(cfg, checks=tuple(sorted(cfg.checks, reverse=True)))
    reports = run_suite(reversed_cfg)
    assert [r.name for r in reports] == sorted(cfg.checks)
    for fmt in ("json", "csv"):
        assert suite.emit_report(reports, fmt) == suite.emit_report(run_suite(cfg), fmt)
    if payload is None:
        return
    assert SPLIT_FLOOR <= 64  # so that hermite64 runs on two parity blocks

    def csv_report(name, document, *options):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(document), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert main(["run", "--config", str(config), *options, "--format", "csv", "--out", str(out)]) == 0
        return out.read_bytes()

    # no check draws random numbers, so neither the listed order nor the seed
    # reaches the CSV report of the default checks (a JSON report echoes the
    # config's check list and seed as given)
    names = sorted(cfg.checks)
    listed = csv_report("sorted", payload | {"checks": names})
    assert csv_report("reversed", payload | {"checks": names[::-1]}) == listed
    for seed in ("1", "2"):
        assert csv_report(f"seed{seed}", payload | {"checks": names}, "--seed", seed) == listed
    assert csv_report("default", payload) == listed


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
    clean = suite._call_check(suite._SuiteContext(cfg), "hamiltonian_agreement")
    assert clean.passed and clean.residual > 0.0
    ctx = suite._SuiteContext(cfg)
    ctx.operator.inverse = Blocks([scaled(invert(ctx.operator), 1e-6)])
    assert not suite._call_check(ctx, "hamiltonian_agreement").passed


def test_hermite_full_suite_builds_each_tail_family_once(monkeypatch, tmp_path):
    # `rieszlab example hermite --dim 8 --full-suite`: build_model's X and
    # the family whose leading blocks frame_bound_growth reads; the tail
    # diagnostics read X's bands, not a dense family
    built = []
    original = hermite.tail_family
    monkeypatch.setattr(hermite, "tail_family", lambda dim: built.append(dim) or original(dim))
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", "8", "--full-suite", "--out", str(out)]) == 0
    assert sorted(built) == [8, 64]


def test_tail_dichotomy_holds_no_dense_family():
    # its pairings come from X's three bands: a few 4 KiB vectors, where a
    # dense tail_family(512) took 2 MiB at any N
    suite._check_tail_dichotomy()
    tracemalloc.start()
    try:
        report = suite._check_tail_dichotomy()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 0.1 * 2**20, peak / 2**20


def test_growth_checks_pass_at_dimension_8():
    # the smallest Hermite size a benchmark round selects them at; the
    # bounds of each leading block are those of that truncation's own X
    growth = suite._check_frame_bound_growth()
    assert growth.passed, growth.details
    for n in (16, 32, 64):
        lower, upper = forms.frame_bounds(systems.frame_operator(hermite.tail_family(n)))
        assert (growth.details[f"c_{n}"], growth.details[f"C_{n}"]) == (lower, upper)
    tail = suite._check_tail_dichotomy()
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


def test_a_singular_operator_fails_every_check_as_an_error(tmp_path):
    # every check reads T^-1 or T's SVD, so on a singular T each fails as
    # an error report, with the pinned JSON and CSV bytes
    path = tmp_path / "singular.json"
    path.write_text(json.dumps({"dimension": 8, "operator": {"kind": "diagonal", "values": [1, 2, 3, 0, 5, 6, 7, 8]}}))
    reports = {}
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        assert main(["run", "--config", str(path), "--format", fmt, "--out", str(out)]) == 1
        reports[fmt] = out.read_bytes()
    assert hashlib.sha256(reports["json"]).hexdigest() == "90be3f67a7b7dd924f046d74d7188a7c18ea989aad7f49f27027ea3eac8ecd3e"
    names = sorted(parse_config(path.read_text()).checks)
    csv = "name,residual,tolerance,pass\n" + "".join(f"{n},inf,1e-08,false\n" for n in names)
    assert reports["csv"].decode() == csv
