"""End-to-end tests for run_suite and the command-line interface."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from rieszlab import cli, parse_config, run_suite, suite
from rieszlab.cli import _hermite_config, main
from rieszlab.config import DIMENSION_LIMIT, KNOWN_CHECKS, config_to_dict
from rieszlab.hermite import MAX_DIMENSION

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


DIAGONAL_PAYLOAD = {
    "dimension": 3,
    "operator": {"kind": "diagonal", "values": [1, 2, 3]},
    "checks": ["biorthogonality", "quasi_basis", "eigen", "ccr"],
}


def test_run_suite_diagonal_all_pass(tmp_path):
    cfg = parse_config(json.dumps(DIAGONAL_PAYLOAD))
    reports = run_suite(cfg)
    assert [r.name for r in reports] == ["biorthogonality", "ccr", "eigen", "quasi_basis"]
    assert all(r.passed for r in reports)
    # the config appears once per report document, at the top level
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"] == config_to_dict(cfg)
    assert all("provenance" not in r for r in doc["reports"])


def test_run_suite_default_checks_pass():
    cfg = parse_config(json.dumps({"dimension": 6, "operator": {"kind": "upper-unipotent", "off_diagonal": 0.5}}))
    reports = run_suite(cfg)
    assert all(r.passed for r in reports), [(r.name, r.residual) for r in reports if not r.passed]


def test_run_suite_default_checks_pass_at_small_dimension():
    # dimension below the product-power sweep: the nilpotent references must not blow up
    for payload in (
        {"dimension": 2, "operator": {"kind": "dense", "entries": [1, [0, 1], 0, 1]}},
        {"dimension": 4, "operator": {"kind": "upper-unipotent", "off_diagonal": 1.0}},
    ):
        reports = run_suite(parse_config(json.dumps(payload)))
        assert all(r.passed for r in reports), [
            (r.name, r.residual) for r in reports if not r.passed
        ]


def test_run_suite_singular_operator_reports_not_crashes():
    payload = {
        "dimension": 2,
        "operator": {"kind": "dense", "entries": [0, 0, 0, 0]},
        "checks": ["biorthogonality", "eigen"],
    }
    reports = run_suite(parse_config(json.dumps(payload)))
    assert len(reports) == 2
    for report in reports:
        assert not report.passed
        assert report.residual == math.inf
        assert report.details["error"] == "NumericallySingular"


def test_cli_run_exit_codes(tmp_path):
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == "rieszlab/4"
    assert doc["config"]["schema"] == "rieszlab/1"
    assert len(doc["reports"]) == 4

    singular = write_config(
        tmp_path,
        {"dimension": 2, "operator": {"kind": "dense", "entries": [0, 0, 0, 0]}},
        name="singular.json",
    )
    assert main(["run", "--config", str(singular), "--out", str(tmp_path / "bad.json")]) == 1


def test_cli_csv_builds_no_config_echo(tmp_path, monkeypatch):
    def refuse(cfg):
        raise AssertionError("a CSV report has no config echo")

    monkeypatch.setattr(cli, "config_to_dict", refuse)
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(path), "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("name,residual,tolerance,pass\n")


def test_cli_rejects_invalid_config(tmp_path, capsys):
    path = write_config(tmp_path, {"dimension": 1, "operator": {"kind": "hermite-x"}})
    assert main(["run", "--config", str(path)]) == 2
    assert "/dimension" in capsys.readouterr().err


def test_cli_rejects_infinite_tolerance(tmp_path, capsys):
    # json.dumps writes math.inf as the non-standard literal Infinity
    path = write_config(tmp_path, {**DIAGONAL_PAYLOAD, "tolerance": math.inf})
    assert "Infinity" in path.read_text(encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    assert "invalid config at /tolerance: must be a finite number, got inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, path",
    [
        ({**DIAGONAL_PAYLOAD, "tolerance": 10**400}, "/tolerance"),
        ({"dimension": 2, "operator": {"kind": "dense", "entries": [1, 0, [0, 10**400], 1]}}, "/operator/entries/2"),
    ],
)
def test_cli_rejects_oversized_integer_literal(tmp_path, capsys, payload, path):
    config = write_config(tmp_path, payload)
    assert "1" + "0" * 400 in config.read_text(encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"invalid config at {path}:" in err and "overflows" in err
    assert not out.exists()


def test_cli_rejects_dense_dimension_past_the_digit_limit(tmp_path, capsys):
    # dimension**2 has more than 4,300 digits, which str() refuses; the
    # dimension limit is checked first
    config = write_config(tmp_path, {"dimension": 10**2500, "operator": {"kind": "dense", "entries": [1]}})
    assert main(["run", "--config", str(config)]) == 2
    assert f"invalid config at /dimension: must be <= {DIMENSION_LIMIT}" in capsys.readouterr().err


def test_cli_rejects_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read config: ") and "utf-8" in err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    # every check passes, but the report cannot be written: a usage error, not a failed check
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    out = tmp_path / "missing" / "r.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write report: ") and "Traceback" not in captured.err
    assert captured.out == "" and not out.parent.exists()
    assert main(["example", "hermite", "--dim", "4", "--out", str(out)]) == 2
    assert "cannot write report" in capsys.readouterr().err


def test_cli_byte_identical_reports(tmp_path):
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["run", "--config", str(path), "--out", str(first), "--seed", "7"]) == 0
    assert main(["run", "--config", str(path), "--out", str(second), "--seed", "7"]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_seed_selects_nothing(tmp_path):
    # no check draws a sample set, so the seed reaches the report only as
    # the JSON config's echo of it
    payload = {"dimension": 8, "operator": {"kind": "hermite-x"}, "tolerance": 1e-6, "checks": list(KNOWN_CHECKS)}
    path = write_config(tmp_path, payload)
    out = {}
    for seed in ("1", "2"):
        for fmt in ("json", "csv"):
            out[seed, fmt] = tmp_path / f"{seed}.{fmt}"
            argv = ["run", "--config", str(path), "--format", fmt, "--out", str(out[seed, fmt]), "--seed", seed]
            assert main(argv) == 0
    assert out["1", "csv"].read_bytes() == out["2", "csv"].read_bytes()
    first, second = (json.loads(out[seed, "json"].read_text(encoding="utf-8")) for seed in ("1", "2"))
    assert (first["config"].pop("seed"), second["config"].pop("seed")) == (1, 2)
    assert first == second


def test_cli_csv_format(tmp_path):
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    out = tmp_path / "report.csv"
    assert main(["run", "--config", str(path), "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "name,residual,tolerance,pass"
    assert len(lines) == 5


def test_cli_hermite_example(tmp_path):
    out = tmp_path / "hermite.json"
    assert main(["example", "hermite", "--dim", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    names = [r["name"] for r in doc["reports"]]
    assert names == ["biorthogonality", "hermite_oracle"]
    assert doc["config"]["operator"]["kind"] == "hermite-x"


def test_cli_hermite_full_suite(tmp_path):
    out = tmp_path / "full.json"
    assert main(["example", "hermite", "--dim", "16", "--full-suite", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all(r["pass"] for r in doc["reports"])
    names = {r["name"] for r in doc["reports"]}
    assert {"hermite_oracle", "frame_bound_growth", "tail_dichotomy"} <= names


@pytest.mark.parametrize("dim", [2, 3])
def test_cli_hermite_example_at_the_smallest_dimensions(tmp_path, dim):
    # k_phi_vs_x_squared compares only the rows below dim - 2, which the
    # truncation of X X* does not reach (an empty block at dim 2).
    # Every column is an edge column here, and the full suite passes too
    # (exit status 0).
    for flags in ([], ["--full-suite"]):
        out = tmp_path / "hermite.json"
        assert main(["example", "hermite", "--dim", str(dim), *flags, "--out", str(out)]) == 0, flags
        doc = json.loads(out.read_text(encoding="utf-8"))
        (oracle,) = [r for r in doc["reports"] if r["name"] == "hermite_oracle"]
        assert oracle["pass"] and float(oracle["details"]["k_phi_vs_x_squared"]) < 1e-14
    assert len(doc["reports"]) == len(KNOWN_CHECKS)


@pytest.mark.parametrize("margin", [0, 1])
def test_cli_hermite_config_with_a_thin_margin(tmp_path, capsys, margin):
    # interior_margin is no config field: hermite_oracle reads every index
    # (the K_phi block stops below N - 2 on its own), so a config that still
    # sets a margin is rejected at its path, and the same config without it
    # passes with the K_phi detail at rounding level.
    payload = {"dimension": 16, "operator": {"kind": "hermite-x"}, "interior_margin": margin}
    out = tmp_path / "thin.json"
    assert main(["run", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 2
    assert "/interior_margin" in capsys.readouterr().err
    del payload["interior_margin"]
    assert main(["run", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all(r["pass"] for r in doc["reports"])
    (oracle,) = [r for r in doc["reports"] if r["name"] == "hermite_oracle"]
    assert float(oracle["details"]["k_phi_vs_x_squared"]) < 1e-13
    assert "interior" not in oracle["details"]


def test_cli_respects_log_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RIESZLAB_LOG", "debug")
    path = write_config(tmp_path, DIAGONAL_PAYLOAD)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0


def test_cli_example_rejects_tiny_dim(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid config at /dimension: must be >= 2\n"
    assert not out.exists()


def test_cli_hermite_dimension_limit(tmp_path, capsys):
    # The limit itself passes the oracle gate; one more is rejected up front
    # with the cause, by the example and by a hermite-x config alike.
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", str(MAX_DIMENSION), "--out", str(out)]) == 0
    out.unlink()
    path = write_config(tmp_path, {"dimension": MAX_DIMENSION + 1, "operator": {"kind": "hermite-x"}})
    for argv in (["example", "hermite", "--dim", str(MAX_DIMENSION + 1)], ["run", "--config", str(path)]):
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid config at /dimension: hermite-x needs dimension <= {MAX_DIMENSION}: ")
        assert "recurrence" in err and "underflow" in err
        assert not out.exists()


def test_cli_run_rejects_negative_seed(tmp_path, capsys):
    # the flag is validated as the config's /seed, and a bad seed in the
    # config is still rejected when the flag replaces it
    out = tmp_path / "report.json"
    for payload, flag in ((DIAGONAL_PAYLOAD, "-3"), ({**DIAGONAL_PAYLOAD, "seed": -1}, "3")):
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", str(path), "--seed", flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "invalid config at /seed: must be nonnegative\n"
        assert not out.exists()


def test_cli_example_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["example", "hermite", "--dim", "8", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid config at /seed: must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("full_suite", [False, True])
def test_hermite_example_config_is_its_parsed_document(full_suite):
    document = {"dimension": 40, "operator": {"kind": "hermite-x"}, "tolerance": 1e-6, "seed": 9}
    if not full_suite:
        document["checks"] = ["biorthogonality", "hermite_oracle"]
    assert _hermite_config(40, full_suite, 9) == parse_config(json.dumps(document))
    assert _hermite_config(40, full_suite, 9).checks == (
        KNOWN_CHECKS if full_suite else ("biorthogonality", "hermite_oracle")
    )


@pytest.mark.parametrize("dimension", [DIMENSION_LIMIT + 1, 10**12, 10**2500])
def test_cli_rejects_dimension_past_the_working_set_limit(tmp_path, capsys, dimension):
    config = write_config(tmp_path, {"dimension": dimension, "operator": {"kind": "upper-unipotent"}})
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        status = main(["run", "--config", str(config), "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2
    assert f"invalid config at /dimension: must be <= {DIMENSION_LIMIT}" in capsys.readouterr().err
    assert not out.exists()
    # rejected before any N x N array: one at DIMENSION_LIMIT + 1 alone takes 32 MiB
    assert peak < 2**20, peak


# alpha = 1e300 overflows the products of four checks
OVERFLOW_PAYLOAD = {
    "dimension": 4,
    "operator": {"kind": "diagonal", "values": [1, 2, 3, 4]},
    "alpha": {"kind": "custom", "values": [1e300, 1e300, 1e300, 1e300]},
}


def test_a_nan_detail_fails_its_check_and_the_run(tmp_path):
    # An overflow raises inside the check, so it fails as an error report that
    # names it, and the run exits 1.  Without that, three of the four passed
    # with residual 0 against reference norms that had overflowed to inf.
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(write_config(tmp_path, OVERFLOW_PAYLOAD)), "--out", str(out)]) == 1
    reports = {r["name"]: r for r in json.loads(out.read_text(encoding="utf-8"))["reports"]}
    raised = {name for name, r in reports.items() if not r["pass"]}
    assert raised == {"adjoint_relations", "domain_mapping", "hamiltonian_agreement", "product_identities"}
    for name in raised:
        assert reports[name]["residual"] == "inf"
        # product_identities overflows first where it composes its reference shifts
        where = "multiply" if name == "product_identities" else "dot"
        assert reports[name]["details"] == {"error": "FloatingPointError", "message": f"overflow encountered in {where}"}


def test_runs_print_nothing_to_stderr(tmp_path):
    # each run in a fresh interpreter, where no warning filter of the test
    # session can hide what the command prints
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
        "RIESZLAB_LOG": "error",
    }
    overflow = write_config(tmp_path, OVERFLOW_PAYLOAD)
    for argv, code in (
        (["example", "hermite", "--dim", "8", "--full-suite"], 0),
        (["run", "--config", str(overflow)], 1),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "rieszlab.cli", *argv, "--out", str(tmp_path / "report")],
            env=env, capture_output=True, text=True,
        )
        assert (done.returncode, done.stderr) == (code, ""), argv


def test_the_check_registry_names_every_known_check():
    assert set(suite._CHECKS) == set(KNOWN_CHECKS)
