"""Tests for config parsing and report emission."""

import hashlib
import json
import math

import numpy as np
import pytest

from rieszlab import config as config_mod
from rieszlab import parse_config
from rieszlab.config import DIMENSION_LIMIT, config_to_dict, default_checks
from rieszlab.errors import ParseError
from rieszlab.hermite import MAX_DIMENSION, MAX_DIMENSION_REASON
from rieszlab.reporting import make_report
from rieszlab.suite import emit_report


def parse(payload) -> object:
    return parse_config(json.dumps(payload))


def test_parse_minimal_diagonal_config():
    cfg = parse(
        {
            "dimension": 8,
            "operator": {"kind": "diagonal", "values": [1, 2, 3, 4, 5, 6, 7, 8]},
            "checks": ["biorthogonality"],
        }
    )
    assert cfg.dimension == 8
    assert cfg.operator.kind == "diagonal"
    assert cfg.operator.values == tuple(complex(v) for v in range(1, 9))
    assert cfg.tolerance == 1e-8
    assert cfg.interior_margin == 4
    assert cfg.seed == 0
    assert cfg.checks == ("biorthogonality",)
    assert cfg.alpha.kind == "sqrt_n"


def path_of(payload) -> str:
    with pytest.raises(ParseError) as excinfo:
        parse(payload)
    return excinfo.value.path


def test_parse_rejects_small_dimension():
    payload = {"dimension": 1, "operator": {"kind": "hermite-x"}}
    assert path_of(payload) == "/dimension"


def test_parse_rejects_unknown_check():
    payload = {
        "dimension": 4,
        "operator": {"kind": "hermite-x"},
        "checks": ["no_such_check"],
    }
    assert path_of(payload) == "/checks/0"


def test_parse_rejects_hermite_check_for_diagonal():
    payload = {
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [1, 2]},
        "checks": ["biorthogonality", "tail_dichotomy"],
    }
    assert path_of(payload) == "/checks/1"


def test_parse_rejects_ccr_for_linear_alpha():
    payload = {
        "dimension": 2,
        "operator": {"kind": "diagonal", "values": [1, 2]},
        "alpha": {"kind": "linear"},
        "checks": ["ccr"],
    }
    assert path_of(payload) == "/checks/0"


def test_parse_rejects_wrong_value_count():
    payload = {"dimension": 3, "operator": {"kind": "diagonal", "values": [1, 2]}}
    assert path_of(payload) == "/operator/values"


def test_parse_dense_with_complex_pairs():
    cfg = parse(
        {
            "dimension": 2,
            "operator": {"kind": "dense", "entries": [1, [0, 1], 0, 1]},
        }
    )
    assert cfg.operator.values == (1 + 0j, 1j, 0j, 1 + 0j)


def test_parse_dense_rejects_bad_entry():
    payload = {"dimension": 2, "operator": {"kind": "dense", "entries": [1, "x", 0, 1]}}
    assert path_of(payload) == "/operator/entries/1"


def test_parse_rejects_unknown_top_level_key():
    payload = {"dimension": 2, "operator": {"kind": "hermite-x"}, "mystery": 1}
    assert path_of(payload) == "/mystery"


def test_parse_rejects_bad_margin_and_tolerance():
    base = {"dimension": 4, "operator": {"kind": "hermite-x"}}
    assert path_of({**base, "interior_margin": 4}) == "/interior_margin"
    assert path_of({**base, "tolerance": 0}) == "/tolerance"
    assert path_of({**base, "seed": -1}) == "/seed"


def test_parse_rejects_non_finite_numbers():
    base = '{"dimension": 4, "operator": {"kind": "hermite-x"}, "tolerance": %s}'
    for literal in ("NaN", "Infinity", "-Infinity", "1e400"):
        with pytest.raises(ParseError) as excinfo:
            parse_config(base % literal)
        assert excinfo.value.path == "/"
        assert literal in excinfo.value.reason
    dense = '{"dimension": 2, "operator": {"kind": "dense", "entries": [1, 0, [0, NaN], 1]}}'
    with pytest.raises(ParseError):
        parse_config(dense)


BIG_INT = 10**400  # json.dumps writes it as a 401-digit integer literal


def test_parse_rejects_oversized_integer_literals():
    base = {"dimension": 2, "operator": {"kind": "diagonal", "values": [1, 2]}}
    cases = [
        ({**base, "tolerance": BIG_INT}, "/tolerance"),
        ({**base, "operator": {"kind": "upper-unipotent", "off_diagonal": BIG_INT}}, "/operator/off_diagonal"),
        ({**base, "operator": {"kind": "diagonal", "values": [1, -BIG_INT]}}, "/operator/values/1"),
        ({**base, "operator": {"kind": "dense", "entries": [1, 0, [0, BIG_INT], 1]}}, "/operator/entries/2"),
    ]
    for payload, path in cases:
        with pytest.raises(ParseError) as excinfo:
            parse(payload)
        assert excinfo.value.path == path
        assert "overflows" in excinfo.value.reason
    # Past the interpreter's int digit limit the JSON reader itself refuses the literal.
    with pytest.raises(ParseError) as excinfo:
        parse_config('{"dimension": 2, "operator": {"kind": "hermite-x"}, "seed": 1%s}' % ("0" * 5000))
    assert excinfo.value.path == "/"


def test_parse_rejects_dense_dimension_whose_square_passes_the_digit_limit():
    # 10**2500 is under the interpreter's 4,300-digit limit, its square is not
    dimension = 10**2500
    with pytest.raises(ParseError) as excinfo:
        parse({"dimension": dimension, "operator": {"kind": "dense", "entries": [1]}})
    assert excinfo.value.path == "/operator/entries"
    assert excinfo.value.reason == "needs exactly about 10^5000 entries, got 1"
    with pytest.raises(ParseError) as excinfo:
        parse({"dimension": 3, "operator": {"kind": "dense", "entries": [1]}})
    assert excinfo.value.reason == "needs exactly 9 entries, got 1"


# (config builder, JSON path of its value list) for the three value lists
VALUE_LISTS = [
    (lambda values: {"dimension": 4, "operator": {"kind": "diagonal", "values": values}}, "/operator/values"),
    (lambda values: {"dimension": 2, "operator": {"kind": "dense", "entries": values}}, "/operator/entries"),
    (
        lambda values: {"dimension": 4, "operator": {"kind": "hermite-x"}, "alpha": {"kind": "custom", "values": values}},
        "/alpha/values",
    ),
]


@pytest.mark.parametrize("build, list_path", VALUE_LISTS, ids=[path for _, path in VALUE_LISTS])
@pytest.mark.parametrize(
    "bad",
    [True, "x", [1, 2, 3], [0, True], BIG_INT, [BIG_INT, 0]],
    ids=["bool", "string", "three_items", "bool_in_pair", "big_int", "big_int_in_pair"],
)
@pytest.mark.parametrize("k", [0, 2, 3])
def test_value_list_rejects_bad_entry_at_its_index(build, list_path, bad, k):
    values = [1.5, [0, 1], 2, [-0.5, 0.25]]
    values[k] = bad
    assert path_of(build(values)) == f"{list_path}/{k}"


def _value_list(cfg, list_path):
    return cfg.alpha.values if list_path == "/alpha/values" else cfg.operator.values


@pytest.mark.parametrize("build, list_path", VALUE_LISTS, ids=[path for _, path in VALUE_LISTS])
@pytest.mark.parametrize(
    "values",
    [[3, 0, -7, 2], [1, [0, 1], -0.0, [-0.0, 2]], [2**53 + 1, [1, -1], 0.1, [3, 0.0]]],
)
def test_value_list_converts_like_one_entry_at_a_time(build, list_path, values):
    cfg = parse(build(values))
    # The per-entry conversion every value list had before the single loop.
    expected = tuple(complex(float(v[0]), float(v[1])) if isinstance(v, list) else complex(v) for v in values)
    got = _value_list(cfg, list_path)
    assert type(got) is tuple and all(type(z) is complex for z in got)
    assert repr(got) == repr(expected)  # repr tells -0.0 from 0.0


def test_parse_rejects_short_custom_alpha():
    payload = {
        "dimension": 4,
        "operator": {"kind": "hermite-x"},
        "alpha": {"kind": "custom", "values": [0, 1]},
    }
    assert path_of(payload) == "/alpha/values"


def test_parse_rejects_the_retired_alpha_r_field():
    # alpha is its values alone: no check reads a gap bound
    for alpha in ({"kind": "sqrt_n", "r": 1.0}, {"kind": "custom", "values": [0, 1], "r": 1.0}):
        with pytest.raises(ParseError) as excinfo:
            parse({"dimension": 2, "operator": {"kind": "hermite-x"}, "alpha": alpha})
        assert excinfo.value.path == "/alpha/r"
        assert excinfo.value.reason == f"unknown field for kind {alpha['kind']!r}"


def test_parse_rejects_invalid_json():
    with pytest.raises(ParseError) as excinfo:
        parse_config("{not json")
    assert excinfo.value.path == "/"


def test_default_checks_cover_operator_kinds():
    diag_checks = default_checks("diagonal", "sqrt_n")
    assert "ccr" in diag_checks
    assert "tail_dichotomy" not in diag_checks
    assert "ccr" not in default_checks("diagonal", "linear")
    hermite_checks = default_checks("hermite-x", "sqrt_n")
    for name in ("hermite_oracle", "frame_bound_growth", "tail_dichotomy"):
        assert name in hermite_checks


def sha256_of(values) -> str:
    """sha256 of a config value list as little-endian complex128, [re, im] pairs read by hand."""
    numbers = [complex(*v) if isinstance(v, list) else complex(v) for v in values]
    return hashlib.sha256(np.array(numbers, dtype="<c16").tobytes()).hexdigest()


DENSE_ENTRIES = [1.5, [0.25, -2], 0, 3]
ALPHA_VALUES = [0, [1, 0.5], 2, 3, 4]
DIAGONAL_VALUES = [1, [2, 1], 3e-3]


def test_config_echo_digests_value_lists():
    dense = config_to_dict(
        parse(
            {
                "dimension": 2,
                "operator": {"kind": "dense", "entries": DENSE_ENTRIES},
                "alpha": {"kind": "custom", "values": ALPHA_VALUES},
            }
        )
    )
    assert dense["operator"]["entries"] == {"count": 4, "sha256": sha256_of(DENSE_ENTRIES)}
    assert dense["alpha"]["values"] == {"count": 5, "sha256": sha256_of(ALPHA_VALUES)}
    diagonal = config_to_dict(parse({"dimension": 3, "operator": {"kind": "diagonal", "values": DIAGONAL_VALUES}}))
    assert diagonal["operator"]["values"] == {"count": 3, "sha256": sha256_of(DIAGONAL_VALUES)}


@pytest.mark.parametrize(
    "payload",
    [
        {
            "dimension": 2,
            "operator": {"kind": "dense", "entries": DENSE_ENTRIES},
            "alpha": {"kind": "custom", "values": ALPHA_VALUES},
            "tolerance": 1e-7,
            "interior_margin": 1,
            "seed": 11,
            "checks": ["eigen", "biorthogonality"],
        },
        {"dimension": 3, "operator": {"kind": "diagonal", "values": DIAGONAL_VALUES}, "alpha": {"kind": "linear"}},
        {"dimension": 4, "operator": {"kind": "upper-unipotent", "off_diagonal": 0.5}, "seed": 7},
        {"dimension": 5, "operator": {"kind": "hermite-x"}, "tolerance": 1e-6},
    ],
)
def test_config_echo_round_trips_scalar_fields(payload):
    cfg = parse(payload)
    echo = config_to_dict(cfg)
    assert echo["schema"] == "rieszlab/1"
    # With its value lists put back, the echo parses to the original config.
    for section, key in (("operator", "entries"), ("operator", "values"), ("alpha", "values")):
        if key in echo[section]:
            echo[section][key] = payload[section][key]
    assert parse(echo) == cfg


def test_digest_ignores_number_spelling_and_sees_one_ulp():
    def digest(text: str) -> str:
        return config_to_dict(parse_config(text))["operator"]["entries"]["sha256"]

    reference = digest('{"dimension": 2, "operator": {"kind": "dense", "entries": [1, 0, 0, 1]}}')
    for one in ("1", "1.0", "1e0", "10E-1", "[1, 0]", "[1.0, 0.0]"):
        text = f'{{"dimension": 2, "operator": {{"kind": "dense", "entries": [{one}, 0,\n 0.0,  {one}]}}}}'
        assert digest(text) == reference, one
    up = math.nextafter(1.0, 2.0)
    assert digest(f'{{"dimension": 2, "operator": {{"kind": "dense", "entries": [1, 0, 0, {up!r}]}}}}') != reference
    tiny = f'{{"dimension": 2, "operator": {{"kind": "dense", "entries": [1, 0, 0, [1, {5e-324!r}]]}}}}'
    assert digest(tiny) != reference

    def alpha_digest(values) -> str:
        payload = {"dimension": 2, "operator": {"kind": "hermite-x"}, "alpha": {"kind": "custom", "values": values}}
        return config_to_dict(parse(payload))["alpha"]["values"]["sha256"]

    assert alpha_digest([0, 1, 2.5]) == alpha_digest([0.0, [1, 0], [2.5, 0.0]])
    assert alpha_digest([0, 1, 2.5]) != alpha_digest([0, 1, math.nextafter(2.5, 0.0)])


def test_emit_report_empty():
    text = emit_report([], fmt="json", config={"dimension": 2})
    doc = json.loads(text)
    assert doc["reports"] == []
    assert doc["config"] == {"dimension": 2}
    assert doc["schema"] == "rieszlab/3"


def test_emit_report_json_fields():
    report = make_report("biorthogonality", 2.75e-11, 1e-8, details={"worst_row": 3})
    doc = json.loads(emit_report([report], fmt="json"))
    entry = doc["reports"][0]
    assert entry["pass"] is True
    assert entry["residual"] == "2.7499999999999999e-11"  # 17 significant digits
    assert entry["details"]["worst_row"] == 3


def test_emit_report_csv_single_row():
    report = make_report("ladder", 0.0, 1e-9)
    text = emit_report([report], fmt="csv")
    lines = text.strip().splitlines()
    assert lines[0] == "name,residual,tolerance,pass"
    assert lines[1].startswith("ladder,0,")
    assert lines[1].endswith(",true")


def test_emit_report_deterministic():
    reports = [
        make_report("b_check", 1e-12, 1e-9, details={"x": 1.0}),
        make_report("a_check", 2e-12, 1e-9),
    ]
    first = emit_report(reports, fmt="json", config={"seed": 0})
    second = emit_report(list(reports), fmt="json", config={"seed": 0})
    assert first == second
    names = [r["name"] for r in json.loads(first)["reports"]]
    assert names == sorted(names)


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], fmt="yaml")


@pytest.mark.parametrize("dimension", [DIMENSION_LIMIT + 1, 10**12, 10**2500])
def test_parse_rejects_dimension_past_the_working_set_limit(dimension):
    with pytest.raises(ParseError) as excinfo:
        parse({"dimension": dimension, "operator": {"kind": "upper-unipotent", "off_diagonal": 0.5}})
    assert excinfo.value.path == "/dimension"
    assert excinfo.value.reason.startswith(f"must be <= {DIMENSION_LIMIT}: a run keeps about")
    assert parse({"dimension": DIMENSION_LIMIT, "operator": {"kind": "upper-unipotent"}}).dimension == DIMENSION_LIMIT


def test_dimension_limit_covers_every_operator_kind(monkeypatch):
    # a small limit, so that every kind's value lists stay small
    monkeypatch.setattr(config_mod, "DIMENSION_LIMIT", 3)
    operators = {
        "diagonal": {"kind": "diagonal", "values": [1, 2, 3, 4]},
        "dense": {"kind": "dense", "entries": [float(i == j) for i in range(4) for j in range(4)]},
        "upper-unipotent": {"kind": "upper-unipotent"},
    }
    assert set(operators) | {"hermite-x"} == set(config_mod.OPERATOR_KINDS)
    for operator in operators.values():
        with pytest.raises(ParseError) as excinfo:
            parse({"dimension": 4, "operator": operator})
        assert excinfo.value.path == "/dimension" and excinfo.value.reason.startswith("must be <= 3")
    with pytest.raises(ParseError) as excinfo:
        parse({"dimension": 4, "operator": {"kind": "hermite-x"}})
    assert excinfo.value.path == "/dimension" and excinfo.value.reason.startswith("must be <= 3")


def test_hermite_dimension_limit_keeps_its_quadrature_reason():
    for dimension in (MAX_DIMENSION + 1, DIMENSION_LIMIT + 1, 10**12):
        with pytest.raises(ParseError) as excinfo:
            parse({"dimension": dimension, "operator": {"kind": "hermite-x"}})
        assert excinfo.value.path == "/dimension"
        assert excinfo.value.reason == f"hermite-x needs dimension <= {MAX_DIMENSION}: {MAX_DIMENSION_REASON}"
