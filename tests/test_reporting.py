"""The report writer gives the stdlib's bytes: json.dumps(doc, sort_keys=True, indent=2)."""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rieszlab import parse_config, run_suite
from rieszlab.config import config_to_dict
from rieszlab.reporting import json_text, report_as_dict
from rieszlab.suite import emit_report

SPECIAL_FLOATS = [0.0, -0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    floats
    | st.integers()
    | st.integers(min_value=2**64, max_value=10**400)
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(["", "tab\tquote\"back\\slash\nnew", "é≤\U0001d4d7", "\x00\x1f"])
)
pairs = st.lists(floats, min_size=2, max_size=2)
value_lists = st.lists(floats | pairs)  # a config value list: floats and [re, im] pairs, mixed
documents = st.recursive(
    scalars | pairs | value_lists,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=60,
)


@settings(deadline=None)
@given(documents)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}]})
@example([[1.5, -0.0], 2.5, [math.inf, 1.0], [1.0, math.nan], [1, 2.0], [1.0], [1.0, 2.0, 3.0], [True, 1.0]])
def test_json_text_is_the_stdlib_bytes(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_json_text_writes_float_subclasses_as_the_stdlib_does():
    doc = {"values": [np.float64(0.1), [np.float64(1.5), 2.0], 3.0]}
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_emit_report_on_a_dense_complex_alpha_config_is_the_stdlib_bytes():
    # The dense N=16 config with complex custom alpha that CI runs.
    t = np.eye(16) + 0.1 * np.random.default_rng(16).standard_normal((16, 16, 2)) @ [1, 1j]
    payload = {
        "dimension": 16,
        "operator": {"kind": "dense", "entries": [[v.real, v.imag] for v in t.ravel()]},
        "alpha": {"kind": "custom", "values": [[n, 0.5 * (-1) ** n] for n in range(16)]},
        "seed": 3,
    }
    cfg = parse_config(json.dumps(payload))
    reports = run_suite(cfg)
    config = config_to_dict(cfg)
    doc = {
        "schema": "rieszlab/1",
        "config": config,
        "reports": [report_as_dict(r) for r in sorted(reports, key=lambda r: r.name)],
    }
    assert emit_report(reports, fmt="json", config=config) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
