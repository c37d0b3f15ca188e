"""A JSON report is json.dumps(doc, sort_keys=True, indent=2) of schema rieszlab/4, with a newline."""

import itertools
import json
import sys

import numpy as np

from rieszlab import parse_config, run_suite
from rieszlab.cli import _hermite_config
from rieszlab.config import config_to_dict
from rieszlab.reporting import report_as_dict, worst
from rieszlab.suite import emit_report

from helpers import dense16_payload


def dense16_config():
    return parse_config(json.dumps(dense16_payload()))


def test_emit_report_on_a_dense_complex_alpha_config_is_the_stdlib_bytes():
    cfg = dense16_config()
    reports = run_suite(cfg)
    config = config_to_dict(cfg)
    doc = {
        "schema": "rieszlab/4",
        "config": config,
        "reports": [report_as_dict(r) for r in sorted(reports, key=lambda r: r.name)],
    }
    assert emit_report(reports, fmt="json", config=config) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert config["operator"]["entries"]["count"] == 256
    assert config["alpha"]["values"]["count"] == 16


def test_worst_keeps_a_nan_wherever_it_stands():
    # the builtin max returns its first argument when a later one is NaN
    assert max(0.0, float("nan")) == 0.0
    for values in ([0.0, float("nan")], [float("nan"), 0.0], [1.0, float("nan"), 2.0]):
        assert np.isnan(worst(values))
    assert worst([1e-3, 2.0, 0.5]) == 2.0


def test_worst_returns_what_np_max_returns():
    # A NaN first, in the middle or last, and equal values of either sign:
    # np.max keeps the last of equal values, so [0.0, -0.0] reads -0.0.
    nan = float("nan")
    assert repr(worst([0.0, -0.0])) == "-0.0" and repr(worst([-0.0, 0.0])) == "0.0"
    rows = [v for n in range(1, 6) for v in itertools.product([0.0, -0.0, 1.0, nan], repeat=n)]
    rows += list(itertools.product([0.0, -0.0], repeat=8))  # the most values a check passes: ladder's eight
    for values in rows:
        assert repr(worst(values)) == repr(float(np.max(values))), values


def test_no_check_passes_worst_more_than_eight_values(monkeypatch):
    # worst returns np.max's value only on up to eight values: from nine on,
    # np.max does not keep the last of equal values (np.max([0.0] * 8 + [-0.0])
    # reads 0.0).  Each module's worst name records the lengths it is
    # passed, over a Hermite full suite and the dense config with complex alpha.
    lengths = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("rieszlab.") and name != "rieszlab.reporting" and vars(module).get("worst") is worst:

            def recording(values, _name=name):
                values = list(values)
                lengths.setdefault(_name, []).append(len(values))
                return worst(values)

            monkeypatch.setattr(module, "worst", recording)
    for cfg in (_hermite_config(32, full_suite=True, seed=0), dense16_config()):
        reports = run_suite(cfg)
        assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    modules = {f"rieszlab.{m}" for m in ("forms", "hermite", "operators", "suite", "systems")}
    assert lengths.keys() == modules
    assert max(n for seen in lengths.values() for n in seen) <= 8, lengths
