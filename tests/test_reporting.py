"""A JSON report is json.dumps(doc, sort_keys=True, indent=2) of schema rieszlab/3, with a newline."""

import json

import numpy as np

from rieszlab import parse_config, run_suite
from rieszlab.config import config_to_dict
from rieszlab.reporting import report_as_dict
from rieszlab.suite import emit_report


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
        "schema": "rieszlab/3",
        "config": config,
        "reports": [report_as_dict(r) for r in sorted(reports, key=lambda r: r.name)],
    }
    assert emit_report(reports, fmt="json", config=config) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert config["operator"]["entries"]["count"] == 256
    assert config["alpha"]["values"]["count"] == 16
