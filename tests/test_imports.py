"""Import boundary: no run loads scipy, the Hermite model included."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from rieszlab.sampling import stream_rng

from helpers import dense16_payload, random_conditioned_map

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs cli.main on each argv list given as JSON in sys.argv[1] and prints,
# per run, its exit code and the scipy modules loaded so far.
RUNNER = """
import json, sys
from rieszlab import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def run_fresh(runs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_non_hermite_runs_never_load_scipy(tmp_path):
    # dense16 is CI's dense complex T with complex custom alpha, in both formats
    t = np.asarray(random_conditioned_map(8, 10.0, stream_rng(8)))
    payloads = {
        "dense": {"dimension": 8, "operator": {"kind": "dense", "entries": [[v.real, v.imag] for v in t.ravel()]}},
        "diagonal": {"dimension": 8, "operator": {"kind": "diagonal", "values": [1, 2, 3, 4, 5, 6, 7, 8]}},
        "upper-unipotent": {"dimension": 8, "operator": {"kind": "upper-unipotent", "off_diagonal": 0.5}},
        "dense16": dense16_payload(),
    }
    runs = []
    for name, payload in payloads.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        for fmt in ("json", "csv"):
            runs.append(["run", "--config", str(config), "--format", fmt, "--out", str(tmp_path / f"{name}-report.{fmt}")])
    assert run_fresh(runs) == [[0, []]] * len(runs)


def test_hermite_full_suite_never_loads_scipy(tmp_path):
    runs = [
        ["example", "hermite", "--dim", dim, "--full-suite", "--format", fmt, "--out", str(tmp_path / f"{dim}.{fmt}")]
        for dim in ("8", "32")
        for fmt in ("json", "csv")
    ]
    assert run_fresh(runs) == [[0, []]] * len(runs)
