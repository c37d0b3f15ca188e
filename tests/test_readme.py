"""The README's examples hold as written: the library example, the digest recipe and the sample report."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rieszlab.cli import main

from helpers import random_conditioned_map, stream_rng

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(language: str, marker: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    (block,) = [b for b in blocks if marker in b]
    return block


def python_block(marker: str) -> str:
    return fenced_block("python", marker)


def test_library_example_prints_what_its_comments_say(capsys):
    block = python_block("build_system")
    exec(compile(block, str(README), "exec"), {})
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


def test_digest_recipe_ties_a_dense_config_to_its_report(tmp_path, monkeypatch):
    block = python_block("sha256")
    t = np.asarray(random_conditioned_map(4, 10.0, stream_rng(70))).ravel()
    # a plain number and [re, im] pairs, the two spellings the recipe reads
    entries = [float(t[0].real), *([float(v.real), float(v.imag)] for v in t[1:])]
    config = {"dimension": 4, "operator": {"kind": "dense", "entries": entries}, "checks": ["biorthogonality"]}
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", "config.json", "--out", "report.json"]) == 0
    exec(compile(block, str(README), "exec"), {})
    # one entry moved by one unit in the last place no longer matches the report
    entries[1][0] = math.nextafter(entries[1][0], math.inf)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    with pytest.raises(AssertionError):
        exec(compile(block, str(README), "exec"), {})


def test_sample_report_is_the_report_of_its_config(tmp_path, monkeypatch):
    sample = json.loads(fenced_block("json", '"reports"'))
    config = {"dimension": 3, "operator": {"kind": "diagonal", "values": [1, 2, 3]}, "checks": ["biorthogonality"]}
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["run", "--config", "config.json", "--out", "report.json"]) == 0
    assert sample == json.loads(Path("report.json").read_text(encoding="utf-8"))
