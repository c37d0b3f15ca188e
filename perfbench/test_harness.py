"""Tests of the benchmark harness: tracing must not change the program it measures.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

from rieszlab import cli  # noqa: E402

EXACT_PREFIXES = ("linalg.", "operators.", "hermite.", "forms.")


def _one_round(tmp_path: Path) -> Runner:
    spec = workloads.generate("small-mixed", 7, tmp_path)
    return Runner(cli.main, spec["rounds"][:1], tmp_path / "report.out")


def _traced_pass(runner: Runner) -> dict:
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", runner.main)
    for i in range(len(runner.rounds[0])):
        with tracer.installed():
            runner.run((0, i), main)
    return tracing.summarize(tracer.spans)


def test_traced_reports_match_plain_reports_and_names_are_restored(tmp_path):
    runner = _one_round(tmp_path)
    for i in range(len(runner.rounds[0])):
        runner.run((0, i))
    before = tracing.bindings_snapshot()
    summary = _traced_pass(runner)
    assert tracing.bindings_snapshot() == before
    # Every traced report was compared byte for byte with its plain twin.
    assert runner.failures == []
    assert runner.attempted == 2 * len(runner.rounds[0])
    assert summary["count"]["suite.check.tail_dichotomy"] == 3
    assert summary["count"]["linalg.svd"] > 0


def test_exact_counts_repeat_between_traced_runs(tmp_path):
    runner = _one_round(tmp_path)
    first, second = _traced_pass(runner)["count"], _traced_pass(runner)["count"]
    exact = {k: v for k, v in first.items() if k.startswith(EXACT_PREFIXES)}
    assert exact == {k: v for k, v in second.items() if k.startswith(EXACT_PREFIXES)}
    assert runner.failures == []


def test_error_path_is_traced_and_untouched(tmp_path):
    runner = _one_round(tmp_path)
    singular = len(runner.rounds[0]) - 1
    assert runner.rounds[0][singular]["exit"] == 1
    runner.run((0, singular))
    tracer = tracing.Tracer()
    with tracer.installed():
        runner.run((0, singular), tracer.wrap("cli.main", runner.main))
    assert runner.failures == []
    names = {span[0] for span in tracer.spans}
    assert "suite.check.polar" in names and "suite.after_checks" not in names


def test_mismatched_verdicts_are_failures(tmp_path):
    runner = _one_round(tmp_path)
    op = runner.rounds[0][0]
    op["checks"] = dict(op["checks"], polar="error")
    runner.run((0, 0))
    assert len(runner.failures) == 1 and "polar" in runner.failures[0]
