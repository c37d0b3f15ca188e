"""One workload process: import rieszlab, make the warm-up call, then measure.

Usage: python3 perfbench/worker.py MANIFEST MODE SECONDS RESULT

MODE is "setup" (import and warm-up call only), "loop" (the closed loop:
whole rounds of the workload's inputs, one call at a time, until SECONDS
have passed) or "trace" (each input of a fixed list run once plain and once
traced).  The raw measurements are written to RESULT as JSON; run.py turns
them into metrics.  Every call's exit status, per-check verdicts and report
bytes are checked here.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

CSV_HEADER = "name,residual,tolerance,pass"


def verdicts(fmt: str, data: bytes) -> list[tuple[str, str]]:
    """(check, "pass" | "fail" | "error") for every report row; an error row has residual inf."""
    text = data.decode("utf-8")
    if fmt == "json":
        rows = [(r["name"], r["pass"], r["residual"]) for r in json.loads(text)["reports"]]
    else:
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing CSV header")
        rows = []
        for line in lines[1:]:
            name, residual, _, passed = line.split(",")
            rows.append((name, passed == "true", residual))
    return [(name, "pass" if passed else "error" if residual == "inf" else "fail")
            for name, passed, residual in rows]


class Runner:
    """Calls the CLI on the workload's inputs and checks every output."""

    def __init__(self, main, rounds: list, out: Path):
        self.main = main
        self.rounds = rounds
        self.out = out
        self.digests: dict[tuple, str] = {}   # input -> sha256 of its first report
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, key: tuple[int, int], call=None) -> tuple[float, int]:
        """One operation on input key = (round, index); returns its wall seconds and report size."""
        op = self.rounds[key[0]][key[1]]
        self.out.unlink(missing_ok=True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            status = (call or self.main)(op["argv"] + ["--out", str(self.out)])
        except (Exception, SystemExit) as exc:   # a crash is a failed operation, not the end of the run
            self.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, 0
        elapsed = time.perf_counter() - start
        data = self.out.read_bytes() if self.out.exists() else b""
        reason = self._mismatch(key, op, status, data)
        if reason:
            self.failures.append(f"{key}: {reason}")
        return elapsed, len(data)

    def _mismatch(self, key, op, status, data) -> str | None:
        if status != op["exit"]:
            return f"exit status {status}, expected {op['exit']}"
        digest = hashlib.sha256(data).hexdigest()
        if key in self.digests:
            # Same bytes as a report already checked, so the same verdicts.
            return None if self.digests[key] == digest else "report bytes differ from an earlier run of the same input"
        try:
            got = verdicts(op["format"], data)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        found = dict(got)
        if found != op["checks"] or len(got) != len(found):
            wrong = sorted(n for n in found.keys() | op["checks"].keys() if found.get(n) != op["checks"].get(n))
            return f"verdicts differ from the expected ones on {wrong or 'a repeated check'}"
        self.digests[key] = digest
        return None


def closed_loop(runner: Runner, seconds: float) -> dict:
    durations, sizes = [], []
    rounds = len(runner.rounds)
    done = 0
    start = time.monotonic()
    while True:
        r = done % rounds
        for i in range(len(runner.rounds[r])):
            elapsed, size = runner.run((r, i))
            durations.append(elapsed)
            sizes.append(size)
        done += 1
        if time.monotonic() - start >= seconds:
            break
    return {"durations": durations, "sizes": sizes,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def traced_comparison(runner: Runner, manifest: dict, seconds: float) -> dict:
    """Each input once plain and once traced, alternating which goes first.

    The input list depends only on the seed and SECONDS, so the traced
    counts repeat exactly between runs; the runner's byte comparison shows
    that tracing leaves every report unchanged.
    """
    import tracing

    tracer = tracing.Tracer()
    traced_main = tracer.wrap("cli.main", runner.main)
    rounds = [r % len(runner.rounds) for r in range(max(1, round(seconds / (2 * manifest["round_s"]))))]
    keys = [(r, i) for r in rounds for i in range(len(runner.rounds[r]))]
    before = tracing.bindings_snapshot()
    plain_s = traced_s = 0.0
    for n, key in enumerate(keys):
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    elapsed, _ = runner.run(key, traced_main)
                traced_s += elapsed
            else:
                elapsed, _ = runner.run(key)
                plain_s += elapsed
    if tracing.bindings_snapshot() != before:
        runner.failures.append("tracing left a rieszlab or numpy.linalg name replaced")
    Path(manifest["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return {"ops": len(keys), "plain_s": plain_s, "traced_s": traced_s,
            "summary": tracing.summarize(tracer.spans)}


def _blas_threads(numpy) -> int | None:
    """Thread count in effect in numpy's bundled OpenBLAS (no threadpoolctl here)."""
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return caches


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
    }


def main(argv: list[str]) -> int:
    manifest_path, mode, seconds, result_path = argv
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))

    import rieszlab
    from rieszlab import cli

    if Path(rieszlab.__file__).resolve().parent != (Path(manifest["src"]) / "rieszlab").resolve():
        print(f"rieszlab imported from {rieszlab.__file__}, not from the checkout", file=sys.stderr)
        return 2
    runner = Runner(cli.main, manifest["rounds"], Path(manifest["workdir"]) / f"report-{os.getpid()}.out")
    warmup = tuple(manifest["warmup"])
    runner.run(warmup)
    result = {"ready": time.monotonic(), "warmup_digest": runner.digests.get(warmup)}
    if mode == "loop":
        result |= closed_loop(runner, float(seconds))
    elif mode == "trace":
        result |= traced_comparison(runner, manifest, float(seconds))
    if mode != "setup":
        result["env"] = environment()
    result |= {"attempted": runner.attempted, "failures": runner.failures}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
