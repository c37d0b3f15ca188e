"""rieszlab benchmark: drives the `rieszlab` CLI in-process on seeded inputs.

Usage, from the root of a rieszlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are generated from the seed before any timing starts (see
workloads.py).  One client runs them in a closed loop: a single process
calls `rieszlab.cli.main(argv)`, each call waiting for the previous one.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json: set-up
time is the median over SETUP_SAMPLES fresh interpreters of the time to
import rieszlab and finish one warm-up call; the last of those processes
goes on to run the closed loop for S seconds.  --trace 1 reports the
per-layer metrics from a separate run in which every input is executed
once plain and once under the tracer (tracing.py), per operation.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The exit status is 0 only if every output matched its
expected exit status, verdicts and earlier bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0   # every run must end within 180 s
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(src: Path) -> dict:
    """The workers' environment: this checkout's sources, quiet logging, BLAS threads <= nproc."""
    env = dict(os.environ, PYTHONPATH=str(src), RIESZLAB_LOG="error")
    nproc = len(os.sched_getaffinity(0))
    for name in THREAD_VARIABLES:
        value = env.get(name, "")
        if value.isdigit() and int(value) > nproc:
            env[name] = str(nproc)
    return env


def spawn(mode: str, manifest_path: Path, seconds: int, env: dict, deadline: float) -> dict:
    result_path = manifest_path.with_name(f"result-{mode}-{time.monotonic_ns()}.json")
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest_path), mode, str(seconds), str(result_path)],
        env=env, stdout=sys.stderr, check=True, timeout=max(1.0, deadline - started),
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    # time.monotonic is one system-wide clock on Linux, so the child's stamp
    # measures interpreter start, import and warm-up call together.
    result["setup_s"] = result["ready"] - started
    return result


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(results: list[dict]) -> dict:
    loop = results[-1]
    durations = loop["durations"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "run_s.p50": statistics.median(durations),
        "run_s.p90": p90(durations),
        "runs_per_s": len(durations) / sum(durations),
        "report_bytes": statistics.fmean(loop["sizes"]),
        "peak_rss_mb": loop["peak_rss_kib"] / 1024.0,
    }


def per_layer(result: dict, names: list[str]) -> dict:
    """Per-operation values of the named metrics, from the traced run's span summary.

    `<span>.s` is inclusive seconds, `<span>.count` the number of spans,
    `<layer>.self_s` the layer's self time, `trace.overhead_s` the traced
    minus the plain wall time of the same calls.
    """
    ops = result["ops"]
    summary = result["summary"]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            value = result["traced_s"] - result["plain_s"]
        elif name.endswith(".self_s"):
            value = summary["self"].get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".count"):
            value = summary["count"].get(name[: -len(".count")], 0)
        elif name.endswith(".s"):
            value = summary["total"].get(name[: -len(".s")], 0.0)
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
        values[name] = value / ops
    return values


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "rieszlab" / "__init__.py").is_file():
        print("perfbench: src/rieszlab not found; run from the root of a rieszlab checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics_spec = declared["per_layer" if args.trace else "end_to_end"]

    out_dir = root / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        manifest = workloads.generate(args.workload, args.seed, workdir)
        manifest |= {"src": str(src), "workdir": str(workdir),
                     "spans": str(out_dir / f"spans-{args.workload}-s{args.seed}.json")}
        manifest_path = workdir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        env = child_env(src)
        modes = ["trace"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["loop"]
        results = [spawn(mode, manifest_path, args.seconds, env, deadline) for mode in modes]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in results for f in r["failures"]]
    if len({r["warmup_digest"] for r in results}) != 1:
        failures.append("warm-up report bytes differ between processes")
    attempted = sum(r["attempted"] for r in results)
    computed = per_layer(results[-1], [m["name"] for m in metrics_spec]) if args.trace else end_to_end(results)

    print("env " + json.dumps(results[-1]["env"], sort_keys=True))
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    for spec in metrics_spec:
        print(f"{spec['name']:<44} {computed[spec['name']]:>14.6g} {spec['unit']}")
    print(f"{'failed_frac':<44} {len(failures) / attempted:>14.6g} 1")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {s["name"]: {"value": computed[s["name"]], "unit": s["unit"]} for s in metrics_spec},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
