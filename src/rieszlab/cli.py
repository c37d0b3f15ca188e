"""Command-line entry point: rieszlab run / rieszlab example."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, AlphaSpec, OperatorSpec, config_to_dict, default_checks, parse_config
from .errors import ParseError
from .hermite import MAX_DIMENSION, MAX_DIMENSION_REASON
from .suite import emit_report, run_suite

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("RIESZLAB_LOG", "error").lower()
    logging.basicConfig(level=LOG_LEVELS.get(level, logging.ERROR), format="%(name)s %(levelname)s %(message)s")


def _hermite_config(dim: int, full_suite: bool, seed: int) -> RunConfig:
    operator = OperatorSpec("hermite-x")
    alpha = AlphaSpec("sqrt_n")
    checks = default_checks("hermite-x", "sqrt_n") if full_suite else ("biorthogonality", "hermite_oracle")
    # the truncated model's identities hold at 1e-6 (see README)
    return RunConfig(
        dimension=dim,
        operator=operator,
        alpha=alpha,
        tolerance=1e-6,
        seed=seed,
        checks=checks,
    )


def _emit(reports, cfg: RunConfig, fmt: str, out: str | None) -> None:
    config = config_to_dict(cfg) if fmt == "json" else None  # a CSV report has no config echo
    text = emit_report(reports, fmt=fmt, config=config)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(prog="rieszlab", description="Residual checks for biorthogonal systems")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the checks described by a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON run configuration")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    ex_p = sub.add_parser("example", help="run a built-in example model")
    ex_sub = ex_p.add_subparsers(dest="example", required=True)
    herm_p = ex_sub.add_parser("hermite", help="multiplication by 1 + x^2 in the Hermite basis")
    herm_p.add_argument("--dim", type=int, default=32)
    herm_p.add_argument("--full-suite", action="store_true", help="run every applicable check")
    herm_p.add_argument("--out", default=None)
    herm_p.add_argument("--format", choices=("json", "csv"), default="json")
    herm_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)

    if args.command == "example" and args.dim < 2:
        print("--dim must be >= 2", file=sys.stderr)
        return 2
    if args.command == "example" and args.dim > MAX_DIMENSION:
        print(f"--dim must be <= {MAX_DIMENSION}: {MAX_DIMENSION_REASON}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    if args.command == "run":
        try:
            cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        except ParseError as exc:
            print(f"invalid config at {exc.path}: {exc.reason}", file=sys.stderr)
            return 2
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    else:
        cfg = _hermite_config(args.dim, args.full_suite, args.seed)

    reports = run_suite(cfg)
    try:
        _emit(reports, cfg, args.format, args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
