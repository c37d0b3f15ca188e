"""Command-line entry point: rieszlab run / rieszlab example."""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from .config import RunConfig, config_to_dict, parse_config
from .errors import ParseError
from .suite import emit_report, run_suite

LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("RIESZLAB_LOG", "error").lower()
    logging.basicConfig(level=LOG_LEVELS.get(level, logging.ERROR), format="%(name)s %(levelname)s %(message)s")


def _hermite_config(dim: int, full_suite: bool, seed: int) -> RunConfig:
    # the truncated model's identities hold at 1e-6 (see README)
    document = {"dimension": dim, "operator": {"kind": "hermite-x"}, "tolerance": 1e-6, "seed": seed}
    if not full_suite:
        document["checks"] = ["biorthogonality", "hermite_oracle"]
    return parse_config(json.dumps(document))


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

    try:
        if args.command == "run":
            cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), seed=args.seed)
        else:
            cfg = _hermite_config(args.dim, args.full_suite, args.seed)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"invalid config at {exc.path}: {exc.reason}", file=sys.stderr)
        return 2

    reports = run_suite(cfg)
    try:
        _emit(reports, cfg, args.format, args.out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
