"""Named residual reports with tolerances and pass/fail verdicts."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckReport:
    """One named residual check: pass holds iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def make_report(name, residual, tolerance, details=None) -> CheckReport:
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        residual=residual,
        tolerance=tolerance,
        passed=bool(residual <= tolerance),
        details=dict(details or {}),
    )


def error_report(name, exc: Exception, tolerance: float) -> CheckReport:
    """A failed report standing in for a check that raised."""
    return CheckReport(
        name=name,
        residual=math.inf,
        tolerance=float(tolerance),
        passed=False,
        details={"error": type(exc).__name__, "message": str(exc)},
    )


def format_quantity(value) -> object:
    """17-significant-digit decimal string for floats; other values pass through."""
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return value
    if isinstance(value, complex):
        return f"{value.real:.17g}{value.imag:+.17g}j"
    return format(float(value), ".17g")


def report_as_dict(report: CheckReport) -> dict:
    return {
        "name": report.name,
        "residual": format_quantity(report.residual),
        "tolerance": format_quantity(report.tolerance),
        "pass": report.passed,
        "details": {k: format_quantity(v) for k, v in sorted(report.details.items())},
    }


def json_text(doc) -> str:
    """Exactly json.dumps(doc, sort_keys=True, indent=2) for a document with string keys.

    With indent set, the stdlib runs its pure-Python encoder, one generator
    step per item.  This writer joins each container's items in one pass and
    writes a finite float, or a [re, im] pair of finite floats, in a list as
    one f-string; every other scalar goes through json.dumps.  Joining each
    list as soon as it is written frees its item strings early: collecting
    the whole document in one chunk list raised the peak RSS of a dense
    N=128 run loop by about 0.7 MB.
    """
    return _json_text(doc, "\n")


def _json_text(value, newline: str) -> str:
    # newline is "\n" followed by the indentation of the line holding value.
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [f"{json.dumps(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        pair_inner = inner + "  "
        inf = math.inf
        items = []
        append = items.append
        for v in value:
            kind = type(v)
            if kind is list and len(v) == 2:
                re, im = v
                if type(re) is float and type(im) is float and -inf < re < inf and -inf < im < inf:
                    append(f"[{pair_inner}{re!r},{pair_inner}{im!r}{inner}]")
                    continue
            elif kind is float and -inf < v < inf:
                append(f"{v!r}")
                continue
            append(_json_text(v, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value)
