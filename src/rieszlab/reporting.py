"""Named residual reports with tolerances and pass/fail verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .linalg import Blocks


@dataclass(frozen=True)
class CheckReport:
    """One named residual check: pass holds iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


def make_report(name, residual, tolerance, details=None) -> CheckReport:
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckReport(name=name, residual=residual, tolerance=tolerance, details=dict(details or {}))


def worst(values) -> float:
    """The largest of several residuals, as np.max gives it; NaN if any is NaN, where the builtin max may drop it.

    On the at most eight values a check passes, np.max keeps the last of
    equal values ([0.0, -0.0] gives -0.0) and the builtin max the first, so
    the values are read in reverse.
    """
    values = list(values)
    if any(v != v for v in values):
        return math.nan
    return float(max(reversed(values)))


def relative_frobenius(delta: Blocks, reference: Blocks) -> float:
    """||delta||_F / ||reference||_F, with the reference's norm floored at 1e-300."""
    return float(delta.frobenius() / max(reference.frobenius(), 1e-300))


def error_report(name, exc: Exception, tolerance: float) -> CheckReport:
    """A failed report standing in for a check that raised."""
    return make_report(name, math.inf, tolerance, details={"error": type(exc).__name__, "message": str(exc)})


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
