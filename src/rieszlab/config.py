"""Run configuration: JSON parsing with path-pointing diagnostics."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .errors import ParseError
from .hermite import MAX_DIMENSION, MAX_DIMENSION_REASON

SCHEMA = "rieszlab/1"
# Schema of a JSON report, whose config echo (config_to_dict) names bulk value lists by digest.
REPORT_SCHEMA = "rieszlab/3"

# A run keeps about LIVE_MATRICES N x N complex128 arrays alive at its peak
# (T with its SVD factors and inverse, both frame operators with their
# eigenvectors and roots, the operator set, products in flight): 23.7 at
# N = 128, dense complex T, by tracemalloc.  DIMENSION_LIMIT holds them
# within WORKING_SET_BYTES.
LIVE_MATRICES = 32
WORKING_SET_BYTES = 2 * 2**30
DIMENSION_LIMIT = math.isqrt(WORKING_SET_BYTES // (LIVE_MATRICES * 16))

OPERATOR_KINDS = ("diagonal", "dense", "hermite-x", "upper-unipotent")
ALPHA_KINDS = ("sqrt_n", "linear", "custom")

# Checks runnable for every operator, in report order.
GENERAL_CHECKS = (
    "adjoint_relations",
    "biorthogonality",
    "ccr",
    "clause_i3",
    "domain_mapping",
    "eigen",
    "frame_bounds",
    "hamiltonian_agreement",
    "k_relations",
    "ladder",
    "onb_reconstruction",
    "polar",
    "product_identities",
    "quasi_basis",
    "representation",
)
# Checks that need the dimension-extensible Hermite model.
HERMITE_CHECKS = ("frame_bound_growth", "hermite_oracle", "tail_dichotomy")
KNOWN_CHECKS = tuple(sorted(GENERAL_CHECKS + HERMITE_CHECKS))


class _ValueList:
    """A spec's `values` tuple, converted once to the array that every reader shares."""

    values: tuple

    @cached_property
    def array(self) -> np.ndarray:
        """The values as one read-only complex128 array, in list order."""
        array = np.asarray(self.values, dtype=np.complex128)
        array.setflags(write=False)
        return array


@dataclass(frozen=True)
class OperatorSpec(_ValueList):
    kind: str
    values: tuple = ()          # diagonal entries or flat row-major dense entries
    off_diagonal: float = 0.0   # upper-unipotent superdiagonal value


@dataclass(frozen=True)
class AlphaSpec(_ValueList):
    kind: str
    values: tuple = ()


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    operator: OperatorSpec
    alpha: AlphaSpec
    tolerance: float
    interior_margin: int
    seed: int
    checks: tuple[str, ...]


def default_checks(operator_kind: str, alpha_kind: str) -> tuple[str, ...]:
    names = [c for c in GENERAL_CHECKS if c != "ccr" or alpha_kind == "sqrt_n"]
    if operator_kind == "hermite-x":
        names.extend(HERMITE_CHECKS)
    return tuple(sorted(names))


def _expect(condition: bool, path: str, reason: str) -> None:
    if not condition:
        raise ParseError(path, reason)


def _decimal(n: int) -> str:
    """n in decimal, or its order of magnitude where str(n) would pass the interpreter's digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (Python before 3.10.7)
    magnitude = n.bit_length() * math.log10(2)  # within 1 of the digit count
    if limit and magnitude + 1 > limit:
        return f"about 10^{int(magnitude)}"
    return str(n)


def _as_number(value: Any, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(path, "integer overflows the float range") from None


def _as_complex(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], path), _as_number(value[1], path))
    raise ParseError(path, "must be a number or a [re, im] pair")


def _as_complex_tuple(values: list, path: str) -> tuple:
    """Each entry of a value list as a complex; a bad entry raises at f"{path}/{i}".

    [re, im] pairs of floats or ints, and floats and ints, are converted in the
    loop (the exact type tests leave bools out); any other entry, or an int
    beyond the float range, goes through _as_complex, which raises the
    ParseError.
    """
    out = []
    append = out.append
    for i, v in enumerate(values):
        kind = type(v)
        try:
            if kind is list and len(v) == 2:
                re, im = v
                if (type(re) is float or type(re) is int) and (type(im) is float or type(im) is int):
                    append(complex(re, im))
                    continue
            elif kind is float or kind is int:
                append(complex(v))
                continue
        except OverflowError:
            pass
        append(_as_complex(v, f"{path}/{i}"))
    return tuple(out)


def _parse_operator(raw: Any, dimension: int) -> OperatorSpec:
    _expect(isinstance(raw, dict), "/operator", "must be an object")
    kind = raw.get("kind")
    _expect(kind in OPERATOR_KINDS, "/operator/kind", f"must be one of {list(OPERATOR_KINDS)}")
    allowed = {"kind"}
    if kind == "diagonal":
        allowed.add("values")
        values = raw.get("values")
        _expect(isinstance(values, list), "/operator/values", "must be a list of numbers")
        if len(values) != dimension:
            raise ParseError("/operator/values", f"needs exactly {dimension} entries, got {len(values)}")
        spec = OperatorSpec(kind, values=_as_complex_tuple(values, "/operator/values"))
    elif kind == "dense":
        allowed.add("entries")
        entries = raw.get("entries")
        _expect(isinstance(entries, list), "/operator/entries", "must be a flat row-major list")
        if len(entries) != dimension * dimension:
            count = _decimal(dimension * dimension)
            raise ParseError("/operator/entries", f"needs exactly {count} entries, got {len(entries)}")
        spec = OperatorSpec(kind, values=_as_complex_tuple(entries, "/operator/entries"))
    elif kind == "upper-unipotent":
        allowed.add("off_diagonal")
        spec = OperatorSpec(kind, off_diagonal=_as_number(raw.get("off_diagonal", 1.0), "/operator/off_diagonal"))
    else:
        spec = OperatorSpec(kind)
    for key in raw:
        _expect(key in allowed, f"/operator/{key}", f"unknown field for kind {kind!r}")
    return spec


def _parse_alpha(raw: Any, dimension: int) -> AlphaSpec:
    if raw is None:
        return AlphaSpec("sqrt_n")
    _expect(isinstance(raw, dict), "/alpha", "must be an object")
    kind = raw.get("kind")
    _expect(kind in ALPHA_KINDS, "/alpha/kind", f"must be one of {list(ALPHA_KINDS)}")
    allowed = {"kind"}
    if kind == "custom":
        allowed.add("values")
        values = raw.get("values")
        _expect(isinstance(values, list), "/alpha/values", "must be a list")
        if len(values) < dimension:
            raise ParseError("/alpha/values", f"needs at least {dimension} entries, got {len(values)}")
        spec = AlphaSpec(kind, values=_as_complex_tuple(values, "/alpha/values"))
    else:
        spec = AlphaSpec(kind)
    for key in raw:
        _expect(key in allowed, f"/alpha/{key}", f"unknown field for kind {kind!r}")
    return spec


def _reject_constant(name: str):
    raise ParseError("/", f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError("/", f"number {text} overflows to {value}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ParseError carrying the JSON path of the first offence.
    Non-finite numbers (NaN, +-Infinity, or a literal that overflows) are
    rejected wherever they appear.
    """
    try:
        raw = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the interpreter's digit limit
        raise ParseError("/", f"invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "/", "top level must be an object")

    known = {"schema", "dimension", "operator", "alpha", "tolerance", "interior_margin", "seed", "checks"}
    for key in raw:
        _expect(key in known, f"/{key}", "unknown field")

    schema = raw.get("schema")
    _expect(schema is None or schema == SCHEMA, "/schema", f"must be {SCHEMA!r}")

    dimension = raw.get("dimension")
    _expect(isinstance(dimension, int) and not isinstance(dimension, bool), "/dimension", "must be an integer")
    _expect(dimension >= 2, "/dimension", "must be >= 2")

    _expect("operator" in raw, "/operator", "is required")
    operator = _parse_operator(raw["operator"], dimension)
    _expect(
        operator.kind != "hermite-x" or dimension <= MAX_DIMENSION,
        "/dimension",
        f"hermite-x needs dimension <= {MAX_DIMENSION}: {MAX_DIMENSION_REASON}",
    )
    _expect(
        dimension <= DIMENSION_LIMIT,
        "/dimension",
        f"must be <= {DIMENSION_LIMIT}: a run keeps about {LIVE_MATRICES} N x N complex matrices live, "
        f"{WORKING_SET_BYTES // 2**30} GiB at that size",
    )
    alpha = _parse_alpha(raw.get("alpha"), dimension)

    tolerance = raw.get("tolerance", 1e-8)
    tolerance = _as_number(tolerance, "/tolerance")
    _expect(tolerance > 0, "/tolerance", "must be positive")

    margin = raw.get("interior_margin", dimension // 2)
    _expect(isinstance(margin, int) and not isinstance(margin, bool), "/interior_margin", "must be an integer")
    _expect(0 <= margin < dimension, "/interior_margin", "must satisfy 0 <= margin < dimension")

    seed = raw.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "/seed", "must be an integer")
    _expect(seed >= 0, "/seed", "must be nonnegative")

    checks_raw = raw.get("checks")
    if checks_raw is None:
        checks = default_checks(operator.kind, alpha.kind)
    else:
        _expect(isinstance(checks_raw, list), "/checks", "must be a list of check names")
        _expect(len(checks_raw) > 0, "/checks", "must not be empty")
        for i, name in enumerate(checks_raw):
            _expect(name in KNOWN_CHECKS, f"/checks/{i}", "unknown check")
            if name in HERMITE_CHECKS:
                _expect(
                    operator.kind == "hermite-x",
                    f"/checks/{i}",
                    f"check {name!r} requires the hermite-x operator",
                )
            if name == "ccr":
                _expect(alpha.kind == "sqrt_n", f"/checks/{i}", "ccr requires the sqrt_n alpha kind")
        checks = tuple(dict.fromkeys(checks_raw))

    return RunConfig(
        dimension=dimension,
        operator=operator,
        alpha=alpha,
        tolerance=tolerance,
        interior_margin=margin,
        seed=seed,
        checks=checks,
    )


def _digest(spec: _ValueList) -> dict:
    """A bulk value list by its length and the sha256 of its complex128 array, little-endian, in order."""
    data = np.asarray(spec.array, dtype="<c16").tobytes()
    return {"count": len(spec.values), "sha256": hashlib.sha256(data).hexdigest()}


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready echo of a validated configuration; bulk value lists appear by digest."""
    operator: dict[str, Any] = {"kind": cfg.operator.kind}
    if cfg.operator.kind == "diagonal":
        operator["values"] = _digest(cfg.operator)
    elif cfg.operator.kind == "dense":
        operator["entries"] = _digest(cfg.operator)
    elif cfg.operator.kind == "upper-unipotent":
        operator["off_diagonal"] = cfg.operator.off_diagonal
    alpha: dict[str, Any] = {"kind": cfg.alpha.kind}
    if cfg.alpha.kind == "custom":
        alpha["values"] = _digest(cfg.alpha)
    return {
        "schema": SCHEMA,
        "dimension": cfg.dimension,
        "operator": operator,
        "alpha": alpha,
        "tolerance": cfg.tolerance,
        "interior_margin": cfg.interior_margin,
        "seed": cfg.seed,
        "checks": list(cfg.checks),
    }
