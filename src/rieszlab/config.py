"""Run configuration: JSON parsing with path-pointing diagnostics."""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ParseError
from .hermite import MAX_DIMENSION, MAX_DIMENSION_REASON
from .suite import KNOWN_CHECKS, default_checks, inapplicable

SCHEMA = "rieszlab/1"

# A run keeps about LIVE_MATRICES N x N complex128 arrays alive at its peak
# (T with its SVD factors and inverse, both frame operators with their
# eigenvectors and roots, the operator set, products in flight): 17.7 at
# N = 128, dense complex T, by tracemalloc over a warm run_suite, with each
# stage dropped after its last reader.  DIMENSION_LIMIT holds them within
# WORKING_SET_BYTES.
LIVE_MATRICES = 32
WORKING_SET_BYTES = 2 * 2**30
DIMENSION_LIMIT = math.isqrt(WORKING_SET_BYTES // (LIVE_MATRICES * 16))

OPERATOR_KINDS = ("diagonal", "dense", "hermite-x", "upper-unipotent")
ALPHA_KINDS = ("sqrt_n", "linear", "custom")


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    values: np.ndarray | None = None   # read-only complex128: diagonal entries or flat row-major dense entries
    off_diagonal: float = 0.0           # upper-unipotent superdiagonal value


@dataclass(frozen=True)
class AlphaSpec:
    kind: str
    values: np.ndarray | None = None   # read-only complex128 custom values


@dataclass(frozen=True)
class RunConfig:
    dimension: int
    operator: OperatorSpec
    alpha: AlphaSpec
    tolerance: float
    seed: int
    checks: tuple[str, ...]


def _expect(condition: bool, path: str, reason: str) -> None:
    if not condition:
        raise ParseError(path, reason)


def _as_number(value: Any, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(path, "integer overflows the float range") from None
    _expect(math.isfinite(number), path, f"must be a finite number, got {number}")
    return number


def _as_complex(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_number(value, path))
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], path), _as_number(value[1], path))
    raise ParseError(path, "must be a number or a [re, im] pair")


def _as_complex_array(values: list, path: str) -> np.ndarray:
    """A value list as one read-only complex128 array, in list order; a bad entry raises at f"{path}/{i}".

    Finite [re, im] pairs of floats or ints, and finite floats and ints, are
    converted in the loop (the exact type tests leave bools out); any other
    entry, a non-finite one, or an int beyond the float range, goes through
    _as_complex, which raises the ParseError.
    """
    out = []
    append = out.append
    finite = cmath.isfinite
    for i, v in enumerate(values):
        kind = type(v)
        try:
            if kind is list and len(v) == 2:
                re, im = v
                if (type(re) is float or type(re) is int) and (type(im) is float or type(im) is int):
                    c = complex(re, im)
                    if finite(c):
                        append(c)
                        continue
            elif kind is float or kind is int:
                c = complex(v)
                if finite(c):
                    append(c)
                    continue
        except OverflowError:
            pass
        append(_as_complex(v, f"{path}/{i}"))
    array = np.array(out, dtype=np.complex128)
    array.setflags(write=False)
    return array


def _parse_operator(raw: Any, dimension: int) -> OperatorSpec:
    """The operator spec; its kind and the dimension limits are checked before any value list is read."""
    _expect(isinstance(raw, dict), "/operator", "must be an object")
    kind = raw.get("kind")
    _expect(kind in OPERATOR_KINDS, "/operator/kind", f"must be one of {list(OPERATOR_KINDS)}")
    _expect(
        kind != "hermite-x" or dimension <= MAX_DIMENSION,
        "/dimension",
        f"hermite-x needs dimension <= {MAX_DIMENSION}: {MAX_DIMENSION_REASON}",
    )
    _expect(
        dimension <= DIMENSION_LIMIT,
        "/dimension",
        f"must be <= {DIMENSION_LIMIT}: a run keeps about {LIVE_MATRICES} N x N complex matrices live, "
        f"{WORKING_SET_BYTES // 2**30} GiB at that size",
    )
    allowed = {"kind"}
    if kind == "diagonal":
        allowed.add("values")
        values = raw.get("values")
        _expect(isinstance(values, list), "/operator/values", "must be a list of numbers")
        if len(values) != dimension:
            raise ParseError("/operator/values", f"needs exactly {dimension} entries, got {len(values)}")
        spec = OperatorSpec(kind, values=_as_complex_array(values, "/operator/values"))
    elif kind == "dense":
        allowed.add("entries")
        entries = raw.get("entries")
        _expect(isinstance(entries, list), "/operator/entries", "must be a flat row-major list")
        if len(entries) != dimension * dimension:
            raise ParseError("/operator/entries", f"needs exactly {dimension * dimension} entries, got {len(entries)}")
        spec = OperatorSpec(kind, values=_as_complex_array(entries, "/operator/entries"))
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
        spec = AlphaSpec(kind, values=_as_complex_array(values, "/alpha/values"))
    else:
        spec = AlphaSpec(kind)
    for key in raw:
        _expect(key in allowed, f"/alpha/{key}", f"unknown field for kind {kind!r}")
    return spec


def _as_seed(value: Any) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool), "/seed", "must be an integer")
    _expect(value >= 0, "/seed", "must be nonnegative")
    return value


def parse_config(text: str, seed: int | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration; a seed given here replaces the document's.

    Raises ParseError carrying the JSON path of the first offence; the
    document's seed and the one given here are both validated at /seed.  A
    non-finite number (NaN, +-Infinity, or a literal that overflows) is
    rejected at the path of the value it stands for.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int literal past the interpreter's digit limit
        raise ParseError("/", f"invalid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "/", "top level must be an object")

    known = {"schema", "dimension", "operator", "alpha", "tolerance", "seed", "checks"}
    for key in raw:
        _expect(key in known, f"/{key}", "unknown field")

    schema = raw.get("schema")
    _expect(schema is None or schema == SCHEMA, "/schema", f"must be {SCHEMA!r}")

    dimension = raw.get("dimension")
    _expect(isinstance(dimension, int) and not isinstance(dimension, bool), "/dimension", "must be an integer")
    _expect(dimension >= 2, "/dimension", "must be >= 2")

    _expect("operator" in raw, "/operator", "is required")
    operator = _parse_operator(raw["operator"], dimension)
    alpha = _parse_alpha(raw.get("alpha"), dimension)

    tolerance = raw.get("tolerance", 1e-8)
    tolerance = _as_number(tolerance, "/tolerance")
    _expect(tolerance > 0, "/tolerance", "must be positive")

    document_seed = _as_seed(raw.get("seed", 0))
    seed = document_seed if seed is None else _as_seed(seed)

    checks_raw = raw.get("checks")
    if checks_raw is None:
        checks = default_checks(operator.kind, alpha.kind)
    else:
        _expect(isinstance(checks_raw, list), "/checks", "must be a list of check names")
        _expect(len(checks_raw) > 0, "/checks", "must not be empty")
        for i, name in enumerate(checks_raw):
            _expect(name in KNOWN_CHECKS, f"/checks/{i}", "unknown check")
            reason = inapplicable(name, operator.kind, alpha.kind)
            _expect(reason is None, f"/checks/{i}", reason)
        checks = tuple(dict.fromkeys(checks_raw))

    return RunConfig(
        dimension=dimension,
        operator=operator,
        alpha=alpha,
        tolerance=tolerance,
        seed=seed,
        checks=checks,
    )


def _digest(values: np.ndarray) -> dict:
    """A bulk value list by its length and the sha256 of its complex128 array, little-endian, in order."""
    data = np.asarray(values, dtype="<c16").tobytes()
    return {"count": values.size, "sha256": hashlib.sha256(data).hexdigest()}


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-ready echo of a validated configuration; bulk value lists appear by digest."""
    operator: dict[str, Any] = {"kind": cfg.operator.kind}
    if cfg.operator.kind == "diagonal":
        operator["values"] = _digest(cfg.operator.values)
    elif cfg.operator.kind == "dense":
        operator["entries"] = _digest(cfg.operator.values)
    elif cfg.operator.kind == "upper-unipotent":
        operator["off_diagonal"] = cfg.operator.off_diagonal
    alpha: dict[str, Any] = {"kind": cfg.alpha.kind}
    if cfg.alpha.kind == "custom":
        alpha["values"] = _digest(cfg.alpha.values)
    return {
        "schema": SCHEMA,
        "dimension": cfg.dimension,
        "operator": operator,
        "alpha": alpha,
        "tolerance": cfg.tolerance,
        "seed": cfg.seed,
        "checks": list(cfg.checks),
    }
