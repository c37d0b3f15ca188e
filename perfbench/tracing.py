"""Spans around calls into rieszlab's modules, installed from outside the package.

The tracer replaces each traced function on every name its callers look it
up by: each module-level binding of the function object in the rieszlab
modules (so `invert` is wrapped in `systems`, `operators`, `hermite`, ...),
the `numpy.linalg` entry points the package calls as `np.linalg.<name>`, and
`LinearMap.__init__` for map constructions.  Check boundaries come from the
INFO record `run_suite` logs on the `rieszlab` logger after each check; a
check's span opens where the previous one closed, so shared objects built
lazily inside a check are its child spans.

Spans are (name, start, end, parent index) and stay in memory until the
run writes them out.  Everything installed is removed on exit from
`Tracer.installed()`, which then checks that every binding is the original.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every traced function, with its span name.  The
# span name's first component is the layer its self time is charged to.
TRACED_FUNCTIONS = {
    ("rieszlab.config", "parse_config"): "config.parse",
    ("rieszlab.suite", "run_suite"): "suite.run",
    ("rieszlab.suite", "build_operator"): "suite.build_operator",
    ("rieszlab.suite", "emit_report"): "reporting.emit",
    ("rieszlab.systems", "build_system"): "systems.build_system",
    ("rieszlab.systems", "build_frame_operators"): "systems.build_frame_operators",
    ("rieszlab.systems", "family_matrix"): "systems.family_matrix",
    ("rieszlab.operators", "build_operator_set"): "operators.build_operator_set",
    ("rieszlab.operators", "transform"): "operators.transform",
    ("rieszlab.operators", "product_identity_check"): "operators.product_identity_check",
    ("rieszlab.operators", "adjoint_relation_check"): "operators.adjoint_relation_check",
    ("rieszlab.linalg", "invert"): "linalg.invert",
    ("rieszlab.hermite", "quadrature_gram"): "hermite.quadrature_gram",
    ("rieszlab.hermite", "tail_family"): "hermite.tail_family",
    ("rieszlab.forms", "omega"): "forms.omega",
    ("rieszlab.forms", "tail_diagnostic"): "forms.tail_diagnostic",
    ("rieszlab.forms", "frame_bounds"): "forms.frame_bounds",
}
# Factorizations, wrapped on numpy.linalg because the package calls them as np.linalg.<name>.
NUMPY_FUNCTIONS = {
    "svd": "linalg.svd",
    "eigh": "linalg.eigh",
    "eigvalsh": "linalg.eigvalsh",
    "matrix_power": "linalg.matrix_power",
}
# Aggregate span names: their totals are the sum of the listed spans.
DERIVED = {"linalg.factor": ("linalg.svd", "linalg.eigh", "linalg.eigvalsh")}

CHECK_RECORD = "check %s: residual"   # prefix of run_suite's per-check verdict record


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def open(self, name: str | None) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int, name: str | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def _wrap_run_suite(self, fn):
        """suite.run, with one child span per check cut at the check's log record."""
        tracer = self

        class CheckBoundary(logging.Handler):
            def emit(self, record):
                if isinstance(record.msg, str) and record.msg.startswith(CHECK_RECORD):
                    tracer.close(tracer._stack[-1], f"suite.check.{record.args[0]}")
                    tracer.open(None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            logger = logging.getLogger("rieszlab")
            level, propagate = logger.level, logger.propagate
            handler = CheckBoundary(logging.INFO)
            logger.addHandler(handler)
            logger.setLevel(logging.INFO)
            logger.propagate = False
            run = self.open("suite.run")
            self.open(None)   # the first check's span
            try:
                return fn(*args, **kwargs)
            finally:
                # The span left open after the last check covers no check.
                pending = self._stack[-1]
                self.close(pending, "suite.after_checks")
                if pending == len(self.spans) - 1:
                    self.spans.pop()
                self.close(run)
                logger.removeHandler(handler)
                logger.setLevel(level)
                logger.propagate = propagate

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block, then restore and verify."""
        patches = []   # (owner, attribute, original)

        def patch(owner, name, wrapped):
            patches.append((owner, name, vars(owner)[name]))
            setattr(owner, name, wrapped)

        try:
            for (module_name, attr), span_name in TRACED_FUNCTIONS.items():
                original = getattr(importlib.import_module(module_name), attr)
                if span_name == "suite.run":
                    wrapped = self._wrap_run_suite(original)
                else:
                    wrapped = self.wrap(span_name, original)
                for module in _package_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            patch(module, name, wrapped)
            for attr, span_name in NUMPY_FUNCTIONS.items():
                patch(np.linalg, attr, self.wrap(span_name, getattr(np.linalg, attr)))
            linear_map = importlib.import_module("rieszlab.linalg").LinearMap
            patch(linear_map, "__init__", self.wrap("linalg.LinearMap", linear_map.__dict__["__init__"]))
            yield
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)
            left = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in patches if vars(o)[n] is not orig]
            if left:
                raise RuntimeError(f"traced names not restored: {left}")


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rieszlab" or name.startswith("rieszlab."))]


def bindings_snapshot() -> dict:
    """Identity of every name the tracer may replace, to show it restores them all."""
    linear_map = importlib.import_module("rieszlab.linalg").LinearMap
    snap = {(m.__name__, n): id(v) for m in _package_modules() for n, v in vars(m).items() if callable(v)}
    snap.update({("numpy.linalg", n): id(getattr(np.linalg, n)) for n in NUMPY_FUNCTIONS})
    snap[("rieszlab.linalg", "LinearMap.__init__")] = id(linear_map.__dict__["__init__"])
    return snap


def summarize(spans: list[list]) -> dict:
    """Inclusive totals and counts by span name, and self time by layer (first name component)."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_time: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_time):
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start - children)
    for name, parts in DERIVED.items():
        total[name] = sum(total.get(p, 0.0) for p in parts)
        count[name] = sum(count.get(p, 0) for p in parts)
    return {"total": total, "count": count, "self": self_time}
