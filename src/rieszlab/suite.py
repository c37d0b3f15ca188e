"""Check orchestration and deterministic report emission."""

from __future__ import annotations

import json
import logging
import sys
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import forms, hermite, operators, systems
from .linalg import Blocks, LinearMap, _lu_inverse, from_diagonal, polar_decompose, read_only
from .reporting import CheckReport, error_report, make_report, relative_frobenius, report_as_dict, worst

if TYPE_CHECKING:
    from .config import RunConfig

# Schema of a JSON report, whose config echo (config_to_dict) names bulk value lists by digest.
REPORT_SCHEMA = "rieszlab/4"

log = logging.getLogger("rieszlab")


def build_operator(cfg: RunConfig) -> LinearMap:
    """The operator of an explicit kind; hermite-x comes from the gated Hermite model."""
    dim = cfg.dimension
    kind = cfg.operator.kind
    if kind == "diagonal":
        return from_diagonal(cfg.operator.values)
    if kind == "dense":
        return LinearMap(cfg.operator.values.reshape(dim, dim))
    if kind == "upper-unipotent":
        return LinearMap(np.eye(dim) + cfg.operator.off_diagonal * np.eye(dim, k=1))
    raise ValueError(f"unknown operator kind {kind!r}")


def build_alpha(cfg: RunConfig) -> np.ndarray:
    kind = cfg.alpha.kind
    if kind == "sqrt_n":
        return np.sqrt(np.arange(cfg.dimension))
    if kind == "linear":
        return np.arange(cfg.dimension)
    return cfg.alpha.values


class _SuiteContext:
    """The shared objects of one run, each built on first read; a builder that raises caches nothing."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @property
    def tolerance(self) -> float:
        return self.cfg.tolerance

    @property
    def cond(self) -> float:
        return self.operator.cond_estimate

    @cached_property
    def hermite_model(self) -> hermite.HermiteModel:
        return hermite.build_model(self.cfg.dimension)

    @cached_property
    def operator(self) -> LinearMap:
        if self.cfg.operator.kind == "hermite-x":
            # The model's X is the operator, so the oracle gate runs once per run.
            return self.hermite_model.X
        return build_operator(self.cfg)

    @cached_property
    def system(self) -> systems.BiorthogonalSystem:
        return systems.build_system(self.operator)

    @cached_property
    def frame_ops(self) -> systems.FrameOperators:
        return systems.build_frame_operators(self.system)

    @cached_property
    def opset(self) -> operators.OperatorSet:
        return operators.build_operator_set(self.operator, build_alpha(self.cfg))

    @cached_property
    def eigenrelation(self) -> dict[str, operators.Eigenrelation]:
        # The operator set first: on a singular T it raises before anything else is built.
        return operators.eigenrelation_residuals(self.opset, self.system)


def _check_frame_bounds(system: systems.BiorthogonalSystem, frame_ops: systems.FrameOperators,
                        tolerance: float) -> CheckReport:
    # c <= Omega_phi(e_n, e_n) <= C on every basis vector, each of norm 1
    c, big_c = forms.frame_bounds(frame_ops.k_phi)
    # the identity in phi's own blocks, so that omega reads it without splitting or assembling it
    eye = read_only(Blocks([np.eye(b.shape[1]) for b in system.phi.blocks]))
    value = forms.omega(eye, eye, system.phi).real
    violation = np.maximum(0.0, np.maximum(c - value, value - big_c))
    residual = float(np.max(violation / np.maximum(value, 1e-300)))
    return make_report("frame_bounds", residual, tolerance, details={"lower": c, "upper": big_c})


def _check_polar(operator: LinearMap, tolerance: float) -> CheckReport:
    # T = P U: P U must reassemble T column by column, and U must be unitary.
    # Both are read against the one tolerance.
    positive, u = polar_decompose(operator)
    gram = (u.H @ u).minus_diagonal().max_abs()
    reassembly = float(systems.column_residuals(operator, positive @ u - operator)[0].max())
    return make_report(
        "polar",
        worst([reassembly, gram]),
        tolerance,
        details={"reassembly": reassembly, "f_basis_gram": gram},
    )


def _check_hamiltonian_agreement(system: systems.BiorthogonalSystem, opset: operators.OperatorSet,
                                 tolerance: float) -> CheckReport:
    # The dual family by an LU solve of T* Psi = 1 (T* = phi^H) per block,
    # not the SVD inverse the operator set conjugates with: with one T^-1 the
    # sum form and T H T^-1 would be a single computation that no defect can fail.
    phi = system.phi
    solved = systems.BiorthogonalSystem(phi=phi, psi=_lu_inverse(phi.H))
    summed = operators.sum_form_hamiltonian(solved, opset.alpha)
    conjugated = opset.h_phi_psi
    residual = relative_frobenius(summed - conjugated, conjugated)
    return make_report("hamiltonian_agreement", residual, tolerance)


def _check_frame_bound_growth() -> CheckReport:
    sizes = (16, 32, 64)
    # X at a truncation n is the leading n x n block of X at the largest one
    family = hermite.tail_family(sizes[-1])
    lower, upper = {}, {}
    for n in sizes:
        k_phi = systems.frame_operator(family[:n, :n])
        lower[n], upper[n] = forms.frame_bounds(k_phi)
    ratio = upper[64] / upper[32]
    residual = worst([
        0.0,
        *(1.0 - c for c in lower.values()),
        3.0 - ratio,
        upper[16] - upper[32],
        upper[32] - upper[64],
    ])
    details = {f"c_{n}": lower[n] for n in sizes}
    details.update({f"C_{n}": upper[n] for n in sizes})
    details["ratio_64_32"] = ratio
    return make_report("frame_bound_growth", residual, 0.0, details=details)


def _check_tail_dichotomy() -> CheckReport:
    verdicts = {}
    details: dict = {}
    n = np.arange(forms.TAIL_GRID[-1])
    for label, coefficients in (("harmonic", 1.0 / (n + 1.0)), ("geometric", 2.0**-n)):
        diag = forms.tail_diagnostic(hermite.tail_pairings(coefficients))
        verdicts[label] = diag.classification
        details[f"{label}_classification"] = diag.classification
        details[f"{label}_growth_exponent"] = diag.growth_exponent
        details[f"{label}_final_sum"] = diag.partial_sums[-1]
    ok = verdicts["harmonic"] == "divergent" and verdicts["geometric"] == "convergent"
    return make_report("tail_dichotomy", 0.0 if ok else 1.0, 0.0, details=details)


# The check tables, the one place a check is named; the table of its row
# says where it applies.  One row per check: the function, then the
# _SuiteContext attributes it is called with, in order.
# The checks every operator kind runs (ccr with the sqrt_n alpha kind only):
GENERAL_CHECKS = {
    "biorthogonality": (systems.check_biorthogonality, "system", "tolerance"),
    "k_relations": (systems.verify_K_relations, "system", "frame_ops", "tolerance"),
    "onb_reconstruction": (systems.reconstruct_onb, "system", "frame_ops", "tolerance"),
    "clause_i3": (systems.verify_clause_i3, "frame_ops", "tolerance"),
    "representation": (forms.verify_representation, "system", "frame_ops", "tolerance"),
    "quasi_basis": (forms.quasi_basis_residual, "system", "tolerance"),
    "frame_bounds": (_check_frame_bounds, "system", "frame_ops", "tolerance"),
    "polar": (_check_polar, "operator", "tolerance"),
    "hamiltonian_agreement": (_check_hamiltonian_agreement, "system", "opset", "tolerance"),
    "eigen": (operators.eigen_check, "eigenrelation", "cond", "tolerance"),
    "ladder": (operators.ladder_check, "opset", "system", "tolerance"),
    "adjoint_relations": (operators.adjoint_relation_check, "opset", "tolerance"),
    "product_identities": (operators.product_identity_check, "opset", "tolerance"),
    "ccr": (operators.ccr_check, "opset", "tolerance"),
    "domain_mapping": (operators.domain_mapping_check, "eigenrelation", "cond", "tolerance"),
}
# The checks that need the dimension-extensible Hermite model, hermite-x only:
HERMITE_CHECKS = {
    "hermite_oracle": (hermite.verify_K_psi, "hermite_model", "frame_ops", "tolerance"),
    "frame_bound_growth": (_check_frame_bound_growth,),
    "tail_dichotomy": (_check_tail_dichotomy,),
}
_CHECKS = GENERAL_CHECKS | HERMITE_CHECKS
# Every check, in report order.
KNOWN_CHECKS = tuple(sorted(_CHECKS))


def inapplicable(name: str, operator_kind: str, alpha_kind: str) -> str | None:
    """Why a known check cannot run with this operator and alpha kind, or None when it can."""
    if name in HERMITE_CHECKS and operator_kind != "hermite-x":
        return f"check {name!r} requires the hermite-x operator"
    if name == "ccr" and alpha_kind != "sqrt_n":
        return "ccr requires the sqrt_n alpha kind"
    return None


def default_checks(operator_kind: str, alpha_kind: str) -> tuple[str, ...]:
    """Every known check that runs with this operator and alpha kind, in report order."""
    return tuple(c for c in KNOWN_CHECKS if inapplicable(c, operator_kind, alpha_kind) is None)


# Each stage of _SuiteContext that a run drops, with the dropped stages
# built from it.  Only the operator stage and hermite_oracle build the
# Hermite model, and the operator stage keeps X once built, so the
# operator is not counted as built from the model, and a dropped model is
# never built again.
_DROPPED_STAGES = {
    "opset": ("opset", "eigenrelation"),
    "eigenrelation": ("eigenrelation",),
    "hermite_model": ("hermite_model",),
}
# The checks that read each dropped stage or a stage built from it.  The
# operator-set readers run first, then the rest, each group in name order,
# and a stage is dropped once none of its readers is left to run.
_STAGE_READERS = {
    stage: frozenset(name for name, (_, *reads) in _CHECKS.items() if not set(reads).isdisjoint(built))
    for stage, built in _DROPPED_STAGES.items()
}


def run_suite(cfg: RunConfig) -> list[CheckReport]:
    """Run the configured checks; failures become reports, never crashes.

    The operator-set readers run first, each group in name order; the
    reports come back in name order.
    """
    ctx = _SuiteContext(cfg)
    order = sorted(cfg.checks, key=lambda name: (name not in _STAGE_READERS["opset"], name))
    reports = []
    for i, name in enumerate(order):
        reports.append(_run_check(ctx, name))
        for stage, readers in _STAGE_READERS.items():
            if readers.isdisjoint(order[i + 1:]):
                vars(ctx).pop(stage, None)
    return sorted(reports, key=lambda r: r.name)


def _run_check(ctx: _SuiteContext, name: str) -> CheckReport:
    """One check's report; an exception it raises becomes a failed report."""
    try:
        # an overflow, invalid operation or division by zero raises
        # FloatingPointError, so the check fails with that reason
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report = _call_check(ctx, name)
    except Exception as exc:  # totality: surface as a failed report
        log.info("check %s raised %s: %s", name, type(exc).__name__, exc)
        report = error_report(name, exc, ctx.cfg.tolerance)
    log.info("check %s: residual %.3e vs tolerance %.3e -> %s",
             report.name, report.residual, report.tolerance,
             "pass" if report.passed else "FAIL")
    return report


def _call_check(ctx: _SuiteContext, name: str) -> CheckReport:
    """Check `name` called with the run objects its row names, each read from ctx in order."""
    fn, *reads = _CHECKS[name]
    # the function bound in its module now, so that a wrapper set there (a tracer) is called
    fn = getattr(sys.modules[fn.__module__], fn.__name__)
    return fn(*(getattr(ctx, read) for read in reads))


def emit_report(reports, fmt: str = "json", config: dict | None = None) -> str:
    """Serialize reports deterministically (JSON document or CSV table)."""
    ordered = sorted(reports, key=lambda r: r.name)
    if fmt == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "config": config,
            "reports": [report_as_dict(r) for r in ordered],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["name,residual,tolerance,pass"]
        for r in ordered:
            lines.append(
                f"{r.name},{format(r.residual, '.17g')},{format(r.tolerance, '.17g')},"
                f"{str(r.passed).lower()}"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")
