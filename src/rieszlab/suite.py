"""Check orchestration and deterministic report emission."""

from __future__ import annotations

import json
import logging
from functools import cached_property

import numpy as np

from . import forms, hermite, operators, systems
from .config import REPORT_SCHEMA, RunConfig
from .linalg import LinearMap, _lu_inverse, from_diagonal, polar_decompose
from .reporting import CheckReport, error_report, make_report, relative_frobenius, report_as_dict, worst

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


def _check_biorthogonality(ctx: _SuiteContext) -> CheckReport:
    return systems.check_biorthogonality(ctx.system, ctx.cfg.tolerance)


def _check_k_relations(ctx: _SuiteContext) -> CheckReport:
    return systems.verify_K_relations(ctx.system, ctx.frame_ops, ctx.cfg.tolerance)


def _check_onb_reconstruction(ctx: _SuiteContext) -> CheckReport:
    return systems.reconstruct_onb(ctx.system, ctx.frame_ops, ctx.cfg.tolerance)


def _check_clause_i3(ctx: _SuiteContext) -> CheckReport:
    return systems.verify_clause_i3(ctx.system, ctx.frame_ops, ctx.cfg.tolerance)


def _check_representation(ctx: _SuiteContext) -> CheckReport:
    return forms.verify_representation(ctx.system, ctx.frame_ops, ctx.cfg.tolerance)


def _check_quasi_basis(ctx: _SuiteContext) -> CheckReport:
    return forms.quasi_basis_residual(ctx.system, ctx.cfg.tolerance)


def _check_frame_bounds(ctx: _SuiteContext) -> CheckReport:
    # c <= Omega_phi(e_n, e_n) <= C on every basis vector, each of norm 1
    c, big_c = forms.frame_bounds(ctx.frame_ops.k_phi)
    eye = np.eye(ctx.cfg.dimension)
    value = forms.omega(eye, eye, ctx.system.phi).real
    violation = np.maximum(0.0, np.maximum(c - value, value - big_c))
    residual = float(np.max(violation / np.maximum(value, 1e-300)))
    return make_report("frame_bounds", residual, ctx.cfg.tolerance, details={"lower": c, "upper": big_c})


def _check_polar(ctx: _SuiteContext) -> CheckReport:
    # T = P U: P U must reassemble T column by column, and U must be unitary.
    # Both are read against the one tolerance.
    t_map = ctx.operator
    positive, u = polar_decompose(t_map)
    gram = (u.H @ u).minus_diagonal().max_abs()
    reassembly = float(systems.column_residuals(t_map, positive @ u - t_map)[0].max())
    return make_report(
        "polar",
        worst([reassembly, gram]),
        ctx.cfg.tolerance,
        details={"reassembly": reassembly, "f_basis_gram": gram},
    )


def _check_hamiltonian_agreement(ctx: _SuiteContext) -> CheckReport:
    # The dual family by an LU solve of T* Psi = 1 (T* = phi^H) per block,
    # not the SVD inverse the operator set conjugates with: with one T^-1 the
    # sum form and T H T^-1 would be a single computation that no defect can fail.
    phi = ctx.system.phi
    solved = systems.BiorthogonalSystem(phi=phi, psi=_lu_inverse(phi.H))
    summed = operators.sum_form_hamiltonian(solved, ctx.opset.alpha)
    conjugated = ctx.opset.h_phi_psi
    residual = relative_frobenius(summed - conjugated, conjugated)
    return make_report("hamiltonian_agreement", residual, ctx.cfg.tolerance)


def _check_eigen(ctx: _SuiteContext) -> CheckReport:
    return operators.eigen_check(ctx.eigenrelation, ctx.operator.cond_estimate, ctx.cfg.tolerance)


def _check_ladder(ctx: _SuiteContext) -> CheckReport:
    return operators.ladder_check(ctx.opset, ctx.system, ctx.cfg.tolerance)


def _check_adjoint_relations(ctx: _SuiteContext) -> CheckReport:
    return operators.adjoint_relation_check(ctx.opset, ctx.cfg.tolerance)


def _check_product_identities(ctx: _SuiteContext) -> CheckReport:
    return operators.product_identity_check(ctx.opset, ctx.cfg.tolerance)


def _check_ccr(ctx: _SuiteContext) -> CheckReport:
    return operators.ccr_check(ctx.opset, ctx.cfg.tolerance)


def _check_domain_mapping(ctx: _SuiteContext) -> CheckReport:
    return operators.domain_mapping_check(ctx.eigenrelation, ctx.operator.cond_estimate, ctx.cfg.tolerance)


def _check_hermite_oracle(ctx: _SuiteContext) -> CheckReport:
    return hermite.verify_K_psi(ctx.hermite_model, ctx.system, ctx.frame_ops, ctx.cfg.tolerance)


def _check_frame_bound_growth(ctx: _SuiteContext) -> CheckReport:
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


def _check_tail_dichotomy(ctx: _SuiteContext) -> CheckReport:
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


_CHECKS = {
    "biorthogonality": _check_biorthogonality,
    "k_relations": _check_k_relations,
    "onb_reconstruction": _check_onb_reconstruction,
    "clause_i3": _check_clause_i3,
    "representation": _check_representation,
    "quasi_basis": _check_quasi_basis,
    "frame_bounds": _check_frame_bounds,
    "polar": _check_polar,
    "hamiltonian_agreement": _check_hamiltonian_agreement,
    "eigen": _check_eigen,
    "ladder": _check_ladder,
    "adjoint_relations": _check_adjoint_relations,
    "product_identities": _check_product_identities,
    "ccr": _check_ccr,
    "domain_mapping": _check_domain_mapping,
    "hermite_oracle": _check_hermite_oracle,
    "frame_bound_growth": _check_frame_bound_growth,
    "tail_dichotomy": _check_tail_dichotomy,
}


# Each stage of _SuiteContext that a run drops, and the checks that read
# it.  The operator-set readers run first, then the rest, each group in
# name order, and a stage is dropped once none of its readers is left to
# run.  Only the operator stage and hermite_oracle build the Hermite model,
# and the operator stage keeps X once built, so a dropped model is never
# built again.
_STAGE_READERS = {
    "opset": frozenset({
        "adjoint_relations", "ccr", "domain_mapping", "eigen", "hamiltonian_agreement", "ladder", "product_identities",
    }),
    "eigenrelation": frozenset({"domain_mapping", "eigen"}),
    "hermite_model": frozenset({"hermite_oracle"}),
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
            report = _CHECKS[name](ctx)
    except Exception as exc:  # totality: surface as a failed report
        log.info("check %s raised %s: %s", name, type(exc).__name__, exc)
        report = error_report(name, exc, ctx.cfg.tolerance)
    log.info("check %s: residual %.3e vs tolerance %.3e -> %s",
             report.name, report.residual, report.tolerance,
             "pass" if report.passed else "FAIL")
    return report


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
