"""Check orchestration and deterministic report emission."""

from __future__ import annotations

import json
import logging

import numpy as np

from . import forms, hermite, operators, sampling, systems
from .config import KNOWN_CHECKS, REPORT_SCHEMA, RunConfig
from .linalg import LinearMap, from_diagonal, polar_decompose
from .reporting import CheckReport, error_report, make_report, report_as_dict

log = logging.getLogger("rieszlab")

SAMPLE_COUNT = 100
UNITARY_RTOL = 1e-10  # the polar check's gate on ||U* U - 1||_F / sqrt(N)
_STREAMS = {name: i for i, name in enumerate(KNOWN_CHECKS)}


def build_operator(cfg: RunConfig) -> LinearMap:
    """The operator of an explicit kind; hermite-x comes from the gated Hermite model."""
    dim = cfg.dimension
    kind = cfg.operator.kind
    if kind == "diagonal":
        return from_diagonal(cfg.operator.array)
    if kind == "dense":
        return LinearMap(cfg.operator.array.reshape(dim, dim))
    if kind == "upper-unipotent":
        return LinearMap(np.eye(dim) + cfg.operator.off_diagonal * np.eye(dim, k=1))
    raise ValueError(f"unknown operator kind {kind!r}")


def build_alpha(cfg: RunConfig) -> np.ndarray:
    kind = cfg.alpha.kind
    if kind == "sqrt_n":
        return np.sqrt(np.arange(cfg.dimension))
    if kind == "linear":
        return np.arange(cfg.dimension)
    return cfg.alpha.array


class _SuiteContext:
    """Lazily built shared objects for one run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def hermite_model(self) -> hermite.HermiteModel:
        return self._get("hermite_model", lambda: hermite.build_model(self.cfg.dimension))

    def operator(self) -> LinearMap:
        if self.cfg.operator.kind == "hermite-x":
            # The model's X is the operator, so the oracle gate runs once per run.
            return self.hermite_model().X
        return self._get("operator", lambda: build_operator(self.cfg))

    def system(self) -> systems.BiorthogonalSystem:
        return self._get("system", lambda: systems.build_system(self.operator()))

    def frame_ops(self) -> systems.FrameOperators:
        return self._get("frame_ops", lambda: systems.build_frame_operators(self.system()))

    def opset(self) -> operators.OperatorSet:
        return self._get("opset", lambda: operators.build_operator_set(self.operator(), build_alpha(self.cfg)))

    def tail_family(self, dim: int) -> np.ndarray:
        """The read-only Hermite growth family at truncation dim, built once per run."""

        def build():
            family = hermite.tail_family(dim)
            family.setflags(write=False)
            return family

        return self._get(("tail_family", dim), build)

    def interior_indices(self):
        # Truncations of an infinite-dimensional operator are edge-polluted;
        # restrict per-index residual checks to the interior there.
        if self.cfg.operator.kind == "hermite-x":
            return range(self.cfg.dimension - self.cfg.interior_margin)
        return None

    def samples(self, check: str, sets: int = 1) -> list[np.ndarray]:
        """Sample sets of SAMPLE_COUNT columns, drawn one after another from the check's stream."""
        rng = sampling.stream_rng(self.cfg.seed, _STREAMS[check])
        return [sampling.random_kets(self.cfg.dimension, SAMPLE_COUNT, rng) for _ in range(sets)]


def _check_biorthogonality(ctx: _SuiteContext) -> CheckReport:
    return systems.check_biorthogonality(ctx.system(), tolerance=ctx.cfg.tolerance)


def _check_k_relations(ctx: _SuiteContext) -> CheckReport:
    return systems.verify_K_relations(
        ctx.system(), ctx.frame_ops(), tolerance=ctx.cfg.tolerance, indices=ctx.interior_indices()
    )


def _check_onb_reconstruction(ctx: _SuiteContext) -> CheckReport:
    _, _, report = systems.reconstruct_onb(ctx.system(), ctx.frame_ops(), tolerance=ctx.cfg.tolerance)
    return report


def _check_clause_i3(ctx: _SuiteContext) -> CheckReport:
    (x,) = ctx.samples("clause_i3")
    return systems.verify_clause_i3(ctx.system(), ctx.frame_ops(), x, tolerance=ctx.cfg.tolerance)


def _check_representation(ctx: _SuiteContext) -> CheckReport:
    x, y = ctx.samples("representation", 2)
    sys_, ops = ctx.system(), ctx.frame_ops()
    phi_side = forms.verify_representation(x, y, sys_.phi, ops.k_phi_sqrt, tolerance=ctx.cfg.tolerance)
    psi_side = forms.verify_representation(x, y, sys_.psi, ops.k_psi_sqrt, tolerance=ctx.cfg.tolerance)
    return make_report(
        "representation",
        max(phi_side.residual, psi_side.residual),
        ctx.cfg.tolerance,
        details={
            "phi_family": phi_side.residual,
            "psi_family": psi_side.residual,
            "samples": SAMPLE_COUNT,
        },
    )


def _check_quasi_basis(ctx: _SuiteContext) -> CheckReport:
    x, y = ctx.samples("quasi_basis", 2)
    return forms.quasi_basis_residual(ctx.system(), x, y, tolerance=ctx.cfg.tolerance)


def _check_frame_bounds(ctx: _SuiteContext) -> CheckReport:
    c, big_c = forms.frame_bounds(ctx.frame_ops().k_phi)
    (x,) = ctx.samples("frame_bounds")
    sq = np.linalg.norm(x, axis=0) ** 2
    value = forms.omega(x, x, ctx.system().phi).real
    violation = np.maximum(0.0, np.maximum(c * sq - value, value - big_c * sq))
    worst = float(np.max(violation / np.maximum(value, 1e-300)))
    return make_report(
        "frame_bounds",
        worst,
        ctx.cfg.tolerance,
        details={"lower": c, "upper": big_c, "samples": SAMPLE_COUNT},
    )


def _check_polar(ctx: _SuiteContext) -> CheckReport:
    # T = P U: P U must reassemble T column by column, and U must be unitary.
    # A Frobenius defect of U* U - 1 above UNITARY_RTOL * sqrt(N) raises, so
    # the check fails as an error report whatever the tolerance.
    t_map = ctx.operator()
    factors = polar_decompose(t_map)
    u = factors.unitary_part.entries
    deviation = u.conj().T @ u - np.eye(t_map.dim)
    defect = np.linalg.norm(deviation)
    if defect > UNITARY_RTOL * np.sqrt(t_map.dim):
        raise ValueError(f"polar factor is not unitary (defect {defect:.3e})")
    gram = float(np.abs(deviation).max())
    t = t_map.entries
    rebuilt = factors.positive_part.entries @ u
    norms = np.maximum(1.0, np.linalg.norm(t, axis=0))
    reassembly = float((np.linalg.norm(rebuilt - t, axis=0) / norms).max())
    return make_report(
        "polar",
        max(reassembly, gram),
        ctx.cfg.tolerance,
        details={"reassembly": reassembly, "f_basis_gram": gram},
    )


def _check_hamiltonian_agreement(ctx: _SuiteContext) -> CheckReport:
    # The dual family by an LU solve of T* Psi = 1 (T* = phi^H), not the SVD
    # inverse the operator set conjugates with: with one T^-1 the sum form
    # and T H T^-1 would be a single computation that no defect can fail.
    phi = ctx.system().phi
    psi = np.linalg.solve(phi.conj().T, np.eye(phi.shape[0]))
    solved = systems.BiorthogonalSystem(phi=phi, psi=psi)
    summed = operators.sum_form_hamiltonian(solved, ctx.opset().alpha)
    conjugated = ctx.opset().h_phi_psi
    residual = float(
        np.linalg.norm(summed.entries - conjugated.entries)
        / max(np.linalg.norm(conjugated.entries), 1e-300)
    )
    return make_report("hamiltonian_agreement", residual, ctx.cfg.tolerance)


def _check_eigen(ctx: _SuiteContext) -> CheckReport:
    cond = ctx.operator().cond_estimate
    tol = ctx.cfg.tolerance * cond
    indices = ctx.interior_indices()
    opset = ctx.opset()
    phi_side = operators.eigen_check(
        opset.h_phi_psi, ctx.system().phi, opset.alpha, tolerance=tol, indices=indices
    )
    psi_side = operators.eigen_check(
        opset.h_psi_phi, ctx.system().psi, opset.alpha, tolerance=tol, indices=indices
    )
    return make_report(
        "eigen",
        max(phi_side.residual, psi_side.residual),
        tol,
        details={"phi_family": phi_side.residual, "psi_family": psi_side.residual, "cond": cond},
    )


def _check_ladder(ctx: _SuiteContext) -> CheckReport:
    opset = ctx.opset()
    phi_side = operators.ladder_check(
        opset.a_phi_psi, opset.b_phi_psi, ctx.system().phi, opset.alpha, tolerance=ctx.cfg.tolerance
    )
    psi_side = operators.ladder_check(
        opset.a_psi_phi, opset.b_psi_phi, ctx.system().psi, opset.alpha, tolerance=ctx.cfg.tolerance
    )
    details = {f"phi_{k}": v for k, v in phi_side.details.items()}
    details.update({f"psi_{k}": v for k, v in psi_side.details.items()})
    return make_report(
        "ladder", max(phi_side.residual, psi_side.residual), ctx.cfg.tolerance, details=details
    )


def _check_adjoint_relations(ctx: _SuiteContext) -> CheckReport:
    return operators.adjoint_relation_check(ctx.opset(), tolerance=ctx.cfg.tolerance)


def _check_product_identities(ctx: _SuiteContext) -> CheckReport:
    pairs = [(m, l) for m in range(5) for l in range(5 - m)]
    return operators.product_identity_check(ctx.opset(), pairs, tolerance=ctx.cfg.tolerance)


def _check_ccr(ctx: _SuiteContext) -> CheckReport:
    return operators.ccr_check(ctx.opset(), tolerance=ctx.cfg.tolerance)


def _check_domain_mapping(ctx: _SuiteContext) -> CheckReport:
    return operators.domain_mapping_check(ctx.opset(), tolerance=ctx.cfg.tolerance)


def _check_hermite_oracle(ctx: _SuiteContext) -> CheckReport:
    model = ctx.hermite_model()
    identities = hermite.verify_K_psi(
        model,
        ctx.system(),
        ctx.frame_ops(),
        margin=ctx.cfg.interior_margin,
        tolerance=ctx.cfg.tolerance,
        seed=ctx.cfg.seed,
    )
    details = dict(identities.details)
    details["entry_oracle"] = model.oracle_residual
    details["rational_convergence"] = model.rational_convergence
    residual = max(identities.residual, model.oracle_residual, model.rational_convergence)
    return make_report("hermite_oracle", residual, ctx.cfg.tolerance, details=details)


def _check_frame_bound_growth(ctx: _SuiteContext) -> CheckReport:
    sizes = (16, 32, 64)
    lower, upper = {}, {}
    for n in sizes:
        k_phi = systems.frame_operator(ctx.tail_family(n))
        lower[n], upper[n] = forms.frame_bounds(k_phi)
    ratio = upper[64] / upper[32]
    residual = max(
        0.0,
        1.0 - min(lower.values()),
        3.0 - ratio,
        upper[16] - upper[32],
        upper[32] - upper[64],
    )
    details = {f"c_{n}": lower[n] for n in sizes}
    details.update({f"C_{n}": upper[n] for n in sizes})
    details["ratio_64_32"] = ratio
    return make_report("frame_bound_growth", residual, 0.0, details=details)


def _check_tail_dichotomy(ctx: _SuiteContext) -> CheckReport:
    grid = forms.DEFAULT_TAIL_GRID
    verdicts = {}
    details: dict = {}
    for label, coeff in (
        ("harmonic", lambda n: 1.0 / (n + 1.0)),
        ("geometric", lambda n: 2.0**-n),
    ):
        diag = forms.tail_diagnostic(
            lambda n: hermite.tail_coefficient_vector(coeff, n),
            ctx.tail_family,
            grid=grid,
        )
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


def run_suite(cfg: RunConfig) -> list[CheckReport]:
    """Run the configured checks; failures become reports, never crashes."""
    ctx = _SuiteContext(cfg)
    reports = []
    for name in sorted(cfg.checks):
        try:
            report = _CHECKS[name](ctx)
        except Exception as exc:  # totality: surface as a failed report
            log.info("check %s raised %s: %s", name, type(exc).__name__, exc)
            report = error_report(name, exc, ctx.cfg.tolerance)
        log.info("check %s: residual %.3e vs tolerance %.3e -> %s",
                 report.name, report.residual, report.tolerance,
                 "pass" if report.passed else "FAIL")
        reports.append(report)
    return reports


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
