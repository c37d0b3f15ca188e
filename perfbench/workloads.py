"""Seeded inputs for the benchmark workloads, each with its expected outcome.

Everything here runs before timing starts.  The program under test sees
only the argv lists and config files written by these generators; the
operators are built with this module's own numpy code (not with
`rieszlab.sampling`), so a change to the package cannot change its inputs.

An input is a dict:

    {"argv": [...], "format": "json" | "csv", "exit": 0 | 1,
     "checks": {check_name: "pass" | "error"}}

"error" means the check must fail as an error report (residual `inf`),
which is how the program reports a check that raised.  A workload is a
list of rounds (lists of inputs) that the closed loop runs whole, plus the
index of the warm-up input and a nominal round time used to size the
traced run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The checks a run executes when its config names none, by operator kind
# and alpha kind (README, "Available checks").  Kept here so the expected verdicts do
# not come from the package under test.
GENERAL_CHECKS = (
    "adjoint_relations", "biorthogonality", "ccr", "clause_i3", "domain_mapping",
    "eigen", "frame_bounds", "hamiltonian_agreement", "k_relations", "ladder",
    "onb_reconstruction", "polar", "product_identities", "quasi_basis", "representation",
)
HERMITE_CHECKS = ("frame_bound_growth", "hermite_oracle", "tail_dichotomy")

# Upper end of the condition numbers any workload asks for.
MAX_COND = 1e3


def default_checks(operator_kind: str, alpha_kind: str) -> list[str]:
    names = [c for c in GENERAL_CHECKS if c != "ccr" or alpha_kind == "sqrt_n"]
    if operator_kind == "hermite-x":
        names += HERMITE_CHECKS
    return sorted(names)


def _all(verdict: str, operator_kind: str, alpha_kind: str) -> dict[str, str]:
    return {name: verdict for name in default_checks(operator_kind, alpha_kind)}


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def conditioned_matrix(n: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """U diag(sigma) V with log-spaced sigma, so cond(T) == cond."""
    sigma = np.exp(np.linspace(-0.5, 0.5, n) * np.log(cond))
    return (_unitary(n, rng) * sigma) @ _unitary(n, rng)


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


class _Writer:
    """Writes config files into the run's work directory and builds inputs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def config_input(self, config: dict, fmt: str, exit_status: int, checks: dict) -> dict:
        path = self.workdir / f"config-{self.count:04d}.json"
        self.count += 1
        path.write_text(json.dumps(config), encoding="utf-8")
        return {
            "argv": ["run", "--config", str(path), "--format", fmt],
            "format": fmt,
            "exit": exit_status,
            "checks": checks,
        }


def hermite_n256(rng: np.random.Generator, workdir: Path) -> dict:
    """The bundled Hermite model at N=256, full suite, JSON, three seeds."""
    rounds = []
    for seed in rng.integers(0, 2**31, size=3):
        rounds.append([{
            "argv": ["example", "hermite", "--dim", "256", "--full-suite",
                     "--format", "json", "--seed", str(int(seed))],
            "format": "json",
            "exit": 0,
            "checks": _all("pass", "hermite-x", "sqrt_n"),
        }])
    return {"rounds": rounds, "warmup": [0, 0], "round_s": 3.6}


def dense_n128(rng: np.random.Generator, workdir: Path) -> dict:
    """Three generated dense complex T at N=128, cond 1e3, sqrt_n alpha, JSON."""
    writer = _Writer(workdir)
    rounds = []
    for _ in range(3):
        config = {
            "schema": "rieszlab/1",
            "dimension": 128,
            "operator": {"kind": "dense", "entries": _pairs(conditioned_matrix(128, MAX_COND, rng))},
            "alpha": {"kind": "sqrt_n"},
            "seed": int(rng.integers(0, 2**31)),
        }
        rounds.append([writer.config_input(config, "json", 0, _all("pass", "dense", "sqrt_n"))])
    return {"rounds": rounds, "warmup": [0, 0], "round_s": 2.3}


def _small_round(rng: np.random.Generator, writer: _Writer, singular_dim: int) -> list[dict]:
    """One round: four operator kinds at N=8, 16, 32, plus one singular diagonal."""
    ops = []
    for n in (8, 16, 32):
        base = {"schema": "rieszlab/1", "dimension": n, "seed": int(rng.integers(0, 2**31))}
        magnitudes = np.exp(rng.uniform(0.0, np.log(MAX_COND), n))
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        diagonal = base | {"operator": {"kind": "diagonal", "values": _pairs(magnitudes * phases)},
                           "alpha": {"kind": "sqrt_n"}}
        ops.append(writer.config_input(diagonal, "csv", 0, _all("pass", "diagonal", "sqrt_n")))
        # Off-diagonal values in [0.25, 1] keep cond(T) small at N <= 32;
        # larger ones make cond grow like c^N, far beyond MAX_COND.
        unipotent = base | {"operator": {"kind": "upper-unipotent",
                                         "off_diagonal": float(rng.uniform(0.25, 1.0))},
                            "alpha": {"kind": "linear"}}
        ops.append(writer.config_input(unipotent, "csv", 0, _all("pass", "upper-unipotent", "linear")))
        cond = float(10.0 ** rng.uniform(0.0, np.log10(MAX_COND)))
        dense = base | {"operator": {"kind": "dense", "entries": _pairs(conditioned_matrix(n, cond, rng))},
                        "alpha": {"kind": "sqrt_n"}}
        ops.append(writer.config_input(dense, "csv", 0, _all("pass", "dense", "sqrt_n")))
        # The truncated model's interior identities hold at 1e-6 (README).
        hermite = base | {"operator": {"kind": "hermite-x"}, "tolerance": 1e-6}
        ops.append(writer.config_input(hermite, "csv", 0, _all("pass", "hermite-x", "sqrt_n")))
    # A zero on the diagonal makes T singular: every check depends on T^-1
    # or its SVD and must fail as an error report, and the run exits 1.
    values = np.exp(rng.uniform(0.0, np.log(MAX_COND), singular_dim))
    values[rng.integers(singular_dim)] = 0.0
    singular = {"schema": "rieszlab/1", "dimension": singular_dim,
                "operator": {"kind": "diagonal", "values": [float(v) for v in values]},
                "alpha": {"kind": "sqrt_n"}}
    ops.append(writer.config_input(singular, "csv", 1, _all("error", "diagonal", "sqrt_n")))
    return ops


def small_mixed(rng: np.random.Generator, workdir: Path) -> dict:
    """Eight rounds of 13 short CSV runs with the same mix of kinds and sizes."""
    writer = _Writer(workdir)
    rounds = [_small_round(rng, writer, (8, 16, 32)[r % 3]) for r in range(8)]
    # Warm up on the smallest hermite-x input: it is the kind with the most
    # lazy set-up (the quadrature rules), so no timed call pays for it.
    return {"rounds": rounds, "warmup": [0, 3], "round_s": 0.9}


WORKLOADS = {
    "hermite-n256": hermite_n256,
    "dense-n128": dense_n128,
    "small-mixed": small_mixed,
}


def generate(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's inputs for this seed into workdir and describe them."""
    stream = list(WORKLOADS).index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    spec = WORKLOADS[name](rng, workdir)
    spec["workload"] = name
    return spec
