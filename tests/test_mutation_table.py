"""The mutation table: a defect in each cached object of a run fails at least one check, and every
check fails at least one defect, but for the named blind ones.

Each row takes a fresh run context, scales the largest-magnitude entry of one cached object by
1 + eps, and lets the objects downstream of it be rebuilt from the defect.  A frame operator or
its root is scaled as a Hermitian pair, the entry and its mirror.  Method: DeMillo, Lipton &
Sayward, "Hints on test data selection", IEEE Computer 11 (1978).

Each row of a dense N=32 config, and its clean run, is also read on the images of its T under
T -> cT and T -> QT with Q unitary.  Every identity the suite checks is homogeneous under the
first (phi scales by c, psi by 1/c, the transformed operators stay) and invariant under the
second, so no verdict may move.  Method: Chen, Cheung & Yiu, "Metamorphic testing: a new approach
for generating next test cases", HKUST-CS98-01 (1998).
"""

import dataclasses
import functools

import numpy as np
import pytest

from rieszlab import LinearMap, suite
from rieszlab.cli import _hermite_config
from rieszlab.linalg import Blocks
from rieszlab.systems import FrameOperators

from helpers import dense_config, random_conditioned_map, random_unitary, scaled, stream_rng

TRANSFORMED = ("h_phi_psi", "h_psi_phi", "a_phi_psi", "b_phi_psi", "a_psi_phi", "b_psi_phi")

# Checks that read no defect of the table, each with the ROADMAP item that
# gives it a route some defect can fail; each must pass every row.
BLIND = {
    "frame_bounds": 3,         # a Rayleigh bound that holds for any Hermitian K, from that K's own eigh
    "frame_bound_growth": 7,   # reads the closed-form tail family, not the run
    "tail_dichotomy": 7,       # reads the closed-form bands, not the run
}


# The maps a dense N=32 config's T is read under.
IMAGES = {
    "1e-8 T": lambda t: 1e-8 * t,
    "1e-4 T": lambda t: 1e-4 * t,
    "1e4 T": lambda t: 1e4 * t,
    "1e8 T": lambda t: 1e8 * t,
    "Q T": lambda t: np.asarray(random_unitary(32, stream_rng(5, 1))) @ t,
}
IMAGED = ("dense32-real", "dense32-complex")


def dense_run(make_t, alpha: dict):
    """The run of a dense config of T = make_t(), or of the named image of T."""
    def run(image: str | None = None) -> dict:
        t = np.asarray(make_t())
        if image is not None:
            t = IMAGES[image](t)
        return {"cfg": dense_config(LinearMap(t), alpha=alpha, tolerance=1e-8), "eps": 1e-6}
    return run


def t32():
    return random_conditioned_map(32, 10.0, np.random.default_rng(32))


CONFIGS = {
    "dense32-real": dense_run(t32, {"kind": "sqrt_n"}),
    "dense32-complex": dense_run(t32, {"kind": "custom", "values": [[n, 0.5 * (-1) ** n] for n in range(32)]}),
    "dense128": dense_run(lambda: random_conditioned_map(128, 1e3, stream_rng(75)), {"kind": "sqrt_n"}),
    # above the split floor, so every object is held as its two parity blocks
    "hermite64": lambda: {"cfg": _hermite_config(64, full_suite=True, seed=0), "eps": 1e-4},
}


def defect_inverse(ctx, eps, **where):
    # T^-1 and the (T^-1)* read from it; the system, frame operators and
    # operator set are then built from them
    t = ctx.operator
    t.inverse = Blocks.of(scaled(t.inverse, eps, **where))
    vars(t).pop("adjoint_inverse", None)


def defect_adjoint_inverse(ctx, eps):
    t = ctx.operator
    t.adjoint_inverse = Blocks.of(scaled(t.adjoint_inverse, eps))


def defect_svd_u(ctx, eps):
    # after T^-1 was built from the clean SVD, so only the readers of u see it
    t = ctx.operator
    t.inverse
    factors = list(t.svd)
    p = int(np.argmax([np.abs(u).max() for u, _, _ in factors]))
    u, s, vh = factors[p]
    factors[p] = (scaled(u, eps), s, vh)
    t.svd = tuple(factors)


def defect_family(side):
    def defect(ctx, eps):
        ctx.system = dataclasses.replace(ctx.system, **{side: Blocks.of(scaled(getattr(ctx.system, side), eps))})
    return defect


def defect_frame_operator(name):
    def defect(ctx, eps):
        ops = ctx.frame_ops
        k = LinearMap(scaled(getattr(ops, name), eps, hermitian=True))
        ctx.frame_ops = FrameOperators(**{"k_phi": ops.k_phi, "k_psi": ops.k_psi, name: k})
    return defect


def defect_root(name):
    def defect(ctx, eps):
        vars(ctx.frame_ops)[name] = Blocks.of(scaled(getattr(ctx.frame_ops, name), eps, hermitian=True))
    return defect


def defect_transformed(name):
    def defect(ctx, eps):
        ctx.opset = dataclasses.replace(ctx.opset, **{name: Blocks.of(scaled(getattr(ctx.opset, name), eps))})
    return defect


ROWS = {
    "inverse": defect_inverse,
    "adjoint_inverse": defect_adjoint_inverse,
    "svd_u": defect_svd_u,
    "phi": defect_family("phi"),
    "psi": defect_family("psi"),
    **{name: defect_frame_operator(name) for name in ("k_phi", "k_psi")},
    **{name: defect_root(name) for name in ("k_phi_sqrt", "k_psi_sqrt")},
    **{name: defect_transformed(name) for name in TRANSFORMED},
}
# A symmetric defect in the cached X^-1 of the Hermite model: its largest
# off-diagonal entry and the mirror, so the dual family stays the inverse.
HERMITE_ROWS = {"x_inverse": lambda ctx, eps: defect_inverse(ctx, eps, hermitian=True, off_diagonal=True)}


def rows_of(config: str) -> dict:
    return ROWS | HERMITE_ROWS if config.startswith("hermite") else ROWS


@functools.cache
def run_of(config: str, image: str | None = None) -> dict:
    # Parsed once: a run context builds its own T from the config, and a
    # defect replaces a cached object with a copy.
    return CONFIGS[config]() if image is None else CONFIGS[config](image)


@functools.cache
def failing_checks(config: str, row: str | None, image: str | None = None) -> frozenset:
    """The checks of the config, or of its named image, that fail in a fresh run context with the
    row's defect planted first."""
    run = run_of(config, image)
    cfg = run["cfg"]
    ctx = suite._SuiteContext(cfg)
    if row is not None:
        rows_of(config)[row](ctx, run["eps"])
    return frozenset(name for name in cfg.checks if not suite._run_check(ctx, name).passed)


# The checks each row fails.
FAILS = {
    ("dense32-real", "inverse"): {
        "biorthogonality", "ccr", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement",
        "k_relations", "ladder", "onb_reconstruction", "product_identities", "quasi_basis",
    },
    ("dense32-real", "adjoint_inverse"): {
        "adjoint_relations", "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations",
        "ladder", "onb_reconstruction", "product_identities", "quasi_basis",
    },
    ("dense32-real", "svd_u"): {"polar"},
    ("dense32-real", "phi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement", "k_relations",
        "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("dense32-real", "psi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations", "ladder",
        "onb_reconstruction", "quasi_basis",
    },
    ("dense32-real", "k_phi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense32-real", "k_psi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense32-real", "k_phi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense32-real", "k_psi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense32-real", "h_phi_psi"): {"adjoint_relations", "domain_mapping", "eigen", "hamiltonian_agreement"},
    ("dense32-real", "h_psi_phi"): {"adjoint_relations", "domain_mapping", "eigen"},
    ("dense32-real", "a_phi_psi"): {"adjoint_relations", "ccr", "ladder", "product_identities"},
    ("dense32-real", "b_phi_psi"): {"adjoint_relations", "ccr", "ladder", "product_identities"},
    ("dense32-real", "a_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense32-real", "b_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense32-complex", "inverse"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement", "k_relations",
        "ladder", "onb_reconstruction", "product_identities", "quasi_basis",
    },
    ("dense32-complex", "adjoint_inverse"): {
        "adjoint_relations", "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations",
        "ladder", "onb_reconstruction", "product_identities", "quasi_basis",
    },
    ("dense32-complex", "svd_u"): {"polar"},
    ("dense32-complex", "phi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement", "k_relations",
        "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("dense32-complex", "psi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations", "ladder",
        "onb_reconstruction", "quasi_basis",
    },
    ("dense32-complex", "k_phi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense32-complex", "k_psi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense32-complex", "k_phi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense32-complex", "k_psi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense32-complex", "h_phi_psi"): {
        "adjoint_relations", "domain_mapping", "eigen", "hamiltonian_agreement",
    },
    ("dense32-complex", "h_psi_phi"): {"adjoint_relations", "domain_mapping", "eigen"},
    ("dense32-complex", "a_phi_psi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense32-complex", "b_phi_psi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense32-complex", "a_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense32-complex", "b_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense128", "inverse"): {
        "biorthogonality", "ccr", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement",
        "k_relations", "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("dense128", "adjoint_inverse"): {
        "adjoint_relations", "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations",
        "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("dense128", "svd_u"): {"polar"},
    ("dense128", "phi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "hamiltonian_agreement", "k_relations",
        "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("dense128", "psi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "eigen", "k_relations", "ladder",
        "onb_reconstruction", "quasi_basis",
    },
    ("dense128", "k_phi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense128", "k_psi"): {"clause_i3", "k_relations", "onb_reconstruction", "representation"},
    ("dense128", "k_phi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense128", "k_psi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("dense128", "h_phi_psi"): {"adjoint_relations", "domain_mapping", "eigen", "hamiltonian_agreement"},
    ("dense128", "h_psi_phi"): {"adjoint_relations", "domain_mapping", "eigen"},
    ("dense128", "a_phi_psi"): {"adjoint_relations", "ccr", "ladder", "product_identities"},
    ("dense128", "b_phi_psi"): {"adjoint_relations", "ccr", "ladder", "product_identities"},
    ("dense128", "a_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("dense128", "b_psi_phi"): {"adjoint_relations", "ladder", "product_identities"},
    ("hermite64", "inverse"): {
        "biorthogonality", "ccr", "clause_i3", "domain_mapping", "hermite_oracle", "k_relations", "ladder",
        "onb_reconstruction", "quasi_basis",
    },
    ("hermite64", "adjoint_inverse"): {
        "adjoint_relations", "biorthogonality", "clause_i3", "domain_mapping", "hermite_oracle",
        "k_relations", "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("hermite64", "svd_u"): {"polar"},
    ("hermite64", "phi"): {
        "biorthogonality", "clause_i3", "k_relations", "ladder", "onb_reconstruction", "quasi_basis",
    },
    ("hermite64", "psi"): {
        "biorthogonality", "clause_i3", "domain_mapping", "hermite_oracle", "k_relations", "ladder",
        "onb_reconstruction", "quasi_basis",
    },
    ("hermite64", "k_phi"): {
        "clause_i3", "hermite_oracle", "k_relations", "onb_reconstruction", "representation",
    },
    ("hermite64", "k_psi"): {
        "clause_i3", "hermite_oracle", "k_relations", "onb_reconstruction", "representation",
    },
    ("hermite64", "k_phi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("hermite64", "k_psi_sqrt"): {"clause_i3", "onb_reconstruction", "representation"},
    ("hermite64", "h_phi_psi"): {"adjoint_relations", "domain_mapping", "eigen", "hamiltonian_agreement"},
    ("hermite64", "h_psi_phi"): {"adjoint_relations", "domain_mapping", "eigen"},
    ("hermite64", "a_phi_psi"): {"adjoint_relations", "ccr", "ladder"},
    ("hermite64", "b_phi_psi"): {"adjoint_relations", "ccr", "ladder", "product_identities"},
    ("hermite64", "a_psi_phi"): {"adjoint_relations", "ladder"},
    ("hermite64", "b_psi_phi"): {"adjoint_relations", "ladder"},
    ("hermite64", "x_inverse"): {
        "biorthogonality", "ccr", "clause_i3", "domain_mapping", "hamiltonian_agreement", "hermite_oracle",
        "k_relations", "ladder", "onb_reconstruction", "quasi_basis",
    },
}

CASES = [(config, row) for config in CONFIGS for row in rows_of(config)]
IMAGE_CASES = [(config, row, image) for config in IMAGED for row in rows_of(config) for image in IMAGES]


@pytest.mark.parametrize("config", CONFIGS)
def test_a_clean_run_passes_every_check(config):
    assert failing_checks(config, None) == frozenset()


@pytest.mark.parametrize("image", IMAGES)
@pytest.mark.parametrize("config", IMAGED)
def test_a_clean_image_passes_every_check(config, image):
    assert failing_checks(config, None, image) == frozenset()


@pytest.mark.parametrize("config, row", CASES)
def test_each_row_fails_its_checks(config, row):
    failed = failing_checks(config, row)
    assert failed, "a defect that no check reads"
    assert failed.isdisjoint(BLIND)
    assert failed == FAILS[config, row]


@pytest.mark.parametrize("config, row, image", IMAGE_CASES)
def test_each_image_of_a_row_fails_the_rows_checks(config, row, image):
    assert failing_checks(config, row, image) == FAILS[config, row]


@pytest.mark.parametrize("config", CONFIGS)
def test_each_check_fails_a_row_unless_it_is_named_blind(config):
    checks = set(run_of(config)["cfg"].checks)
    failed = set().union(*(FAILS[config, row] for row in rows_of(config)))
    assert failed == checks - BLIND.keys()


def test_the_retirement_conditions_of_product_identities_and_adjoint_relations_hold_in_every_case():
    # ROADMAP item 11 retires product_identities if ladder fails wherever it
    # fails, and item 17 retires adjoint_relations if ladder or eigen fails
    # wherever it fails.
    cases = CASES + IMAGE_CASES
    for case in cases:
        failed = failing_checks(*case)
        assert "product_identities" not in failed or "ladder" in failed, case
        assert "adjoint_relations" not in failed or not failed.isdisjoint({"ladder", "eigen"}), case
