"""rieszlab: finite-dimensional checks for biorthogonal vector systems.

Families phi_n = T e_n and their canonical duals psi_n = (T^-1)* e_n,
the frame operators and sesquilinear forms they generate, and the
non-self-adjoint Hamiltonians and ladder operators obtained by
similarity, all realized as dense truncations with residual reports.
"""

from .config import RunConfig, default_checks, parse_config
from .errors import (
    DimensionMismatch,
    InconsistentPrefix,
    NotPositive,
    NumericallySingular,
    OracleMismatch,
    ParseError,
    RieszlabError,
    WrongAlphaKind,
)
from .forms import (
    TailDiagnostic,
    frame_bounds,
    omega,
    quasi_basis_residual,
    tail_diagnostic,
    verify_representation,
)
from .hermite import (
    HermiteModel,
    build_X,
    build_model,
    verify_K_psi,
)
from .linalg import (
    LinearMap,
    PolarFactors,
    from_diagonal,
    invert,
    operator_sqrt,
    polar_decompose,
)
from .operators import (
    OperatorSet,
    WeightedShift,
    adjoint_relation_check,
    build_operator_set,
    ccr_check,
    domain_mapping_check,
    eigen_check,
    hamiltonian_shift,
    ladder_check,
    ladder_shifts,
    product_identity_check,
    sum_form_hamiltonian,
    transform,
)
from .reporting import CheckReport, make_report
from .suite import emit_report, run_suite
from .systems import (
    BiorthogonalSystem,
    FrameOperators,
    build_frame_operators,
    build_system,
    check_biorthogonality,
    frame_operator,
    reconstruct_onb,
    verify_K_relations,
    verify_clause_i3,
)

__version__ = "0.1.0"
