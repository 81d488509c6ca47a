"""Numerical toolkit for concrete operator systems.

Systems S inside M_d with their matrix cones, the order norms (Hermitian,
minimal, maximal-with-certified-sandwich), the matrix-ordered dual with
positivity and complete-positivity certification through one interior-point
solve per matrix level, a Dykstra PSD/affine feasibility solver for
explicit problems, faithful states and dual order-unit radii, and
finite-depth towers of systems with the inductive/projective duality
pairing.
"""

from .errors import (
    DimensionError,
    HermitianError,
    InconsistentThreadError,
    MembershipError,
    NumericalError,
    OpsysError,
    ParseError,
    UndecidedError,
    ValidationError,
)
from .linalg import (
    decode_matrix,
    encode_matrix,
    hermitian_part,
    op_norm,
    project_psd,
    spectral_decompose,
)
from .systems import (
    OperatorSystem,
    cone_member,
    is_matrix_order_unit,
    make_operator_system,
    named_system,
    order_unit_radius_level,
    subspace_member,
)
from .norms import NormReport, max_order_norm, min_order_norm, norm_report, order_norm_h
from .feasibility import (
    FeasibilityProblem,
    FeasibilityVerdict,
    dykstra_solve,
)
from .dual import (
    Functional,
    MatrixFunctional,
    cp_verdict,
    dual_order_unit_radius,
    faithful_state,
    is_cp,
    is_positive_functional,
    series_state,
)
from .towers import (
    ElementThread,
    Embedding,
    FunctionalThread,
    Tower,
    inductive_positive,
    make_tower,
    pairing,
    pullback_thread,
    verify_dual_cones,
    verify_gamma,
)

__version__ = "0.1.0"
