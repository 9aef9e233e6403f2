"""Exact logarithmic symplectic calculus on affine and torus charts.

Scalars live in QQ(i)[T, T^-1] with T a formal invertible 2*pi*i, so every
result downstream (brackets, curvatures, periods) is exact and the
integrality of a period is a decidable predicate.  The layers: sparse
polynomial ring with Laurent directions, divisor checks (reducedness, Saito
freeness, weighted homogeneity), the log form/field calculus and symplectic
assembly, Poisson brackets with their singular companions, first-order log
differential operators with the Dirac correspondence, rank-1 connections and
the prequantization pipeline, plus a session-file frontend and CLI.
"""

from .calculus import (
    DegenerateError,
    LogForm,
    LogVectorField,
    SymplecticData,
    assemble_symplectic,
    d_of_function,
    log_frame,
    res_const,
)
from .connections import (
    Connection1,
    PrequantReport,
    class_and_primitive,
    gauge,
    integrality_check,
    is_flat,
    normalize_residues,
    periods,
    prequantize,
)
from .context import VarContext, make_context
from .divisors import (
    SaitoResult,
    check_squarefree,
    is_coordinate_ncd,
    is_logarithmic,
    saito_check,
    weighted_homogeneous,
)
from .linalg import RationalFunction, det_poly, solve_linear, solve_linear_poly
from .operators import (
    CochainSpec,
    LogDiffOp1,
    atiyah_check,
    cochain_eval,
    decompose,
    dirac_check,
    from_connection,
    prequantum_op,
    splitting_check,
    verify_E_condition,
)
from .poisson import (
    HamiltonianResult,
    IdentityReport,
    bracket,
    hamiltonian,
    jacobi_defect,
    sing_bracket,
    tilde_hamiltonian,
    verify_identities,
)
from .poly import Poly, divides, gcd_mv
from .scalars import Scalar, scalar_gcd
from .sessions import (
    ParseError,
    SessionManifest,
    eval_in_session,
    parse_session,
    print_canonical,
    print_session,
)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "scalar_gcd", "Poly", "divides", "gcd_mv",
    "VarContext", "make_context",
    "RationalFunction", "det_poly", "solve_linear", "solve_linear_poly",
    "LogForm", "LogVectorField", "SymplecticData", "DegenerateError",
    "assemble_symplectic", "d_of_function", "log_frame", "res_const",
    "SaitoResult", "check_squarefree", "is_coordinate_ncd",
    "is_logarithmic", "saito_check", "weighted_homogeneous",
    "HamiltonianResult", "IdentityReport", "bracket", "hamiltonian",
    "jacobi_defect", "sing_bracket", "tilde_hamiltonian", "verify_identities",
    "LogDiffOp1", "CochainSpec", "atiyah_check", "cochain_eval", "decompose",
    "dirac_check", "from_connection", "prequantum_op", "splitting_check",
    "verify_E_condition",
    "Connection1", "PrequantReport", "class_and_primitive", "gauge",
    "integrality_check", "is_flat", "normalize_residues", "periods",
    "prequantize",
    "SessionManifest", "ParseError", "parse_session", "print_session",
    "print_canonical", "eval_in_session",
]
