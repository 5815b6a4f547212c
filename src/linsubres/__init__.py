"""Exact subresultants of (x - alpha)^m and (x - beta)^n in linear time.

Public surface: exact fields with operation counting (field), dense
polynomials and the determinant oracle (poly), combinatorial images
(combinat), Jacobi polynomial machinery (jacobi), the fast subresultant
and cofactor algorithms (fastsubres), all principal subresultants at once
(psres), and a CLI (cli).
"""

from . import errors
from .combinat import binomial, factorial_ratio, falling_product, pochhammer
from .fastsubres import (
    Basis,
    CharCase,
    CofactorPair,
    SubresResult,
    bernstein_to_monomial,
    classify,
    cofactors,
    leading_coefficient_sd,
    result_from_json,
    result_to_json,
    sres_bernstein,
    sres_fast,
)
from .field import (
    FieldDescriptor,
    FieldKind,
    FieldValue,
    OpCounter,
    binary_pow,
    char_of,
    count_ops,
    parse_field_spec,
    prime_field,
    rationals,
)
from .jacobi import (
    JacobiParams,
    expand_pair_basis,
    hyp2f1_poly,
    jacobi_hypergeometric,
    jacobi_rodrigues,
    pair_basis_coeffs,
    shifted_jacobi,
    verify_pade_identity,
)
from .poly import (
    DensePoly,
    ProblemSpec,
    poly_from_json,
    poly_to_json,
    power_of_linear,
    psres_oracle,
    sres_oracle,
)
from .psres import PsresSchedule, psres_all, psres_schedule

__version__ = "0.1.0"

__all__ = [
    "errors",
    "binomial",
    "factorial_ratio",
    "falling_product",
    "pochhammer",
    "Basis",
    "CharCase",
    "CofactorPair",
    "SubresResult",
    "bernstein_to_monomial",
    "classify",
    "cofactors",
    "leading_coefficient_sd",
    "result_from_json",
    "result_to_json",
    "sres_bernstein",
    "sres_fast",
    "FieldDescriptor",
    "FieldKind",
    "FieldValue",
    "OpCounter",
    "binary_pow",
    "char_of",
    "count_ops",
    "parse_field_spec",
    "prime_field",
    "rationals",
    "JacobiParams",
    "expand_pair_basis",
    "hyp2f1_poly",
    "jacobi_hypergeometric",
    "jacobi_rodrigues",
    "pair_basis_coeffs",
    "shifted_jacobi",
    "verify_pade_identity",
    "DensePoly",
    "ProblemSpec",
    "poly_from_json",
    "poly_to_json",
    "power_of_linear",
    "psres_oracle",
    "sres_oracle",
    "PsresSchedule",
    "psres_all",
    "psres_schedule",
    "__version__",
]
