"""Exact subresultants of (x - alpha)^m and (x - beta)^n in linear time.

Public surface: exact fields with operation counting (field), the
problem statement and the fast subresultant algorithms with their
integer kernels (fastsubres), dense polynomials and the Bezout cofactors
(poly), all principal subresultants at once (psres), and a CLI (cli);
off the request path, the reference Jacobi routes and combinatorics
(jacobi) and the determinant oracles and self-checks (check).

The namespace is lazy: `import linsubres` loads no submodule, and each
name below imports its module on first access.
"""

from importlib import import_module

__version__ = "0.1.0"

# name -> the submodule that defines it; "errors" is the submodule itself
_SOURCES = {
    name: module
    for module, names in {
        "errors": "errors",
        "fastsubres": "Basis CharCase ProblemSpec SubresResult classify factorial_ratio "
                      "leading_coefficient_sd result_to_json sres_bernstein sres_fast",
        "field": "FieldDescriptor FieldValue OpCounter binary_pow count_ops "
                 "parse_field_spec prime_field rationals",
        "jacobi": "JacobiParams binomial falling_product hyp2f1_poly "
                  "jacobi_hypergeometric jacobi_rodrigues pochhammer shifted_jacobi "
                  "verify_pade_identity",
        "poly": "CofactorPair DensePoly cofactors expand_pair_basis pair_basis_coeffs "
                "poly_to_json power_of_linear",
        "check": "psres_oracle sres_oracle psres_schedule",
        "psres": "psres_all",
    }.items()
    for name in names.split()
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
