"""mfkit: exact matrix factorizations of multivariate polynomials.

Construction and validation of matrix factorizations over Q[x]: tensor
products in four block layouts, Koszul unit factorizations built on
difference quotients,
unitor morphisms with one-sided inverses, and homotopy-witness search.

The names below are resolved on first access, so ``import mfkit`` loads no
submodule; each name loads the one submodule that defines it.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "poly": (
        "Variable",
        "Polynomial",
        "PolyParseError",
        "UndeclaredVariable",
        "parse_poly",
        "poly_to_str",
        "substitute",
        "diff_quotient",
        "derivative",
        "t_shift",
    ),
    "matfac": (
        "MatrixFactorization",
        "Morphism",
        "MorphismReport",
        "NotAFactorization",
        "NotAMorphism",
        "PotentialMismatch",
        "ShapeMismatch",
        "make_factorization",
        "direct_sum",
        "make_morphism",
        "validate_morphism",
        "compose_morphisms",
        "identity_morphism",
        "zero_morphism",
        "scalar_morphism",
        "serialize_factorization",
        "parse_factorization",
    ),
    "tensor": (
        "Variant",
        "VariableOverlap",
        "yoshino",
        "tensor_morphisms",
        "rename_vars",
        "identify_vars",
    ),
    "unit": (
        "UnitFactorization",
        "UnitorBundle",
        "koszul_unit",
        "unitor_right",
        "unitor_left",
        "naturality_check",
    ),
    "homotopy": (
        "HomotopyWitness",
        "WitnessReport",
        "NotFoundWithinDegree",
        "check_witness",
        "find_witness",
        "is_null_homotopic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
