"""Exact q-analogue Whitney, Whitney-Lah and Dowling number families.

Everything is computed in exact arithmetic: triangle entries are Laurent
polynomials in q over arbitrary-precision integers, generating-function
identities are finite polynomial equalities in the formal variable
u (the bracket of t), and the audit module re-derives every entry
along independent routes and reports exact matches or counterexamples.
No submodule loads with the package: each of the 47 names below loads its
module on first use.
"""

from importlib import import_module

# Each public name, by the module that defines it.  A command loads only the
# modules it runs: a table needs only qalg and triangles, and the audit with
# the `dataclasses` it needs would add about 20 ms to every start.
_EXPORTS = {
    "qalg": (
        "EvalAtZeroError", "LaurentPoly", "NonDivisibleError", "ONE", "Q",
        "SpanTooWideError", "ZERO", "lp_div_bracket", "lp_dot", "q_binomial_base",
        "q_bracket", "q_power",
    ),
    "triangles": (
        "FamilyId", "InverseMatrix", "NonUnitDiagonalError", "Params", "Triangle",
        "dowling", "get_triangle", "lah_row_sum",
    ),
    "upoly": (
        "NonUnitConstantTermError", "TruncSeries", "UPoly", "bracket_linear",
        "falling_factorial_u", "rising_factorial_u", "useries_inverse",
    ),
    "formulas": (
        "Variant", "dowling_qi", "lah_explicit", "lah_horizontal", "lah_vertical",
        "lah_via_composition", "q_difference", "whitney2_explicit",
        "whitney2_horizontal", "whitney2_rational_gf", "whitney2_vertical",
        "whitney_from_lah",
    ),
    "audit": (
        "AuditReport", "CheckResult", "Counterexample", "DEFAULT_GRID",
        "ParamGrid", "REGISTRY", "UnknownCheckIdError", "run_all",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"
