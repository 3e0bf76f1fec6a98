"""Exact q-analogue Whitney, Whitney-Lah and Dowling number families.

Everything is computed in exact arithmetic: triangle entries are Laurent
polynomials in q over arbitrary-precision integers, generating-function
identities are finite polynomial equalities in the formal variable
u (the bracket of t), and the audit module re-derives every entry
along independent routes and reports exact matches or counterexamples.
Only the kernel (`qalg`) and `triangles` load with the package; the names
of `upoly`, `formulas` and the audit load their module on first use.
"""

from importlib import import_module

from .qalg import (
    EvalAtZeroError,
    LaurentPoly,
    NonDivisibleError,
    ONE,
    Q,
    SpanTooWideError,
    ZERO,
    lp_div_bracket,
    lp_dot,
    q_binomial_base,
    q_bracket,
    q_power,
)
from .triangles import (
    FamilyId,
    InverseMatrix,
    NonUnitDiagonalError,
    Params,
    Triangle,
    dowling,
    get_triangle,
    lah_row_sum,
)

# The other names resolve through __getattr__ from their module, imported on
# first use, so a command loads only the modules it runs: a table needs only
# qalg and triangles, and the audit with the `dataclasses` it needs would add
# about 20 ms to every start.
_LAZY = {
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
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "AuditReport",
    "CheckResult",
    "Counterexample",
    "DEFAULT_GRID",
    "EvalAtZeroError",
    "FamilyId",
    "InverseMatrix",
    "LaurentPoly",
    "NonDivisibleError",
    "NonUnitConstantTermError",
    "NonUnitDiagonalError",
    "ONE",
    "Params",
    "ParamGrid",
    "Q",
    "REGISTRY",
    "SpanTooWideError",
    "Triangle",
    "TruncSeries",
    "UPoly",
    "UnknownCheckIdError",
    "Variant",
    "ZERO",
    "bracket_linear",
    "dowling",
    "dowling_qi",
    "falling_factorial_u",
    "get_triangle",
    "lah_explicit",
    "lah_horizontal",
    "lah_row_sum",
    "lah_vertical",
    "lah_via_composition",
    "lp_div_bracket",
    "lp_dot",
    "q_binomial_base",
    "q_bracket",
    "q_difference",
    "q_power",
    "rising_factorial_u",
    "run_all",
    "useries_inverse",
    "whitney2_explicit",
    "whitney2_horizontal",
    "whitney2_rational_gf",
    "whitney2_vertical",
    "whitney_from_lah",
]

__version__ = "0.1.0"
