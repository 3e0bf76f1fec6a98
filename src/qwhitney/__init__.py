"""Exact q-analogue Whitney, Whitney-Lah and Dowling number families.

Everything is computed in exact arithmetic: triangle entries are Laurent
polynomials in q over arbitrary-precision integers, generating-function
identities are finite polynomial equalities in the formal variable
u (the bracket of t), and the audit module re-derives every entry
along independent routes and reports exact matches or counterexamples.
"""

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
from .upoly import (
    NonUnitConstantTermError,
    TruncSeries,
    UPoly,
    bracket_linear,
    falling_factorial_u,
    rising_factorial_u,
    useries_inverse,
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
from .formulas import (
    Variant,
    dowling_qi,
    lah_explicit,
    lah_horizontal,
    lah_vertical,
    lah_via_composition,
    q_difference,
    whitney2_explicit,
    whitney2_horizontal,
    whitney2_rational_gf,
    whitney2_vertical,
    whitney_from_lah,
)
from .audit import (
    AuditReport,
    CheckResult,
    Counterexample,
    DEFAULT_GRID,
    ParamGrid,
    REGISTRY,
    UnknownCheckIdError,
    run_all,
)

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
