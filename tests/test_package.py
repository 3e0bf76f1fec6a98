"""Tests of the package's public namespace."""

import qwhitney
from qwhitney import audit, formulas, qalg, triangles, upoly

REMOVED = [
    "whitney2_egf_coeff",
    "lah_egf_coeff",
    "newton_lah_coefficients",
    "classical_limit_check",
    "q_factorial_base",
    "whitney2_scaled",
    "whitney1_rising",
    "lp_mul",
    "lp_exact_div",
    "lp_eval",
    "upoly_coeff",
    "whitney2",
    "whitney2_verbatim",
    "whitney1_falling",
    "lah",
]


def test_every_export_resolves():
    for name in qwhitney.__all__:
        assert hasattr(qwhitney, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in qwhitney.__all__
        modules = (qwhitney, qalg, formulas, audit, triangles, upoly)
        assert not any(hasattr(module, name) for module in modules)


def test_removed_methods_are_gone():
    # Triangle.rows copied every row; a reader takes Triangle.row(n) instead.
    assert not hasattr(triangles.Triangle, "rows")
    # The JSON reader had no caller once the on-disk cache was gone.
    assert not hasattr(qalg.LaurentPoly, "from_json_dict")


def test_export_count():
    assert len(qwhitney.__all__) == len(set(qwhitney.__all__)) == 49
