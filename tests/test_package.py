"""Tests of the package's public namespace."""

import os
import subprocess
import sys
from pathlib import Path

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
    "invert_unit_triangular",
    "run_check",
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
    # Nothing outside the tests read a value's degree or valuation.
    assert not hasattr(qalg.LaurentPoly, "degree")
    assert not hasattr(qalg.LaurentPoly, "valuation")


def test_export_count():
    assert len(qwhitney.__all__) == len(set(qwhitney.__all__)) == 47


def test_names_load_their_module_on_first_use():
    # The package loads no submodule; a name loads the module that defines
    # it, and no other.  __all__ is the table's names, once each, sorted.
    env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
    code = (
        "import sys, qwhitney\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('qwhitney.'))\n"
        "assert loaded() == [], loaded()\n"
        "qwhitney.LaurentPoly\n"
        "assert loaded() == ['qwhitney.qalg'], loaded()\n"
        "names = [name for names in qwhitney._EXPORTS.values() for name in names]\n"
        "assert len(names) == len(set(names))\n"
        "assert qwhitney.__all__ == sorted(names)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
