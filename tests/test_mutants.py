"""Mutants: hand-written faults in a copy of the package, and what the audit
sees of each.

Each mutant replaces one text, found exactly once, in one file of a copy of
the package under `tmp_path`, runs one `qwhitney` argv on the copy in a
subprocess, and pins the exit code and the report: the corrected verdicts
of the named checks, or, for a mutant the audit does not see, the digest of
the unmutated report.  A mutant the audit does not see names the tier-1
test that does in its comment.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import pins
import qwhitney
from qwhitney.audit import REGISTRY

MUTANT_CHECKS = ["C14_LAH_COMPOSITION", "C15_W_FROM_LAH", "C16_DOWLING_QI"]
INVERSE_ROUTES = [
    "audit", "--grid", "m=2 r=-3 nmax=16", *(arg for check in MUTANT_CHECKS for arg in ("--check", check)),
    "--quiet", "--json", "report.json",
]
DEFAULT_AUDIT = ["audit", "--quiet", "--json", "report.json"]
# Every corrected verdict of the default audit passes unmutated.
DEFAULT_CORRECTED = dict.fromkeys((cid for cid, check in REGISTRY.items() if len(check.variants) == 2), ("pass", None))
# One point of the default grid, where every corrected verdict passes unmutated.
ROW_STEP_CHECKS = ["C03_W_RECURRENCE_SIGN", "C14_LAH_COMPOSITION", "C19_LAH_COLUMN_ZERO", "C24_W1_BOUNDARY"]
ROW_STEP = [
    "audit", "--grid", "m=2 r=1 nmax=10", *(arg for check in ROW_STEP_CHECKS for arg in ("--check", check)),
    "--quiet", "--json", "report.json",
]

MUTANTS = [
    # name, file, old text, new text, argv, (exit code, corrected verdicts or report digest)
    ("unmutated", None, None, None, INVERSE_ROUTES, (0, dict.fromkeys(MUTANT_CHECKS, ("pass", None)))),
    # `abs(b)` in `lp_add_bracket`'s centre test changes, for m 1..3, r -3..3
    # and n <= 16, only w1-rising at (2, -3), a point below the default
    # grid's r = -2; the matrix routes through it fail at (2, 0).
    ("abs-b", "qalg.py", "+ b - 1)", "+ abs(b) - 1)", INVERSE_ROUTES, (1, dict.fromkeys(MUTANT_CHECKS, ("fail", (2, 0))))),
    # A slot one bit too narrow when the product bound is a whole number of
    # bytes: the default audit keeps its bytes.  Tier-1 sees it in
    # tests/test_qalg.py::TestMul::test_slot_width_boundary.
    ("slot-width", "qalg.py", "+ 8) // 8", "+ 7) // 8", DEFAULT_AUDIT, (0, pins.DIGESTS["audit"])),
    # The row step reads the weights of row n - 1.  The w2 forms' weights do
    # not depend on n, so C03 passes; w1 and lah fail from row 1.  C14 (and
    # C15, C16: m 1..3, r -3..3, nmax 12) cannot see it: the mutant's
    # w1-rising is the true one at r - m, and its lah the true composition of
    # that with w2 at r.
    (
        "row-index", "triangles.py", "weights(m, r, n, k)", "weights(m, r, n - 1, k)", ROW_STEP,
        (1, {"C03_W_RECURRENCE_SIGN": ("pass", None), "C14_LAH_COMPOSITION": ("pass", None),
             "C19_LAH_COLUMN_ZERO": ("fail", (1, 0)), "C24_W1_BOUNDARY": ("fail", (1, 0))}),
    ),
    # Horner's rule in `eval_at` takes powers of the numerator p for those of
    # the denominator d: the default audit keeps its bytes, since its only
    # evaluation is C26's at q = 1, where p = d.  The `tq.text` pin changes.
    # Tier-1 sees it in tests/test_qalg.py::TestEval::test_rational_point,
    # ::test_homomorphism and ::test_matches_term_by_term_sum, and in the
    # CLI's `--q` digests.
    ("horner", "qalg.py", "dk *= d", "dk *= p", DEFAULT_AUDIT, (0, pins.DIGESTS["audit"])),
    # A cross-block suffix one exponent late in `_render`: every verdict is
    # unchanged, but the report's bytes change, since a counterexample that
    # spans exponent 0 crosses from block -1 to block 0.  The `audit` quick
    # pin (tests/test_pins.py::test_quick_pins_replay) and four tests of
    # tests/test_qalg.py::TestRendering catch it.
    (
        "suffix-shift", "qalg.py", "islice(chain.from_iterable(blocks), lo, lo + n)",
        "islice(chain.from_iterable(blocks), lo + 1, lo + n + 1)", DEFAULT_AUDIT, (0, DEFAULT_CORRECTED),
    ),
]


def _corrected(report: dict) -> dict:
    return {
        res["id"]: (res["status"], (res["counterexample"]["n"], res["counterexample"]["k"]) if "counterexample" in res else None)
        for res in report["checks"]
        if res["variant"] == "corrected"
    }


@pytest.mark.parametrize("file, old, new, argv, expected", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_kernel_mutant(tmp_path, file, old, new, argv, expected):
    package = tmp_path / "qwhitney"
    shutil.copytree(Path(qwhitney.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    if file is not None:
        text = (package / file).read_text()
        assert text.count(old) == 1
        (package / file).write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-m", "qwhitney.cli", *argv], cwd=tmp_path, capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
    )
    code, report = expected
    assert proc.returncode == code, proc.stderr.decode()
    data = (tmp_path / "report.json").read_bytes()
    if isinstance(report, str):
        assert hashlib.sha256(data).hexdigest() == report
    else:
        assert _corrected(json.loads(data)) == report
