"""Kernel mutants: hand-written faults in a copy of the package, and what the
audit sees of each.

Each mutant replaces one text, found exactly once, in `qalg.py` of a copy of
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

MUTANT_CHECKS = ["C14_LAH_COMPOSITION", "C15_W_FROM_LAH", "C16_DOWLING_QI"]
INVERSE_ROUTES = [
    "audit", "--grid", "m=2 r=-3 nmax=16", *(arg for check in MUTANT_CHECKS for arg in ("--check", check)),
    "--quiet", "--json", "report.json",
]
DEFAULT_AUDIT = ["audit", "--quiet", "--json", "report.json"]

MUTANTS = [
    # name, old text, new text, argv, (exit code, corrected verdicts or report digest)
    ("unmutated", None, None, INVERSE_ROUTES, (0, dict.fromkeys(MUTANT_CHECKS, ("pass", None)))),
    # `abs(b)` in `lp_add_bracket`'s centre test changes, for m 1..3, r -3..3
    # and n <= 16, only w1-rising at (2, -3), a point below the default
    # grid's r = -2; the matrix routes through it fail at (2, 0).
    ("abs-b", "+ b - 1)", "+ abs(b) - 1)", INVERSE_ROUTES, (1, dict.fromkeys(MUTANT_CHECKS, ("fail", (2, 0))))),
    # A slot one bit too narrow when the product bound is a whole number of
    # bytes: the default audit keeps its bytes.  Tier-1 sees it in
    # tests/test_qalg.py::TestMul::test_slot_width_boundary.
    ("slot-width", "+ 8) // 8", "+ 7) // 8", DEFAULT_AUDIT, (0, pins.DIGESTS["audit"])),
]


def _corrected(report: dict) -> dict:
    return {
        res["id"]: (res["status"], (res["counterexample"]["n"], res["counterexample"]["k"]) if "counterexample" in res else None)
        for res in report["checks"]
        if res["variant"] == "corrected"
    }


@pytest.mark.parametrize("old, new, argv, expected", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS])
def test_kernel_mutant(tmp_path, old, new, argv, expected):
    package = tmp_path / "qwhitney"
    shutil.copytree(Path(qwhitney.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    if old is not None:
        text = (package / "qalg.py").read_text()
        assert text.count(old) == 1
        (package / "qalg.py").write_text(text.replace(old, new))
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
