"""Tests for the identity registry, grid runner and report assembly."""

import dataclasses
import functools
import gc
import hashlib
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path

import pytest

import qwhitney
from qwhitney import audit, formulas, qalg, triangles, upoly
from qwhitney.qalg import ONE, Q, SpanTooWideError, ZERO, q_power
from qwhitney.audit import (
    DEFAULT_GRID,
    Counterexample,
    ParamGrid,
    REGISTRY,
    UnknownCheckIdError,
    _first_mismatch,
    _usable_cpus,
    run_all,
)
from qwhitney.cli import main
from qwhitney.formulas import Variant
from qwhitney.triangles import FamilyId, Params, _WEIGHTS, clear_registry, dowling, get_triangle
import pins

FAST_GRID = ParamGrid((1, 2, 3), tuple(range(-2, 4)), 6)


def _bracket_one_up(monkeypatch, family):
    """Refill the family from a wrong weight row, [b + 1] in place of [b]."""
    row = _WEIGHTS[family]
    monkeypatch.setitem(_WEIGHTS, family, lambda *mrnk: (row(*mrnk)[0], row(*mrnk)[1] + 1))
    clear_registry()


EXPECTED_ERRATA = [
    "C03_W_RECURRENCE_SIGN",
    "C11_LAH_VERTICAL",
    "C14_LAH_COMPOSITION",
    "C15_W_FROM_LAH",
    "C16_DOWLING_QI",
    "C18_LAH_DIAGONAL",
    "C19_LAH_COLUMN_ZERO",
    "C24_W1_BOUNDARY",
    "C25_W1_TABLE",
]


class TestRegistry:
    def test_expected_ids(self):
        assert list(REGISTRY) == [
            "C01_W_HORIZ_GF",
            "C02_W_FORMS_SCALING",
            "C03_W_RECURRENCE_SIGN",
            "C04_W_VERTICAL",
            "C05_W_HORIZONTAL",
            "C06_W_EXPLICIT",
            "C07_W_EGF",
            "C08_W_RATIONAL_GF",
            "C09_DOWLING_FORMS",
            "C10_LAH_TRIANGULAR",
            "C11_LAH_VERTICAL",
            "C12_ORTHOGONALITY",
            "C13_INVERSE_RELATIONS",
            "C14_LAH_COMPOSITION",
            "C15_W_FROM_LAH",
            "C16_DOWLING_QI",
            "C17_LAH_HORIZ_GF",
            "C18_LAH_DIAGONAL",
            "C19_LAH_COLUMN_ZERO",
            "C20_LAH_EXPLICIT",
            "C21_LAH_NEWTON",
            "C22_LAH_EGF",
            "C23_W1_RECURRENCE",
            "C24_W1_BOUNDARY",
            "C25_W1_TABLE",
            "C26_CLASSICAL_LIMITS",
        ]

    def test_dual_variant_checks(self):
        dual = [cid for cid, c in REGISTRY.items() if len(c.variants) == 2]
        assert dual == EXPECTED_ERRATA

    def test_readme_documents_every_check(self):
        # The README's audit table is the documented list; it must stay in
        # sync with the registry.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        documented = set(re.findall(r"C\d\d_[A-Z0-9_]+", readme.read_text()))
        assert documented == set(REGISTRY)


class TestParamGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParamGrid((), (0,), 5)
        with pytest.raises(ValueError):
            ParamGrid((1,), (), 5)
        with pytest.raises(ValueError):
            ParamGrid((0,), (0,), 5)
        with pytest.raises(ValueError):
            ParamGrid((1,), (0,), 1)

    @pytest.mark.parametrize(
        "m_values, r_values, nmax",
        [((True,), (0,), 2), ((1,), (False,), 4), ((1,), (0,), True)],
        ids=["bool-m", "bool-r", "bool-nmax"],
    )
    def test_rejects_bool(self, m_values, r_values, nmax):
        # Accepted, a bool would reach the JSON report as true or false.
        with pytest.raises(ValueError):
            ParamGrid(m_values, r_values, nmax)

    def test_values_sorted_deduplicated(self):
        grid = ParamGrid((3, 1, 3), (2, -1, 2), 4)
        assert grid.m_values == (1, 3)
        assert grid.r_values == (-1, 2)


class TestFirstMismatch:
    """The one comparison loop every check runs through."""

    @staticmethod
    def entries(bad):
        # Each entry is q^(10n + k), except at the cells named in bad.
        return lambda n, k: q_power(10 * n + k) + (ONE if (n, k) in bad else ZERO)

    def test_all_agree(self):
        exact = self.entries(set())
        assert _first_mismatch([(0, 0), (2, 1), (1, 1)], (exact, exact), (exact, exact)) is None

    def test_cells_in_given_order(self):
        exact, bad = self.entries(set()), self.entries({(1, 0), (2, 1)})
        # (2, 1) comes first in the given order, though (1, 0) is smaller.
        ce = _first_mismatch([(0, 0), (2, 1), (1, 0)], (bad, exact))
        assert ce == Counterexample(2, 1, bad(2, 1), exact(2, 1))

    def test_pairs_in_order_within_a_cell(self):
        exact = self.entries(set())
        first, second = self.entries({(1, 1)}), self.entries({(1, 0), (1, 1)})
        # Cell (1, 0) fails only the second pair, so it wins over cell (1, 1).
        ce = _first_mismatch([(1, 0), (1, 1)], (first, exact), (exact, second))
        assert ce == Counterexample(1, 0, exact(1, 0), second(1, 0))
        # Within cell (1, 1) both pairs fail; the first pair is reported.
        ce = _first_mismatch([(1, 1)], (first, exact), (exact, second))
        assert ce == Counterexample(1, 1, first(1, 1), exact(1, 1))


class TestRunCheck:
    """One check over a grid, both variants: `run_all(grid, [check_id]).results`."""

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckIdError):
            run_all(FAST_GRID, ["bogus"])

    def test_orthogonality_passes_everywhere(self):
        results = run_all(ParamGrid((1, 2, 3), tuple(range(-2, 4)), 10), ["C12_ORTHOGONALITY"]).results
        assert all(res.status == "pass" for res in results)

    def test_lah_composition_variants(self):
        results = run_all(ParamGrid((1,), (0,), 6), ["C14_LAH_COMPOSITION"]).results
        by_variant = {res.variant: res for res in results}
        verbatim = by_variant[Variant.VERBATIM]
        assert verbatim.status == "fail"
        # Lexicographically first mismatch; (2, 2) also fails with 1 vs q^2.
        assert (verbatim.counterexample.n, verbatim.counterexample.k) == (2, 1)
        assert by_variant[Variant.CORRECTED].status == "pass"

    def test_recurrence_sign_invisible_at_r_zero(self):
        results = run_all(ParamGrid((1, 2, 3), (0,), 6), ["C03_W_RECURRENCE_SIGN"]).results
        assert all(res.status == "pass" for res in results)

    def test_recurrence_sign_counterexample(self):
        results = run_all(ParamGrid((1,), (1,), 6), ["C03_W_RECURRENCE_SIGN"]).results
        verbatim = next(res for res in results if res.variant is Variant.VERBATIM)
        assert verbatim.status == "fail"
        ce = verbatim.counterexample
        assert (ce.n, ce.k) == (1, 0)
        assert ce.lhs == -q_power(-1) and ce.rhs == ONE

    def test_lah_diagonal_minimal_counterexample(self):
        results = run_all(ParamGrid((1,), (0,), 6), ["C18_LAH_DIAGONAL"]).results
        verbatim = next(res for res in results if res.variant is Variant.VERBATIM)
        ce = verbatim.counterexample
        # 2rn + m n (n-1) first differs from 0 at n = 2 when r = 0, m = 1.
        assert (ce.n, ce.k) == (2, 2)
        assert ce.lhs == ONE and ce.rhs == q_power(2)

    @pytest.mark.parametrize(
        "reused, source",
        [
            ("C07_W_EGF", "C06_W_EXPLICIT"),
            ("C21_LAH_NEWTON", "C20_LAH_EXPLICIT"),
            ("C22_LAH_EGF", "C20_LAH_EXPLICIT"),
        ],
    )
    def test_reused_sum_matches_its_source(self, reused, source):
        grid = ParamGrid((1, 2), (-1, 0, 2), 5)

        def verdicts(check_id):
            return [(res.m, res.r, res.status, res.counterexample) for res in run_all(grid, [check_id]).results]

        assert verdicts(reused) == verdicts(source)

    def test_dowling_forms_see_a_wrong_form_triangle(self, monkeypatch):
        grid = ParamGrid((1, 2), (0, 1), 4)
        assert all(res.status == "pass" for res in run_all(grid, ["C09_DOWLING_FORMS"]).results)
        # A form-2 triangle filled with a wrong diagonal weight, q^1 for q^0.
        clear_registry()
        monkeypatch.setitem(_WEIGHTS, FamilyId.W2_FORM2, lambda m, r, n, k: (1, m * k + r))
        try:
            results = run_all(grid, ["C09_DOWLING_FORMS"]).results
        finally:
            clear_registry()
        assert all(res.status == "fail" for res in results)
        for res in results:
            ce = res.counterexample
            assert (ce.n, ce.k) == (1, 0)
            assert ce.lhs - ce.rhs == q_power(1) - ONE

    def test_inverse_relations_report_a_non_unit_diagonal(self):
        # w1 at (2, 1) with +1 added at its diagonal cell (5, 5) has no
        # inverse from row 5 on: C13 fails there, holding that entry, and the
        # rest of the audit still runs.
        grid = ParamGrid((2,), (1,), 8)
        clear_registry()
        w1 = get_triangle(FamilyId.W1_FALLING, Params(2, 1))
        w1.row(grid.nmax)
        bad = w1.value(5, 5) + ONE
        w1._rows[5][5] = bad
        try:
            (res,) = run_all(grid, ["C13_INVERSE_RELATIONS"]).results
            report = run_all(grid)
            partner = get_triangle(FamilyId.W2, Params(2, 1)).value(5, 5)
        finally:
            clear_registry()
        ce = res.counterexample
        assert res.status == "fail"
        assert (ce.n, ce.k, ce.lhs, ce.rhs) == (5, 5, bad, partner)
        assert [r for r in report.results if r.check == "C13_INVERSE_RELATIONS"] == [res]

    def test_lah_routes_report_a_non_unit_rising_diagonal(self):
        # The corrected C15 and C16 invert w1-rising; with +1 at its cell
        # (5, 5) they fail there by C13's rule, and the verbatim forms,
        # which invert nothing, keep their verdicts.
        p, grid = Params(2, 1), ParamGrid((2,), (1,), 8)
        clear_registry()
        rising = get_triangle(FamilyId.W1_RISING, p)
        rising.row(grid.nmax)
        bad = rising.value(5, 5) + ONE
        rising._rows[5][5] = bad
        try:
            results = {
                (res.check, res.variant): res
                for cid in ("C15_W_FROM_LAH", "C16_DOWLING_QI")
                for res in run_all(grid, [cid]).results
            }
            wants = (get_triangle(FamilyId.W2, p).value(5, 5), dowling(p, 1, 5))
        finally:
            clear_registry()
        for cid, want in zip(("C15_W_FROM_LAH", "C16_DOWLING_QI"), wants):
            ce = results[cid, Variant.CORRECTED].counterexample
            assert (ce.n, ce.k, ce.lhs, ce.rhs) == (5, 5, bad, want)
            assert results[cid, Variant.VERBATIM] == run_all(grid, [cid]).results[0]

    def test_explicit_verdicts_follow_a_cleared_registry(self, monkeypatch):
        # C07, C21 and C22 report the C06/C20 verdict; a registry cleared
        # after a weight change must not serve the verdict of the old triangle.
        grid = ParamGrid((2,), (1,), 5)
        ids = ["C06_W_EXPLICIT", "C07_W_EGF", "C20_LAH_EXPLICIT", "C21_LAH_NEWTON", "C22_LAH_EGF"]
        assert [res.status for cid in ids for res in run_all(grid, [cid]).results] == ["pass"] * 5
        _bracket_one_up(monkeypatch, FamilyId.W2)
        _bracket_one_up(monkeypatch, FamilyId.LAH)
        try:
            statuses = [res.status for cid in ids for res in run_all(grid, [cid]).results]
        finally:
            clear_registry()
        assert statuses == ["fail"] * 5

    def test_explicit_verdicts_free_a_cleared_triangle(self):
        # The kept verdict must not hold its triangle alive: a cleared
        # registry frees the judged triangles, rows and inverse included.
        clear_registry()
        grid = ParamGrid((2,), (1,), 5)
        for cid in ("C06_W_EXPLICIT", "C07_W_EGF", "C20_LAH_EXPLICIT", "C21_LAH_NEWTON"):
            run_all(grid, [cid])
        refs = [weakref.ref(get_triangle(family, Params(2, 1))) for family in (FamilyId.W2, FamilyId.LAH)]
        clear_registry()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_explicit_verdicts_follow_rows_changed_in_place(self):
        # No verdict outlives its grid point: after the judged triangle's rows
        # change in place, with the registry kept, C20 fails as C10 does.
        clear_registry()
        grid = ParamGrid((2,), (1,), 6)
        try:
            assert run_all(grid, ["C20_LAH_EXPLICIT"]).results[0].status == "pass"
            get_triangle(FamilyId.LAH, Params(2, 1))._rows[4][2] += ONE
            results = run_all(grid, ["C10_LAH_TRIANGULAR", "C20_LAH_EXPLICIT"]).results
        finally:
            clear_registry()
        assert [(res.check, res.status) for res in results] == [("C10_LAH_TRIANGULAR", "fail"), ("C20_LAH_EXPLICIT", "fail")]
        assert [(res.counterexample.n, res.counterexample.k) for res in results] == [(4, 2), (4, 2)]

    @pytest.mark.parametrize(
        "route, checks",
        [("direct", ["C20_LAH_EXPLICIT"]), ("run_all", ["C20_LAH_EXPLICIT", "C22_LAH_EGF"])],
    )
    def test_explicit_verdict_after_clear_registry(self, monkeypatch, route, checks):
        # No verdict outlives its call: after clear_registry(), a direct
        # call of the C20 fn and a run_all both judge the refilled triangle.
        fn, p = REGISTRY["C20_LAH_EXPLICIT"].fn, Params(2, 1)
        clear_registry()
        assert fn(Variant.VERBATIM, p, 6) is None
        _bracket_one_up(monkeypatch, FamilyId.LAH)
        try:
            if route == "direct":
                found = {"C20_LAH_EXPLICIT": fn(Variant.VERBATIM, p, 6)}
            else:
                found = {res.check: res.counterexample for res in run_all(ParamGrid((2,), (1,), 6), checks).results}
        finally:
            clear_registry()
        assert {cid: (ce.n, ce.k) for cid, ce in found.items()} == dict.fromkeys(checks, (1, 0))

    def test_explicit_verdicts_shared_under_per_id_wrappers(self, monkeypatch):
        # A tracer wraps each check id's function on its own with
        # functools.wraps, as perfbench/tracer.py does; every wrapper is
        # called, and C07 still reports the C06 verdict and C21, C22 the C20
        # one, so each evaluator runs once per cell and point.
        ids = ["C06_W_EXPLICIT", "C07_W_EGF", "C20_LAH_EXPLICIT", "C21_LAH_NEWTON", "C22_LAH_EGF"]
        fns = [REGISTRY[cid].fn for cid in ids]
        calls = Counter()

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for cid in ids:
            monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(REGISTRY[cid], fn=counted(cid, REGISTRY[cid].fn)))
        for name in ("whitney2_explicit", "lah_explicit"):
            monkeypatch.setattr(audit, name, counted(name, getattr(audit, name)))
        for run in (1, 2):
            results = audit._run_point(ids, 8, Params(2, 1))
            assert [res.status for res in results] == ["pass"] * 5
            assert calls == {**dict.fromkeys(ids, run), "whitney2_explicit": 45 * run, "lah_explicit": 45 * run}
        assert fns[0] is fns[1] and fns[2] is fns[3] is fns[4]

    def test_audit_keeps_no_memo(self):
        # It defines no memo (those it imports hold no verdict): verdicts are
        # shared only within one _run_point call.
        own = [name for name, obj in vars(audit).items() if hasattr(obj, "cache_clear") and obj.__module__ == audit.__name__]
        assert own == []

    def test_no_verdict_outlives_a_raising_point(self, monkeypatch):
        def raising(*args):
            raise RuntimeError("check failed to run")

        monkeypatch.setitem(REGISTRY, "C26_CLASSICAL_LIMITS", dataclasses.replace(REGISTRY["C26_CLASSICAL_LIMITS"], fn=raising))
        with pytest.raises(RuntimeError):
            audit._run_point(["C20_LAH_EXPLICIT", "C26_CLASSICAL_LIMITS"], 6, Params(2, 1))
        assert audit._point_verdicts.get(None) is None

    @pytest.mark.parametrize(
        "family, check_id, lhs, rhs",
        [
            (FamilyId.W2, "C01_W_HORIZ_GF", "q", "0"),
            (FamilyId.LAH, "C17_LAH_HORIZ_GF", "1 + q + q^2", "1 + q"),
        ],
    )
    def test_horizontal_gf_counterexample(self, monkeypatch, family, check_id, lhs, rhs):
        _bracket_one_up(monkeypatch, family)
        try:
            (res,) = run_all(ParamGrid((2,), (1,), 6), [check_id]).results
        finally:
            clear_registry()
        ce = res.counterexample
        assert res.status == "fail"
        assert (ce.n, ce.k, str(ce.lhs), str(ce.rhs)) == (1, 0, lhs, rhs)

    def test_fail_results_carry_counterexamples(self):
        for check_id in EXPECTED_ERRATA:
            for res in run_all(ParamGrid((1,), (1,), 4), [check_id]).results:
                if res.status == "fail":
                    assert res.counterexample is not None
                    assert res.counterexample.lhs != res.counterexample.rhs
                else:
                    assert res.counterexample is None


class TestRunAll:
    def test_golden_errata(self):
        report = run_all(FAST_GRID)
        assert report.errata == EXPECTED_ERRATA
        assert report.clean

    def test_every_check_present_at_every_point(self):
        grid = ParamGrid((1, 2), (-1, 1), 2)
        report = run_all(grid)
        seen = {(res.check, res.m, res.r) for res in report.results}
        for check_id in REGISTRY:
            for m in grid.m_values:
                for r in grid.r_values:
                    assert (check_id, m, r) in seen

    def test_r_zero_grid_drops_sign_erratum(self):
        report = run_all(ParamGrid((1, 2, 3), (0,), 5))
        assert report.errata == [e for e in EXPECTED_ERRATA if e != "C03_W_RECURRENCE_SIGN"]
        assert report.clean

    def test_deterministic_reports(self):
        grid = ParamGrid((1, 2), (-1, 0, 2), 4)
        assert run_all(grid).to_json_str() == run_all(grid).to_json_str()

    def test_json_shape(self):
        report = run_all(ParamGrid((1,), (1,), 3), ["C03_W_RECURRENCE_SIGN"])
        doc = report.to_json_dict()
        assert set(doc) == {"grid", "checks", "summary", "errata"}
        fail = next(c for c in doc["checks"] if c["status"] == "fail")
        assert set(fail) == {"id", "variant", "m", "r", "status", "counterexample"}
        assert set(fail["counterexample"]) == {"n", "k", "lhs", "rhs"}
        passing = next(c for c in doc["checks"] if c["status"] == "pass")
        assert "counterexample" not in passing

    def test_unknown_subset_id(self):
        with pytest.raises(UnknownCheckIdError):
            run_all(FAST_GRID, ["C01_W_HORIZ_GF", "nope"])

    def test_table_rendering_mentions_errata(self):
        report = run_all(ParamGrid((1,), (1,), 3))
        table = report.render_table()
        assert "C03_W_RECURRENCE_SIGN" in table
        assert "errata" in table
        assert table.strip().endswith("verdict: clean")

    def test_minimal_grid_well_formed(self):
        report = run_all(ParamGrid((1,), (0,), 2))
        assert {res.check for res in report.results} == set(REGISTRY)
        counts = report.counts
        assert counts["total"] == counts["pass"] + counts["fail"]


class TestWorkers:
    """Grid points run in forked workers, one per usable CPU, or in process."""

    GRID = ParamGrid((1, 2, 3), tuple(range(-2, 4)), 6)
    # Both points are too wide to fill; the first one's error is the one raised.
    FAILING = ParamGrid((1,), (17000000, 17000001), 2)

    def test_pool_changes_nothing(self, monkeypatch):
        reports = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            report = run_all(self.GRID)
            assert multiprocessing.active_children() == []
            assert report.counts["fail"] > 0
            reports.append(report.to_json_str())
            with pytest.raises(SpanTooWideError, match="span 17000000 ") as err:
                run_all(self.FAILING)
            assert multiprocessing.active_children() == []
            pooled = len(cpus) > 1 and hasattr(os, "fork")
            # A pooled error carries the worker's traceback as its cause.
            cause = err.value.__cause__
            assert (cause is not None and "_run_point" in str(cause)) is pooled
        assert reports[0] == reports[1]

    # sha256 of `qwhitney table --family lah --m 3 --r 3 --nmax 40`.
    LAH_40 = pins.DIGESTS["lah40"]

    def test_no_fork_runs_in_process(self, monkeypatch, tmp_path):
        # Where `os` has no `fork`, two usable CPUs count as one: the audit and
        # a table long enough for two writers run in this process, since any
        # fork would raise, and give the same bytes.
        grid = ParamGrid((1,), (0, 1), 6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        expected = run_all(grid).to_json_str()
        monkeypatch.delattr(os, "fork", raising=False)
        assert _usable_cpus() == 1
        assert run_all(grid).to_json_str() == expected
        out = tmp_path / "lah.txt"
        assert main(["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "40", "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LAH_40

    # A grid long enough that its points are still running when a signal comes.
    LONG = ["audit", "--grid", "nmax=14", "--quiet"]

    def test_killed_worker_exits_two(self):
        with _session(CLI, *self.LONG) as proc:
            os.kill(_workers(proc.pid)[0], signal.SIGKILL)
            _, err = proc.communicate(timeout=30)
            assert proc.returncode == 2
            assert err.startswith("qwhitney: error: an audit worker process died: ")
            assert err.count("\n") == 1
            assert _pgrep("-g", proc.pid) == []

    def test_unreadable_worker_error_raises(self):
        # The parent cannot rebuild this error from its pickle, which holds one argument.
        code = """
from concurrent.futures import BrokenExecutor
from qwhitney import audit

class TwoArgumentError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")

def fail(*args):
    raise TwoArgumentError(1, 2)

audit.whitney2_vertical = fail
try:
    audit.run_all(audit.ParamGrid((1,), (0, 1), 3), ["C04_W_VERTICAL"])
except BrokenExecutor as exc:
    print(type(exc).__name__)
"""
        with _session(code) as proc:
            out, _ = proc.communicate(timeout=30)
            assert (proc.returncode, out) == (0, "BrokenProcessPool\n")

    def test_interrupt_stops_every_process(self):
        with _session(CLI, *self.LONG) as proc:
            _workers(proc.pid)
            start = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            proc.communicate(timeout=30)
            assert proc.returncode != 0
            assert time.monotonic() - start < 5
            assert _pgrep("-g", proc.pid) == []


# Run in a new interpreter as if two CPUs were usable, so the grid points run
# in forked workers.
TWO_CPUS = "import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
CLI = "import sys\nfrom qwhitney.cli import main\nsys.exit(main())\n"


@contextmanager
def _session(code, *argv):
    """A new interpreter in a session of its own running CODE with ARGV;
    whatever of the session is left at the end is killed, so a test that
    fails on a hang or a timeout leaves no process behind."""
    env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-c", TWO_CPUS + code, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        yield proc
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _pgrep(flag, pid):
    """The processes `pgrep FLAG PID` lists: -P for children, -g for a group."""
    out = subprocess.run(["pgrep", flag, str(pid)], capture_output=True, text=True, timeout=10).stdout
    return [int(line) for line in out.split()]


def _workers(pid):
    """The two worker processes of PID, once both have started."""
    for _ in range(600):
        children = _pgrep("-P", pid)
        if len(children) == 2:
            return children
        time.sleep(0.05)
    pytest.fail("the two worker processes did not start")


class TestClassicalLimits:
    def test_passes_on_default_grid(self):
        results = run_all(DEFAULT_GRID, ["C26_CLASSICAL_LIMITS"]).results
        assert all(res.status == "pass" for res in results)
        points = {(res.m, res.r) for res in results}
        assert len(points) == len(DEFAULT_GRID.m_values) * len(DEFAULT_GRID.r_values)


# -- fault injection -------------------------------------------------------
# One wrong entry is written into one filled triangle at (2, 1), and the
# results that differ from a clean run are pinned: they name the checks
# that read that triangle, so a route that stops reading it shows here.

SWEEP_POINT = Params(2, 1)
SWEEP_GRID = ParamGrid((2,), (1,), 8)
SWEEP_CELLS = [(5, 2), (8, 3), (6, 0), (5, 5)]
SWEEP_FAULTS = {"plus-one": ONE, "plus-q-minus-one": Q - ONE}


def _ids(verbatim: str, corrected: str = "") -> set[tuple[str, Variant]]:
    return {(c, Variant.VERBATIM) for c in verbatim.split()} | {
        (c, Variant.CORRECTED) for c in corrected.split()
    }


SWEEP_CHANGES = {
    FamilyId.W2: _ids("C01 C02 C04 C05 C06 C07 C08 C09 C12 C13", "C03 C14 C15 C16"),
    FamilyId.W2_FORM2: _ids("C02 C09"),
    FamilyId.W2_FORM3: _ids("C02 C09"),
    FamilyId.W1_FALLING: _ids("C12 C13 C23"),
    # No check compares w1-rising with its own rising product; only the
    # matrix routes see it.
    FamilyId.W1_RISING: _ids("", "C14 C15 C16"),
    FamilyId.LAH: _ids("C10 C17 C20 C21 C22 C26", "C11 C14 C15 C16"),
}


def _sweep_run(fault=None) -> dict[tuple[str, Variant], object]:
    """Every result at the sweep point, keyed by (check number, variant),
    with the fault (family, cell, addend) written after the fill."""
    clear_registry()
    try:
        for family in SWEEP_CHANGES:
            get_triangle(family, SWEEP_POINT).row(SWEEP_GRID.nmax)
        if fault is not None:
            family, (n, k), addend = fault
            rows = get_triangle(family, SWEEP_POINT)._rows
            rows[n][k] = rows[n][k] + addend
        return {(res.check[:3], res.variant): res for res in run_all(SWEEP_GRID).results}
    finally:
        clear_registry()


@pytest.fixture(scope="module")
def clean_sweep_run():
    return _sweep_run()


@pytest.mark.parametrize("fault", SWEEP_FAULTS)
@pytest.mark.parametrize("cell", SWEEP_CELLS)
@pytest.mark.parametrize("family", SWEEP_CHANGES, ids=lambda f: f.value)
def test_fault_sweep(clean_sweep_run, family, cell, fault):
    results = _sweep_run((family, cell, SWEEP_FAULTS[fault]))
    changed = {key for key, res in results.items() if res != clean_sweep_run[key]}
    expected = set(SWEEP_CHANGES[family])
    if family is FamilyId.W1_FALLING and cell == (6, 0):
        expected |= _ids("", "C24")
    if family is FamilyId.LAH:
        expected |= _ids("", {(6, 0): "C19", (5, 5): "C18"}.get(cell, ""))
        if fault == "plus-q-minus-one":
            # The q -> 1 limits cannot see a fault that vanishes at q = 1.
            expected -= _ids("C26")
    assert changed == expected
    assert all(results[key].status == "fail" for key in changed)
    assert len({check for check, _ in changed}) >= 2


# -- route ledger ----------------------------------------------------------
# Which module-level routes each (check, variant) reaches when it runs alone
# at (2, 1) with rows to 6, on a cleared registry and cleared memos: the
# `formulas` functions, the u-series builders, `dowling`, the triangles read
# (family, and +r or -r) with their inverses, and the kernel entry points.
# Class methods are left out, so a change of the u-series or kernel classes
# cannot move the table.  A change that adds an alias or drops a route edits
# the pinned table.

LEDGER_POINT = Params(2, 1)
LEDGER_NMAX = 6
_LEDGER_MODULES = (qalg, upoly, triangles, formulas, audit)
_LEDGER_ROUTES = [
    *(
        (formulas, name)
        for name, obj in vars(formulas).items()
        if callable(obj) and not isinstance(obj, type) and not name.startswith("_")
        and obj.__module__ == formulas.__name__
    ),
    (upoly, "falling_factorial_u"),
    (upoly, "rising_factorial_u"),
    (upoly, "useries_inverse"),
    (triangles, "dowling"),
    (qalg, "lp_dot"),
    (qalg, "lp_add_bracket"),
    (qalg, "lp_div_bracket"),
]


def _read(family: FamilyId, params: Params) -> str:
    """A triangle as the ledger names it: its family and the sign of r."""
    return f"({family.value},{'+r' if params.r == LEDGER_POINT.r else '-r'})"


@pytest.fixture(scope="module")
def route_ledger() -> dict[tuple[str, str], str]:
    """(check number, variant) -> the sorted names of the routes it reaches."""
    reached: set[str] = set()
    memos = [obj for m in _LEDGER_MODULES for obj in vars(m).values() if hasattr(obj, "cache_clear")]

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def get_triangle_recorded(family, params):
        reached.add("get_triangle" + _read(family, params))
        return get_triangle(family, params)

    inverse = triangles.Triangle.__dict__["inverse"]

    def inverse_recorded(tri):
        reached.add("inverse" + _read(tri.family, tri.params))
        return inverse.__get__(tri, triangles.Triangle)

    wrappers = {name: recorded(name, getattr(module, name)) for module, name in _LEDGER_ROUTES}
    wrappers["get_triangle"] = get_triangle_recorded
    ledger = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, wrapper in wrappers.items():
            for module in _LEDGER_MODULES:
                if name in vars(module):
                    mp.setattr(module, name, wrapper)
        mp.setattr(triangles.Triangle, "inverse", property(inverse_recorded))
        try:
            for check_id, check in REGISTRY.items():
                for variant in check.variants:
                    clear_registry()
                    for memo in memos:
                        memo.cache_clear()
                    reached.clear()
                    check.fn(variant, LEDGER_POINT, LEDGER_NMAX)
                    ledger[check_id[:3], variant.value] = " ".join(sorted(reached))
        finally:
            clear_registry()
    return ledger



ROUTE_LEDGER = {
    ('C01', 'verbatim'): 'falling_factorial_u get_triangle(w2,+r) lp_add_bracket lp_dot triangular_sum',
    ('C02', 'verbatim'): 'get_triangle(w2,+r) get_triangle(w2-star,+r) get_triangle(w2-tilde,+r) lp_add_bracket',
    ('C03', 'verbatim'): 'get_triangle(w2,+r) get_triangle(w2,-r) lp_add_bracket',
    ('C03', 'corrected'): 'get_triangle(w2,+r) lp_add_bracket lp_dot',
    ('C04', 'verbatim'): 'get_triangle(w2,+r) lp_add_bracket lp_dot whitney2_vertical',
    ('C05', 'verbatim'): 'get_triangle(w2,+r) lp_add_bracket lp_dot whitney2_horizontal',
    ('C06', 'verbatim'): 'get_triangle(w2,+r) lp_add_bracket lp_div_bracket lp_dot q_difference rising_bracket_product whitney2_explicit',
    ('C07', 'verbatim'): 'get_triangle(w2,+r) lp_add_bracket lp_div_bracket lp_dot q_difference rising_bracket_product whitney2_explicit',
    ('C08', 'verbatim'): 'get_triangle(w2,+r) lp_add_bracket lp_dot useries_inverse whitney2_rational_gf',
    ('C09', 'verbatim'): 'dowling get_triangle(w2,+r) get_triangle(w2-star,+r) get_triangle(w2-tilde,+r) lp_add_bracket',
    ('C10', 'verbatim'): 'get_triangle(lah,+r) lp_add_bracket lp_dot',
    ('C11', 'verbatim'): 'get_triangle(lah,+r) lah_vertical lp_add_bracket lp_dot',
    ('C11', 'corrected'): 'get_triangle(lah,+r) lah_vertical lp_add_bracket lp_dot',
    ('C12', 'verbatim'): 'get_triangle(w1,+r) get_triangle(w2,+r) lp_add_bracket lp_dot triangular_sum',
    ('C13', 'verbatim'): 'get_triangle(w1,+r) get_triangle(w2,+r) inverse(w1,+r) inverse(w2,+r) lp_add_bracket lp_dot',
    ('C14', 'verbatim'): 'get_triangle(lah,+r) get_triangle(w1,-r) get_triangle(w2,+r) lah_via_composition lp_add_bracket lp_dot triangular_sum',
    ('C14', 'corrected'): 'get_triangle(lah,+r) get_triangle(w1-rising,+r) get_triangle(w2,+r) lah_via_composition lp_add_bracket lp_dot triangular_sum',
    ('C15', 'verbatim'): 'get_triangle(lah,+r) get_triangle(w2,+r) get_triangle(w2,-r) lp_add_bracket lp_dot triangular_sum whitney_from_lah',
    ('C15', 'corrected'): 'get_triangle(lah,+r) get_triangle(w1-rising,+r) get_triangle(w2,+r) inverse(w1-rising,+r) lp_add_bracket lp_dot triangular_sum whitney_from_lah',
    ('C16', 'verbatim'): 'dowling dowling_qi get_triangle(lah,+r) get_triangle(w2,+r) get_triangle(w2,-r) lp_add_bracket lp_dot triangular_sum',
    ('C16', 'corrected'): 'dowling dowling_qi get_triangle(lah,+r) get_triangle(w1-rising,+r) get_triangle(w2,+r) inverse(w1-rising,+r) lp_add_bracket lp_dot triangular_sum',
    ('C17', 'verbatim'): 'falling_factorial_u get_triangle(lah,+r) lp_add_bracket lp_dot rising_factorial_u triangular_sum',
    ('C18', 'verbatim'): 'get_triangle(lah,+r) lp_add_bracket',
    ('C18', 'corrected'): 'get_triangle(lah,+r) lp_add_bracket',
    ('C19', 'verbatim'): 'get_triangle(lah,+r) lp_add_bracket lp_dot rising_bracket_product',
    ('C19', 'corrected'): 'get_triangle(lah,+r) lp_add_bracket lp_dot rising_bracket_product',
    ('C20', 'verbatim'): 'get_triangle(lah,+r) lah_explicit lp_add_bracket lp_div_bracket lp_dot q_difference rising_bracket_product',
    ('C21', 'verbatim'): 'get_triangle(lah,+r) lah_explicit lp_add_bracket lp_div_bracket lp_dot q_difference rising_bracket_product',
    ('C22', 'verbatim'): 'get_triangle(lah,+r) lah_explicit lp_add_bracket lp_div_bracket lp_dot q_difference rising_bracket_product',
    ('C23', 'verbatim'): 'falling_factorial_u get_triangle(w1,+r) lp_add_bracket lp_dot',
    ('C24', 'verbatim'): 'get_triangle(w1,+r) lp_add_bracket',
    ('C24', 'corrected'): 'get_triangle(w1,+r) lp_add_bracket lp_dot rising_bracket_product',
    ('C25', 'verbatim'): 'get_triangle(w1,+r) lp_add_bracket',
    ('C25', 'corrected'): 'get_triangle(w1,+r) lp_add_bracket',
    ('C26', 'verbatim'): 'get_triangle(lah,+r) lp_add_bracket',
}
# Check numbers whose every variant reaches the same routes: the later ones
# report the first one's verdict and carry no evidence of their own.
ROUTE_ALIASES = [("C06", "C07"), ("C20", "C21", "C22")]


def test_route_ledger(route_ledger):
    assert route_ledger == ROUTE_LEDGER


def test_route_aliases(route_ledger):
    by_route: dict[tuple[str, ...], list[str]] = {}
    for check_id, check in REGISTRY.items():
        routes = tuple(route_ledger[check_id[:3], variant.value] for variant in check.variants)
        by_route.setdefault(routes, []).append(check_id[:3])
    assert [tuple(ids) for ids in by_route.values() if len(ids) > 1] == ROUTE_ALIASES
