"""End-to-end tests of the command-line interface."""

import hashlib
import json
from fractions import Fraction

import pytest

from qwhitney.cli import main, parse_grid
from qwhitney.qalg import LaurentPoly
from qwhitney.triangles import Params, lah, whitney2


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestTable:
    def test_lah_text(self, capsys):
        assert run_cli(["table", "--family", "lah", "--m", "1", "--r", "0", "--nmax", "2"]) == 0
        assert capsys.readouterr().out == "1\n0, 1\n0, 1 + q, q^2\n"

    def test_w1_specialized(self, capsys):
        code = run_cli(["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "1", "--q", "1"])
        assert code == 0
        assert capsys.readouterr().out == "1\n-1, 1\n"

    def test_w2_seed_row(self, capsys):
        assert run_cli(["table", "--family", "w2", "--m", "2", "--r", "0", "--nmax", "0"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_json_round_trip(self, capsys):
        code = run_cli(["table", "--family", "lah", "--m", "2", "--r", "-1", "--nmax", "4", "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["family"] == "lah" and doc["m"] == 2 and doc["r"] == -1
        params = Params(2, -1)
        for n, row in enumerate(doc["rows"]):
            assert len(row) == n + 1
            for k, cell in enumerate(row):
                assert LaurentPoly.from_json_dict(cell) == lah(params, n, k)

    def test_csv(self, capsys):
        assert run_cli(["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == '"n","k","value"'
        assert lines[-1] == '2,2,"q"'

    def test_latex(self, capsys):
        assert run_cli(["table", "--family", "w1", "--m", "1", "--r", "0", "--nmax", "2", "--format", "latex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\\begin{tabular}")
        assert "q^{-1}" in out

    def test_specialization_commutes(self, capsys):
        from qwhitney.triangles import whitney1_falling

        args = ["table", "--family", "w1", "--m", "2", "--r", "-1", "--nmax", "4"]
        assert run_cli(args + ["--q", "2/3"]) == 0
        specialized = capsys.readouterr().out.splitlines()
        point = Fraction(2, 3)
        params = Params(2, -1)
        for n, spec_row in enumerate(specialized):
            for k, spec in enumerate(spec_row.split(", ")):
                assert Fraction(spec) == whitney1_falling(params, n, k).eval_at(point)

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["table", "--family", "w2-tilde", "--m", "3", "--r", "2", "--nmax", "5", "--format", "json"]
        assert run_cli(args + ["-o", str(out1)]) == 0
        assert run_cli(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_q_zero_rejected_for_negative_exponents(self, capsys):
        code = run_cli(["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "2", "--q", "0"])
        assert code == 2

    def test_q_zero_allowed_for_nonnegative(self, capsys):
        code = run_cli(["table", "--family", "w2", "--m", "1", "--r", "1", "--nmax", "2", "--q", "0"])
        assert code == 0

    def test_bad_family(self):
        assert run_cli(["table", "--family", "nope", "--m", "1", "--r", "0", "--nmax", "1"]) == 2

    def test_bad_m(self):
        assert run_cli(["table", "--family", "w2", "--m", "0", "--r", "0", "--nmax", "1"]) == 2

    def test_wide_bracket_rejected_promptly(self, capsys):
        # Row 1 of lah at r = 10^9 multiplies by [2 * 10^9]; dense storage of
        # that product would take gigabytes, so the span limit must stop it first.
        code = run_cli(["table", "--family", "lah", "--m", "1", "--r", "1000000000", "--nmax", "1"])
        assert code == 2
        assert "exponent span" in capsys.readouterr().err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code = run_cli(["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "2", "-o", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" in err and "Traceback" not in err
        assert not target.exists()

    def test_cache_option_removed(self, tmp_path):
        args = ["table", "--family", "lah", "--m", "1", "--r", "1", "--nmax", "3", "--cache", str(tmp_path)]
        assert run_cli(args) == 2
        assert not any(tmp_path.iterdir())


class TestDowling:
    def test_form1_text(self, capsys):
        assert run_cli(["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax", "3"]) == 0
        assert capsys.readouterr().out == "1, 1, 1 + q, 1 + 2*q + q^2 + q^3\n"

    def test_form1_bell(self, capsys):
        assert run_cli(["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax", "3", "--q", "1"]) == 0
        assert capsys.readouterr().out == "1, 1, 2, 5\n"

    def test_form3(self, capsys):
        assert run_cli(["dowling", "--form", "3", "--m", "1", "--r", "0", "--nmax", "1"]) == 0
        assert capsys.readouterr().out == "1, 1\n"

    def test_bad_form(self):
        assert run_cli(["dowling", "--form", "4", "--m", "1", "--r", "0", "--nmax", "3"]) == 2

    def test_json(self, capsys):
        assert run_cli(["dowling", "--form", "2", "--m", "2", "--r", "1", "--nmax", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["form"] == 2 and len(doc["values"]) == 4

    # sha256 of `qwhitney dowling --form F --m 2 --r -1 --nmax 8 --format json`:
    # the output bytes are pinned, so a change to the shared row sum cannot
    # silently alter them.
    DIGESTS = {
        1: "4234cb9e3082dda368b37db13a76be2225bcab4f2f65f513b4866948a5777a4b",
        2: "04a1e79e87ce2d7cb543b8d253cf232f859208fa582b482f2e6417b7acf1ac30",
        3: "67ac9222d4b7e9efc4aadab38700abe45f14911c3c7250ffbab6575531cb5132",
    }

    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_bytes_unchanged(self, form, capsys):
        args = ["dowling", "--form", str(form), "--m", "2", "--r", "-1", "--nmax", "8", "--format", "json"]
        assert run_cli(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.DIGESTS[form]


class TestExpand:
    def test_column_zero(self, capsys):
        assert run_cli(["expand", "--k", "0", "--m", "1", "--r", "1", "--order", "2"]) == 0
        assert capsys.readouterr().out == "(0, 1)\n(1, 1)\n(2, 1)\n"

    def test_column_two(self, capsys):
        assert run_cli(["expand", "--k", "2", "--m", "1", "--r", "0", "--order", "3"]) == 0
        assert capsys.readouterr().out == "(2, q)\n(3, 2*q + q^2)\n"

    def test_leading_coefficient(self, capsys):
        assert run_cli(["expand", "--k", "1", "--m", "3", "--r", "2", "--order", "1"]) == 0
        assert capsys.readouterr().out == "(1, q^2)\n"

    def test_order_below_k(self):
        assert run_cli(["expand", "--k", "3", "--m", "1", "--r", "0", "--order", "2"]) == 2

    def test_matches_triangle(self, capsys):
        assert run_cli(["expand", "--k", "2", "--m", "2", "--r", "-1", "--order", "6", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        params = Params(2, -1)
        for line in lines:
            n, value = line.split(",", 1)
            assert value.strip('"') == str(whitney2(params, int(n), 2))


class TestAudit:
    def test_default_single_check_exit_zero(self, capsys):
        code = run_cli(["audit", "--grid", "m=1 r=0,1 nmax=3", "--check", "C06_W_EXPLICIT"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C06_W_EXPLICIT" in out and "verdict: clean" in out

    def test_erratum_present_but_exit_zero(self, capsys):
        code = run_cli(["audit", "--grid", "m=1 r=1 nmax=3", "--check", "C03_W_RECURRENCE_SIGN"])
        assert code == 0
        assert "errata" in capsys.readouterr().out

    def test_sign_check_passes_at_r_zero(self, capsys):
        code = run_cli(["audit", "--grid", "r=0 nmax=3", "--check", "C03_W_RECURRENCE_SIGN", "--json", "-", "--quiet"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert doc["errata"] == []

    def test_unknown_check(self):
        assert run_cli(["audit", "--check", "bogus"]) == 2

    def test_repeated_check_counted_once(self, capsys):
        args = ["audit", "--grid", "m=1 r=0 nmax=3", "--check", "C18_LAH_DIAGONAL"]
        assert run_cli(args) == 0
        single = capsys.readouterr().out
        assert run_cli(args + ["--check", "C18_LAH_DIAGONAL"]) == 0
        assert capsys.readouterr().out == single
        assert "summary: 1 pass, 1 fail" in single

    def test_bad_grid(self):
        assert run_cli(["audit", "--grid", "m=0"]) == 2
        assert run_cli(["audit", "--grid", "whatever"]) == 2

    def test_json_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["audit", "--grid", "m=1 r=-1..1 nmax=3", "--json", str(out), "--quiet"])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["grid"] == {"m": [1], "r": [-1, 0, 1], "nmax": 3}
        assert doc["summary"]["fail"] > 0  # expected verbatim findings
        assert doc["errata"]


    def test_unwritable_json_exits_two(self, tmp_path, capsys):
        # Exit 1 means a genuine audit failure, so a write error must not use it.
        target = tmp_path / "missing" / "report.json"
        code = run_cli(["audit", "--grid", "m=1 r=0 nmax=2", "--quiet", "--json", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" in err and "Traceback" not in err


class TestGridParsing:
    def test_defaults(self):
        grid = parse_grid(None)
        assert grid.m_values == (1, 2, 3)
        assert grid.r_values == (-2, -1, 0, 1, 2, 3)
        assert grid.nmax == 10

    def test_ranges_and_lists(self):
        grid = parse_grid("m=2,1;r=-1..1 nmax=5")
        assert grid.m_values == (1, 2)
        assert grid.r_values == (-1, 0, 1)
        assert grid.nmax == 5

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            parse_grid("qmax=3")
