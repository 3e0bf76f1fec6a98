"""End-to-end tests of the command-line interface."""

import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qwhitney
from qwhitney.cli import main, parse_grid
from qwhitney.qalg import LaurentPoly
from qwhitney.triangles import FamilyId, Params, get_triangle


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


def run_to_dev_full(argv):
    """(exit code, stderr) of `qwhitney ARGV > /dev/full` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qwhitney.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=120
        )
    return proc.returncode, proc.stderr.decode()


needs_dev_full = pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")


def readme_examples():
    """(command, stdout) for each `qwhitney ...` line in the README's sh
    blocks that is followed by `# ` output lines."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            shown = list(itertools.takewhile(lambda s: s.startswith("# "), lines[i + 1 :]))
            if line.startswith("qwhitney ") and shown:
                examples.append((line, "".join(s[2:] + "\n" for s in shown)))
    return examples


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
        lah = get_triangle(FamilyId.LAH, Params(2, -1)).value
        for n, row in enumerate(doc["rows"]):
            assert len(row) == n + 1
            for k, cell in enumerate(row):
                assert LaurentPoly({t["e"]: int(t["c"]) for t in cell["terms"]}) == lah(n, k)

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
        args = ["table", "--family", "w1", "--m", "2", "--r", "-1", "--nmax", "4"]
        assert run_cli(args + ["--q", "2/3"]) == 0
        specialized = capsys.readouterr().out.splitlines()
        point = Fraction(2, 3)
        w1 = get_triangle(FamilyId.W1_FALLING, Params(2, -1)).value
        for n, spec_row in enumerate(specialized):
            for k, spec in enumerate(spec_row.split(", ")):
                assert Fraction(spec) == w1(n, k).eval_at(point)

    # sha256 of `qwhitney table --family w1 --m 2 --r -3 --nmax 12 --q=-1/3 --format FMT`:
    # the evaluated cells in the nested JSON rows and in the LaTeX tabular.
    Q_DIGESTS = {
        "json": "620a7a3730967de7ed9ec494cfe3aa8e04f08c57715406fab8b565a3ecb7321f",
        "latex": "0bc900dc7dacde0b30005e4ca0803fe6ea29d5382ac2a7704cfc017b577fbda6",
    }

    @pytest.mark.parametrize("fmt", ["json", "latex"])
    def test_bytes_unchanged_at_q(self, fmt, capsys):
        args = ["table", "--family", "w1", "--m", "2", "--r", "-3", "--nmax", "12", "--q=-1/3", "--format", fmt]
        assert run_cli(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.Q_DIGESTS[fmt]

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["table", "--family", "w2-tilde", "--m", "3", "--r", "2", "--nmax", "5", "--format", "json"]
        assert run_cli(args + ["-o", str(out1)]) == 0
        assert run_cli(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_q_zero_rejected_for_negative_exponents(self, capsys):
        code = run_cli(["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "2", "--q", "0"])
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "3"],
            ["dowling", "--form", "1", "--m", "1", "--r", "-1", "--nmax", "3"],
            ["expand", "--k", "1", "--order", "3", "--m", "1", "--r", "-2"],
        ],
        ids=["table", "dowling", "expand"],
    )
    @pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
    def test_q_zero_writes_nothing(self, args, fmt, tmp_path, capsys):
        # The error comes before the first byte: no partial stdout, no file.
        argv = args + ["--q", "0", "--format", fmt]
        assert run_cli(argv) == 2
        assert capsys.readouterr().out == ""
        target = tmp_path / "out.txt"
        assert run_cli(argv + ["-o", str(target)]) == 2
        assert not target.exists()

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

    @needs_dev_full
    @pytest.mark.parametrize("fmt", ["text", "csv", "json", "latex"])
    def test_write_error_mid_stream_exits_two(self, fmt, capsys):
        # 170 kB of text: the device refuses a write after the file is open.
        args = ["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "12", "--format", fmt]
        assert run_cli(args + ["-o", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "cannot write /dev/full" in captured.err
        assert "Traceback" not in captured.err

    @needs_dev_full
    @pytest.mark.parametrize("nmax", ["1", "12"])
    def test_stdout_write_error_exits_two(self, nmax):
        # Row 1 fits the stdout buffer, so only the flush fails; 170 kB of
        # text fails mid-stream.
        code, err = run_to_dev_full(["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", nmax])
        assert code == 2
        assert err == "qwhitney: error: cannot write stdout: No space left on device\n"

    def test_reader_closing_stdout_early(self):
        # `qwhitney table ... | head -c 20`: 1.6 MB of text, far more than a pipe
        # holds, so the output is still being written when the reader leaves.
        argv = ["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "20"]
        env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
        with subprocess.Popen(
            [sys.executable, "-m", "qwhitney.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.read(20).startswith(b"1\n1 + q + ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0
        assert err == b""

    # sha256 of `qwhitney table --family lah --m 2 --r -1 --nmax 12 --format FMT`:
    # the polynomials themselves, as text, a JSON term list, CSV and LaTeX.
    DIGESTS = {
        "text": "5452470280ef3c023285ec12fa88046747b91cba81a95f1998a8921661190ec9",
        "csv": "4a90fff61ec8a819d0180ec833e4a9b3000d73e7635cb6cab5127292262c7b83",
        "json": "478407030be457eae14f074786bcddf67820b378fd2ca2e5fa0953d546f3e6c1",
        "latex": "b181c171a01429f82065b2c9112c5705ad657c665b8a85aaeeb1ce82708a102f",
    }

    @pytest.mark.parametrize("fmt", list(DIGESTS))
    def test_bytes_unchanged(self, fmt, tmp_path, capsys):
        args = ["table", "--family", "lah", "--m", "2", "--r", "-1", "--nmax", "12", "--format", fmt]
        assert run_cli(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.DIGESTS[fmt]
        target = tmp_path / f"t.{fmt}"
        assert run_cli(args + ["-o", str(target)]) == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == self.DIGESTS[fmt]

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

    # sha256 of `qwhitney dowling --form F --m 2 --r -1 --nmax 8 --format FMT`,
    # alone and with `--q=-1/3`: the output bytes are pinned in every format,
    # so a change to the shared row sum or to the writers cannot silently
    # alter them.
    DIGESTS = {
        1: {
            ("text", None): "4168ae49a35cce4bb96698bbaa50e5523859e5ef2c3751b2d5813b8039c9df71",
            ("text", "-1/3"): "9c45969520c62ba5ca6c94b9b28d15cb67b4cc80825d4cfd550cd72b3aef8d1b",
            ("csv", None): "f70601cb8c1fc82be11ab8e423c206984a79fbf4923433d27e5e5145f8b5308a",
            ("csv", "-1/3"): "3ab87c77ab0fc6acd8fd9d3e37f49e9752973f57dff6a7f1cc27fdb9fa79844b",
            ("json", None): "4234cb9e3082dda368b37db13a76be2225bcab4f2f65f513b4866948a5777a4b",
            ("json", "-1/3"): "8c7f512d7f0fa65c4dd8222711ff26d980c8af494594ad0fa74960a711a0f0fc",
            ("latex", None): "9da042b7c38580ab24a8dc1baeabce2658186828baa2216063cf4ded16fc7603",
            ("latex", "-1/3"): "00dfef948f6cc4c56c3475042953c0a81affafd6d984b86bed989eed0381f9f6",
        },
        2: {
            ("text", None): "d0ae9008ff6cdc9b84b72cd16fd4b87672915519d1cc2440662fe5c2c7993ecc",
            ("text", "-1/3"): "dcd1e390d788af47b95a0375bf0abd0ff3b4f639006caf22e6da8c3c17b839a0",
            ("csv", None): "b0e9a07c7f8c1ca99bceca362ac39f838f13a69b52c75d3be850b373357d8ec9",
            ("csv", "-1/3"): "b8f0c1a32ceac7e5a303df3ad7576555e225a3cae88534729838bed4a3ab63b4",
            ("json", None): "04a1e79e87ce2d7cb543b8d253cf232f859208fa582b482f2e6417b7acf1ac30",
            ("json", "-1/3"): "20c21258d88e9b9b55571a82d6d86c31f425f262702c965be0119410ab01ab33",
            ("latex", None): "2c8e33c569b2eef9a0db17d2630ee841140030415f9e97e8210023f7ec2c4c51",
            ("latex", "-1/3"): "206b9786c14f01cd1c49dfed58ce97fc0d4a0a220427d302e0572c61a032d2e0",
        },
        3: {
            ("text", None): "4582fd4ad210835449ce21e69f242243fcf399406d02079e860749bd3778fe08",
            ("text", "-1/3"): "fd46706c2bbff2efc9494a4bbf2db085cd6b926c0e5a62075b377969919555d2",
            ("csv", None): "71e902bc65110aeca14ddd62a6dd3f2ce762e9fd667cb789d1b7597a390e877e",
            ("csv", "-1/3"): "266a9afb7ceee5a9306c9c8c165a8c971807ce69f7d04718d48de76b3aca4e31",
            ("json", None): "67ac9222d4b7e9efc4aadab38700abe45f14911c3c7250ffbab6575531cb5132",
            ("json", "-1/3"): "f33a6faa22b213ee73d415adff5bb2a7663265c64d1d908cee309d401a54e39d",
            ("latex", None): "e739a6dd3943740c333ceae627d4eabad2e7dc735e5fb86592dbba0859870f1d",
            ("latex", "-1/3"): "ab5cf973745716676854096be70a239096200aa494c8f819d4413d048fd8f46f",
        },
    }

    @pytest.mark.parametrize("form", [1, 2, 3])
    def test_bytes_unchanged(self, form, capsys):
        for (fmt, q), digest in self.DIGESTS[form].items():
            args = ["dowling", "--form", str(form), "--m", "2", "--r", "-1", "--nmax", "8", "--format", fmt]
            assert run_cli(args + ([f"--q={q}"] if q else [])) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (fmt, q)


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
        w2 = get_triangle(FamilyId.W2, Params(2, -1)).value
        for line in lines:
            n, value = line.split(",", 1)
            assert value.strip('"') == str(w2(int(n), 2))

    # The argument sets of the digests below: `wide` reaches Kronecker slots
    # wider than 8 bytes (39 products), so its digest pins that byte codec.
    ARGS = {
        "short": ["--k", "2", "--order", "9", "--m", "2", "--r", "-1"],
        "wide": ["--k", "3", "--order", "30", "--m", "3", "--r", "3"],
    }
    # sha256 of `qwhitney expand ARGS --format FMT`, alone and with `--q=Q`.
    DIGESTS = {
        ("short", "text", None): "c9d0ccdc5db70696f229f74891b27427bcd4eb54294f417eaa005a25802e4c69",
        ("short", "text", "2/3"): "14cfc5a3217c2f298285db3405e45ebf43037dbacba2ccf9dc0ec610f709fa51",
        ("short", "csv", None): "b2c16d7b3b87d1ee8179ee071bf4765860383416413042752888c4c06b72f34a",
        ("short", "csv", "2/3"): "e396f1c1d4c2d193928a375d9d0ef4e6b3ecad2bc110d98563c85ad0d4062269",
        ("short", "json", None): "6e62ffc26ae7812fcb1c49f485b0f19a03f39bf19655ac9544baeb3d7e941f73",
        ("short", "json", "2/3"): "25c3361366353071b613d15edde41c2d139f06b09d9706c21e64aed4c54b224d",
        ("short", "latex", None): "c5810ed2f3839af29080b8ed068da32a3d7d71b20da359c6daa68bb5e9c3d6a5",
        ("short", "latex", "2/3"): "e2804593c876dcb7ec6df10d34f0d3f8dbaf5af413ae05dc49e7e0529f0178e0",
        ("wide", "json", None): "8ce167ab482b320bdd78cfdc0614a1de4d6c47b38d7202bc85a6bd03a3ce8a8b",
    }

    @pytest.mark.parametrize(
        "args, fmt, q",
        list(DIGESTS),
        ids=[f"{fmt}-{q}" if args == "short" else f"{args}-{fmt}-{q}" for args, fmt, q in DIGESTS],
    )
    def test_bytes_unchanged(self, args, fmt, q, capsys):
        argv = ["expand", *self.ARGS[args], "--format", fmt] + ([f"--q={q}"] if q else [])
        assert run_cli(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.DIGESTS[args, fmt, q]


class TestQValue:
    @pytest.mark.parametrize(
        "args",
        [
            ["table", "--family", "w1", "--m", "2", "--r", "-3", "--nmax", "6"],
            ["dowling", "--form", "1", "--m", "2", "--r", "1", "--nmax", "3"],
            ["expand", "--k", "2", "--order", "6", "--m", "2", "--r", "-1"],
        ],
        ids=["table", "dowling", "expand"],
    )
    def test_spaced_negative_fraction(self, args, capsys):
        # argparse alone rejects `--q -1/3` as a missing value.
        assert run_cli(args + ["--q=-1/3", "--format", "csv"]) == 0
        joined = capsys.readouterr().out
        assert run_cli(args + ["--q", "-1/3", "--format", "csv"]) == 0
        assert capsys.readouterr().out == joined
        assert "/" in joined


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


    @needs_dev_full
    def test_stdout_write_error_exits_two(self):
        # Exit 1 would read as a genuine audit failure.
        code, err = run_to_dev_full(["audit", "--grid", "nmax=4"])
        assert code == 2
        assert err == "qwhitney: error: cannot write stdout: No space left on device\n"

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

    @pytest.mark.parametrize("spec", ["m=1 m=2 nmax=3", "r=0;r=1", "nmax=3 nmax=4"])
    def test_rejects_repeated_key(self, spec):
        # A repeated key used to keep only its last values, silently dropping a slice of the grid.
        with pytest.raises(ValueError, match="more than once"):
            parse_grid(spec)

    def test_repeated_key_exits_two(self, capsys):
        assert run_cli(["audit", "--grid", "m=1 m=2 nmax=3", "--quiet"]) == 2
        assert "bad --grid" in capsys.readouterr().err


class TestReadme:
    EXAMPLES = readme_examples()

    def test_examples_found(self):
        assert {shlex.split(command)[1] for command, _ in self.EXAMPLES} >= {"table", "dowling", "expand"}

    @pytest.mark.parametrize("command, stdout", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
    def test_example_output(self, command, stdout, capsys):
        assert run_cli(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == stdout
