"""End-to-end tests of the command-line interface."""

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from contextlib import nullcontext, suppress
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qwhitney
from qwhitney import audit, cli
from qwhitney.cli import main, parse_grid
from qwhitney.qalg import LaurentPoly
from qwhitney.triangles import FamilyId, Params, get_triangle
import pins


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

    def test_values_longer_than_the_int_str_limit(self, tmp_path):
        # lah row 30 at q = 1000 has values of more than 4,300 digits, the
        # default limit on an int -> str conversion, which is lifted for the
        # command and restored after it.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit, target = get_limit(), tmp_path / "t.txt"
        args = ["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "30", "--q", "1000"]
        assert run_cli(args + ["-o", str(target)]) == 0
        assert get_limit() == limit
        cells = target.read_text().splitlines()[30].split(", ")
        assert max(map(len, cells)) > 4300
        expected = get_triangle(FamilyId.LAH, Params(3, 3)).value(30, 10).eval_at(1000)
        assert int(cells[10][-18:]) == expected.numerator % 10**18

    @pytest.mark.parametrize(
        "q",
        [
            "1.5",
            "1e5000000",
            " 3",
            "1/-3",
            "1_000",
            "1/2/3",
            "3/0",
            "",
            pytest.param("7" * 5000 + ".5", id="5000-digits-decimal"),
            pytest.param("7" * 5000 + "/0", id="5000-digits-over-0"),
        ],
    )
    def test_q_forms_refused(self, q, capsys):
        # Only an integer or p/d.
        assert run_cli(["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "2", f"--q={q}"]) == 2
        (line,) = [x for x in capsys.readouterr().err.splitlines() if "q must be an integer or p/d fraction" in x]
        # A long value is echoed cut to 40 characters and an ellipsis.
        assert len(line) < 150
        assert line.endswith(repr(q) if len(q) <= 40 else f"{q[:40]!r}...")

    def test_q_longer_than_the_int_str_limit(self, tmp_path, capsys):
        # A --q of 5,000 digits, more than the default limit on an int <-> str
        # conversion, is read exactly: the limit is lifted for --q alone and
        # restored, so an --m as long is still refused where the limit holds.
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        limit, target = get_limit(), tmp_path / "t.txt"
        args = ["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "3"]
        assert run_cli(args + ["--q", "7" * 5000, "-o", str(target)]) == 0
        assert get_limit() == limit
        q = 7 * (10**5000 - 1) // 9
        with cli._unlimited_digits():
            rows = [", ".join(str(v.eval_at(q)) for v in get_triangle(FamilyId.W1_FALLING, Params(1, 1)).row(n)) for n in range(4)]
        assert target.read_text() == "".join(row + "\n" for row in rows)
        if limit:
            assert run_cli(["table", "--family", "w1", "--m", "7" * 5000, "--r", "1", "--nmax", "3"]) == 2
            assert "invalid int value" in capsys.readouterr().err

    def test_bad_family(self):
        assert run_cli(["table", "--family", "nope", "--m", "1", "--r", "0", "--nmax", "1"]) == 2

    def test_sign_variant_family_removed(self, capsys):
        # The printed sign variant is `--family w2` at -r; it has no name of its own.
        assert run_cli(["table", "--family", "w2-verbatim", "--m", "1", "--r", "0", "--nmax", "2"]) == 2
        assert "unknown family 'w2-verbatim'" in capsys.readouterr().err

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

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_closed_reader_leaves_no_descriptor_open(self):
        # Three calls in one interpreter whose stdout is a pipe with its reader
        # closed: each ends quietly with exit code 0, and the descriptor that
        # took stdout's place is not left open.
        code = """
import os, sys
from qwhitney.cli import main
r, w = os.pipe()
os.dup2(w, 1)
os.close(r)
os.close(w)
before = len(os.listdir("/proc/self/fd"))
codes = [main(sys.argv[1:]) for _ in range(3)]
print(codes, before, len(os.listdir("/proc/self/fd")), file=sys.stderr)
"""
        argv = ["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "12"]
        with _python(code, *argv, stderr=subprocess.PIPE) as proc:
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0
        codes, before, after = stderr.decode().rsplit(" ", 2)
        assert codes == "[0, 0, 0]" and int(after) == int(before)

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


# Scripts for a new interpreter.  TWO_CPUS makes two CPUs usable and lifts the
# row threshold, so a table written to a file or a pipe is written by two
# processes.  WRITER_FIRST makes the parent wait for the writer's first row
# before its own first one, so the writer writes at least the last row.
# HANDOFFS prints each handoff row.
TWO_CPUS = """
import os
from qwhitney import cli
os.sched_getaffinity = lambda pid: {0, 1}
cli._TWO_PROCESS_ROWS = 1
"""
WRITER_FIRST = """
import select, sys
waiting, meet, receive = {}, cli._write_meeting, cli._receive
def _write_meeting(stream, render, nrows):
    waiting["pid"] = os.getpid()
    return meet(stream, render, nrows)
def _receive(fd, last):
    if waiting.pop("pid", None) == os.getpid():
        select.select([fd], [], [])
    return receive(fd, last)
cli._write_meeting, cli._receive = _write_meeting, _receive
"""
HANDOFFS = """
send = cli._send
def _send(fd, n):
    if n < 0:
        print("handoff", ~n, file=sys.stderr)
    send(fd, n)
cli._send = _send
"""
CLI = "import sys\nfrom qwhitney.cli import main\nsys.exit(main())\n"
# Writes the table to stdout, then again to the file named first.
TO_STDOUT_AND_FILE = "out = sys.argv.pop(1)\nsys.exit(cli.main(sys.argv[1:]) or cli.main(sys.argv[1:] + ['-o', out]))\n"


def _python(code, *argv, **kwargs):
    """A new interpreter running CODE with ARGV, in a session of its own."""
    env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env, start_new_session=True, **kwargs)


def _left(proc):
    """The processes left in PROC's session once it has ended: none, if it
    reaped its writer.  Whatever is left is then killed."""
    out = subprocess.run(["pgrep", "-g", str(proc.pid)], capture_output=True, text=True, timeout=10).stdout
    with suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    return out.split()


LAH_24 = ["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "24"]
# lah (3,3) is palindromic, lah (2,-3) has zero entries and negative
# coefficients, and w1 is not palindromic.
FORK_TABLES = {
    "lah-3-3": LAH_24[1:],
    "lah-2-m3": ["--family", "lah", "--m", "2", "--r", "-3", "--nmax", "24"],
    "w1-2-3": ["--family", "w1", "--m", "2", "--r", "3", "--nmax", "24"],
}


class TestTableWriterProcess:
    @pytest.mark.parametrize("q", [[], ["--q", "1/2"]], ids=["poly", "at-q"])
    @pytest.mark.parametrize("table", FORK_TABLES)
    def test_same_bytes_as_one_process(self, table, q, tmp_path, capsys):
        for fmt in ("text", "csv", "json", "latex"):
            argv = ["table", *FORK_TABLES[table], "--format", fmt, *q]
            assert run_cli(argv) == 0
            expected = capsys.readouterr().out.encode()
            out = tmp_path / f"t.{fmt}"
            code = TWO_CPUS + WRITER_FIRST + HANDOFFS + TO_STDOUT_AND_FILE
            with _python(code, str(out), *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
                stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0 and _left(proc) == []
            assert stdout == expected and out.read_bytes() == expected
            # Each call handed the writer the last row at least.
            handoffs = [int(line.split()[1]) for line in stderr.decode().splitlines() if line.startswith("handoff")]
            assert len(handoffs) == 2 and max(handoffs) <= 24

    @pytest.mark.parametrize(
        "setup, q",
        [
            ("cli._TWO_PROCESS_ROWS = 31\n", []),
            ("os.sched_getaffinity = lambda pid: {0}\n", []),
            ("", ["--q", "0"]),
        ],
        ids=["below-threshold", "one-cpu", "q-zero"],
    )
    def test_one_process_cases(self, setup, q, capsys):
        argv = ["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "29", *q]
        assert run_cli(argv) == 0
        expected = capsys.readouterr().out.encode()
        code = TWO_CPUS + setup + WRITER_FIRST + HANDOFFS + CLI
        with _python(code, *argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout, stderr) == (0, expected, b"")

    def test_dead_writer_exits_two(self, tmp_path):
        # The writer kills itself in the middle of its second row.
        dying = """
import signal
writer = cli._writer
def _writer(stream, render, nrows, up, down):
    def render_then_die(n):
        for i, chunk in enumerate(render(n)):
            if n < nrows - 1 and i == 5:
                os.kill(os.getpid(), signal.SIGKILL)
            yield chunk
    writer(stream, render_then_die, nrows, up, down)
cli._writer = _writer
"""
        out = tmp_path / "t.txt"
        with _python(TWO_CPUS + WRITER_FIRST + dying + CLI, *LAH_24, "-o", str(out), stderr=subprocess.PIPE) as proc:
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 2 and _left(proc) == []
        assert stderr == b"qwhitney: error: the table writer process died (killed by signal 9)\n"

    def test_writer_write_error_exits_two(self, tmp_path, capsys):
        # A file size limit one byte short of the table: the writer, which
        # writes the last row, meets it, and the parent reports it.
        assert run_cli(LAH_24) == 0
        size = len(capsys.readouterr().out.encode())
        limit = f"import resource\nresource.setrlimit(resource.RLIMIT_FSIZE, ({size - 1}, {size - 1}))\n"
        out = tmp_path / "t.txt"
        code = TWO_CPUS + WRITER_FIRST + HANDOFFS + limit + CLI
        with _python(code, *LAH_24, "-o", str(out), stderr=subprocess.PIPE) as proc:
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 2 and _left(proc) == []
        (handoff, error) = stderr.decode().splitlines()
        assert handoff.startswith("handoff") and error == f"qwhitney: error: cannot write {out}: File too large"
        assert out.stat().st_size == size - 1

    @needs_dev_full
    def test_stdout_write_error_exits_two(self):
        with open("/dev/full", "w") as full:
            with _python(TWO_CPUS + WRITER_FIRST + CLI, *LAH_24, stdout=full, stderr=subprocess.PIPE) as proc:
                _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 2 and _left(proc) == []
        assert stderr == b"qwhitney: error: cannot write stdout: No space left on device\n"

    def test_reader_closing_stdout_early(self, capsys):
        # `qwhitney table ... | head -c 100`
        assert run_cli(LAH_24) == 0
        expected = capsys.readouterr().out.encode()[:100]
        with subprocess.Popen(["head", "-c", "100"], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as head:
            with _python(TWO_CPUS + WRITER_FIRST + CLI, *LAH_24, stdout=head.stdin, stderr=subprocess.PIPE) as proc:
                head.stdin.close()
                _, stderr = proc.communicate(timeout=120)
            assert head.stdout.read() == expected
        assert proc.returncode == 0 and _left(proc) == []
        assert stderr == b""

    # sha256 of the text each writes.
    ONE_PROCESS = {"dowling": pins.DIGESTS["dowling40.text"], "expand": pins.DIGESTS["expand60.text"]}

    def test_dowling_and_expand_write_in_one_process(self, tmp_path):
        # Two usable CPUs and a fork that raises: a table forks and fails,
        # while long dowling and expand outputs are written by this process.
        no_fork = "def fork():\n    raise RuntimeError('fork')\nos.fork = fork\n"
        argvs = {
            "table": LAH_24,
            "dowling": ["dowling", "--form", "1", "--m", "3", "--r", "3", "--nmax", "40"],
            "expand": ["expand", "--k", "3", "--m", "3", "--r", "3", "--order", "60"],
        }
        for command, argv in argvs.items():
            out = tmp_path / command
            with _python(TWO_CPUS + no_fork + CLI, *argv, "-o", str(out), stderr=subprocess.PIPE) as proc:
                _, stderr = proc.communicate(timeout=120)
            if command == "table":
                assert proc.returncode != 0 and b"RuntimeError: fork" in stderr
            else:
                assert (proc.returncode, stderr) == (0, b"")
                assert hashlib.sha256(out.read_bytes()).hexdigest() == self.ONE_PROCESS[command]

    def test_interrupt_stops_both_processes(self, tmp_path):
        # The writer never renders a row, so the parent waits for it until
        # Ctrl-C reaches both.
        hanging = """
import time
writer = cli._writer
def _writer(stream, render, nrows, up, down):
    writer(stream, lambda n: time.sleep(600) or render(n), nrows, up, down)
cli._writer = _writer
"""
        code = TWO_CPUS + WRITER_FIRST + hanging + CLI
        with _python(code, *LAH_24, "-o", str(tmp_path / "t.txt"), stderr=subprocess.PIPE) as proc:
            for _ in range(600):
                if subprocess.run(["pgrep", "-P", str(proc.pid)], capture_output=True, timeout=10).stdout:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("the writer process did not start")
            start = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            proc.communicate(timeout=30)
        assert proc.returncode != 0 and time.monotonic() - start < 5
        assert _left(proc) == []


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
    # wider than 8 bytes (39 products), so its digest pins that byte codec;
    # `zeros` is column 0 at r = 0, whose coefficients 1..6 are all zero.
    ARGS = {
        "short": ["--k", "2", "--order", "9", "--m", "2", "--r", "-1"],
        "wide": ["--k", "3", "--order", "30", "--m", "3", "--r", "3"],
        "zeros": ["--k", "0", "--order", "6", "--m", "1", "--r", "0"],
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
        ("zeros", "text", None): "8f493950cb66587d772136029ed356ede6487754336d3138d229c10f588d946c",
        ("zeros", "csv", None): "2c9188a351550f19c258987001d03e535c6602b68310676eb735fd380e0aad71",
        ("zeros", "json", None): "e5c7806a520359d1e319632358f796d757391ab6bdaae2d449ee1ec87095155f",
        ("zeros", "latex", None): "39443daf7379304dc354420736fe7e392432331a4d6f933dc9ced01a2049bf67",
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

    def test_first_failing_point_reported_on_any_cpu_count(self, monkeypatch, capsys):
        # Workers may finish the points out of order; the error reported is
        # the first failing point's, as in one process.
        args, outcomes = ["audit", "--grid", "m=1 r=17000000,17000001 nmax=2"], []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            code = run_cli(args)
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and "exponent span 17000000 " in outcomes[0][1]

    def test_import_leaves_multiprocessing_out(self):
        # The audit imports them only when it starts workers; at import they
        # would add about 30 ms to every command's start.  The formulas, the
        # audit with the dataclasses and inspect it needs, fractions and json
        # load where they are used, too.  The package's names resolve on first
        # use, and `import *` binds every name of __all__.
        env = dict(os.environ, PYTHONPATH=str(Path(qwhitney.__file__).resolve().parent.parent))
        code = (
            "import sys, qwhitney.cli\n"
            "left = ('qwhitney.upoly', 'qwhitney.formulas', 'qwhitney.audit', 'dataclasses', 'inspect', 'fractions', 'json',"
            " 'multiprocessing', 'concurrent.futures')\n"
            "loaded = [m for m in left if m in sys.modules]\n"
            "assert not loaded, loaded\n"
            "import qwhitney\n"
            "assert qwhitney.run_all is sys.modules['qwhitney.audit'].run_all\n"
            "names = {}\n"
            "exec('from qwhitney import *', names)\n"
            "assert sorted(set(names) - {'__builtins__'}) == sorted(qwhitney.__all__)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--json", "-"],
            ["-o", "-", "--json", "-"],
            ["-o", "r.txt", "--json", "r.txt"],
            ["-o", "r.txt", "--json", "sub/../r.txt"],
        ],
        ids=["stdout", "dash", "file", "file-spelled-twice"],
    )
    def test_table_and_json_to_one_output_refused(self, outputs, tmp_path, monkeypatch, capsys):
        # Written one after the other, the report overwrote the table in a
        # file and followed it on stdout, where neither could be parsed.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        monkeypatch.setattr(audit, "run_all", lambda *args: pytest.fail("the audit ran"))
        assert run_cli(["audit", "--grid", "m=1 r=0 nmax=2", *outputs]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "r.txt").exists()
        assert err == "qwhitney: error: the text table and the --json report would share one output; add --quiet or name two\n"

    @pytest.mark.parametrize(
        "outputs, stdout",
        [
            (["-o", "/dev/stdout", "--json", "-"], "out.txt"),
            (["-o", "/dev/stdout", "--json", "-"], None),
            (["--json", "/dev/stdout"], "out.txt"),
            (["-o", "a.txt", "--json", "b.txt"], "out.txt"),
            (["--json", os.devnull], os.devnull),
        ],
        ids=["dev-stdout-and-dash", "dev-stdout-and-dash-pipe", "dev-stdout-json", "hard-links", "devnull-twice"],
    )
    def test_one_output_by_two_names_refused(self, outputs, stdout, tmp_path):
        # In a new interpreter, so that stdout is a real descriptor: the file
        # STDOUT, or a pipe when it is None, as in `qwhitney ... | cat`; a.txt
        # and b.txt are two links to one file.  The audit must not start.
        (tmp_path / "a.txt").touch()
        os.link(tmp_path / "a.txt", tmp_path / "b.txt")
        code = "import sys\nfrom qwhitney import audit, cli\naudit.run_all = lambda *args: sys.exit('the audit ran')\nsys.exit(cli.main())\n"
        with open(tmp_path / stdout, "w") if stdout else nullcontext(subprocess.PIPE) as out:
            argv = ["audit", "--grid", "m=1 r=0 nmax=2", *outputs]
            with _python(code, *argv, stdout=out, stderr=subprocess.PIPE, cwd=tmp_path) as proc:
                piped, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert stderr == b"qwhitney: error: the text table and the --json report would share one output; add --quiet or name two\n"
        assert (tmp_path / "a.txt").read_text() == "" and not (piped if stdout is None else (tmp_path / stdout).read_text())

    def test_quiet_report_to_dev_stdout(self, tmp_path):
        with open(tmp_path / "out.txt", "w") as out:
            argv = ["audit", "--grid", "m=1 r=0 nmax=2", "--quiet", "--json", "/dev/stdout"]
            with _python(CLI, *argv, stdout=out, stderr=subprocess.PIPE) as proc:
                _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0 and stderr == b""
        assert json.loads((tmp_path / "out.txt").read_text())["grid"] == {"m": [1], "r": [0], "nmax": 2}

    def test_table_and_json_to_two_files(self, tmp_path):
        table, report = tmp_path / "t.txt", tmp_path / "r.json"
        assert run_cli(["audit", "--grid", "m=1 r=0 nmax=2", "-o", str(table), "--json", str(report)]) == 0
        assert "verdict: clean" in table.read_text()
        assert json.loads(report.read_text())["grid"] == {"m": [1], "r": [0], "nmax": 2}

    def test_unwritable_json_exits_two(self, tmp_path, capsys):
        # Exit 1 means a genuine audit failure, so a write error must not use it.
        target = tmp_path / "missing" / "report.json"
        code = run_cli(["audit", "--grid", "m=1 r=0 nmax=2", "--quiet", "--json", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot write" in err and "Traceback" not in err


@pytest.mark.parametrize("stdout", ["-", "/dev/stdout"])
@pytest.mark.parametrize(
    "argv, start",
    [
        (["audit", "--grid", "nmax=2", "--quiet", "--json"], b'{\n "grid":'),
        (["table", "--family", "lah", "--m", "3", "--r", "3", "--nmax", "12", "-o"], b"1\n1 + q + "),
    ],
    ids=["audit", "table"],
)
def test_reader_closing_stdout_early(argv, start, stdout):
    # `qwhitney ... | head -c 10`, with stdout spelled `-` or /dev/stdout:
    # 87 kB of report or 170 kB of table, more than a pipe holds.
    with subprocess.Popen(["head", "-c", "10"], stdin=subprocess.PIPE, stdout=subprocess.PIPE) as head:
        with _python(CLI, *argv, stdout, stdout=head.stdin, stderr=subprocess.PIPE) as proc:
            head.stdin.close()
            _, stderr = proc.communicate(timeout=120)
        assert head.stdout.read() == start
    assert proc.returncode == 0 and stderr == b""


class TestErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["audit", "--grid", "m=1 m=2"], "bad --grid: grid key 'm' given more than once"),
            (["audit", "--check", "bogus"], "unknown check id 'bogus'"),
            (["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "-1"], "--nmax must be >= 0"),
            (["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax", "-1"], "--nmax must be >= 0"),
            (["expand", "--k", "-1", "--order", "3", "--m", "1", "--r", "0"], "--k must be >= 0"),
            (["table", "--family", "w2", "--m", "0", "--r", "0", "--nmax", "1"], "m must be an integer >= 1, got 0"),
            (
                ["table", "--family", "w1", "--m", "1", "--r", "1", "--nmax", "2", "--q", "0"],
                "--q 0 is not allowed for families with negative q-exponents",
            ),
        ],
        ids=["grid", "check", "table-nmax", "dowling-nmax", "k", "value-error", "q-zero"],
    )
    def test_one_line_without_usage(self, argv, message, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"qwhitney: error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["expand", "--k", "0", "--m", "1", "--r", "0", "--order"],
            ["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax"],
        ],
        ids=["order", "dowling-nmax"],
    )
    def test_too_many_values_refused_before_any_is_made(self, argv, monkeypatch, capsys):
        # Made, such a series or sequence ran out of memory and exited 1, which
        # reads as "audit not clean"; it is refused before the command runs.
        for name in ("cmd_expand", "cmd_dowling"):
            monkeypatch.setattr(cli, name, lambda args: 0)
        assert run_cli(argv + ["1000000000000"]) == 2
        assert capsys.readouterr().err == f"qwhitney: error: {argv[-1]} must be <= 16777216\n"
        assert run_cli(argv + ["16777216"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--family", "w2", "--r", "0", "--nmax", "1"],
            ["table", "--family", "w2", "--m", "x", "--r", "0", "--nmax", "1"],
            ["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "1", "--q", "1.5"],
        ],
        ids=["missing", "ill-typed", "q"],
    )
    def test_argparse_errors_keep_usage(self, argv, capsys):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "error: " in err.splitlines()[-1]


_DEFAULT_VALUES = ((1, 2, 3), (-2, -1, 0, 1, 2, 3), 10)


def _int_error(text):
    return f"invalid literal for int() with base 10: {text!r}"


# Each spec with the (m_values, r_values, nmax) it parses to, or the error it
# raises; of a spec with several faults, the one reported first.
GRID_CORPUS = [
    (None, _DEFAULT_VALUES),
    ("", _DEFAULT_VALUES),
    ("  ", _DEFAULT_VALUES),
    (";", _DEFAULT_VALUES),
    ("m=1 ;; r=2", ((1,), (2,), 10)),
    ("m=1\tr=2\nnmax=4", ((1,), (2,), 4)),
    ("r=1,1,1", ((1, 2, 3), (1,), 10)),
    (" m=3 ", ((3,), (-2, -1, 0, 1, 2, 3), 10)),
    ("m=2,1;r=-1..1 nmax=5", ((1, 2), (-1, 0, 1), 5)),
    ("r=-3..-1", ((1, 2, 3), (-3, -2, -1), 10)),
    ("m=1..3 r=-2..3 nmax=10", _DEFAULT_VALUES),
    ("m", (ValueError, "grid token 'm' is not key=values")),
    ("whatever", (ValueError, "grid token 'whatever' is not key=values")),
    ("=3", (ValueError, "unknown grid key ''")),
    ("qmax=3", (ValueError, "unknown grid key 'qmax'")),
    ("M=1", (ValueError, "unknown grid key 'M'")),
    ("m=1 r=0 nmax=2 x=1", (ValueError, "unknown grid key 'x'")),
    ("m=1 m=2 nmax=3", (ValueError, "grid key 'm' given more than once")),
    ("r=0;r=1", (ValueError, "grid key 'r' given more than once")),
    ("nmax=3 nmax=4", (ValueError, "grid key 'nmax' given more than once")),
    ("m=1 m=x", (ValueError, "grid key 'm' given more than once")),
    ("nmax=1..2", (ValueError, "nmax takes a single value")),
    ("nmax=1,2 m=x", (ValueError, "nmax takes a single value")),
    ("nmax=1,2 nmax=3", (ValueError, "nmax takes a single value")),
    ("m=x nmax=1,2", (ValueError, _int_error("x"))),
    ("nmax=x nmax=3", (ValueError, _int_error("x"))),
    ("nmax=1,2,x", (ValueError, _int_error("x"))),
    ("m=1..2..3", (ValueError, _int_error("2..3"))),
    ("m=1,,2", (ValueError, _int_error(""))),
    ("nmax=4,", (ValueError, _int_error(""))),
    ("m=", (ValueError, _int_error(""))),
    ("m==1", (ValueError, _int_error("=1"))),
    ("m=1=2", (ValueError, _int_error("1=2"))),
    ("m=1.5", (ValueError, _int_error("1.5"))),
    ("r=0..100000000000000", (ValueError, "range '0..100000000000000' has more than 33554433 values")),
    ("r=3..1", (ValueError, "grid must have at least one m and one r value")),
    ("r=-1..-3", (ValueError, "grid must have at least one m and one r value")),
    ("m=0", (ValueError, "all m values must be >= 1")),
    ("m=0 nmax=1", (ValueError, "all m values must be >= 1")),
    ("nmax=1", (ValueError, "nmax must be >= 2")),
    ("nmax=", (ValueError, _int_error(""))),
]


def _grid_help():
    """The help text of `audit --grid`."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (action,) = [a for a in sub.choices["audit"]._actions if "--grid" in a.option_strings]
    return action.help


class TestGridParsing:
    @pytest.mark.parametrize("spec, expected", GRID_CORPUS, ids=repr)
    def test_corpus(self, spec, expected, capsys):
        if isinstance(expected[0], type):
            kind, message = expected
            with pytest.raises(kind) as info:
                parse_grid(spec)
            assert str(info.value) == message
            assert run_cli(["audit", "--grid", spec, "--quiet"]) == 2
            assert capsys.readouterr().err == f"qwhitney: error: bad --grid: {message}\n"
        else:
            grid = parse_grid(spec)
            assert (grid.m_values, grid.r_values, grid.nmax) == expected

    def test_param_grid_defaults_are_the_default_grid(self):
        assert audit.ParamGrid() == audit.DEFAULT_GRID

    def test_help_states_the_default_grid(self):
        # The help text keeps its own copy of the defaults, so that building
        # the parser need not import the audit; it must state the same grid.
        stated = re.search(r"\(defaults: (.*)\)", _grid_help()).group(1)
        assert parse_grid(stated.replace(", ", " ")) == audit.DEFAULT_GRID

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

    @pytest.mark.parametrize("spec", ["r=0..100000000000000", "m=1..100000000000000 r=0"])
    def test_huge_range_exits_two(self, capsys, spec):
        # Expanded, such a range ran out of memory and exited 1, which reads
        # as "audit not clean"; it is refused before it is expanded.
        assert run_cli(["audit", "--grid", spec, "--quiet"]) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "bad --grid" in errors[0] and "33554433 values" in errors[0]
        assert "Traceback" not in err


@given(
    st.dictionaries(st.integers(min_value=-40, max_value=40), st.integers(min_value=-(10**30), max_value=10**30), max_size=12),
    st.sampled_from(["", " ", "   "]),
)
def test_json_cell_matches_the_term_list(terms, pad):
    # The cell writer against json.dumps of LaurentPoly.to_json_dict, the
    # wire form it writes, re-indented as the cell sits.
    value = LaurentPoly(terms)
    expected = json.dumps(value.to_json_dict(), indent=1).replace("\n", "\n" + pad)
    assert cli._json_cell(value, argparse.Namespace(q=None, format="json"), pad) == expected


@given(
    st.dictionaries(st.integers(min_value=-40, max_value=40), st.integers(min_value=-(10**30), max_value=10**30), max_size=12),
    st.one_of(st.none(), st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(bool)),
)
def test_csv_cell_needs_no_escaping(terms, q):
    # The CSV writer quotes each cell as it is, which is exact only while no
    # cell text holds a quote, a comma or a line break; its lines are those
    # of the stdlib writer that quotes every non-number.
    args = argparse.Namespace(q=q, format="csv")
    value = LaurentPoly(terms)
    cell = cli._cell(value, args)
    assert not {'"', ",", "\n"} & set(cell)
    head, lines, tail = cli._csv(args, ["n", "k", "value"], lambda i: [(i, 0, value)])
    expected = io.StringIO()
    writer = csv.writer(expected, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    writer.writerows([["n", "k", "value"], [7, 0, cell]])
    assert head + "".join(lines(7)) + tail == expected.getvalue()


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--family", "lah", "--m", "2", "--r", "-3", "--nmax", "6"],
        ["table", "--family", "w1", "--m", "2", "--r", "3", "--nmax", "5", "--q=-1/3"],
        ["table", "--family", "w2", "--m", "1", "--r", "0", "--nmax", "0"],
        ["dowling", "--form", "3", "--m", "2", "--r", "-1", "--nmax", "4"],
        ["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax", "3", "--q", "2"],
        ["expand", "--k", "2", "--m", "1", "--r", "-2", "--order", "6"],
        ["expand", "--k", "1", "--m", "2", "--r", "1", "--order", "4", "--q", "3/2"],
        ["dowling", "--form", "1", "--m", "1", "--r", "0", "--nmax", "0"],
        ["expand", "--k", "2", "--m", "1", "--r", "0", "--order", "2"],
    ],
    ids=lambda args: " ".join(args),
)
def test_json_is_what_the_stdlib_encoder_writes(args, capsys):
    # The direct JSON writer gives the bytes of json.dumps(doc, indent=1), for
    # term lists, zero cells, values at --q and every command's item shape.
    assert run_cli([*args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


class TestReadme:
    EXAMPLES = readme_examples()

    def test_examples_found(self):
        assert {shlex.split(command)[1] for command, _ in self.EXAMPLES} >= {"table", "dowling", "expand"}

    @pytest.mark.parametrize("command, stdout", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
    def test_example_output(self, command, stdout, capsys):
        assert run_cli(shlex.split(command)[1:]) == 0
        assert capsys.readouterr().out == stdout
