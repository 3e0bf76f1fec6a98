"""Command-line surface: triangle tables, row-sum sequences, series
expansion, and the identity audit.

The output of `table`, `dowling` and `expand` is a head, items and a tail
(a `_Layout`) written by one loop, `_emit`; only `table` uses two processes."""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

from .audit import DEFAULT_GRID, ParamGrid, REGISTRY, _usable_cpus, run_all
from .qalg import _MAX_SPAN, EvalAtZeroError, LaurentPoly
from .triangles import FamilyId, Params, dowling, get_triangle
from .formulas import whitney2_rational_gf


def _family(name: str) -> FamilyId:
    try:
        return FamilyId(name)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {name!r}")


_Q_FORM = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_Q_SHOWN = 40  # characters of a refused --q value echoed in its error line


def _q_spec(text: str) -> Fraction:
    try:
        if _Q_FORM.fullmatch(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    # A long value is echoed cut short: the line names it, it need not repeat it.
    shown = repr(text) if len(text) <= _Q_SHOWN else f"{text[:_Q_SHOWN]!r}..."
    raise argparse.ArgumentTypeError(f"q must be an integer or p/d fraction, got {shown}")


def _cell(value: LaurentPoly, args: argparse.Namespace) -> str:
    """One value as `args.format` writes it: the exact number at `--q` when
    given, else the polynomial as LaTeX or plain text."""
    if args.q is not None:
        return str(value.eval_at(args.q))
    return value.latex() if args.format == "latex" else str(value)


def _json_cell(value: LaurentPoly, args: argparse.Namespace, pad: str) -> str:
    """One value as JSON: the exact number at `--q` as a string, else the
    term list of `LaurentPoly.to_json_dict`.  The text is that of
    `json.dumps(..., indent=1)` for a value whose first line is placed
    already and whose other lines start with `pad`, written directly: with
    an indent, `json.dumps` takes its pure-Python encoder."""
    if args.q is not None:
        return json.dumps(_cell(value, args))
    if not value:
        return f'{{\n{pad} "terms": []\n{pad}}}'
    inner = pad + "  "
    term = f'{{\n{inner} "e": %d,\n{inner} "c": "%d"\n{inner}}}'
    terms = f",\n{inner}".join([term % t for t in value.terms().items()])
    return f'{{\n{pad} "terms": [\n{inner}{terms}\n{pad} ]\n{pad}}}'


def _check_cells(args: argparse.Namespace, values: Iterable[LaurentPoly]) -> None:
    """Raise the one error a cell can raise, a negative exponent evaluated at
    `--q 0`, before the first byte of the output is written."""
    if args.q == 0:
        for value in values:
            value.eval_at(0)


def _identity(output: str | None) -> tuple:
    """What `output` writes to, for telling two outputs apart: the
    (st_dev, st_ino) of stdout for `-` or no path and of the file a path
    names, or the resolved path of a file not yet made."""
    to_stdout = output in (None, "-")
    try:
        st = os.fstat(1) if to_stdout else os.stat(output)
    except OSError:
        return ("-",) if to_stdout else (os.path.realpath(output),)
    return st.st_dev, st.st_ino


@contextmanager
def _opened(output: str | None) -> Iterator[TextIO]:
    """Stdout, for `-`, no path or a path that is stdout, such as
    /dev/stdout, else the named file, to write to in the `with` body.  An
    output that cannot be opened or written is reported on one line with
    exit code 2; only a reader that closed stdout early, as `| head` does,
    ends the output quietly with the command's own exit code."""
    to_stdout = _identity(output) == _identity(None)
    try:
        if to_stdout:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(output, "w") as fh:
                yield fh
    except OSError as exc:
        if to_stdout:
            # Send what is still buffered to the null device, so the flush at
            # exit cannot fail again.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            if isinstance(exc, BrokenPipeError):
                return
            output = "stdout" if output in (None, "-") else output
        _error(f"cannot write {output}: {exc.strerror or exc}")


def _error(message: str) -> NoReturn:
    """Report an error on one stderr line, with no usage text, and exit 2."""
    print(f"qwhitney: error: {message}", file=sys.stderr)
    raise SystemExit(2) from None


# An output in one format: its head, the chunks of item i, its tail.
_Layout = tuple[str, Callable[[int], Iterable[str]], str]


def _json(args: argparse.Namespace, doc: dict, key: str, item: Callable[[int], str]) -> _Layout:
    """The bytes of `json.dumps(doc + {key: [item 0, item 1, ...]}, indent=1)`
    and a newline, with `"q"` added last when given; the list is never empty.
    `item(i)` is the text of `json.dumps(item i, indent=1)` with two spaces
    after each newline, as it sits two levels deep."""
    doc = dict(doc, **{key: []})
    if args.q is not None:
        doc["q"] = str(args.q)
    head, _, tail = json.dumps(doc, indent=1).partition(f'"{key}": []')

    def framed(i: int) -> list[str]:
        return [("," if i else "[") + "\n  " + item(i)]

    return f'{head}"{key}": ', framed, "\n ]" + tail + "\n"


class _Echo:
    """A file whose write returns the text, so `csv.writer.writerow` returns its line."""

    def write(self, text: str) -> str:
        return text


def _csv(args: argparse.Namespace, header: list[str], records: Callable[[int], Iterable[tuple]]) -> _Layout:
    """CSV under `header`: item i is one line per (index, ..., value) record
    of `records(i)`, the value as a quoted cell."""
    writer = csv.writer(_Echo(), quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")

    def lines(i: int) -> Iterator[str]:
        for *index, value in records(i):
            yield writer.writerow([*index, _cell(value, args)])

    return writer.writerow(header), lines, ""


def _grid(args: argparse.Namespace, values: Callable[[int], Sequence[LaurentPoly]]) -> _Layout:
    """Rows `values(i)` as comma-separated text lines or as the rows of a
    LaTeX tabular with nmax + 1 columns.  Each cell, separator and delimiter
    is a chunk of its own, so only one formatted cell is held at once and
    none is copied."""
    if args.format == "text":

        def line(i: int) -> Iterator[str]:
            for k, v in enumerate(values(i)):
                if k:
                    yield ", "
                yield _cell(v, args)
            yield "\n"

        return "", line, ""

    def row(i: int) -> Iterator[str]:
        for k, v in enumerate(values(i)):
            yield " & $" if k else "$"
            yield _cell(v, args)
            yield "$"
        yield " \\\\\n"

    return f"\\begin{{tabular}}{{{'r' * (args.nmax + 1)}}}\n", row, "\\end{tabular}\n"


# The messages between a table's two processes are row numbers of _MSG bytes.
_MSG = 4


def _send(fd: int, n: int) -> None:
    """Send n on pipe `fd`; EOFError once the other process has closed its end."""
    try:
        os.write(fd, n.to_bytes(_MSG, "little", signed=True))
    except BrokenPipeError:
        raise EOFError from None


def _receive(fd: int, last: int) -> int:
    """The last message waiting on pipe `fd`, or `last` if none is and `fd`
    does not block; EOFError once the other process has closed its end.  Each
    message is written whole, so the pipe holds whole messages only."""
    try:
        data = os.read(fd, 1 << 16)
    except BlockingIOError:
        return last
    if not data:
        raise EOFError
    return int.from_bytes(data[-_MSG:], "little", signed=True)


# A table of fewer rows is written by one process: the fork and the
# writer's own fill cost more than the writer saves (break-even near 25 rows
# of lah (3,3) and 33 rows of w2 (1,0) on 2 vCPUs).
_TWO_PROCESS_ROWS = 30


def _forks(args: argparse.Namespace, stream: TextIO) -> bool:
    """Whether a table is written by two processes: when it has at least
    _TWO_PROCESS_ROWS rows, `_usable_cpus` (1 where `os` has no `fork`) is
    at least 2 and the output has a file descriptor.  At `--q 0` every cell
    is read before the first byte, so there is no work left to share."""
    if args.nmax + 1 < _TWO_PROCESS_ROWS or args.q == 0 or _usable_cpus() < 2:
        return False
    try:
        stream.fileno()
    except (OSError, ValueError):
        return False
    return True


def _write_meeting(stream: TextIO, render: Callable[[int], Iterable[str]], nrows: int) -> None:
    """Write rows 0 to nrows - 1, each the chunks `render(n)`, with a forked
    writer process.  This process renders and writes rows from row 0 down, and
    the writer renders rows from the last one up and keeps their text.  They
    meet where the writer has already rendered this process's next row: this
    process flushes and sends the writer that row, and the writer writes the
    rows from there to the last one.  The meeting point follows from how fast
    each process goes, so nothing is tuned.

    Neither process blocks on the other before the handoff, so neither can
    hang on a dead one.  The writer is reaped before this returns, and killed
    first on any error here.  A write error in the writer is raised here as
    the OSError it met; a writer that died is reported with exit code 2."""
    up_r, up_w = os.pipe()  # writer -> parent: each row the writer has rendered
    down_r, down_w = os.pipe()  # parent -> writer: each row the parent starts, then ~the handoff row
    pid = os.fork()
    if not pid:
        os.close(up_r)
        os.close(down_w)
        _writer(stream, render, nrows, up_w, down_r)
    os.close(up_w)
    os.close(down_r)
    os.set_blocking(up_r, False)
    status = None
    try:
        try:
            low = nrows  # the writer has rendered rows low to nrows - 1
            for n in range(nrows):
                low = _receive(up_r, low)
                if n >= low:
                    stream.flush()
                    _send(down_w, ~n)
                    break
                _send(down_w, n)
                stream.writelines(render(n))
            else:
                return  # the writer, killed below, has nothing to write
        except EOFError:
            pass  # the writer has gone; its exit status tells how
        _, status = os.waitpid(pid, 0)
    finally:
        os.close(up_r)
        os.close(down_w)
        if status is None:
            import signal  # here: at the top it would add about 1 ms to every start

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if 0 < code < 255:
        raise OSError(code, os.strerror(code))
    if code:
        how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
        _error(f"the table writer process died ({how})")


def _writer(stream: TextIO, render: Callable[[int], Iterable[str]], nrows: int, up: int, down: int) -> NoReturn:
    """The writer process of `_write_meeting`.  It never returns into its
    caller: it ends the process with exit code 0, or the errno of its write
    error, or 255."""
    code = 255
    try:
        import signal

        # Ctrl-C reaches both processes; the writer ends at once.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        kept = []  # the text of rows nrows - 1, nrows - 2, ..., encoded
        last = 0  # the last message: the row the parent started, or ~the handoff row
        os.set_blocking(down, False)
        try:
            # Row 0 is the parent's first row; it is never rendered here.
            for n in range(nrows - 1, 0, -1):
                last = _receive(down, last)
                if not 0 <= last < n:
                    break
                kept.append("".join(render(n)).encode(stream.encoding, stream.errors))
                _send(up, n)
        except Exception:
            pass  # the parent meets the same error in its own rows, or renders them
        os.set_blocking(down, True)
        while last >= 0:
            last = _receive(down, last)
        fd = stream.fileno()
        for data in reversed(kept[: nrows - ~last]):
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        code = 0
    except OSError as exc:
        code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
    finally:
        os._exit(code)


def _emit(output: str | None, layout: _Layout, count: int, forks: Callable[[TextIO], bool] = lambda stream: False) -> None:
    """Write `layout`'s head, items 0 to count - 1 and tail to stdout or the
    named file; the items by `_write_meeting` when `forks(stream)` is true."""
    head, item, tail = layout
    with _opened(output) as stream:
        stream.write(head)
        if forks(stream):
            _write_meeting(stream, item, count)
        else:
            for i in range(count):
                stream.writelines(item(i))
        stream.write(tail)


def cmd_table(args: argparse.Namespace) -> int:
    tri = get_triangle(args.family, Params(args.m, args.r))
    nrows = args.nmax + 1
    _check_cells(args, chain.from_iterable(map(tri.row, range(nrows))))
    if args.format == "csv":
        layout = _csv(args, ["n", "k", "value"], lambda n: ((n, k, v) for k, v in enumerate(tri.row(n))))
    elif args.format == "json":
        doc = {"family": args.family.value, "m": args.m, "r": args.r, "nmax": args.nmax}

        def row(n: int) -> str:
            return "[" + ",".join(["\n   " + _json_cell(v, args, "   ") for v in tri.row(n)]) + "\n  ]"

        layout = _json(args, doc, "rows", row)
    else:
        layout = _grid(args, tri.row)
    _emit(args.output, layout, nrows, lambda stream: _forks(args, stream))
    return 0


def cmd_dowling(args: argparse.Namespace) -> int:
    params = Params(args.m, args.r)
    values = [dowling(params, args.form, n) for n in range(args.nmax + 1)]
    _check_cells(args, values)
    count = len(values)
    if args.format == "csv":
        layout = _csv(args, ["n", "value"], lambda n: [(n, values[n])])
    elif args.format == "json":
        doc = {"form": args.form, "m": args.m, "r": args.r, "nmax": args.nmax}
        layout = _json(args, doc, "values", lambda n: _json_cell(values[n], args, "  "))
    else:
        layout, count = _grid(args, lambda i: values), 1
    _emit(args.output, layout, count)
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    values = whitney2_rational_gf(Params(args.m, args.r), args.k, args.order).coeffs()[args.k :]
    _check_cells(args, values)
    if args.format == "csv":
        layout = _csv(args, ["n", "value"], lambda i: [(args.k + i, values[i])])
    elif args.format == "json":
        doc = {"family": "w2", "k": args.k, "m": args.m, "r": args.r, "order": args.order}

        def coefficient(i: int) -> str:
            return f'{{\n   "n": {args.k + i},\n   "value": {_json_cell(values[i], args, "   ")}\n  }}'

        layout = _json(args, doc, "coefficients", coefficient)
    elif args.format == "text":
        layout = "", lambda i: [f"({args.k + i}, {_cell(values[i], args)})\n"], ""
    else:

        def row(i: int) -> list[str]:
            return [f"{args.k + i} & ${_cell(values[i], args)}$ \\\\\n"]

        layout = "\\begin{tabular}{rl}\n", row, "\\end{tabular}\n"
    _emit(args.output, layout, len(values))
    return 0


_GRID_KEYS = ("m", "r", "nmax")


def parse_grid(spec: str | None) -> ParamGrid:
    """Parse 'm=1,2 r=-2..3 nmax=8' (separators ';' or whitespace); omitted
    keys keep their defaults, and a key may be given only once."""
    m_values = DEFAULT_GRID.m_values
    r_values = DEFAULT_GRID.r_values
    nmax = DEFAULT_GRID.nmax
    seen: set[str] = set()
    if spec:
        for token in re.split(r"[;\s]+", spec.strip()):
            if not token:
                continue
            if "=" not in token:
                raise ValueError(f"grid token {token!r} is not key=values")
            key, _, raw = token.partition("=")
            if key not in _GRID_KEYS:
                raise ValueError(f"unknown grid key {key!r}")
            if key in seen:
                raise ValueError(f"grid key {key!r} given more than once")
            seen.add(key)
            values: list[int] = []
            for part in raw.split(","):
                if ".." in part:
                    lo, _, hi = part.partition("..")
                    lo, hi = int(lo), int(hi)
                    # A longer range holds an |r| > 2^24 or an m > 2^25 + 1,
                    # where every check meets a bracket too wide to store;
                    # it is refused before it is expanded.
                    if hi - lo > 2 * _MAX_SPAN:
                        raise ValueError(f"range {part!r} has more than {2 * _MAX_SPAN + 1} values")
                    values.extend(range(lo, hi + 1))
                else:
                    values.append(int(part))
            if key == "m":
                m_values = tuple(values)
            elif key == "r":
                r_values = tuple(values)
            else:
                if len(values) != 1:
                    raise ValueError("nmax takes a single value")
                nmax = values[0]
    return ParamGrid(m_values, r_values, nmax)


def cmd_audit(args: argparse.Namespace) -> int:
    try:
        report = run_all(args.grid, args.check or None)
    except RuntimeError as exc:
        # A broken worker pool is the one error reported here; run_all has
        # imported concurrent.futures if it made a pool, so this costs nothing.
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        _error(f"an audit worker process died: {exc}")
    if not args.quiet:
        with _opened(args.output) as stream:
            stream.write(report.render_table())
    if args.json is not None:
        with _opened(args.json) as stream:
            stream.write(report.to_json_str())
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwhitney",
        description=(
            "Exact q-analogue Whitney, Whitney-Lah and Dowling number families: "
            "tables, generating-function expansion, and an identity audit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, nmax_help: str | None = None) -> None:
        p.add_argument("--m", type=int, required=True, help="step parameter, >= 1")
        p.add_argument("--r", type=int, required=True, help="shift parameter, any integer")
        if nmax_help is not None:
            p.add_argument("--nmax", type=int, required=True, help=nmax_help)
        p.add_argument("--format", choices=("text", "csv", "json", "latex"), default="text")
        p.add_argument("--q", type=_q_spec, default=None, help="evaluate at q (integer or p/d)")
        p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p_table = sub.add_parser("table", help="print triangle rows 0..nmax")
    families = ", ".join(f.value for f in FamilyId)
    p_table.add_argument("--family", type=_family, required=True, help="one of " + families)
    add_common(p_table, "last row to print")
    p_table.set_defaults(fn=cmd_table)

    p_dow = sub.add_parser("dowling", help="print a row-sum sequence")
    p_dow.add_argument("--form", type=int, choices=(1, 2, 3), required=True)
    add_common(p_dow, "last index to print")
    p_dow.set_defaults(fn=cmd_dowling)

    p_exp = sub.add_parser("expand", help="expand a column generating series")
    p_exp.add_argument("--k", type=int, required=True, help="column index, >= 0")
    p_exp.add_argument("--order", type=int, required=True, help="truncation order, >= k")
    add_common(p_exp)
    p_exp.set_defaults(fn=cmd_expand)

    p_aud = sub.add_parser("audit", help="run the identity audit")
    p_aud.add_argument(
        "--grid",
        default=None,
        help="grid spec like 'm=1,2 r=-2..3 nmax=10' (defaults: m=1..3, r=-2..3, nmax=10)",
    )
    p_aud.add_argument(
        "--check",
        action="append",
        default=None,
        metavar="ID",
        help="run only this check id (repeatable)",
    )
    p_aud.add_argument("--json", default=None, metavar="PATH", help="also write a JSON report")
    p_aud.add_argument("--quiet", action="store_true", help="suppress the text table")
    p_aud.add_argument("-o", "--output", default=None, help="table output path (default stdout)")
    p_aud.set_defaults(fn=cmd_audit)

    return parser


# A negative number given as its own token.  argparse reads one that is not
# a plain integer or decimal, such as -1/3, as an option string.
_NEGATIVE_VALUE = re.compile(r"-[0-9]")


def _join_q_values(argv: list[str]) -> list[str]:
    """`--q -1/3` rewritten as `--q=-1/3`, which argparse accepts."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--q" and _NEGATIVE_VALUE.match(token):
            out[-1] = f"--q={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_q_values(sys.argv[1:] if argv is None else argv))
    # Params and whitney2_rational_gf reject a bad --m and --order themselves.
    if args.command in ("table", "dowling") and args.nmax < 0:
        _error("--nmax must be >= 0")
    if args.command == "expand" and args.k < 0:
        _error("--k must be >= 0")
    if args.command == "audit":
        try:
            args.grid = parse_grid(args.grid)
        except (ValueError, TypeError) as exc:
            _error(f"bad --grid: {exc}")
        for check_id in args.check or ():
            if check_id not in REGISTRY:
                _error(f"unknown check id {check_id!r}")
        if not args.quiet and args.json is not None and _identity(args.output) == _identity(args.json):
            _error("the text table and the --json report would share one output; add --quiet or name two")
    # Parsed values stay under the limit on the digits of an int <-> str
    # conversion; a value at --q, such as lah row 30 at q = 1000, may be
    # longer.  The limit is lifted for the command and then restored.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except EvalAtZeroError:
        _error("--q 0 is not allowed for families with negative q-exponents")
    except ValueError as exc:
        _error(str(exc))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
