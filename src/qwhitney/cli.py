"""Command-line surface: triangle tables, row-sum sequences, series
expansion, and the identity audit."""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NoReturn

from .audit import DEFAULT_GRID, ParamGrid, REGISTRY, run_all
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
    terms = f",\n{inner}".join([term % t for t in value.sorted_terms()])
    return f'{{\n{pad} "terms": [\n{inner}{terms}\n{pad} ]\n{pad}}}'


def _check_cells(args: argparse.Namespace, values: Iterable[LaurentPoly]) -> None:
    """Raise the one error a cell can raise, a negative exponent evaluated at
    `--q 0`, before the first byte of the output is written."""
    if args.q == 0:
        for value in values:
            value.eval_at(0)


def _write(chunks: Iterable[str], output: str | None) -> None:
    """Write the chunks, one at a time, to stdout or to the named file.  An
    output that cannot be opened or written is reported on one line with exit
    code 2; only a reader that closed stdout early, as `| head` does, ends the
    output quietly with the command's own exit code."""
    to_stdout = output is None or output == "-"
    try:
        if to_stdout:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(output, "w") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        if to_stdout:
            # Send what is still buffered to the null device, so the flush at
            # exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return
            output = "stdout"
        _error(f"cannot write {output}: {exc.strerror or exc}")


def _error(message: str) -> NoReturn:
    """Report an error on one stderr line, with no usage text, and exit 2."""
    print(f"qwhitney: error: {message}", file=sys.stderr)
    raise SystemExit(2) from None


def _json(args: argparse.Namespace, doc: dict, key: str, items: Iterable[str]) -> Iterator[str]:
    """The bytes of `json.dumps(doc + {key: [*items]}, indent=1)` and a newline,
    with `"q"` added last when given, yielded one item at a time.  Each item
    is the text of `json.dumps(item, indent=1)` with two spaces after each
    newline, as it sits two levels deep."""
    doc = dict(doc, **{key: []})
    if args.q is not None:
        doc["q"] = str(args.q)
    head, _, tail = json.dumps(doc, indent=1).partition(f'"{key}": []')
    yield f'{head}"{key}": '
    sep = "["
    for item in items:
        yield sep + "\n  " + item
        sep = ","
    yield ("[]" if sep == "[" else "\n ]") + tail + "\n"


class _Echo:
    """A file whose write returns the text, so `csv.writer.writerow` returns its line."""

    def write(self, text: str) -> str:
        return text


def _csv(args: argparse.Namespace, header: list[str], records: Iterable[tuple]) -> Iterator[str]:
    """One CSV line per (index, ..., value) record, the value as a quoted cell."""
    writer = csv.writer(_Echo(), quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    yield writer.writerow(header)
    for *index, value in records:
        yield writer.writerow([*index, _cell(value, args)])


def _tabular(cols: str, rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """A LaTeX tabular: each row's chunks, then its row end."""
    yield f"\\begin{{tabular}}{{{cols}}}\n"
    for row in rows:
        yield from row
        yield " \\\\\n"
    yield "\\end{tabular}\n"


def _grid(args: argparse.Namespace, rows: Iterable[Iterable[LaurentPoly]]) -> Iterator[str]:
    """Rows of values as comma-separated text lines or as the rows of a LaTeX
    tabular with nmax + 1 columns, yielded one cell at a time, with its
    separator and delimiters as chunks of their own, so only one formatted
    cell is held at once and none is copied."""
    if args.format == "text":
        for row in rows:
            for k, v in enumerate(row):
                if k:
                    yield ", "
                yield _cell(v, args)
            yield "\n"
        return

    def cells(row: Iterable[LaurentPoly]) -> Iterator[str]:
        for k, v in enumerate(row):
            yield " & $" if k else "$"
            yield _cell(v, args)
            yield "$"

    yield from _tabular("r" * (args.nmax + 1), map(cells, rows))


def cmd_table(args: argparse.Namespace) -> int:
    tri = get_triangle(args.family, Params(args.m, args.r))
    rows = [tri.row(n) for n in range(args.nmax + 1)]
    _check_cells(args, chain.from_iterable(rows))
    if args.format == "csv":
        records = ((n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row))
        chunks = _csv(args, ["n", "k", "value"], records)
    elif args.format == "json":
        doc = {"family": args.family.value, "m": args.m, "r": args.r, "nmax": args.nmax}
        items = ("[" + ",".join(["\n   " + _json_cell(v, args, "   ") for v in row]) + "\n  ]" for row in rows)
        chunks = _json(args, doc, "rows", items)
    else:
        chunks = _grid(args, rows)
    _write(chunks, args.output)
    return 0


def cmd_dowling(args: argparse.Namespace) -> int:
    params = Params(args.m, args.r)
    values = [dowling(params, args.form, n) for n in range(args.nmax + 1)]
    _check_cells(args, values)
    if args.format == "csv":
        chunks = _csv(args, ["n", "value"], enumerate(values))
    elif args.format == "json":
        doc = {"form": args.form, "m": args.m, "r": args.r, "nmax": args.nmax}
        chunks = _json(args, doc, "values", (_json_cell(v, args, "  ") for v in values))
    else:
        chunks = _grid(args, [values])
    _write(chunks, args.output)
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    series = whitney2_rational_gf(Params(args.m, args.r), args.k, args.order)
    pairs = [(n, series.coeff(n)) for n in range(args.k, args.order + 1)]
    _check_cells(args, (v for _, v in pairs))
    if args.format == "csv":
        chunks = _csv(args, ["n", "value"], pairs)
    elif args.format == "json":
        doc = {"family": "w2", "k": args.k, "m": args.m, "r": args.r, "order": args.order}
        items = (f'{{\n   "n": {n},\n   "value": {_json_cell(v, args, "   ")}\n  }}' for n, v in pairs)
        chunks = _json(args, doc, "coefficients", items)
    elif args.format == "text":
        chunks = (f"({n}, {_cell(v, args)})\n" for n, v in pairs)
    else:
        chunks = _tabular("rl", ([f"{n} & ${_cell(v, args)}$"] for n, v in pairs))
    _write(chunks, args.output)
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
        _write([report.render_table()], args.output)
    if args.json is not None:
        _write([report.to_json_str()], args.json)
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
        parser.error("--nmax must be >= 0")
    if args.command == "expand" and args.k < 0:
        parser.error("--k must be >= 0")
    if args.command == "audit":
        try:
            args.grid = parse_grid(args.grid)
        except (ValueError, TypeError) as exc:
            parser.error(f"bad --grid: {exc}")
        for check_id in args.check or ():
            if check_id not in REGISTRY:
                parser.error(f"unknown check id {check_id!r}")
    # Parsed values stay under the limit on the digits of an int <-> str
    # conversion; a value at --q, such as lah row 30 at q = 1000, may be
    # longer.  The limit is lifted for the command and then restored.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.fn(args)
    except EvalAtZeroError:
        parser.error("--q 0 is not allowed for families with negative q-exponents")
    except ValueError as exc:
        parser.error(str(exc))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
