"""Per-layer tracing of qwhitney, installed from outside the package.

`install()` wraps the public functions and operators of the six modules
(cli, audit, formulas, triangles, upoly, qalg) in place and returns the
`Tracer` that collects:

- aggregates: per layer name, the number of calls and the self time
  (a call's duration minus the time spent in traced callees). A call
  made while the same name is already innermost on the stack (recursion,
  or `whitney2` -> `Triangle.value`) is folded into the outer call, so
  it is neither counted twice nor timed twice;
- spans: one per coarse call (the CLI command, each check x grid point x
  variant, each `formulas` evaluator call), with its parent span;
- multiply work: term pairs (the product of the operands' nonzero term
  counts) and the number of calls above `LARGE_MUL_PAIRS` pairs;
- hit ratios of the memoised functions, read from `cache_info()` on the
  original cached objects, which are left unwrapped so that tracing does
  not change how often their caches are consulted.

Names the package no longer defines are skipped and report zero.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time

import qwhitney
from qwhitney import audit, cli, formulas, qalg, triangles, upoly

LARGE_MUL_PAIRS = 1024

# (class, attribute, layer name): operators and methods patched on the class.
METHODS = [
    (qalg.LaurentPoly, "__mul__", "qalg.mul"),
    (qalg.LaurentPoly, "__rmul__", "qalg.mul"),
    (qalg.LaurentPoly, "__add__", "qalg.add"),
    (qalg.LaurentPoly, "__radd__", "qalg.add"),
    (qalg.LaurentPoly, "__neg__", "qalg.neg"),
    (qalg.LaurentPoly, "exact_div", "qalg.exact_div"),
    (upoly.UPoly, "__mul__", "upoly.mul"),
    (upoly.UPoly, "__rmul__", "upoly.mul"),
    (upoly.TruncSeries, "__mul__", "upoly.series_mul"),
    (triangles.Triangle, "value", "triangles.value"),
    (triangles.Triangle, "row", "triangles.value"),
    (triangles.Triangle, "rows", "triangles.value"),
    (triangles.Triangle, "__getitem__", "triangles.value"),
    (triangles.InverseMatrix, "value", "triangles.invert"),
    (triangles.InverseMatrix, "__getitem__", "triangles.invert"),
]

TRIANGLE_ACCESSORS = [
    "whitney2",
    "whitney2_verbatim",
    "whitney2_scaled",
    "whitney1_falling",
    "whitney1_rising",
    "lah",
    "dowling",
    "lah_row_sum",
    "rows_for",
]

EVALUATORS = [
    "q_difference",
    "whitney2_explicit",
    "whitney2_egf_coeff",
    "whitney2_vertical",
    "whitney2_horizontal",
    "lah_explicit",
    "lah_egf_coeff",
    "newton_lah_coefficients",
    "lah_vertical",
    "lah_horizontal",
    "whitney2_rational_gf",
    "lah_via_composition",
    "whitney_from_lah",
    "dowling_qi",
]

CHECK_IDS = [
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

MEMOISED = [
    (qalg, "q_bracket"),
    (qalg, "q_binomial_base"),
    (qalg, "q_factorial_base"),
    (formulas, "bracket_power"),
    (formulas, "rising_bracket_product"),
    (upoly, "falling_factorial_u"),
    (upoly, "rising_factorial_u"),
]

# Layers reported as calls and self time.
LAYERS = (
    ["qalg.mul", "qalg.add", "qalg.neg", "qalg.exact_div"]
    + ["upoly.mul", "upoly.series_mul", "upoly.useries_inverse"]
    + ["triangles.value", "triangles.invert"]
    + [f"formulas.{name}" for name in EVALUATORS]
)

_NAMESPACES = [qwhitney, qalg, upoly, triangles, formulas, audit, cli]


def _module_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
        if layer == "qalg.mul":
            names += ["qalg.mul.term_pairs", "qalg.mul.calls_large"]
    names += [f"audit.{check_id}.s" for check_id in CHECK_IDS]
    names.append("cli.main.self_s")
    names += [f"{_module_name(mod)}.{fn}.hit_ratio" for mod, fn in MEMOISED]
    names += ["trace.wall_s", "trace.overhead_s"]
    return names


def _nterms(value) -> int:
    # Nonzero terms; the public copy is the fallback if the internal map changes shape.
    if isinstance(value, qalg.LaurentPoly):
        terms = getattr(value, "_terms", None)
        return len(terms) if isinstance(terms, dict) else len(value.terms())
    if isinstance(value, int):
        return 1 if value else 0
    return 0


class Tracer:
    """Collects aggregates and spans; see the module docstring."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.stack: list[list] = []  # frames: [name, time spent in traced callees]
        self.spans: list[tuple] = []  # (id, parent_id, name, detail, start, end)
        self.span_stack: list[int] = []
        self.term_pairs = 0
        self.calls_large = 0
        self._cached = [
            (f"{_module_name(mod)}.{fn}.hit_ratio", getattr(mod, fn, None))
            for mod, fn in MEMOISED
        ]

    def wrap(self, name: str, fn, span: bool = False, detail=None, on_call=None):
        """A wrapper of fn that times it under `name`."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        span_stack = self.span_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            frame = [name, 0.0]
            stack.append(frame)
            if span:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(span_id)
                spans.append(None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[1]
                stat[2] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                if span:
                    span_stack.pop()
                    info = detail(args) if detail is not None else ""
                    spans[span_id] = (span_id, parent, name, info, start, end)

        return traced

    def _count_mul(self, args) -> None:
        if len(args) == 2:
            pairs = _nterms(args[0]) * _nterms(args[1])
            self.term_pairs += pairs
            if pairs > LARGE_MUL_PAIRS:
                self.calls_large += 1

    def report(self) -> dict:
        """Per-layer metrics of the traced run, except `trace.overhead_s`."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            calls, self_s, _ = self.stats.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            if layer == "qalg.mul":
                out["qalg.mul.term_pairs"] = self.term_pairs
                out["qalg.mul.calls_large"] = self.calls_large
        for check_id in CHECK_IDS:
            out[f"audit.{check_id}.s"] = self.stats.get(f"audit.{check_id}", (0, 0.0, 0.0))[2]
        root = self.stats.get("cli.main", (0, 0.0, 0.0))
        out["cli.main.self_s"] = root[1]
        for key, cached in self._cached:
            info = cached.cache_info() if hasattr(cached, "cache_info") else None
            lookups = info.hits + info.misses if info is not None else 0
            out[key] = info.hits / lookups if lookups else 0.0
        out["trace.wall_s"] = root[2]
        out["trace.self_sum_s"] = sum(stat[1] for stat in self.stats.values())
        return out

    def write_spans(self, path: str, trace_id: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for span_id, parent, name, info, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "trace": trace_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "detail": info,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _replace_everywhere(original, replacement) -> None:
    # Modules that imported a function by value hold their own reference.
    for module in _NAMESPACES:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _check_detail(args) -> str:
    variant, params, nmax = args
    return f"variant={variant.value} m={params.m} r={params.r} nmax={nmax}"


def install() -> Tracer:
    """Wrap every layer boundary of the imported package; returns the tracer."""
    tracer = Tracer()
    for cls, attr, name in METHODS:
        original = cls.__dict__.get(attr)
        if original is None:
            continue
        on_call = tracer._count_mul if name == "qalg.mul" else None
        setattr(cls, attr, tracer.wrap(name, original, on_call=on_call))

    functions = [(triangles, fn, "triangles.value", False) for fn in TRIANGLE_ACCESSORS]
    functions.append((triangles, "invert_unit_triangular", "triangles.invert", False))
    functions.append((upoly, "useries_inverse", "upoly.useries_inverse", False))
    functions += [(formulas, fn, f"formulas.{fn}", True) for fn in EVALUATORS]
    functions.append((cli, "main", "cli.main", True))
    for module, fn, name, span in functions:
        original = getattr(module, fn, None)
        if original is not None:
            _replace_everywhere(original, tracer.wrap(name, original, span=span))

    for check_id, check in list(audit.REGISTRY.items()):
        wrapped = tracer.wrap(f"audit.{check_id}", check.fn, span=True, detail=_check_detail)
        audit.REGISTRY[check_id] = dataclasses.replace(check, fn=wrapped)
    return tracer
