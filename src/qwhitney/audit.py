"""Identity registry and erratum engine.

Each registered check evaluates one identity of the triangle families as
an exact polynomial equality over a parameter grid, reporting pass/fail
per grid point with the lexicographically first counterexample.  Checks
whose commonly printed form differs from the derivation-consistent form
run in both variants; a check counts as an erratum when its verbatim
variant fails somewhere on the grid while its corrected variant passes
everywhere.  Verbatim failures of those checks are expected findings and
do not make a report unclean.
"""

from __future__ import annotations

import json
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial, wraps
from itertools import chain
from math import comb, factorial
from typing import Callable, Iterable

from .qalg import LaurentPoly, ONE, ZERO, _is_int, q_bracket, q_power
from .triangles import (
    FamilyId,
    NonUnitDiagonalError,
    Params,
    _usable_cpus,
    dowling,
    get_triangle,
)
from .upoly import falling_factorial_u, rising_factorial_u
from .formulas import (
    Entry,
    Variant,
    dowling_qi,
    lah_explicit,
    lah_vertical,
    lah_via_composition,
    rising_bracket_product,
    triangular_sum,
    whitney2_explicit,
    whitney2_horizontal,
    whitney2_rational_gf,
    whitney2_vertical,
    whitney_from_lah,
)


class UnknownCheckIdError(KeyError):
    """A check id not present in the registry was requested."""


@dataclass(frozen=True)
class ParamGrid:
    """The (m, r) grid and row bound a run covers; values iterate sorted.
    The defaults are the default grid, DEFAULT_GRID."""

    m_values: tuple[int, ...] = (1, 2, 3)
    r_values: tuple[int, ...] = tuple(range(-2, 4))
    nmax: int = 10

    def __post_init__(self) -> None:
        if not self.m_values or not self.r_values:
            raise ValueError("grid must have at least one m and one r value")
        if not all(map(_is_int, (*self.m_values, *self.r_values, self.nmax))):
            raise ValueError("grid values must be integers")
        if any(m < 1 for m in self.m_values):
            raise ValueError("all m values must be >= 1")
        if self.nmax < 2:
            raise ValueError("nmax must be >= 2")
        object.__setattr__(self, "m_values", tuple(sorted(set(self.m_values))))
        object.__setattr__(self, "r_values", tuple(sorted(set(self.r_values))))

    def points(self) -> Iterable[Params]:
        for m in self.m_values:
            for r in self.r_values:
                yield Params(m, r)


DEFAULT_GRID = ParamGrid()


@dataclass(frozen=True)
class Counterexample:
    n: int
    k: int
    lhs: LaurentPoly
    rhs: LaurentPoly


@dataclass(frozen=True)
class CheckResult:
    check: str
    variant: Variant
    m: int
    r: int
    status: str  # "pass" | "fail"
    counterexample: Counterexample | None = None

    def to_json_dict(self) -> dict:
        doc: dict = {
            "id": self.check,
            "variant": self.variant.value,
            "m": self.m,
            "r": self.r,
            "status": self.status,
        }
        if self.counterexample is not None:
            ce = self.counterexample
            doc["counterexample"] = {
                "n": ce.n,
                "k": ce.k,
                "lhs": str(ce.lhs),
                "rhs": str(ce.rhs),
            }
        return doc


CheckFn = Callable[[Variant, Params, int], Counterexample | None]
Pair = tuple[Entry, Entry]  # (got, want)


@dataclass(frozen=True)
class CheckDef:
    id: str
    summary: str
    variants: tuple[Variant, ...]
    fn: CheckFn


def _first_mismatch(cells: Iterable[tuple[int, int]], *pairs: Pair) -> Counterexample | None:
    """The first cell (n, k), in the order given, where got(n, k) and
    want(n, k) differ for one of the (got, want) pairs, tried in order. A
    triangle inverted by got with no inverse from row n on (C13, C15, C16)
    fails at (n, n), with its diagonal entry as lhs and want(n, n) as rhs."""
    for n, k in cells:
        for got, want in pairs:
            try:
                lhs = got(n, k)
            except NonUnitDiagonalError as err:
                return Counterexample(err.n, err.n, err.entry, want(err.n, err.n))
            rhs = want(n, k)
            if lhs != rhs:
                return Counterexample(n, k, lhs, rhs)
    return None


def _triangle(rows: Iterable[int]) -> Iterable[tuple[int, int]]:
    """The cells (n, k), 0 <= k <= n, of the given rows, row-major."""
    return ((n, k) for n in rows for k in range(n + 1))


def _column_zero(rows: Iterable[int]) -> Iterable[tuple[int, int]]:
    """The cells (n, 0) of the given rows."""
    return ((n, 0) for n in rows)


def _delta(n: int, j: int) -> LaurentPoly:
    """Entry (n, j) of the identity matrix."""
    return ONE if n == j else ZERO


# The paper reads one q-difference sum three ways, so C07 runs the C06 check
# and C21, C22 the C20 one.  _run_point gives each of its calls one dict of
# verdicts, so each sum is judged once per point; no verdict outlives it.
_point_verdicts: ContextVar[dict[tuple[CheckFn, Variant], Counterexample | None]] = ContextVar("point_verdicts")


def _once_per_point(fn: CheckFn) -> CheckFn:
    """fn, judging each variant once per _run_point call; a call outside one always judges."""

    @wraps(fn)
    def once(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
        verdicts = _point_verdicts.get({})
        if (fn, variant) not in verdicts:
            verdicts[fn, variant] = fn(variant, p, nmax)
        return verdicts[fn, variant]

    return once


# -- check functions ------------------------------------------------------
# Convention: a counterexample's lhs is the value asserted by the statement
# under test, rhs is the reference value from the canonical triangle.
#
# A horizontal generating function (C01, C17) expands each row of a triangle
# in a falling basis of u: cell (n, i) is entry (n, i) of the product of the
# triangle with the lower-triangular matrix of basis coefficients.


def _falling_expansion(triangle: Entry, m: int, s: int) -> Entry:
    """Entry (n, i) of the triangle times the falling-basis coefficient matrix at shift s."""
    return lambda n, i: triangular_sum(
        triangle, lambda k, j: falling_factorial_u(m, s, k).coeff(j), n, i
    )


def _check_w_horiz_gf(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    expansion = _falling_expansion(get_triangle(FamilyId.W2, p).value, p.m, p.r)
    return _first_mismatch(_triangle(range(nmax + 1)), (expansion, _delta))


def _rescaled(form: int, p: Params, w2: Entry, n: int, k: int) -> LaurentPoly:
    """Entry (n, k) of the second-kind form 2 or 3 obtained by rescaling the
    first form: by q^(-kr - m*C(k,2)) for form 2, by q^(-m*C(k,2)) for form 3."""
    exponent = {2: -k * p.r - p.m * comb(k, 2), 3: -p.m * comb(k, 2)}[form]
    return q_power(exponent) * w2(n, k)


def _check_w_forms_scaling(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    w2 = get_triangle(FamilyId.W2, p).value
    star = get_triangle(FamilyId.W2_FORM2, p).value
    tilde = get_triangle(FamilyId.W2_FORM3, p).value
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (star, lambda n, k: _rescaled(2, p, w2, n, k)),
        (tilde, lambda n, k: q_power(k * p.r) * star(n, k)),
        (tilde, lambda n, k: _rescaled(3, p, w2, n, k)),
    )


def _check_w_recurrence_sign(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    m, r = p.m, p.r
    w2 = get_triangle(FamilyId.W2, p).value

    def stepped(n: int, k: int) -> LaurentPoly:
        return q_power(m * (k - 1) + r) * w2(n - 1, k - 1) + q_bracket(m * k + r) * w2(n - 1, k)

    # The commonly printed weights are these with r -> -r: the triangle at -r.
    got = get_triangle(FamilyId.W2, Params(m, -r)).value if variant is Variant.VERBATIM else stepped
    # Row 0 is the seed 1 of both triangles, which no recurrence step produces.
    return _first_mismatch(_triangle(range(1, nmax + 1)), (got, w2))


def _check_w_vertical(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    w2 = get_triangle(FamilyId.W2, p).value
    return _first_mismatch(
        _triangle(range(nmax)),
        (lambda n, k: whitney2_vertical(p, n, k), lambda n, k: w2(n + 1, k + 1)),
    )


def _check_w_horizontal(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, k: whitney2_horizontal(p, n, k), get_triangle(FamilyId.W2, p).value),
    )


@_once_per_point
def _check_w_explicit(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, k: whitney2_explicit(p, n, k), get_triangle(FamilyId.W2, p).value),
    )


def _check_w_rational_gf(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    series = [whitney2_rational_gf(p, k, nmax) for k in range(nmax + 1)]
    return _first_mismatch(
        ((n, k) for n in range(nmax + 1) for k in range(nmax + 1)),
        (lambda n, k: series[k].coeff(n), get_triangle(FamilyId.W2, p).value),
    )


def _check_dowling_forms(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    # Form 1 needs no pair: its row sum is the sum of the very whitney2
    # entries it would be compared with, so only the separately filled
    # form-2 and form-3 triangles are compared, with the rescaled first form.
    w2 = get_triangle(FamilyId.W2, p).value

    def rescaled_sum(form: int, n: int) -> LaurentPoly:
        return sum((_rescaled(form, p, w2, n, k) for k in range(n + 1)), ZERO)

    def pair(form: int) -> Pair:
        return (lambda n, _: dowling(p, form, n), lambda n, _: rescaled_sum(form, n))

    return _first_mismatch(_column_zero(range(nmax + 1)), pair(2), pair(3))


def _check_lah_triangular(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    m, r = p.m, p.r
    lah = get_triangle(FamilyId.LAH, p).value

    def got(n: int, k: int) -> LaurentPoly:
        return q_power(2 * r + m * (k - 1) + m * (n - 1)) * lah(n - 1, k - 1) + q_bracket(
            2 * r + k * m + (n - 1) * m
        ) * lah(n - 1, k)

    return _first_mismatch(_triangle(range(1, nmax + 1)), (got, lah))


def _check_lah_vertical(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    lah = get_triangle(FamilyId.LAH, p).value
    return _first_mismatch(
        _triangle(range(nmax)),
        (lambda n, k: lah_vertical(variant, p, n, k), lambda n, k: lah(n + 1, k + 1)),
    )


def _check_orthogonality(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    w1 = get_triangle(FamilyId.W1_FALLING, p).value
    w2 = get_triangle(FamilyId.W2, p).value
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, j: triangular_sum(w1, w2, n, j), _delta),
        (lambda n, j: triangular_sum(w2, w1, n, j), _delta),
    )


def _check_inverse_relations(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    # Each inverse is filled as its rows are read, so a non-unit diagonal
    # entry surfaces in _first_mismatch at its own row.
    w1, w2 = get_triangle(FamilyId.W1_FALLING, p), get_triangle(FamilyId.W2, p)
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (w1.inverse.value, w2.value),
        (w2.inverse.value, w1.value),
    )


def _check_lah_composition(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, j: lah_via_composition(variant, p, n, j), get_triangle(FamilyId.LAH, p).value),
    )


def _check_w_from_lah(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, j: whitney_from_lah(variant, p, n, j), get_triangle(FamilyId.W2, p).value),
    )


def _check_dowling_qi(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _column_zero(range(nmax + 1)),
        (lambda n, _: dowling_qi(variant, p, n), lambda n, _: dowling(p, 1, n)),
    )


def _check_lah_horiz_gf(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (
            _falling_expansion(get_triangle(FamilyId.LAH, p).value, p.m, 0),
            lambda n, i: rising_factorial_u(p.m, 2 * p.r, n).coeff(i),
        ),
    )


def _check_lah_diagonal(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    def claimed(n: int, k: int) -> LaurentPoly:
        if variant is Variant.VERBATIM:
            return ONE
        return q_power(2 * p.r * n + p.m * n * (n - 1))

    diagonal = ((n, n) for n in range(nmax + 1))
    return _first_mismatch(diagonal, (claimed, get_triangle(FamilyId.LAH, p).value))


def _check_lah_column_zero(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    def claimed(n: int, k: int) -> LaurentPoly:
        if variant is Variant.VERBATIM:
            return rising_bracket_product(2 * p.r + (n - 1) * p.m, 0, n)
        return rising_bracket_product(2 * p.r, p.m, n)

    return _first_mismatch(
        _column_zero(range(nmax + 1)), (claimed, get_triangle(FamilyId.LAH, p).value)
    )


@_once_per_point
def _check_lah_explicit(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (lambda n, k: lah_explicit(p, n, k), get_triangle(FamilyId.LAH, p).value),
    )


def _check_w1_recurrence(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    return _first_mismatch(
        _triangle(range(nmax + 1)),
        (
            get_triangle(FamilyId.W1_FALLING, p).value,
            lambda n, k: falling_factorial_u(p.m, p.r, n).coeff(k),
        ),
    )


def _check_w1_boundary(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    m, r = p.m, p.r

    def claimed(n: int, k: int) -> LaurentPoly:
        if variant is Variant.VERBATIM:
            value = q_power(-r - (n - 1) * m) * q_bracket(r + (n - 1) * m)
        else:
            value = q_power(-n * r - m * comb(n, 2)) * rising_bracket_product(r, m, n)
        return -value if n % 2 else value

    return _first_mismatch(
        _column_zero(range(1, nmax + 1)), (claimed, get_triangle(FamilyId.W1_FALLING, p).value)
    )


def _check_w1_table(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    m, r = p.m, p.r
    if variant is Variant.VERBATIM:
        w20 = q_power(-(r + m)) * q_bracket(r + m)
    else:
        w20 = q_power(-(2 * r + m)) * q_bracket(r) * q_bracket(r + m)
    claimed = {
        (1, 0): -(q_power(-r) * q_bracket(r)),
        (1, 1): q_power(-r),
        (2, 0): w20,
        (2, 1): -(q_power(-(2 * r + m)) * (q_bracket(r) + q_bracket(r + m))),
        (2, 2): q_power(-(2 * r + m)),
    }
    return _first_mismatch(
        claimed, (lambda n, k: claimed[n, k], get_triangle(FamilyId.W1_FALLING, p).value)
    )


# -- integer oracles for the q -> 1 limits ---------------------------------


def _integer_rows(weight: Callable[[int, int], int], top: int) -> list[list[int]]:
    """Rows 0..top of T[n,k] = T[n-1,k-1] + weight(n, k) T[n-1,k] from T[0,0] = 1,
    in plain integers, so independent of the Laurent kernel."""
    rows = [[1]]
    for n in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([(prev[k - 1] if k else 0) + weight(n, k) * prev[k] for k in range(n + 1)])
    return rows


def _classical_lah(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if k < 1 or k > n:
        return 0
    return factorial(n) // factorial(k) * comb(n - 1, k - 1)


def _at_one(value: LaurentPoly) -> LaurentPoly:
    """The q -> 1 limit of value, as a constant."""
    return LaurentPoly.const(int(value.eval_at(1)))


def _check_classical_limits(variant: Variant, p: Params, nmax: int) -> Counterexample | None:
    m, r = p.m, p.r
    lah = get_triangle(FamilyId.LAH, p).value
    top = min(nmax, 10)
    cheon_jung = _integer_rows(lambda n, k: 2 * r + k * m + (n - 1) * m, top)
    pairs: list[Pair] = [
        (lambda n, k: _at_one(lah(n, k)), lambda n, k: LaurentPoly.const(cheon_jung[n][k]))
    ]
    if m == 1 and r == 0:
        stirling = _integer_rows(lambda n, k: k, top)
        bells = [sum(row) for row in stirling]  # B_n = sum_k S(n, k)
        w2 = get_triangle(FamilyId.W2, p).value
        # The Bell number of row n is compared once, at its column-zero cell.
        pairs = [
            (
                lambda n, k: _at_one(dowling(p, 1, n)) if k == 0 else ZERO,
                lambda n, k: LaurentPoly.const(bells[n]) if k == 0 else ZERO,
            ),
            *pairs,
            (lambda n, k: _at_one(lah(n, k)), lambda n, k: LaurentPoly.const(_classical_lah(n, k))),
            (lambda n, k: _at_one(w2(n, k)), lambda n, k: LaurentPoly.const(stirling[n][k])),
        ]
    return _first_mismatch(_triangle(range(top + 1)), *pairs)


_BOTH = (Variant.VERBATIM, Variant.CORRECTED)
_SINGLE = (Variant.VERBATIM,)

REGISTRY: dict[str, CheckDef] = {
    c.id: c
    for c in [
        CheckDef("C01_W_HORIZ_GF", "second-kind rows expand u^n in the shifted falling basis", _SINGLE, _check_w_horiz_gf),
        CheckDef("C02_W_FORMS_SCALING", "form-2/form-3 triangles are monomial rescales of the first form", _SINGLE, _check_w_forms_scaling),
        CheckDef("C03_W_RECURRENCE_SIGN", "sign of r in the second-kind triangular recurrence weights", _BOTH, _check_w_recurrence_sign),
        CheckDef("C04_W_VERTICAL", "second-kind vertical recurrence", _SINGLE, _check_w_vertical),
        CheckDef("C05_W_HORIZONTAL", "second-kind horizontal recurrence", _SINGLE, _check_w_horizontal),
        CheckDef("C06_W_EXPLICIT", "second-kind explicit alternating-sum formula", _SINGLE, _check_w_explicit),
        CheckDef("C07_W_EGF", "second-kind exponential generating function coefficients", _SINGLE, _check_w_explicit),
        CheckDef("C08_W_RATIONAL_GF", "second-kind rational column generating series", _SINGLE, _check_w_rational_gf),
        CheckDef("C09_DOWLING_FORMS", "row-sum sequences of the three second-kind forms", _SINGLE, _check_dowling_forms),
        CheckDef("C10_LAH_TRIANGULAR", "Lah-type triangular recurrence from the single corner seed", _SINGLE, _check_lah_triangular),
        CheckDef("C11_LAH_VERTICAL", "Lah-type vertical recurrence", _BOTH, _check_lah_vertical),
        CheckDef("C12_ORTHOGONALITY", "first-kind and second-kind triangles are mutually orthogonal", _SINGLE, _check_orthogonality),
        CheckDef("C13_INVERSE_RELATIONS", "forward-substitution inverses equal the partner triangles", _SINGLE, _check_inverse_relations),
        CheckDef("C14_LAH_COMPOSITION", "Lah-type entries as a first-kind/second-kind matrix product", _BOTH, _check_lah_composition),
        CheckDef("C15_W_FROM_LAH", "second-kind entries recovered from the Lah-type triangle", _BOTH, _check_w_from_lah),
        CheckDef("C16_DOWLING_QI", "row-sum sequence assembled from Lah-type row sums", _BOTH, _check_dowling_qi),
        CheckDef("C17_LAH_HORIZ_GF", "Lah-type rows expand the shifted rising product in the falling basis", _SINGLE, _check_lah_horiz_gf),
        CheckDef("C18_LAH_DIAGONAL", "Lah-type diagonal entries against the unit-diagonal boundary claim", _BOTH, _check_lah_diagonal),
        CheckDef("C19_LAH_COLUMN_ZERO", "Lah-type column zero closed form", _BOTH, _check_lah_column_zero),
        CheckDef("C20_LAH_EXPLICIT", "Lah-type explicit alternating-sum formula", _SINGLE, _check_lah_explicit),
        CheckDef("C21_LAH_NEWTON", "Lah-type rows as interpolation coefficients on the step-m node grid", _SINGLE, _check_lah_explicit),
        CheckDef("C22_LAH_EGF", "Lah-type exponential generating function coefficients", _SINGLE, _check_lah_explicit),
        CheckDef("C23_W1_RECURRENCE", "first-kind recurrence matches the falling-product coefficients", _SINGLE, _check_w1_recurrence),
        CheckDef("C24_W1_BOUNDARY", "first-kind column zero closed form", _BOTH, _check_w1_boundary),
        CheckDef("C25_W1_TABLE", "first-kind low-order table values", _BOTH, _check_w1_table),
        CheckDef("C26_CLASSICAL_LIMITS", "q -> 1 limits against integer oracles", _SINGLE, _check_classical_limits),
    ]
}


def _run_point(ids: list[str], nmax: int, params: Params) -> list[CheckResult]:
    """Every variant of each named check at one grid point, in (check, variant) order."""
    token = _point_verdicts.set({})
    try:
        results = []
        for check_id in ids:
            check = REGISTRY[check_id]
            for variant in check.variants:
                ce = check.fn(variant, params, nmax)
                status = "pass" if ce is None else "fail"
                results.append(CheckResult(check_id, variant, params.m, params.r, status, ce))
        return results
    finally:
        _point_verdicts.reset(token)


class AuditReport:
    """All check results over a grid, with summary counts and the erratum list."""

    def __init__(self, grid: ParamGrid, results: list[CheckResult]):
        self.grid = grid
        self.results = results
        groups: dict[tuple[str, Variant], list[CheckResult]] = {}
        for res in results:
            groups.setdefault((res.check, res.variant), []).append(res)
        # The results of each (check, variant) present, in registry order.
        self.groups = {
            (check_id, variant): groups[check_id, variant]
            for check_id, check in REGISTRY.items()
            for variant in check.variants
            if (check_id, variant) in groups
        }

    @property
    def errata(self) -> list[str]:
        """Checks whose verbatim variant fails somewhere while corrected passes."""
        return [
            check_id
            for (check_id, variant), mine in self.groups.items()
            if variant is Variant.VERBATIM
            and len(REGISTRY[check_id].variants) == 2
            and any(res.status == "fail" for res in mine)
            and all(res.status == "pass" for res in self.groups.get((check_id, Variant.CORRECTED), ()))
        ]

    @property
    def counts(self) -> dict[str, int]:
        passed = sum(1 for res in self.results if res.status == "pass")
        return {"total": len(self.results), "pass": passed, "fail": len(self.results) - passed}

    @property
    def clean(self) -> bool:
        """True when every corrected and every single-variant result passes."""
        return not any(
            res.status == "fail"
            and (res.variant is Variant.CORRECTED or len(REGISTRY[res.check].variants) < 2)
            for res in self.results
        )

    def to_json_dict(self) -> dict:
        return {
            "grid": {
                "m": list(self.grid.m_values),
                "r": list(self.grid.r_values),
                "nmax": self.grid.nmax,
            },
            "checks": [res.to_json_dict() for res in self.results],
            "summary": self.counts,
            "errata": self.errata,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    def render_table(self) -> str:
        lines = []
        width = max(len(cid) for cid in REGISTRY)
        lines.append(f"{'check':<{width}}  {'variant':<9}  pass  fail  first counterexample")
        for (check_id, variant), mine in self.groups.items():
            passed = sum(1 for res in mine if res.status == "pass")
            failed = len(mine) - passed
            note = ""
            for res in mine:
                if res.status == "fail":
                    ce = res.counterexample
                    note = f"(m={res.m}, r={res.r}) n={ce.n} k={ce.k}: {ce.lhs} != {ce.rhs}"
                    break
            lines.append(
                f"{check_id:<{width}}  {variant.value:<9}  {passed:>4}  {failed:>4}  {note}"
            )
        lines.append("")
        lines.append(f"summary: {self.counts['pass']} pass, {self.counts['fail']} fail")
        errata = self.errata
        if errata:
            lines.append("errata (fail as stated, pass corrected):")
            for check_id in errata:
                lines.append(f"  {check_id}: {REGISTRY[check_id].summary}")
        lines.append(f"verdict: {'clean' if self.clean else 'NOT CLEAN'}")
        return "\n".join(lines) + "\n"


def run_all(grid: ParamGrid = DEFAULT_GRID, check_ids: list[str] | None = None) -> AuditReport:
    """Run every registered check (or a named subset, each id once in
    first-seen order) over the grid.

    No check reads a verdict from another grid point, so the points run in
    a process pool of forked workers, one per usable CPU; with one point or
    one usable CPU they run in this process.  Forked workers inherit
    this process's state, filled triangles included, and their results are
    read in grid order, so the report, and the error of the first failing
    point, are the same either way.  A worker that dies, or whose error
    cannot be read back, raises `concurrent.futures.process.BrokenProcessPool`.
    """
    ids = list(REGISTRY) if check_ids is None else list(dict.fromkeys(check_ids))
    for check_id in ids:
        if check_id not in REGISTRY:
            raise UnknownCheckIdError(check_id)
    points = list(grid.points())
    run = partial(_run_point, ids, grid.nmax)
    workers = min(len(points), _usable_cpus())
    if workers > 1:
        import multiprocessing  # here: at the top it would add about 20 ms to every start
        import signal
        from concurrent.futures import ProcessPoolExecutor

        # Workers take SIGINT's default action, so a Ctrl-C kills them at once.
        with ProcessPoolExecutor(
            workers, multiprocessing.get_context("fork"), signal.signal, (signal.SIGINT, signal.SIG_DFL)
        ) as pool:
            per_point = list(pool.map(run, points))
    else:
        per_point = [run(params) for params in points]
    # Back into (check, point, variant) order; the sort is stable.
    rank = {check_id: i for i, check_id in enumerate(ids)}
    return AuditReport(grid, sorted(chain.from_iterable(per_point), key=lambda res: rank[res.check]))
