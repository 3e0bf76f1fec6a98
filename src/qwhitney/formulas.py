"""Closed-form and second-path evaluators cross-checking the triangles.

Every operation here recomputes a triangle entry (or a whole row or
series) along a route independent of the generating recurrence: finite
difference operators, alternating explicit sums, vertical/horizontal
recurrences, truncated rational series, and matrix composition.  Where a
published formulation differs from the derivation-consistent one, both
are exposed, selected by `Variant`.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from math import comb
from typing import Callable

from .qalg import (
    LaurentPoly,
    ONE,
    ZERO,
    lp_add_bracket,
    lp_div_bracket,
    lp_dot,
    q_binomial_base,
    q_bracket,
    q_power,
)
from .triangles import FamilyId, Params, get_triangle, lah_row_sum
from .upoly import TruncSeries, useries_inverse

GridFunction = Callable[[int], LaurentPoly]
Entry = Callable[[int, int], LaurentPoly]


class Variant(Enum):
    """Formula variant: the statement as commonly printed, or the corrected form."""

    VERBATIM = "verbatim"
    CORRECTED = "corrected"


@cache
def rising_bracket_product(c: int, m: int, n: int) -> LaurentPoly:
    """Product of [c + i*m] for i = 0..n-1, memoized incrementally; [c]^n at m = 0."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return ONE
    return rising_bracket_product(c, m, n - 1) * q_bracket(c + (n - 1) * m)


def _div_factorial_base(p: LaurentPoly, k: int, m: int) -> LaurentPoly:
    """Exact division by [k]! in base q^m times [m]^k.

    [i] in base q^m times [m] is [m i], so that divisor is the product of
    [m i] for i = 1..k, and the quotient is k exact bracket divisions.
    """
    for i in range(1, k + 1):
        p = lp_div_bracket(p, m * i)
    return p


def q_difference(f: GridFunction, k: int, h: int) -> LaurentPoly:
    """k-th q-difference of f at 0 with step h, weights in base q^h."""
    if k < 0:
        raise ValueError("order must be >= 0")
    if h < 1:
        raise ValueError("step must be >= 1")
    terms = []
    for j in range(k + 1):
        weight = q_power(h * comb(k - j, 2)) * q_binomial_base(k, j, h)
        terms.append((-weight if (k - j) % 2 else weight, f(j * h)))
    return lp_dot(terms)


def whitney2_explicit(params: Params, n: int, k: int) -> LaurentPoly:
    """Explicit formula for the second-kind entry: the k-th q-difference of
    x -> [x + r]^n with step m, divided by [k]! in base q^m times [m]^k.

    The same alternating sum is the entry's exponential generating function
    coefficient, so that reading has no separate evaluator.
    """
    m, r = params.m, params.r
    return _div_factorial_base(
        q_difference(lambda x: rising_bracket_product(x + r, 0, n), k, m), k, m
    )


def _vertical(c: Callable[[int], int], m: int, entry: Entry, n: int, k: int) -> LaurentPoly:
    """Entry (n+1, k+1) of a triangle whose row-i weights are q^(m(k-1)+c(i))
    and [mk+c(i)], from column k of rows k..n by unrolling its recurrence:
    the sum over j = k..n of q^(mk+c(j+1)) times the product of [m(k+1)+c(i)] for
    i = j+2..n+1, times entry(j, k).

    The products shed while unrolling are built as one running product.
    """
    terms = []
    shed = ONE
    for j in range(n, k - 1, -1):
        terms.append((q_power(m * k + c(j + 1)) * shed, entry(j, k)))
        if j > k:
            shed = lp_add_bracket(ZERO, shed, m * (k + 1) + c(j + 1))
    return lp_dot(terms)


def whitney2_vertical(params: Params, n: int, k: int) -> LaurentPoly:
    """Vertical recurrence; the result is the entry at (n+1, k+1)."""
    r = params.r
    return _vertical(lambda i: r, params.m, get_triangle(FamilyId.W2, params).value, n, k)


def _horizontal(c: int, m: int, entry: Entry, n: int, k: int) -> LaurentPoly:
    """Entry (n, k) of a triangle with the row-(n+1) weights q^(m(k-1)+c)
    and [mk+c], reconstructed from row n+1 by inverting its recurrence.

    The weight ratios are assembled as explicit running products, never by
    polynomial division.
    """
    terms = []
    ratio = ONE
    for j in range(n - k + 1):
        weight = q_power(-c - m * (k + j)) * ratio
        terms.append((-weight if j % 2 else weight, entry(n + 1, k + j + 1)))
        ratio = lp_add_bracket(ZERO, weight, m * (k + j + 1) + c)
    return lp_dot(terms)


def whitney2_horizontal(params: Params, n: int, k: int) -> LaurentPoly:
    """Horizontal recurrence reconstructing the entry at (n, k) from row n+1."""
    return _horizontal(params.r, params.m, get_triangle(FamilyId.W2, params).value, n, k)


def lah_explicit(params: Params, n: int, k: int) -> LaurentPoly:
    """Explicit formula for the Lah-type entry: the k-th q-difference of the
    length-n rising product starting at x + 2r, step m, divided as above.

    The same sum is the q-Newton interpolation coefficient of that product
    over the node grid 0, m, 2m, ... and its exponential generating function
    coefficient, so those readings have no separate evaluators.
    """
    m, r = params.m, params.r
    return _div_factorial_base(
        q_difference(lambda x: rising_bracket_product(x + 2 * r, m, n), k, m), k, m
    )


def lah_vertical(variant: Variant, params: Params, n: int, k: int) -> LaurentPoly:
    """Vertical recurrence candidate for the Lah entry at (n+1, k+1).

    The corrected form carries the product over the factors actually shed
    while unrolling; the verbatim form repeats one j-independent product.
    """
    m, r = params.m, params.r
    lah = get_triangle(FamilyId.LAH, params).value
    if variant is Variant.CORRECTED:
        # The Lah step into row i is the second-kind step with r -> 2r + (i-1)m.
        return _vertical(lambda i: 2 * r + (i - 1) * m, m, lah, n, k)
    prod = ONE
    for i in range(k + 1):
        prod = lp_add_bracket(ZERO, prod, 2 * r + (k + 1) * m + (n - i) * m)
    return lp_dot((q_power(2 * r + m * k + m * (n - j)) * prod, lah(j, k)) for j in range(k, n + 1))


def lah_horizontal(params: Params, n: int, k: int) -> LaurentPoly:
    """Horizontal recurrence reconstructing the Lah entry at (n, k) from row n+1.

    The Lah step into row n+1 is the second-kind step with r -> 2r + nm.
    """
    m = params.m
    return _horizontal(2 * params.r + n * m, m, get_triangle(FamilyId.LAH, params).value, n, k)


def whitney2_rational_gf(params: Params, k: int, order: int) -> TruncSeries:
    """Column generating series: coefficient of u^n is the entry at (n, k)."""
    if order < k:
        raise ValueError(f"order must be >= k, got order={order}, k={k}")
    m, r = params.m, params.r
    # The numerator is q^(m*C(k,2) + kr) u^k, so the denominator's inverse
    # is needed only to order - k and is then shifted up by k.
    den = TruncSeries(order - k, [ONE])
    for j in range(k + 1):
        den = den * TruncSeries(order - k, [ONE, -q_bracket(m * j + r)])
    scale = q_power(m * comb(k, 2) + k * r)
    return TruncSeries(order, [ZERO] * k + [scale * c for c in useries_inverse(den).coeffs()])


def triangular_sum(left: Entry, right: Entry, n: int, j: int) -> LaurentPoly:
    """Entry (n, j) of the product of two lower-triangular matrices: the sum
    of left(n, k) * right(k, j) over k = j..n, by one `lp_dot`."""
    return lp_dot((left(n, k), right(k, j)) for k in range(j, n + 1))


def lah_via_composition(variant: Variant, params: Params, n: int, j: int) -> LaurentPoly:
    """Lah entry as a first-kind/second-kind matrix product.

    Verbatim pairs the falling first-kind family at -r with the second kind;
    corrected pairs the rising first-kind family at +r with the second kind.
    """
    if variant is Variant.VERBATIM:
        first = get_triangle(FamilyId.W1_FALLING, Params(params.m, -params.r))
    else:
        first = get_triangle(FamilyId.W1_RISING, params)
    return triangular_sum(first.value, get_triangle(FamilyId.W2, params).value, n, j)


def _lah_outer(variant: Variant, params: Params) -> Entry:
    """The outer matrix of the Lah-to-second-kind routes: the second-kind
    triangle at -r (verbatim) or the inverse of the rising first-kind
    triangle (corrected)."""
    if variant is Variant.VERBATIM:
        return get_triangle(FamilyId.W2, Params(params.m, -params.r)).value
    return get_triangle(FamilyId.W1_RISING, params).inverse.value


def whitney_from_lah(variant: Variant, params: Params, n: int, j: int) -> LaurentPoly:
    """Second-kind entry recovered from the Lah triangle: the product of the
    variant's outer matrix (`_lah_outer`) with the Lah triangle."""
    outer = _lah_outer(variant, params)
    return triangular_sum(outer, get_triangle(FamilyId.LAH, params).value, n, j)


def dowling_qi(variant: Variant, params: Params, n: int) -> LaurentPoly:
    """Row-sum sequence value assembled from Lah row sums, weighted by row n
    of the variant's outer matrix (`_lah_outer`)."""
    outer = _lah_outer(variant, params)
    return triangular_sum(outer, lambda k, _: lah_row_sum(params, k), n, 0)
