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
    lp_exact_div,
    q_binomial_base,
    q_bracket,
    q_power,
)
from .triangles import (
    FamilyId,
    Params,
    invert_unit_triangular,
    lah,
    lah_row_sum,
    whitney1_falling,
    whitney1_rising,
    whitney2,
)
from .upoly import TruncSeries, UPoly, useries_inverse

GridFunction = Callable[[int], LaurentPoly]


class Variant(Enum):
    """Formula variant: the statement as commonly printed, or the corrected form."""

    VERBATIM = "verbatim"
    CORRECTED = "corrected"


@cache
def bracket_power(c: int, n: int) -> LaurentPoly:
    """[c]^n, memoized incrementally."""
    if n < 0:
        raise ValueError("exponent must be >= 0")
    if n == 0:
        return ONE
    return bracket_power(c, n - 1) * q_bracket(c)


@cache
def rising_bracket_product(c: int, m: int, n: int) -> LaurentPoly:
    """Product of [c + i*m] for i = 0..n-1, memoized incrementally."""
    if n < 0:
        raise ValueError("length must be >= 0")
    if n == 0:
        return ONE
    return rising_bracket_product(c, m, n - 1) * q_bracket(c + (n - 1) * m)


def _div_factorial_base(p: LaurentPoly, k: int, m: int) -> LaurentPoly:
    """Exact division by [k]! in base q^m times [m]^k.

    That divisor equals the product of (1 - q^(m i)) for i = 1..k divided by
    (1 - q)^k, so the quotient is obtained by one binomial power multiply
    followed by k linear-time binomial divisions, each exact.
    """
    if k == 0 or p.is_zero():
        return p
    p = p * (ONE - q_power(1)) ** k
    for i in range(1, k + 1):
        p = lp_exact_div(p, ONE - q_power(m * i))
    return p


def q_difference(f: GridFunction, k: int, h: int) -> LaurentPoly:
    """k-th q-difference of f at 0 with step h, weights in base q^h."""
    if k < 0:
        raise ValueError("order must be >= 0")
    if h < 1:
        raise ValueError("step must be >= 1")
    total = ZERO
    for j in range(k + 1):
        term = q_power(h * comb(k - j, 2)) * q_binomial_base(k, j, h) * f(j * h)
        total = total - term if (k - j) % 2 else total + term
    return total


def whitney2_explicit(params: Params, n: int, k: int) -> LaurentPoly:
    """Explicit formula for the second-kind entry: the k-th q-difference of
    x -> [x + r]^n with step m, divided by [k]! in base q^m times [m]^k.

    The same alternating sum is the entry's exponential generating function
    coefficient, so that reading has no separate evaluator.
    """
    m, r = params.m, params.r
    return _div_factorial_base(q_difference(lambda x: bracket_power(x + r, n), k, m), k, m)


def whitney2_vertical(params: Params, n: int, k: int) -> LaurentPoly:
    """Vertical recurrence; the result is the entry at (n+1, k+1)."""
    m, r = params.m, params.r
    total = ZERO
    for j in range(k, n + 1):
        total = total + bracket_power(m * (k + 1) + r, n - j) * whitney2(params, j, k)
    return q_power(m * k + r) * total


def whitney2_horizontal(params: Params, n: int, k: int) -> LaurentPoly:
    """Horizontal recurrence reconstructing the entry at (n, k) from row n+1.

    The weight ratios are assembled as explicit running products, never by
    polynomial division.
    """
    m, r = params.m, params.r
    total = ZERO
    ratio = ONE
    for j in range(n - k + 1):
        term = q_power(-r - m * (k + j)) * ratio * whitney2(params, n + 1, k + j + 1)
        total = total - term if j % 2 else total + term
        h = k + j + 1
        ratio = ratio * (q_power(-r - m * h + m) * q_bracket(m * h + r))
    return total


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
    total = ZERO
    if variant is Variant.VERBATIM:
        prod = ONE
        for i in range(k + 1):
            prod = prod * q_bracket(2 * r + (k + 1) * m + (n - i) * m)
        for j in range(k, n + 1):
            total = total + q_power(2 * r + m * k + m * (n - j)) * prod * lah(params, j, k)
        return total
    suffix = ONE
    terms = []
    for j in range(n, k - 1, -1):
        terms.append(q_power(2 * r + m * k + m * j) * suffix * lah(params, j, k))
        suffix = suffix * q_bracket(2 * r + (k + 1) * m + j * m)
    for t in terms:
        total = total + t
    return total


def lah_horizontal(params: Params, n: int, k: int) -> LaurentPoly:
    """Horizontal recurrence reconstructing the Lah entry at (n, k) from row n+1."""
    m, r = params.m, params.r
    total = ZERO
    ratio = ONE
    for j in range(n - k + 1):
        term = q_power(-2 * r - m * (k + j) - n * m) * ratio * lah(params, n + 1, k + j + 1)
        total = total - term if j % 2 else total + term
        h = k + j + 1
        ratio = ratio * (q_power(-2 * r - m * h - n * m + m) * q_bracket(m * h + 2 * r + n * m))
    return total


def whitney2_rational_gf(params: Params, k: int, order: int) -> TruncSeries:
    """Column generating series: coefficient of u^n is the entry at (n, k)."""
    if order < k:
        raise ValueError(f"order must be >= k, got order={order}, k={k}")
    m, r = params.m, params.r
    den = TruncSeries(order, [ONE])
    for j in range(k + 1):
        factor = TruncSeries(order, [ONE, -q_bracket(m * j + r)])
        den = den * factor
    num = TruncSeries.from_upoly(
        UPoly.u_power(k, q_power(m * comb(k, 2) + k * r)), order
    )
    return num * useries_inverse(den)


def lah_via_composition(variant: Variant, params: Params, n: int, j: int) -> LaurentPoly:
    """Lah entry as a first-kind/second-kind matrix product.

    Verbatim pairs the falling first-kind family at -r with the second kind;
    corrected pairs the rising first-kind family at +r with the second kind.
    """
    m, r = params.m, params.r
    total = ZERO
    if variant is Variant.VERBATIM:
        flipped = Params(m, -r)
        for k in range(j, n + 1):
            total = total + whitney1_falling(flipped, n, k) * whitney2(params, k, j)
    else:
        for k in range(j, n + 1):
            total = total + whitney1_rising(params, n, k) * whitney2(params, k, j)
    return total


def whitney_from_lah(variant: Variant, params: Params, n: int, j: int) -> LaurentPoly:
    """Second-kind entry recovered from the Lah triangle.

    Verbatim multiplies by the second-kind triangle at -r; corrected
    multiplies by the inverse of the rising first-kind triangle.
    """
    m, r = params.m, params.r
    total = ZERO
    if variant is Variant.VERBATIM:
        flipped = Params(m, -r)
        for k in range(j, n + 1):
            total = total + whitney2(flipped, n, k) * lah(params, k, j)
    else:
        inv = invert_unit_triangular(FamilyId.W1_RISING, params, n)
        for k in range(j, n + 1):
            total = total + inv.value(n, k) * lah(params, k, j)
    return total


def dowling_qi(variant: Variant, params: Params, n: int) -> LaurentPoly:
    """Row-sum sequence value assembled from Lah row sums.

    Verbatim weights them by the second-kind triangle at -r; corrected
    weights them by the inverse of the rising first-kind triangle.
    """
    m, r = params.m, params.r
    total = ZERO
    if variant is Variant.VERBATIM:
        flipped = Params(m, -r)
        for k in range(n + 1):
            total = total + whitney2(flipped, n, k) * lah_row_sum(params, k)
    else:
        inv = invert_unit_triangular(FamilyId.W1_RISING, params, n)
        for k in range(n + 1):
            total = total + inv.value(n, k) * lah_row_sum(params, k)
    return total
