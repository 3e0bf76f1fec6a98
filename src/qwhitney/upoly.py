"""Polynomials and truncated power series in the formal variable u.

u stands for the bracket of the indeterminate t, so a product such as
[t+c] factors into the degree-1 polynomial [c] + q^c u.  Coefficients
live in the Laurent ring of `qalg`; all arithmetic is exact, and series
arithmetic is exact modulo u^(order+1).

One type, `UPoly`, holds both: an exact polynomial when its order is
None, a series known mod u^(order+1) otherwise.  Both are stored trimmed
of trailing zeros, so `coeff(i)` reads zero past the last stored
coefficient.  `TruncSeries` is its order-first series constructor.  The
program uses construction, `coeff`, `coeffs` and the product; equality
is there for library callers and the tests.  The module builds the
bracket products `falling_factorial_u` and `rising_factorial_u` and
inverts series.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence

from .qalg import LaurentPoly, ONE, ZERO, lp_dot, q_bracket, q_power


class NonUnitConstantTermError(ArithmeticError):
    """Series inversion requires a +-q^e constant term."""


def _product_coeff(a: Sequence[LaurentPoly], b: Sequence[LaurentPoly], n: int) -> LaurentPoly:
    """Coefficient n of the product of u-coefficient sequences a and b, by one
    `lp_dot` (which skips zero operands)."""
    return lp_dot((a[i], b[n - i]) for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1))


class UPoly:
    """A polynomial in u with LaurentPoly coefficients or, given an order,
    a series known mod u^(order+1), cut to coefficients 0..order.  Either
    is stored with trailing zeros trimmed, and `coeff(i)` reads zero past
    the last stored coefficient.  Values are immutable: the memoised
    factorials share them."""

    __slots__ = ("_coeffs", "_order")

    def __init__(self, coeffs: Iterable[LaurentPoly] = (), order: int | None = None):
        if order is not None and order < 0:
            raise ValueError("series order must be >= 0")
        cs = tuple(coeffs)[: None if order is None else order + 1]
        d = len(cs)
        while d and not cs[d - 1]:
            d -= 1
        self._coeffs = cs[:d]
        self._order = order

    @property
    def order(self) -> int | None:
        return self._order

    def coeff(self, i: int) -> LaurentPoly:
        return self._coeffs[i] if 0 <= i < len(self._coeffs) else ZERO

    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def __mul__(self, other: "UPoly") -> "UPoly":
        """The product, known to the smaller finite order of the factors, or
        exact when neither has one."""
        if not isinstance(other, UPoly):
            return NotImplemented
        order = min((o for o in (self._order, other._order) if o is not None), default=None)
        a, b = self._coeffs, other._coeffs
        length = len(a) + len(b) - 1 if order is None else min(order + 1, len(a) + len(b) - 1)
        return UPoly([_product_coeff(a, b, n) for n in range(length)], order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __str__(self) -> str:
        parts = [f"({c!s})*u^{i}" for i, c in enumerate(self._coeffs) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"UPoly({self!s})" if self._order is None else f"TruncSeries(order={self._order}, {self!s})"


class TruncSeries(UPoly):
    """A series known mod u^(order+1): `UPoly(coeffs, order)`, order first."""

    __slots__ = ()

    def __init__(self, order: int, coeffs: Iterable[LaurentPoly] = ()):
        super().__init__(coeffs, order)


def bracket_linear(c: int) -> UPoly:
    """The bracket of t + c as a polynomial in u: [c] + q^c u."""
    return UPoly((q_bracket(c), q_power(c)))


@cache
def falling_factorial_u(m: int, s: int, n: int) -> UPoly:
    """Product of the brackets of t - s - i*m for i = 0..n-1 (degree exactly n)."""
    if m < 1:
        raise ValueError(f"step m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n == 0:
        return UPoly((ONE,))
    return falling_factorial_u(m, s, n - 1) * bracket_linear(-s - (n - 1) * m)


@cache
def rising_factorial_u(m: int, s: int, n: int) -> UPoly:
    """Product of the brackets of t + s + i*m for i = 0..n-1 (degree exactly n)."""
    if m < 1:
        raise ValueError(f"step m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n == 0:
        return UPoly((ONE,))
    return rising_factorial_u(m, s, n - 1) * bracket_linear(s + (n - 1) * m)


def useries_inverse(s: UPoly) -> TruncSeries:
    """Multiplicative inverse mod u^(order+1); the constant term must be +-q^e."""
    if s.order is None:
        raise ValueError("only a series, a value with an order, has an inverse")
    c0 = s.coeff(0)
    if not c0.is_unit_monomial():
        raise NonUnitConstantTermError(f"constant term {c0} is not a unit monomial")
    inv0 = c0.unit_inverse()
    out = [inv0] + [ZERO] * s.order
    for n in range(1, s.order + 1):
        # out[n] is still ZERO, so the sum runs over s[i] out[n-i] for i >= 1.
        out[n] = -(inv0 * _product_coeff(s.coeffs(), out, n))
    return TruncSeries(s.order, out)
