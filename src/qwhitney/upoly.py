"""Polynomials and truncated power series in the formal variable u.

u stands for the bracket of the indeterminate t, so a product such as
[t+c] factors into the degree-1 polynomial [c] + q^c u.  Coefficients
live in the Laurent ring of `qalg`; all arithmetic is exact, and series
arithmetic is exact modulo u^(order+1).
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Sequence, Union

from .qalg import LaurentPoly, ONE, ZERO, lp_dot, q_bracket, q_power


class NonUnitConstantTermError(ArithmeticError):
    """Series inversion requires a +-q^e constant term."""


def _trim(coeffs: tuple[LaurentPoly, ...]) -> tuple[LaurentPoly, ...]:
    d = len(coeffs)
    while d and coeffs[d - 1].is_zero():
        d -= 1
    return coeffs[:d]


def _product_coeff(a: Sequence[LaurentPoly], b: Sequence[LaurentPoly], n: int) -> LaurentPoly:
    """Coefficient n of the product of u-coefficient sequences a and b, by one
    `lp_dot` (which skips zero operands)."""
    return lp_dot((a[i], b[n - i]) for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1))


class UPoly:
    """A polynomial in u with LaurentPoly coefficients, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LaurentPoly] = ()):
        self._coeffs = _trim(tuple(coeffs))

    @classmethod
    def zero(cls) -> "UPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UPoly":
        return cls((ONE,))

    @classmethod
    def u_power(cls, n: int) -> "UPoly":
        """u^n."""
        return cls((ZERO,) * n + (ONE,))

    def degree(self) -> int:
        """Degree in u; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, i: int) -> LaurentPoly:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return ZERO

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "UPoly") -> "UPoly":
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UPoly(out)

    def __mul__(self, other: Union["UPoly", LaurentPoly, int]) -> "UPoly":
        if isinstance(other, (LaurentPoly, int)):
            return UPoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, UPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        return UPoly([_product_coeff(a, b, n) for n in range(len(a) + len(b) - 1)])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def eval_at(self, value: LaurentPoly) -> LaurentPoly:
        """Substitute u <- value (Horner scheme)."""
        acc = ZERO
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = [f"({c!s})*u^{i}" for i, c in enumerate(self._coeffs) if not c.is_zero()]
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"UPoly({self!s})"


class TruncSeries:
    """A power series in u truncated at a fixed order (exact mod u^(order+1))."""

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coeffs: Iterable[LaurentPoly] = ()):
        if order < 0:
            raise ValueError("series order must be >= 0")
        cs = list(coeffs)[: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        self._order = order
        self._coeffs = tuple(cs)

    @property
    def order(self) -> int:
        return self._order

    def coeff(self, i: int) -> LaurentPoly:
        if 0 <= i <= self._order:
            return self._coeffs[i]
        return ZERO

    def coeffs(self) -> tuple[LaurentPoly, ...]:
        return self._coeffs

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        order = min(self._order, other._order)
        a, b = self._coeffs, other._coeffs
        return TruncSeries(order, [_product_coeff(a, b, n) for n in range(order + 1)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._order, self._coeffs))

    def __str__(self) -> str:
        parts = [f"({c!s})*u^{i}" for i, c in enumerate(self._coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncSeries(order={self._order}, {self!s})"


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
        return UPoly.one()
    return falling_factorial_u(m, s, n - 1) * bracket_linear(-s - (n - 1) * m)


@cache
def rising_factorial_u(m: int, s: int, n: int) -> UPoly:
    """Product of the brackets of t + s + i*m for i = 0..n-1 (degree exactly n)."""
    if m < 1:
        raise ValueError(f"step m must be >= 1, got {m}")
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n == 0:
        return UPoly.one()
    return rising_factorial_u(m, s, n - 1) * bracket_linear(s + (n - 1) * m)


def useries_inverse(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse mod u^(order+1); the constant term must be +-q^e."""
    c0 = s.coeff(0)
    if not c0.is_unit_monomial():
        raise NonUnitConstantTermError(f"constant term {c0} is not a unit monomial")
    inv0 = c0.unit_inverse()
    out = [inv0] + [ZERO] * s.order
    for n in range(1, s.order + 1):
        # out[n] is still ZERO, so the sum runs over s[i] out[n-i] for i >= 1.
        out[n] = -(inv0 * _product_coeff(s.coeffs(), out, n))
    return TruncSeries(s.order, out)
