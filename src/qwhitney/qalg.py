"""Exact sparse Laurent-polynomial arithmetic in one variable q.

Coefficients are Python integers (arbitrary precision), exponents are
integers of either sign.  Values are immutable and hashable; every
operation returns a new polynomial in canonical form (no zero
coefficients stored), so equality is structural equality of term maps.

The q-bracket [n] = (1 - q^n)/(1 - q) is defined for every integer n:

>>> str(q_bracket(3))
'1 + q + q^2'
>>> str(q_bracket(-2))
'-q^-2 - q^-1'
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from operator import sub
from typing import Iterable, Mapping


class NonDivisibleError(ArithmeticError):
    """Exact division was requested but no Laurent-polynomial quotient exists."""


class EvalAtZeroError(ZeroDivisionError):
    """A polynomial with negative exponents was evaluated at q = 0."""


# Term-pair count above which multiplication switches to the packed-integer path.
_SMALL_MUL = 1024


def _dense_enough(terms: Mapping[int, int], lo: int, hi: int) -> bool:
    """Whether a coefficient list over [lo, hi] is dense enough to pay off."""
    return hi - lo + 1 <= 8 * len(terms) + 64


def _pack(coeffs: list[int], width: int) -> int:
    buf = bytearray(len(coeffs) * width)
    for i, c in enumerate(coeffs):
        if c:
            buf[i * width : (i + 1) * width] = c.to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _kron_mul(a: list[int], b: list[int]) -> list[int]:
    """Convolve two dense nonnegative coefficient lists via one big-int product.

    Slot width is sized so no slot of the product can overflow into its
    neighbour, which makes the unpacked slots exactly the convolution.
    """
    n_out = len(a) + len(b) - 1
    width_bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (width_bits + 7) // 8
    prod = _pack(a, width) * _pack(b, width)
    data = prod.to_bytes((n_out + 1) * width, "little")
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(n_out)]


def _split_signs(coeffs: list[int]) -> tuple[list[int] | None, list[int] | None]:
    pos = [c if c > 0 else 0 for c in coeffs] if any(c > 0 for c in coeffs) else None
    neg = [-c if c < 0 else 0 for c in coeffs] if any(c < 0 for c in coeffs) else None
    return pos, neg


def _dense_mul(a: list[int], b: list[int]) -> list[int]:
    """Signed dense convolution: split by sign, multiply nonnegative parts."""
    apos, aneg = _split_signs(a)
    bpos, bneg = _split_signs(b)
    out = [0] * (len(a) + len(b) - 1)
    for left, right, sign in (
        (apos, bpos, 1),
        (aneg, bneg, 1),
        (apos, bneg, -1),
        (aneg, bpos, -1),
    ):
        if left is not None and right is not None:
            part = _kron_mul(left, right)
            for i, c in enumerate(part):
                if c:
                    out[i] += sign * c
    return out


def _dict_mul(ta: Mapping[int, int], tb: Mapping[int, int]) -> dict[int, int]:
    if len(ta) > len(tb):
        ta, tb = tb, ta
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


class LaurentPoly:
    """An immutable Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        clean: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be integers")
            if c:
                clean[e] = clean.get(e, 0) + c
        self._terms = {e: c for e, c in clean.items() if c}
        self._hash: int | None = None

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPoly":
        # Trusted constructor: terms must already be canonical (no zeros).
        p = cls.__new__(cls)
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._raw({0: c}) if c else cls._raw({})

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> dict[int, int]:
        """A copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[int, int]]:
        """Term list in ascending exponent order."""
        return sorted(self._terms.items())

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return min(self._terms) if self._terms else None

    def coeff(self, e: int) -> int:
        return self._terms.get(e, 0)

    def is_unit_monomial(self) -> bool:
        """True when the value is exactly +-q^e for some integer e."""
        if len(self._terms) != 1:
            return False
        c = next(iter(self._terms.values()))
        return c in (1, -1)

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a +-q^e monomial; raises NonDivisibleError otherwise."""
        if not self.is_unit_monomial():
            raise NonDivisibleError(f"not a unit monomial: {self}")
        (e, c), = self._terms.items()
        return LaurentPoly._raw({-e: c})

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other: "LaurentPoly | int") -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in o._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ta, tb = self._terms, o._terms
        if not ta or not tb:
            return ZERO
        if len(ta) == 1:
            (e, c), = ta.items()
            return LaurentPoly._raw({e + eb: c * cb for eb, cb in tb.items()})
        if len(tb) == 1:
            (e, c), = tb.items()
            return LaurentPoly._raw({e + ea: c * ca for ea, ca in ta.items()})
        if len(ta) * len(tb) <= _SMALL_MUL:
            return LaurentPoly._raw(_dict_mul(ta, tb))
        va, da = min(ta), max(ta)
        vb, db = min(tb), max(tb)
        if not (_dense_enough(ta, va, da) and _dense_enough(tb, vb, db)):
            return LaurentPoly._raw(_dict_mul(ta, tb))
        a = [0] * (da - va + 1)
        for e, c in ta.items():
            a[e - va] = c
        b = [0] * (db - vb + 1)
        for e, c in tb.items():
            b[e - vb] = c
        prod = _dense_mul(a, b)
        base = va + vb
        return LaurentPoly._raw({base + i: c for i, c in enumerate(prod) if c})

    __rmul__ = __mul__

    def mul_bracket(self, b: int) -> "LaurentPoly":
        """The product [b] * self, as a running window sum in O(span + |b|).

        For b > 0 the coefficient at e is the sum of the b coefficients of
        self at e-b+1..e; a negative b uses [-c] = -q^-c [c].
        """
        ta = self._terms
        if not ta or not b:
            return ZERO
        va, da = min(ta), max(ta)
        if not _dense_enough(ta, va, da):
            return q_bracket(b) * self
        width = abs(b)
        # The coefficients of self, padded with width - 1 trailing zeros.
        a = [0] * (da - va + width)
        for e, c in ta.items():
            a[e - va] = c
        # out[i] = S[i+1] - S[i+1-width], with S the prefix sums of a and
        # S[j] = 0 for j <= 0.
        prefix = list(accumulate(a, initial=0))
        window = map(sub, prefix[1:], [0] * (width - 1) + prefix)
        if b > 0:
            return LaurentPoly._raw({va + i: c for i, c in enumerate(window) if c})
        base = va + b
        return LaurentPoly._raw({base + i: -c for i, c in enumerate(window) if c})

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises NonDivisibleError when none exists."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        ta, tb = self._terms, other._terms
        va, da = min(ta), max(ta)
        vb, db = min(tb), max(tb)
        if (da - va) < (db - vb):
            raise NonDivisibleError("dividend support is narrower than divisor support")
        rem = [0] * (da - va + 1)
        for e, c in ta.items():
            rem[e - va] = c
        divisor = [0] * (db - vb + 1)
        for e, c in tb.items():
            divisor[e - vb] = c
        lead = divisor[-1]
        qlen = len(rem) - len(divisor) + 1
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + len(divisor) - 1]
            if not c:
                continue
            if c % lead:
                raise NonDivisibleError("leading coefficient does not divide exactly")
            qc = c // lead
            quot[i] = qc
            for j, bv in enumerate(divisor):
                if bv:
                    rem[i + j] -= qc * bv
        if any(rem):
            raise NonDivisibleError("nonzero remainder")
        base = va - vb
        return LaurentPoly._raw({base + i: c for i, c in enumerate(quot) if c})

    # -- evaluation -------------------------------------------------------

    def eval_at(self, at: Fraction | int) -> Fraction:
        """Exact value at q = at; at = 0 requires all exponents nonnegative."""
        x = Fraction(at)
        if x == 0:
            if self._terms and min(self._terms) < 0:
                raise EvalAtZeroError("negative exponent evaluated at q = 0")
            return Fraction(self._terms.get(0, 0))
        return sum((c * x**e for e, c in self._terms.items()), Fraction(0))

    def eval_at_one(self) -> Fraction:
        """The q -> 1 specialization, i.e. the sum of all coefficients."""
        return Fraction(sum(self._terms.values()))

    # -- equality, hashing, rendering --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{e}" if mag == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"

    def latex(self) -> str:
        """LaTeX rendering with braced exponents, e.g. -q^{-2} + 2 + 3q."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "q" if mag == 1 else f"{mag}q"
            else:
                body = f"q^{{{e}}}" if mag == 1 else f"{mag}q^{{{e}}}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    # -- JSON wire form -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"terms": [{"e": int, "c": "decimal string"}, ...]} with ascending e."""
        return {"terms": [{"e": e, "c": str(c)} for e, c in self.sorted_terms()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPoly":
        if not isinstance(data, dict) or set(data) != {"terms"} or not isinstance(data["terms"], list):
            raise ValueError("malformed polynomial document")
        terms: dict[int, int] = {}
        prev: int | None = None
        for item in data["terms"]:
            if not isinstance(item, dict) or set(item) != {"e", "c"}:
                raise ValueError("malformed term")
            e, c = item["e"], int(item["c"])
            if not isinstance(e, int) or c == 0:
                raise ValueError("terms must have integer exponents and nonzero coefficients")
            if prev is not None and e <= prev:
                raise ValueError("term exponents must be strictly ascending")
            prev = e
            terms[e] = c
        return cls._raw(terms)


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})
Q = LaurentPoly._raw({1: 1})


def q_power(e: int) -> LaurentPoly:
    """The monomial q^e."""
    return LaurentPoly._raw({e: 1})


@cache
def q_bracket(n: int) -> LaurentPoly:
    """The q-integer [n] = (1 - q^n)/(1 - q) for any integer n.

    [n] = 1 + q + ... + q^(n-1) for n >= 0, and [-n] = -q^(-n) [n].
    """
    if n >= 0:
        return LaurentPoly._raw({e: 1 for e in range(n)})
    return LaurentPoly._raw({e: -1 for e in range(n, 0)})


@cache
def _bracket_base(n: int, m: int) -> LaurentPoly:
    # [n] with q replaced by q^m.
    if n >= 0:
        return LaurentPoly._raw({m * e: 1 for e in range(n)})
    return LaurentPoly._raw({m * e: -1 for e in range(n, 0)})


@cache
def q_factorial_base(k: int, m: int) -> LaurentPoly:
    """The factorial [k]! in base q^m: the product of [i] at q -> q^m for i = 1..k."""
    if m < 1:
        raise ValueError(f"base exponent m must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"factorial index must be >= 0, got {k}")
    if k == 0:
        return ONE
    return q_factorial_base(k - 1, m) * _bracket_base(k, m)


@cache
def q_binomial_base(k: int, j: int, m: int) -> LaurentPoly:
    """Gaussian binomial coefficient (k choose j) in base q^m.

    Computed by the q-Pascal recurrence C[k,j] = C[k-1,j-1] + q^(m j) C[k-1,j];
    zero outside 0 <= j <= k.
    """
    if m < 1:
        raise ValueError(f"base exponent m must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"upper index must be >= 0, got {k}")
    if j < 0 or j > k:
        return ZERO
    if j == 0 or j == k:
        return ONE
    return q_binomial_base(k - 1, j - 1, m) + q_power(m * j) * q_binomial_base(k - 1, j, m)


def lp_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact product (function form of the * operator)."""
    return a * b


def lp_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient c with b * c = a; raises NonDivisibleError when none exists."""
    return a.exact_div(b)


def lp_eval(p: LaurentPoly, at: Fraction | int | None = None) -> Fraction:
    """Evaluate p at a rational point, or take the q -> 1 limit when at is None."""
    if at is None:
        return p.eval_at_one()
    return p.eval_at(at)
