"""Exact dense Laurent-polynomial arithmetic in one variable q.

Coefficients are Python integers (arbitrary precision), exponents are
integers of either sign.  A value is stored as its valuation v and the
tuple (c_v, c_v+1, ..., c_d) of its coefficients up to its degree d,
trimmed so that the first and last entries are nonzero; zero is the
empty tuple.  Values are immutable and hashable, and every operation
returns the canonical form, so equality is equality of the pairs
(v, coefficients).

Dense storage needs one slot per exponent between valuation and degree,
so no value may span more than _MAX_SPAN exponents: building one raises
SpanTooWideError before anything of that size is allocated.

The q-bracket [n] = (1 - q^n)/(1 - q) is defined for every integer n:

>>> str(q_bracket(3))
'1 + q + q^2'
>>> str(q_bracket(-2))
'-q^-2 - q^-1'
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate, repeat
from operator import add, index, neg, sub
from sys import byteorder
from typing import Iterable, Mapping


class NonDivisibleError(ArithmeticError):
    """Exact division was requested but no Laurent-polynomial quotient exists."""


class EvalAtZeroError(ZeroDivisionError):
    """A polynomial with negative exponents was evaluated at q = 0."""


class SpanTooWideError(ValueError):
    """A value would span more exponents than dense storage allows."""


# Most exponents, from valuation to degree inclusive, that one value may span.
_MAX_SPAN = 1 << 24


def _check_span(span: int) -> None:
    if span > _MAX_SPAN:
        raise SpanTooWideError(f"exponent span {span} exceeds the limit of {_MAX_SPAN}")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _trim(v: int, coeffs: list[int] | tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The canonical (valuation, coefficients) of coeffs placed from exponent v."""
    hi = len(coeffs)
    while hi and not coeffs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not coeffs[lo]:
        lo += 1
    if not hi:
        return 0, ()
    return v + lo, tuple(coeffs[lo:hi])


@cache
def _slot(width: int) -> tuple[str, int, bytes]:
    """The codec of a slot of at least `width` bytes: the typecode of the
    narrowest signed machine word that holds it ("" above 8 bytes), the
    slot's size in bytes, and one slot holding 2^(W-1), its top bit alone."""
    words = sorted((array(c).itemsize, c) for c in "bhilq" if array(c).itemsize >= width)
    size, code = words[0] if words else (width, "")
    return code, size, (1 << (8 * size - 1)).to_bytes(size, byteorder)


def _kronecker(
    terms: list[tuple[int, int, "LaurentPoly", "LaurentPoly"]],
) -> tuple[int, tuple[int, ...]]:
    """The sum of s * q^v * a * b over the terms (s, v, a, b), s = +-1 and a, b
    nonzero, as a canonical (valuation, coefficients) pair, by one big-integer
    sum of products; a product is the one-term case.

    With h(a) the bit length of a's largest magnitude (kept on the value), a
    product's coefficients are below 2^(h(a) + h(b) + bit_length(min(len a,
    len b))), and a sum of N products below that times 2^bit_length(N - 1) for
    the widest product; W-bit slots add a sign bit.  Operands are packed as
    W-bit two's-complement slots.  XOR with the mask M, 2^(W-1) in each of the
    sum's slots, turns a slot c into c + 2^(W-1), so (packed ^ M) - M is the
    operand's value at q = 2^W (a monomial's is its coefficient).  Shifted by
    their valuations' offsets, the products add up to the sum's value, which
    plus M holds each coefficient plus 2^(W-1) in its own slot with no carry;
    the same XOR takes it back to two's-complement slots for one unpack.

    Only the byte codec depends on W: a slot of up to 8 bytes is a machine
    word converted by `array` in C, a wider one goes through `int.to_bytes`.
    Bytes are in native order: on a big-endian host the packed integers are
    the reversed polynomials, so each product is placed from the sum's top.
    """
    v0, end, bits = terms[0][1], terms[0][1], 0
    for _, v, a, b in terms:
        for p in (a, b):
            if not p._h:
                p._h = max(max(p._c), -min(p._c)).bit_length()
        la, lb = len(a._c), len(b._c)
        v0, end = min(v0, v), max(end, v + la + lb - 1)
        bits = max(bits, a._h + b._h + min(la, lb).bit_length())
    n_out = end - v0
    _check_span(n_out)
    code, size, top = _slot((bits + (len(terms) - 1).bit_length() + 8) // 8)
    mask = int.from_bytes(top * n_out, byteorder)

    def value(c: tuple[int, ...]) -> int:
        if len(c) == 1:
            return c[0]
        if code:
            packed = array(code, c).tobytes()
        else:
            packed = b"".join([e.to_bytes(size, byteorder, signed=True) for e in c])
        return (int.from_bytes(packed, byteorder) ^ mask) - mask

    total = 0
    for s, v, a, b in terms:
        x = value(a._c) * value(b._c)
        shift = v - v0 if byteorder == "little" else n_out + 1 - v + v0 - len(a._c) - len(b._c)
        total += (x if s > 0 else -x) << (8 * size * shift)
    data = ((total + mask) ^ mask).to_bytes(n_out * size, byteorder)
    if code:
        return _trim(v0, array(code, data))
    starts = range(0, len(data), size)
    return _trim(v0, [int.from_bytes(data[i : i + size], byteorder, signed=True) for i in starts])


class LaurentPoly:
    """An immutable Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_v", "_c", "_h")  # _h: bits of the largest |coefficient|, 0 until needed

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        clean: dict[int, int] = {}
        for e, c in items:
            if not _is_int(e) or not _is_int(c):
                raise TypeError("exponents and coefficients must be integers")
            if c:
                clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            self._v, self._c, self._h = 0, (), 0
        else:
            lo = min(clean)
            span = max(clean) - lo + 1
            _check_span(span)
            coeffs = [0] * span
            for e, c in clean.items():
                coeffs[e - lo] = c
            self._v, self._c, self._h = lo, tuple(coeffs), 0

    @classmethod
    def _raw(cls, v: int, coeffs: tuple[int, ...]) -> "LaurentPoly":
        # Trusted constructor: (v, coeffs) must already be canonical.
        p = cls.__new__(cls)
        p._v = v
        p._c = coeffs
        p._h = 0
        return p

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        # index() keeps an integer and turns a bool into a plain int.
        c = index(c)
        return cls._raw(0, (c,)) if c else ZERO

    # -- inspection -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def terms(self) -> dict[int, int]:
        """The exponent -> coefficient map of the nonzero terms."""
        v = self._v
        return {v + i: c for i, c in enumerate(self._c) if c}

    def sorted_terms(self) -> list[tuple[int, int]]:
        """Nonzero terms in ascending exponent order."""
        v = self._v
        return [(v + i, c) for i, c in enumerate(self._c) if c]

    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return self._v + len(self._c) - 1 if self._c else None

    def valuation(self) -> int | None:
        """Smallest exponent, or None for the zero polynomial."""
        return self._v if self._c else None

    def coeff(self, e: int) -> int:
        i = e - self._v
        return self._c[i] if 0 <= i < len(self._c) else 0

    def is_unit_monomial(self) -> bool:
        """True when the value is exactly +-q^e for some integer e."""
        return len(self._c) == 1 and self._c[0] in (1, -1)

    def unit_inverse(self) -> "LaurentPoly":
        """Inverse of a +-q^e monomial; raises NonDivisibleError otherwise."""
        if not self.is_unit_monomial():
            raise NonDivisibleError(f"not a unit monomial: {self}")
        return LaurentPoly._raw(-self._v, self._c)

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
        if not o._c:
            return self
        if not self._c:
            return o
        va, a, vb, b = self._v, self._c, o._v, o._c
        if va > vb:
            va, a, vb, b = vb, b, va, a
        off = vb - va
        la, lb = len(a), len(b)
        _check_span(max(la, off + lb))
        if off >= la:
            return LaurentPoly._raw(va, a + (0,) * (off - la) + b)
        end = off + lb
        if end <= la:
            coeffs = a[:off] + tuple(map(add, a[off:end], b)) + a[end:]
        else:
            coeffs = a[:off] + tuple(map(add, a[off:], b)) + b[la - off :]
        if coeffs[0] and coeffs[-1]:
            return LaurentPoly._raw(va, coeffs)
        return LaurentPoly._raw(*_trim(va, coeffs))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._v, tuple(map(neg, self._c)))

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
        a, b = self._c, o._c
        if not a or not b:
            return ZERO
        v = self._v + o._v
        if len(a) == 1 or len(b) == 1:
            if len(a) == 1:
                a, b = b, a
            c = b[0]
            if c == 1:
                return LaurentPoly._raw(v, a)
            return LaurentPoly._raw(v, tuple([c * x for x in a]))
        return LaurentPoly._raw(*_kronecker([(1, v, self, o)]))

    __rmul__ = __mul__

    def mul_bracket(self, b: int) -> "LaurentPoly":
        """The product [b] * self, as a running window sum in O(span + |b|).

        For b > 0 the coefficient at e is the sum of the b coefficients of
        self at e-b+1..e; a negative b uses [-c] = -q^-c [c].
        """
        a = self._c
        if not a or not b:
            return ZERO
        width = abs(b)
        _check_span(len(a) + width - 1)
        # out[i] = S[min(i+1, n)] - S[max(i+1-width, 0)], with S the prefix
        # sums of a, S[0] = 0 and n = len(a).
        prefix = list(accumulate(a, initial=0))
        upper = prefix[1:] + [prefix[-1]] * (width - 1)
        lower = [0] * (width - 1) + prefix[:-1]
        if b > 0:
            return LaurentPoly._raw(self._v, tuple(map(sub, upper, lower)))
        return LaurentPoly._raw(self._v + b, tuple(map(sub, lower, upper)))

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
        divisor = other._c
        if len(self._c) < len(divisor):
            raise NonDivisibleError("dividend support is narrower than divisor support")
        rem = list(self._c)
        lead = divisor[-1]
        top = len(divisor) - 1
        # Only the nonzero divisor terms below the leading one touch the remainder.
        lower = [(j, c) for j, c in enumerate(divisor[:-1]) if c]
        qlen = len(rem) - top
        quot = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + top]
            if not c:
                continue
            if c % lead:
                raise NonDivisibleError("leading coefficient does not divide exactly")
            qc = c // lead
            quot[i] = qc
            for j, dc in lower:
                rem[i + j] -= qc * dc
        if any(rem[:top]):
            raise NonDivisibleError("nonzero remainder")
        # An exact quotient has nonzero ends: a[0] = q[0] d[0] and a[-1] = q[-1] d[-1].
        return LaurentPoly._raw(self._v - other._v, tuple(quot))

    # -- evaluation -------------------------------------------------------

    def eval_at(self, at: Fraction | int) -> Fraction:
        """Exact value at q = at; at = 0 requires all exponents nonnegative."""
        x = Fraction(at)
        if x == 0:
            if self._c and self._v < 0:
                raise EvalAtZeroError("negative exponent evaluated at q = 0")
            return Fraction(self.coeff(0))
        v = self._v
        return sum((c * x ** (v + i) for i, c in enumerate(self._c) if c), Fraction(0))

    def eval_at_one(self) -> Fraction:
        """The q -> 1 specialization, i.e. the sum of all coefficients."""
        return Fraction(sum(self._c))

    # -- equality, hashing, rendering --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._v == other._v and self._c == other._c

    def __hash__(self) -> int:
        # A constant equals its integer, so it hashes like that integer.
        if self._v == 0 and len(self._c) < 2:
            return hash(self.coeff(0))
        return hash((self._v, self._c))

    def _render(self, times: str, lbrace: str, rbrace: str) -> str:
        """Terms in ascending exponent order; `times` joins a coefficient to
        its power of q, and the braces enclose an exponent other than 0, 1."""
        c = self._c
        if not c:
            return "0"
        v, n = self._v, len(c)
        # Five slots per term, filled in C: separator, coefficient, power,
        # exponent, closing brace; then only the special terms are fixed up.
        parts = [" + ", "", f"{times}q^{lbrace}", "", rbrace] * n
        parts[0] = ""
        parts[1::5] = map(str, c)
        parts[3::5] = map(str, range(v, v + n))
        # A zero term is blanked; a coefficient +-1 off exponent 0 is its sign alone.
        unit = f"q^{lbrace}"
        for x, lo, hi, fill in ((0, 0, 5, ("",) * 5), (1, 1, 3, ("", unit)), (-1, 1, 3, ("-", unit))):
            i = -1
            for _ in range(c.count(x)):
                i = c.index(x, i + 1)
                parts[5 * i + lo : 5 * i + hi] = fill
        if 0 <= -v < n and c[-v]:  # the constant term: its coefficient alone
            i = 5 * -v
            parts[i + 1 : i + 5] = str(c[-v]), "", "", ""
        if 0 <= 1 - v < n and c[1 - v]:  # q itself, with no exponent
            i = 5 * (1 - v)
            parts[i + 2 : i + 5] = "q" if c[1 - v] in (1, -1) else f"{times}q", "", ""
        # A negative coefficient follows " + "; an exponent's sign follows "^".
        return "".join(parts).replace(" + -", " - ")

    def __str__(self) -> str:
        return self._render("*", "", "")

    def __repr__(self) -> str:
        return f"LaurentPoly({self!s})"

    def latex(self) -> str:
        """LaTeX rendering with braced exponents, e.g. -q^{-2} + 2 + 3q."""
        return self._render("", "{", "}")

    # -- JSON wire form -----------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"terms": [{"e": int, "c": "decimal string"}, ...]} with ascending e."""
        return {"terms": [{"e": e, "c": str(c)} for e, c in self.sorted_terms()]}


ZERO = LaurentPoly._raw(0, ())
ONE = LaurentPoly._raw(0, (1,))
Q = LaurentPoly._raw(1, (1,))


def q_power(e: int) -> LaurentPoly:
    """The monomial q^e."""
    return LaurentPoly._raw(e, (1,))


@cache
def q_bracket(n: int) -> LaurentPoly:
    """The q-integer [n] = (1 - q^n)/(1 - q) for any integer n.

    [n] = 1 + q + ... + q^(n-1) for n >= 0, and [-n] = -q^(-n) [n].
    """
    _check_span(abs(n))
    if n >= 0:
        return LaurentPoly._raw(0, (1,) * n)
    return LaurentPoly._raw(n, (-1,) * -n)


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


def lp_dot(
    pairs: Iterable[tuple[LaurentPoly, LaurentPoly]], signs: Iterable[int] | None = None
) -> LaurentPoly:
    """The sum of s_i * a_i * b_i over the pairs (a_i, b_i) and the signs s_i,
    each +1 or -1 (all +1 when omitted), as one fused Kronecker sum: each
    operand is packed once and the sum is unpacked once (see `_kronecker`)."""
    signed = list(zip(pairs, repeat(1)) if signs is None else zip(pairs, signs, strict=True))
    if any(s not in (1, -1) for _, s in signed):
        raise ValueError("each sign must be +1 or -1")
    terms = [(s, a._v + b._v, a, b) for (a, b), s in signed if a._c and b._c]
    return LaurentPoly._raw(*_kronecker(terms)) if terms else ZERO


def lp_div_bracket(p: LaurentPoly, b: int) -> LaurentPoly:
    """The exact quotient p / [b]; raises NonDivisibleError when none exists.

    For b > 0, Q [b] = P means Q (1 - q^b) = P (1 - q), so each residue class
    mod b of Q is a prefix sum of the first difference of P, and Q exists iff
    those sums vanish past its length, len(P) - b + 1.  A negative b uses
    [-c] = -q^-c [c], as `mul_bracket` does.
    """
    if not b:
        raise ZeroDivisionError("division by [0] = 0")
    c = p._c
    if not c:
        return ZERO
    width = abs(b)
    sums = list(map(sub, c + (0,), (0,) + c))
    for r in range(min(width, len(sums))):
        sums[r::width] = accumulate(sums[r::width])
    n = len(c) - width + 1
    if n < 1 or any(sums[n:]):
        raise NonDivisibleError(f"not divisible by [{b}]")
    if b > 0:
        return LaurentPoly._raw(p._v, tuple(sums[:n]))
    return LaurentPoly._raw(p._v - b, tuple(map(neg, sums[:n])))
