"""Exact dense Laurent-polynomial arithmetic in one variable q.

Coefficients are Python integers (arbitrary precision), exponents are
integers of either sign.  A value is stored as its valuation v and the
tuple (c_v, c_v+1, ..., c_d) of its coefficients up to its degree d,
trimmed so that the first and last entries are nonzero; zero is the
empty tuple.  Values are immutable and hashable, and every operation
returns the canonical form, so equality is equality of the pairs
(v, coefficients).  The operands of +, - and * are LaurentPoly values (an
int raises TypeError): the constant c is LaurentPoly.const(c), and p == c
for an int c compares p with that constant.

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
from functools import cache, lru_cache
from itertools import accumulate, chain, islice, repeat
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


def _sum(va: int, a: tuple[int, ...], vb: int, b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The canonical (valuation, coefficients) of the sum of the nonzero
    values with coefficients a from exponent va and b from vb."""
    if va > vb:
        va, a, vb, b = vb, b, va, a
    off = vb - va
    la, lb = len(a), len(b)
    _check_span(max(la, off + lb))
    if off >= la:
        return va, a + (0,) * (off - la) + b
    end = off + lb
    if end <= la:
        return _trim(va, a[:off] + tuple(map(add, a[off:end], b)) + a[end:])
    return _trim(va, a[:off] + tuple(map(add, a[off:], b)) + b[la - off :])


@cache
def _slot(width: int) -> tuple[str, int, bytes]:
    """The codec of a slot of at least `width` bytes: the typecode of the
    narrowest signed machine word that holds it ("" above 8 bytes), the
    slot's size in bytes, and one slot holding 2^(W-1), its top bit alone."""
    words = sorted((array(c).itemsize, c) for c in "bhilq" if array(c).itemsize >= width)
    size, code = words[0] if words else (width, "")
    return code, size, (1 << (8 * size - 1)).to_bytes(size, byteorder)


def lp_dot(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """The sum of a * b over the pairs (a, b), by one big-integer sum of
    products: each operand is packed once and the sum is unpacked once.  A
    product is the one-pair case, and a difference negates one operand:

    >>> str(lp_dot([(q_bracket(2), q_bracket(3)), (-Q, q_bracket(2))]))
    '1 + q + q^2 + q^3'

    Pairs with a zero operand are dropped first.  With h(a) the bit length
    of a's largest magnitude (kept on the value), a product's coefficients
    are below 2^(h(a) + h(b) + bit_length(min(len a, len b))), and a sum of
    N products below that times 2^bit_length(N - 1) for the widest product;
    W-bit slots add a sign bit.  Operands are packed as W-bit two's-complement
    slots.  XOR with the mask M, 2^(W-1) in each of the sum's slots, turns a
    slot c into c + 2^(W-1), so (packed ^ M) - M is the operand's value at
    q = 2^W (a monomial's is its coefficient).  Shifted by their valuations'
    offsets, the products add up to the sum's value, which plus M holds each
    coefficient plus 2^(W-1) in its own slot with no carry; the same XOR
    takes it back to two's-complement slots for one unpack.

    Only the byte codec depends on W: a slot of up to 8 bytes is a machine
    word converted by `array` in C, a wider one goes through `int.to_bytes`.
    Bytes are in native order: on a big-endian host the packed integers are
    the reversed polynomials, so each product is placed from the sum's top.
    """
    terms = [(a, b) for a, b in pairs if a._c and b._c]
    if not terms:
        return ZERO
    v0 = end = terms[0][0]._v + terms[0][1]._v
    bits = 0
    for a, b in terms:
        for p in (a, b):
            if not p._h:
                p._h = max(max(p._c), -min(p._c)).bit_length()
        la, lb = len(a._c), len(b._c)
        v = a._v + b._v
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
    for a, b in terms:
        v = a._v + b._v
        shift = v - v0 if byteorder == "little" else n_out + 1 - v + v0 - len(a._c) - len(b._c)
        total += (value(a._c) * value(b._c)) << (8 * size * shift)
    data = ((total + mask) ^ mask).to_bytes(n_out * size, byteorder)
    if code:
        return LaurentPoly._raw(*_trim(v0, array(code, data)))
    starts = range(0, len(data), size)
    return LaurentPoly._raw(*_trim(v0, [int.from_bytes(data[i : i + size], byteorder, signed=True) for i in starts]))


# The rendering suffixes of a run of _SUFFIX_BLOCK exponents are made once
# and kept in a memo of at most _SUFFIX_BLOCKS blocks.  The suffix of an
# exponent e with |e| < _SUFFIX_FAR takes at most 74 bytes with its slot in
# the block, so the memo holds at most about 4.9 MB.
_SUFFIX_BLOCK = 1024
_SUFFIX_BLOCKS = 64
_SUFFIX_FAR = 10**9


@lru_cache(maxsize=_SUFFIX_BLOCKS)
def _suffix_block(times: str, lbrace: str, rbrace: str, b: int) -> tuple[str, ...]:
    """The suffixes of exponents b * _SUFFIX_BLOCK up to the next block's:
    `times` q^e with e in braces, but "" at e = 0 and `times` q at e = 1,
    each followed by the separator " + "."""
    lo = b * _SUFFIX_BLOCK
    out = [f"{times}q^{lbrace}{e}{rbrace} + " for e in range(lo, lo + _SUFFIX_BLOCK)]
    if not b:
        out[:2] = " + ", f"{times}q + "
    return tuple(out)


class LaurentPoly:
    """An immutable Laurent polynomial in q with integer coefficients."""

    __slots__ = ("_v", "_c", "_h")  # _h: bits of the largest |coefficient|, 0 until needed

    def __init__(self, terms: Mapping[int, int] | None = None):
        """The polynomial with the exponent -> coefficient map `terms`, or zero."""
        terms = {} if terms is None else terms
        if not isinstance(terms, Mapping):
            raise TypeError("terms must be a mapping from exponents to coefficients")
        if not all(_is_int(e) and _is_int(c) for e, c in terms.items()):
            raise TypeError("exponents and coefficients must be integers")
        clean = {e: c for e, c in terms.items() if c}
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

    def __bool__(self) -> bool:
        return bool(self._c)

    def terms(self) -> dict[int, int]:
        """The exponent -> coefficient map of the nonzero terms, in ascending
        exponent order."""
        v = self._v
        return {v + i: c for i, c in enumerate(self._c) if c}

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

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
        return LaurentPoly._raw(*_sum(self._v, self._c, other._v, other._c))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self._v, tuple(map(neg, self._c)))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) == 1 or len(b) == 1:
            if len(a) == 1:
                a, b = b, a
            v, c = self._v + other._v, b[0]
            if c == 1:
                return LaurentPoly._raw(v, a)
            return LaurentPoly._raw(v, tuple([c * x for x in a]))
        return lp_dot([(self, other)])

    # -- evaluation -------------------------------------------------------

    def eval_at(self, at: Fraction | int) -> Fraction:
        """Exact value at q = at; at = 0 requires all exponents nonnegative."""
        from fractions import Fraction  # here: at the top it would add about 3 ms to every start

        x = Fraction(at)
        if x == 0:
            if self._c and self._v < 0:
                raise EvalAtZeroError("negative exponent evaluated at q = 0")
            return Fraction(self.coeff(0))
        c, v = self._c, self._v
        if not c:
            return Fraction(0)
        # Horner's rule in integers at x = p/d: num = sum c_i p^i d^(k-i) for
        # the last index k, so the value is x^v num / d^k, one Fraction.
        p, d = x.numerator, x.denominator
        num, dk = c[-1], 1
        for ci in c[-2::-1]:
            dk *= d
            num = num * p + ci * dk
        if v >= 0:
            return Fraction(num * p**v, dk * d**v)
        return Fraction(num * d**-v, dk * p**-v)

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
        its power of q, and the braces enclose an exponent other than 0, 1.

        Two slots per term, filled in C: coefficient, and suffix with the
        separator after it, which the last term drops.  The suffixes are
        slices of the blocks of _suffix_block, a memo of at most 64 blocks of
        1,024 exponents (about 4.9 MB), so each exponent is formatted once per
        process.  A palindrome, whose first half equals its reversed second
        half, is formatted and fixed up for its first half alone and mirrored."""
        c = self._c
        if not c:
            return "0"
        v, n = self._v, len(c)
        pal = n > 1 and c[: n // 2] == c[: (n - 1) // 2 : -1]
        half = (n + 1) // 2 if pal else n
        first = c[:half] if pal else c
        digits = list(map(repr, first))
        parts = [""] * (2 * n)
        parts[0 : 2 * half : 2] = digits
        if pal:
            parts[2 * half :: 2] = digits[n - half - 1 :: -1]
        b0, lo = divmod(v, _SUFFIX_BLOCK)
        b1 = (v + n - 1) // _SUFFIX_BLOCK
        # Exponents too long to keep are formatted for this call alone.
        block = _suffix_block if -_SUFFIX_FAR < v and v + n <= _SUFFIX_FAR else _suffix_block.__wrapped__
        if b0 == b1:
            parts[1::2] = block(times, lbrace, rbrace, b0)[lo : lo + n]
        else:
            blocks = (block(times, lbrace, rbrace, b) for b in range(b0, b1 + 1))
            parts[1::2] = islice(chain.from_iterable(blocks), lo, lo + n)
        parts[-1] = parts[-1][:-3]
        # A zero term is blanked.  A coefficient +-1 off exponent 0 is its sign
        # alone, before its suffix without `times`.  An odd palindrome's centre
        # is its own mirror, and is fixed up once.
        for x, sign in (0, ""), (1, ""), (-1, "-"):
            i = -1
            for _ in range(first.count(x)):
                i = first.index(x, i + 1)
                for j in (i, n - 1 - i) if pal and 2 * i + 1 != n else (i,):
                    if not x:
                        parts[2 * j : 2 * j + 2] = "", ""
                    elif j != -v:
                        parts[2 * j : 2 * j + 2] = sign, parts[2 * j + 1][len(times) :]
        # A negative coefficient follows " + "; an exponent's sign follows "^".
        text = "".join(parts)
        return text.replace(" + -", " - ") if min(first) < 0 else text

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
        return {"terms": [{"e": e, "c": str(c)} for e, c in self.terms().items()]}


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


def lp_add_bracket(p: LaurentPoly, q: LaurentPoly, b: int) -> LaurentPoly:
    """The sum p + [b] * q in one pass, in O(span + |b|).

    [b] * q is a running window sum: for b > 0 its coefficient at e is the
    sum of the b coefficients of q at e-b+1..e, and a negative b uses
    [-c] = -q^-c [c].  Every [b] is a palindrome, so when q is one, so is
    [b] * q, with its centre at (2 v + len + b - 2) / 2 for q's valuation v
    and length len, for b of either sign.  When p is a palindrome with the
    same centre (or zero), the sum is a palindrome about that centre too,
    and trimming takes as many zeros from each end: only its first half is
    summed, and the second half is the first reversed.  The centre is
    compared before either tuple, and both tests run on every call.
    """
    c = q._c
    if not c or not b:
        return p
    width = abs(b)
    vw, nw = q._v + min(b, 0), len(c) + width - 1  # the window sum's valuation and length
    a, va = p._c, p._v
    lo = min(va, vw) if a else vw
    span = max(va + len(a), vw + nw) - lo if a else nw
    _check_span(span)
    symmetric = (not a or 2 * va + len(a) == 2 * q._v + len(c) + b - 1) and c == c[::-1] and a == a[::-1]
    # The first `count` window sums: out[i] = S[min(i+1, n)] - S[max(i+1-width, 0)],
    # with S the prefix sums of c, S[0] = 0 and n = len(c).
    count = (nw + 1) // 2 if symmetric else nw
    prefix = list(accumulate(islice(c, count), initial=0))
    upper = chain(islice(prefix, 1, None), repeat(prefix[-1], count + 1 - len(prefix)))
    lower = chain(repeat(0, width - 1), prefix)  # map stops at the end of upper
    if b < 0:
        upper, lower = lower, upper
    window = list(map(sub, upper, lower))
    if not symmetric:
        # The window sum's ends are +-c[0] and +-c[-1], so it needs no trim.
        return LaurentPoly._raw(*_sum(va, a, vw, tuple(window))) if a else LaurentPoly._raw(vw, tuple(window))
    half = window
    if a:
        # Both first halves end at the middle of the sum.
        first = a[: (len(a) + 1) // 2]
        long, short = (first, window) if len(first) > len(window) else (window, first)
        d = len(long) - len(short)
        half = [*long[:d], *map(add, long[d:], short)]
    # An odd span has a middle coefficient, which is not repeated.
    return LaurentPoly._raw(*_trim(lo, tuple(half + half[-1 - (span & 1) :: -1])))


def lp_div_bracket(p: LaurentPoly, b: int) -> LaurentPoly:
    """The exact quotient p / [b] for b >= 1; raises NonDivisibleError when
    none exists.

    Q [b] = P means Q (1 - q^b) = P (1 - q), so each residue class mod b of
    Q is a prefix sum of the first difference of P, and Q exists iff those
    sums vanish past its length, len(P) - b + 1.
    """
    if b < 0:
        raise ValueError(f"bracket divisor must be >= 1, got {b}")
    if not b:
        raise ZeroDivisionError("division by [0] = 0")
    c = p._c
    if not c:
        return ZERO
    sums = list(map(sub, c + (0,), (0,) + c))
    for r in range(min(b, len(sums))):
        sums[r::b] = accumulate(sums[r::b])
    n = len(c) - b + 1
    if n < 1 or any(sums[n:]):
        raise NonDivisibleError(f"not divisible by [{b}]")
    return LaurentPoly._raw(p._v, tuple(sums[:n]))
