"""Kernel tests: brackets, products, exact division, evaluation, rendering."""

import array
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qwhitney import qalg
from qwhitney.qalg import (
    EvalAtZeroError,
    LaurentPoly,
    NonDivisibleError,
    ONE,
    Q,
    SpanTooWideError,
    ZERO,
    lp_add_bracket,
    lp_div_bracket,
    lp_dot,
    q_binomial_base,
    q_bracket,
    q_power,
)


def naive_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # Independent term-by-term convolution oracle.
    out: dict[int, int] = {}
    for ea, ca in a.terms().items():
        for eb, cb in b.terms().items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return LaurentPoly(out)


def subs_q_power(p: LaurentPoly, s: int) -> LaurentPoly:
    # Independent substitution oracle: q -> q^s.
    return LaurentPoly({s * e: c for e, c in p.terms().items()})


def factorial_base(k: int, m: int) -> LaurentPoly:
    # Oracle: [k]! in base q^m, the product of [i] at q -> q^m for i = 1..k.
    out = ONE
    for i in range(1, k + 1):
        out = naive_mul(out, subs_q_power(q_bracket(i), m))
    return out


coeffs = st.integers(min_value=-999, max_value=999)
exponents = st.integers(min_value=-30, max_value=30)
polys = st.dictionaries(exponents, coeffs, max_size=10).map(LaurentPoly)
# Consecutive exponents from a random offset: the running-sum path.
dense_polys = st.builds(
    lambda lo, cs: LaurentPoly({lo + i: c for i, c in enumerate(cs)}),
    st.integers(min_value=-200, max_value=200),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=120),
)
# Few terms over a span of thousands: wide, but small enough for a dense oracle.
wide_polys = st.dictionaries(
    st.integers(min_value=-1500, max_value=1500), coeffs, min_size=2, max_size=8
).map(LaurentPoly)
brackets = st.integers(min_value=-300, max_value=300)
# Operands whose largest coefficients sit near one word edge, +-2^7, +-2^15,
# +-2^31 or +-2^63 (the word minimum -2^(W-1) among them), or stay within
# +-3, mixed with small ones.  Each operand draws its own edge, so products
# mix operand widths and fall in every word and on both sides of the 8-byte
# limit of the word path.
_WORD_EDGES = [1 << 7, 1 << 15, 1 << 31, 1 << 63]


def _near_edge_polys(edge: int):
    near = st.builds(
        lambda d, s: s * (edge + d), st.integers(min_value=-2, max_value=2), st.sampled_from([1, -1])
    )
    return st.builds(
        lambda lo, cs: LaurentPoly({lo + i: c for i, c in enumerate(cs)}),
        st.integers(min_value=-5, max_value=5),
        st.lists(st.one_of(st.integers(min_value=-3, max_value=3), near), min_size=2, max_size=12),
    )


word_edge_polys = st.sampled_from([1] + _WORD_EDGES).flatmap(_near_edge_polys)


class TestBracket:
    def test_zero(self):
        assert q_bracket(0) == ZERO

    def test_positive(self):
        assert q_bracket(3) == LaurentPoly({0: 1, 1: 1, 2: 1})

    def test_negative(self):
        # Oracle: (1 - q^-2) must equal (1 - q) * [-2].
        got = q_bracket(-2)
        assert (ONE - Q) * got == ONE - q_power(-2)
        assert got == LaurentPoly({-2: -1, -1: -1})

    def test_additivity_window(self):
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert q_bracket(a + b) == q_bracket(a) + q_power(a) * q_bracket(b)


class TestMul:
    def test_unit_brackets(self):
        assert q_bracket(2) * q_bracket(3) == LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})

    def test_unit_cancellation(self):
        assert q_power(-1) * q_power(1) == ONE

    def test_negative_bracket_shift(self):
        assert q_bracket(-2) * (-q_power(2)) == naive_mul(q_bracket(-2), -q_power(2))
        assert q_bracket(-2) * (-q_power(2)) == q_bracket(2)

    def test_int_operands_raise(self):
        p = q_bracket(2)
        for op in (
            lambda: 2 * p,
            lambda: p * 2,
            lambda: p + 1,
            lambda: 1 + p,
            lambda: p - 1,
            lambda: 1 - p,
            lambda: sum([p, p]),
        ):
            with pytest.raises(TypeError):
                op()
        assert LaurentPoly.const(2) * p == LaurentPoly({0: 2, 1: 2})
        assert p - ONE == Q

    @given(polys, polys)
    def test_matches_naive(self, a, b):
        assert a * b == naive_mul(a, b)

    def test_large_dense_paths_match_naive(self):
        # Long operands of both signs, several bytes per slot.
        a = LaurentPoly({e: (e % 7) - 3 for e in range(-40, 160)})
        b = LaurentPoly({e: (e % 5) + 1 for e in range(-10, 90)})
        assert a * b == naive_mul(a, b)
        c = LaurentPoly({e: -(e % 4) - 1 for e in range(120)})
        assert a * c == naive_mul(a, c)

    @pytest.mark.parametrize(
        "bits", [7, 8, 9, 15, 16, 17, 31, 32, 33, 62, 63, 64, 65, 66, 72, 73, 128, 129]
    )
    def test_slot_width_boundary(self, bits):
        # Largest-magnitude coefficients whose product bound needs `bits`
        # bits per slot, on both sides of the 8-, 16-, 32- and 64-bit words;
        # past 64 bits the slots are packed one coefficient at a time, and
        # 72/73 and 128/129 bits straddle the 9/10- and 16/17-byte slots.  With
        # n = 7 the middle product coefficient is within 8/7 of the bound, so
        # a slot one bit too narrow overflows.
        n = 7
        ka = (bits - 1 - n.bit_length()) // 2
        kb = bits - 1 - n.bit_length() - ka
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a = LaurentPoly({e: sa * ((1 << ka) - 1) for e in range(n)})
            b = LaurentPoly({e: sb * ((1 << kb) - 1) for e in range(-2, n - 2)})
            assert a * b == naive_mul(a, b)

    @given(word_edge_polys, word_edge_polys)
    @example(LaurentPoly({0: -(1 << 7), 1: 1}), LaurentPoly({0: 3, 1: -(1 << 15)}))
    @example(LaurentPoly({0: -(1 << 63), 1: 1 << 63}), LaurentPoly({0: -(1 << 31), 2: 1}))
    def test_word_edge_coefficients_match_naive(self, a, b):
        assert a * b == naive_mul(a, b)

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_canonical_no_zero_coeffs(self, a, b):
        for value in (a * b, a + b, a - b):
            assert all(c != 0 for c in value.terms().values())


class TestMulBracket:
    @given(st.one_of(dense_polys, wide_polys, polys), brackets)
    @example(LaurentPoly({0: 1, 1: -2}), 0)
    @example(ZERO, 5)
    @example(q_power(10**5) + ONE, 5)
    def test_matches_bracket_product(self, p, b):
        assert lp_add_bracket(ZERO, p, b) == q_bracket(b) * p

    def test_examples(self):
        assert lp_add_bracket(ZERO, ONE, 3) == q_bracket(3)
        assert lp_add_bracket(ZERO, Q, -2) == LaurentPoly({-1: -1, 0: -1})
        assert lp_add_bracket(ZERO, q_bracket(2), 2) == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_wide_span_is_rejected(self):
        # Dense storage would need 10^9 and 2^40 slots; the span check must
        # raise before anything of that size is allocated.
        builds = (
            lambda: q_power(10**9) + ONE,
            lambda: lp_add_bracket(ZERO, ONE, 2**40),
            lambda: lp_add_bracket(q_power(10**9), ONE, 3),
            lambda: lp_add_bracket(ONE, q_power(-(10**9)), -3),
            lambda: lp_add_bracket(q_bracket(5), ONE, -(2**40)),
            lambda: lp_add_bracket(q_power(-(2**39)), q_power(2**39), 1),
        )
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(SpanTooWideError):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


def palindrome(v: int, half: list[int], odd: bool) -> LaurentPoly:
    """Coefficients `half` then `half` reversed, sharing its last entry when
    `odd`, from exponent v; zero ends trim evenly, keeping the centre."""
    cs = half + half[-2::-1] if odd else half + half[::-1]
    return LaurentPoly({v + i: c for i, c in enumerate(cs)})


def doubled_centre(p: LaurentPoly) -> int:
    return 2 * p._v + len(p._c) - 1


def shares_mirrored_coefficients(p: LaurentPoly) -> bool:
    # The palindromic step builds its second half from the first half's
    # objects; a value summed term by term has its own objects above 256.
    return all(x is y for x, y in zip(p._c, reversed(p._c)))


# First halves of palindromes: interior zeros, +-1, negative and wide
# coefficients, whose sums are distinct int objects.
half_coeffs = st.lists(
    st.one_of(st.sampled_from([0, 1, -1, -2]), st.integers(min_value=-(10**30), max_value=10**30)),
    min_size=1,
    max_size=40,
)
palindromes = st.builds(palindrome, st.integers(min_value=-60, max_value=60), half_coeffs, st.booleans())
step_brackets = st.integers(min_value=-40, max_value=40)


class TestAddBracket:
    """lp_add_bracket(p, q, b) is p + [b] q, checked against the product
    with q_bracket(b) through the packed multiply and the sum."""

    @given(st.one_of(dense_polys, wide_polys, polys), st.one_of(dense_polys, wide_polys, polys), brackets)
    @example(ZERO, ZERO, 3)
    @example(ONE, ZERO, 3)
    @example(ZERO, ONE, 0)
    @example(q_power(7), q_bracket(2), -3)
    def test_matches_sum_of_products(self, p, q, b):
        assert lp_add_bracket(p, q, b) == p + q_bracket(b) * q

    @given(palindromes, step_brackets, half_coeffs, st.integers(min_value=-(10**30), max_value=10**30))
    @example(q_bracket(3), -5, [1], 1)
    @example(ONE, 1, [2**40], 1)
    def test_palindromes_with_one_centre(self, q, b, p_half, scale):
        assume(q)
        # [b] q has its doubled centre at 2v + len + b - 2, for b of either sign.
        target = 2 * q._v + len(q._c) + b - 2
        odd = target % 2 == 0
        width = 2 * len(p_half) - odd
        p = LaurentPoly.const(scale) * palindrome((target - width + 1) // 2, p_half, odd)
        expected = p + q_bracket(b) * q
        got = lp_add_bracket(p, q, b)
        assert got == expected
        if b and got:
            assert got._c == got._c[::-1] and shares_mirrored_coefficients(got)
            assert not p or doubled_centre(p) == target

    @given(palindromes, step_brackets, palindromes, st.integers(min_value=1, max_value=5), st.sampled_from([1, -1]))
    def test_palindromes_with_different_centres(self, q, b, p, shift, sign):
        assume(q and p)
        # Shifted off [b] q's centre by a whole or half step: not one palindrome.
        target = 2 * q._v + len(q._c) + b - 2
        p = p * q_power((target - doubled_centre(p)) // 2 + sign * shift)
        assert doubled_centre(p) != target
        assert lp_add_bracket(p, q, b) == p + q_bracket(b) * q

    @given(st.one_of(dense_polys, palindromes), st.one_of(dense_polys, palindromes), step_brackets)
    @example(LaurentPoly({0: 1, 1: 2}), q_bracket(2), 1)
    @example(q_bracket(2), LaurentPoly({0: 1, 1: 2}), 1)
    def test_one_centre_without_palindromes(self, p, q, b):
        # p moved onto [b] q's centre, where a centre of the wrong parity
        # cannot be reached; either operand may fail to be a palindrome.
        assume(p and q)
        target = 2 * q._v + len(q._c) + b - 2
        assume((target - doubled_centre(p)) % 2 == 0)
        p = p * q_power((target - doubled_centre(p)) // 2)
        assert lp_add_bracket(p, q, b) == p + q_bracket(b) * q

    @given(palindromes, step_brackets.filter(bool), st.integers(min_value=0, max_value=45))
    @example(q_bracket(2), -3, 0)
    @example(q_bracket(2), -3, 1)
    @example(q_bracket(2), -3, 2)
    @example(LaurentPoly({0: 1, 1: -1, 2: -1, 3: 1}), 4, 3)
    def test_cancelled_ends_are_trimmed(self, q, b, ends):
        # p cancels the `ends` outer terms at each end of [b] q; past its
        # middle, all of it, to ZERO.  [b] q may have zeros inside, as
        # [4] (1 - q - q^2 + q^3) = 1 - q^2 - q^4 + q^6 has, and then what
        # is left between the cut ends may be zero too.
        assume(q)
        full = q_bracket(b) * q
        lo, hi = full._v, full._v + len(full._c) - 1
        p = -LaurentPoly({e: c for e, c in full.terms().items() if e < lo + ends or e > hi - ends})
        got = lp_add_bracket(p, q, b)
        assert got == full + p
        if 2 * ends >= hi - lo + 1:
            assert got is ZERO or not got
        elif got:
            assert got._v >= lo + ends and got._v + len(got._c) - 1 <= hi - ends
            assert got._c == got._c[::-1]

    def test_examples(self):
        # [2] q^-1 + [3] (1 + q): centres -1/2 + 1/2 and 3/2 differ.
        assert lp_add_bracket(Q.unit_inverse(), q_bracket(2), 3) == LaurentPoly({-1: 1, 0: 1, 1: 2, 2: 2, 3: 1})
        # q + [2] (1 + q) = 1 + 3q + q^2, centred at 1 both.
        assert lp_add_bracket(Q, q_bracket(2), 2) == LaurentPoly({0: 1, 1: 3, 2: 1})
        # -q^-2 - 2q^-1 - 1 + [-2] (1 + q) = -2q^-2 - 4q^-1 - 2.
        step = lp_add_bracket(LaurentPoly({-2: -1, -1: -2, 0: -1}), q_bracket(2), -2)
        assert step == LaurentPoly({-2: -2, -1: -4, 0: -2})
        assert lp_add_bracket(-q_bracket(3), ONE, 3) == ZERO
        assert lp_add_bracket(Q, ZERO, 5) is Q and lp_add_bracket(Q, ONE, 0) is Q


monomials = st.builds(lambda c, e: LaurentPoly.const(c) * q_power(e), st.sampled_from([1, -1]), exponents)


class TestExactDiv:
    """The kernel's two exact quotients: by a bracket [b] with b >= 1, and by
    a unit monomial +-q^e through its inverse."""

    def test_product_inverse(self):
        assert lp_div_bracket(q_bracket(2) * q_bracket(3), 2) == q_bracket(3)
        assert lp_div_bracket(q_bracket(2) * q_bracket(3), 3) == q_bracket(2)

    def test_monomial_quotient(self):
        assert q_power(3) * q_power(-1).unit_inverse() == q_power(4)

    def test_non_divisible(self):
        # Oracle: long division of [2] by [3] leaves a nonzero remainder.
        with pytest.raises(NonDivisibleError):
            lp_div_bracket(q_bracket(2), 3)

    def test_non_divisible_coefficient(self):
        # 3 / 2 has no integer quotient: 2 is not a unit.
        with pytest.raises(NonDivisibleError):
            LaurentPoly({0: 3}) * LaurentPoly({0: 2}).unit_inverse()

    def test_zero_dividend(self):
        assert lp_div_bracket(ZERO, 3) == ZERO
        assert ZERO * q_power(-2).unit_inverse() == ZERO

    @given(monomials, polys)
    def test_round_trip(self, b, c):
        a = b * c
        assert b * (a * b.unit_inverse()) == a


# Operands of a fused sum: small coefficients, whose sums stay on the word
# codec, or up to 10^30, whose products need slots wider than 8 bytes; each
# with one-term (monomial) and zero operands among them.
small_operands = st.one_of(polys, st.builds(lambda c, e: LaurentPoly.const(c) * q_power(e), coeffs, exponents))
wide_operands = st.one_of(
    dense_polys,
    st.builds(
        lambda c, e: LaurentPoly.const(c) * q_power(e),
        st.integers(min_value=-(10**30), max_value=10**30),
        exponents,
    ),
)
signs = st.sampled_from([1, -1])


class TestDot:
    @pytest.mark.parametrize("operands", [small_operands, wide_operands], ids=["word", "wide"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_sum_of_naive_products(self, operands, data):
        cases = data.draw(st.lists(st.tuples(operands, operands, signs), max_size=8))
        if data.draw(st.booleans()):
            # Each product again with the opposite sign: the sum cancels to ZERO.
            cases += [(a, b, -s) for a, b, s in cases]
        want = ZERO
        for a, b, s in cases:
            want = want + LaurentPoly({e: s * c for e, c in naive_mul(a, b).terms().items()})
        # A product of sign -1 enters with its first operand negated.
        got = lp_dot([(-a if s < 0 else a, b) for a, b, s in cases])
        assert got == want

    def test_edge_cases(self):
        a, b = LaurentPoly({-3: 5, 0: -7, 2: 1}), LaurentPoly({1: 2, 4: -9})
        assert lp_dot([]) is ZERO
        assert lp_dot([(ZERO, a), (-b, ZERO)]) is ZERO
        assert lp_dot([(a, b), (-b, a)]) == ZERO
        assert lp_dot([(a, b)]) == naive_mul(a, b)
        # Monomials enter as scalars, alone or beside packed operands.
        three, five = LaurentPoly.const(3), LaurentPoly.const(5)
        assert lp_dot([(-three * q_power(-2), five * q_power(7))]) == LaurentPoly.const(-15) * q_power(5)
        assert lp_dot([(-q_power(2), a), (a, b)]) == naive_mul(a, b) - naive_mul(q_power(2), a)

    def test_far_negative_valuation(self, monkeypatch):
        # Short operands far below exponent 0: the packed sum spans the
        # result's exponents only, not the distance from the valuation to 0.
        v = -(1 << 25)
        a, b = LaurentPoly({v: 1, v + 1: 1}), LaurentPoly({v - 3: 2, v - 1: -5})
        aa, ab = naive_mul(a, a), naive_mul(a, b)
        want = [aa, ab, ab + ab, ab - aa]
        spans = []
        check_span = qalg._check_span
        monkeypatch.setattr(qalg, "_check_span", lambda span: spans.append(span) or check_span(span))
        got = [a * a, a * b, lp_dot([(a, b), (b, a)]), lp_dot([(-a, a), (a, b)])]
        assert got == want
        assert spans == [3, 4, 4, 6]

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_headroom_boundary(self, monkeypatch, n):
        # n equal pairs of length-7 operands whose coefficients are all at their
        # bound: one pair's slot bound is at most 64 bits, the 8-byte word, and
        # the sum's headroom of bit_length(n - 1) bits makes it exactly 65, so
        # only that term moves the sum onto the wide codec.  The middle
        # coefficient, n * 7 * A * B, overflows a slot one bit narrower.
        bits = 64 - (n - 1).bit_length() - 3
        ka = bits // 2
        a = LaurentPoly({e: (1 << ka) - 1 for e in range(7)})
        b = LaurentPoly({e: (1 << (bits - ka)) - 1 for e in range(-2, 5)})
        want = LaurentPoly({e: n * c for e, c in naive_mul(a, b).terms().items()})
        slot = qalg._slot
        widths = []
        monkeypatch.setattr(qalg, "_slot", lambda width: widths.append(width) or slot(width))
        assert lp_dot([(a, b)]) == naive_mul(a, b)
        assert lp_dot([(a, b)] * n) == want
        assert widths == [8, 9] and slot(8)[0] and not slot(9)[0]
        monkeypatch.setattr(qalg, "_slot", lambda width: slot(width - 1))
        assert lp_dot([(a, b)] * n) != want

    @pytest.mark.parametrize("bound", [1 << 20, 1 << 200], ids=["word", "wide"])
    def test_big_endian_codec(self, monkeypatch, bound):
        # The host of the other byte order, emulated: lp_dot reads that order,
        # and machine words built from or written to bytes are byte-swapped,
        # so the branch of the other order runs and must give the same sums.
        class SwappedArray(array.array):
            def __new__(cls, typecode, init=()):
                words = super().__new__(cls, typecode, init)
                if isinstance(init, bytes):
                    words.byteswap()
                return words

            def tobytes(self):
                words = array.array(self.typecode, self)
                words.byteswap()
                return words.tobytes()

        def operand():
            if rng.random() < 0.1:
                return ZERO
            lo = rng.randint(-20, 20)
            return LaurentPoly({lo + i: rng.randint(-bound, bound) for i in range(rng.randint(1, 12))})

        rng = random.Random(bound)
        cases = [[(operand(), operand()) for _ in range(rng.randint(1, 5))] for _ in range(225)]
        wants = []
        for pairs in cases:
            want = ZERO
            for a, b in pairs:
                want = want + naive_mul(a, b)
            wants.append(want)
        other = "big" if sys.byteorder == "little" else "little"
        monkeypatch.setattr(qalg, "byteorder", other)
        monkeypatch.setattr(qalg, "array", SwappedArray)
        # _slot keeps each slot's top bit as bytes of the order it was asked in.
        qalg._slot.cache_clear()
        try:
            assert [lp_dot(pairs) for pairs in cases] == wants
        finally:
            qalg._slot.cache_clear()


positive_brackets = st.integers(min_value=1, max_value=300)


class TestDivBracket:
    @given(st.one_of(dense_polys, wide_polys, polys), positive_brackets)
    @example(ONE, 1)
    @example(q_power(-4), 3)
    def test_inverts_mul_bracket(self, p, b):
        assert lp_div_bracket(lp_add_bracket(ZERO, p, b), b) == p

    @given(st.one_of(dense_polys, wide_polys, polys))
    def test_one_is_the_identity(self, p):
        assert lp_div_bracket(p, 1) == p

    @given(st.one_of(dense_polys, polys), positive_brackets.filter(lambda b: b > 1), exponents)
    def test_non_multiple_raises(self, p, b, e):
        # [b] divides p [b] but not the monomial q^e, so not their sum.
        with pytest.raises(NonDivisibleError):
            lp_div_bracket(lp_add_bracket(ZERO, p, b) + q_power(e), b)

    def test_examples(self):
        assert lp_div_bracket(LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1}), 2) == q_bracket(3)
        assert lp_div_bracket(ZERO, 4) is ZERO
        with pytest.raises(NonDivisibleError):
            lp_div_bracket(q_bracket(4) + Q, 2)
        # A dividend shorter than [b] is never a multiple of it.
        for p, b in ((q_bracket(2), 3), (ONE, 2), (q_bracket(-2), 3)):
            with pytest.raises(NonDivisibleError):
                lp_div_bracket(p, b)
        with pytest.raises(ZeroDivisionError):
            lp_div_bracket(ONE, 0)
        # The program divides by positive brackets only; a negative one is refused.
        with pytest.raises(ValueError, match="-2"):
            lp_div_bracket(q_bracket(-2) * q_bracket(3), -2)


class TestFactorialAndBinomial:
    def test_binomial_examples(self):
        assert q_binomial_base(4, 0, 2) == ONE
        assert q_binomial_base(2, 1, 1) == LaurentPoly({0: 1, 1: 1})
        # Oracle: [2]! = [1]! [1]! times the binomial, in base q^2.
        num = factorial_base(2, 2)
        den = factorial_base(1, 2) * factorial_base(1, 2)
        assert q_binomial_base(2, 1, 2) == LaurentPoly({0: 1, 2: 1})
        assert naive_mul(q_binomial_base(2, 1, 2), den) == num

    def test_binomial_out_of_range(self):
        assert q_binomial_base(3, -1, 1) == ZERO
        assert q_binomial_base(3, 4, 1) == ZERO
        with pytest.raises(ValueError):
            q_binomial_base(3, 1, 0)

    def test_binomial_symmetry(self):
        for m in (1, 2, 3):
            for k in range(9):
                for j in range(k + 1):
                    assert q_binomial_base(k, j, m) == q_binomial_base(k, k - j, m)

    def test_binomial_factorial_quotient(self):
        for m in (1, 2):
            for k in range(7):
                for j in range(k + 1):
                    num = factorial_base(k, m)
                    den = factorial_base(j, m) * factorial_base(k - j, m)
                    assert naive_mul(q_binomial_base(k, j, m), den) == num


class TestEval:
    def test_q_to_one(self):
        assert q_bracket(3).eval_at(1) == 3
        assert ZERO.eval_at(1) == 0

    def test_rational_point(self):
        assert q_bracket(-2).eval_at(Fraction(1, 2)) == -6

    def test_at_zero(self):
        assert (ONE + Q).eval_at(0) == 1
        with pytest.raises(EvalAtZeroError):
            q_power(-1).eval_at(0)

    @given(polys, polys, st.fractions(min_value=-4, max_value=4).filter(lambda x: x != 0))
    def test_homomorphism(self, a, b, x):
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)
        assert (a + b).eval_at(x) == a.eval_at(x) + b.eval_at(x)

    @settings(max_examples=50)
    @given(polys)
    def test_q_to_one_is_eval_at_one(self, a):
        assert a.eval_at(1) == sum(a.terms().values())

    @given(
        st.one_of(polys, dense_polys, wide_polys),
        st.one_of(st.integers(min_value=-3, max_value=3), st.fractions(min_value=-4, max_value=4, max_denominator=40)),
    )
    @example(LaurentPoly({-3: 2, 1: -1}), Fraction(-1, 3))
    @example(LaurentPoly({-200: -(10**30), -150: 7}), Fraction(5, -7))
    @example(LaurentPoly({0: 4, 3: -1}), 0)
    @example(LaurentPoly({-1: 1}), 0)
    @example(ZERO, Fraction(-2, 9))
    @example(ZERO, 0)
    def test_matches_term_by_term_sum(self, p, x):
        # Independent oracle: one Fraction power per nonzero term, summed.
        x = Fraction(x)
        if x == 0 and p and p._v < 0:
            with pytest.raises(EvalAtZeroError):
                p.eval_at(x)
            return
        expected = sum((c * x**e for e, c in p.terms().items()), Fraction(0))
        got = p.eval_at(x)
        assert type(got) is Fraction and got == expected


def render_oracle(p: LaurentPoly, times: str, lbrace: str, rbrace: str) -> str:
    # Independent oracle: one string per nonzero term, built term by term.
    if not p:
        return "0"
    parts: list[str] = []
    for e, c in sorted(p.terms().items()):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "q" if mag == 1 else f"{mag}{times}q"
        else:
            body = f"q^{lbrace}{e}{rbrace}" if mag == 1 else f"{mag}{times}q^{lbrace}{e}{rbrace}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts)


# Runs of coefficients from an offset near 0: interior zeros, +-1 and
# magnitudes up to 10^30, at exponents 0 and 1 and at negative ones.
render_coeffs = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(min_value=-(10**30), max_value=10**30))
render_polys = st.builds(
    lambda lo, cs: LaurentPoly({lo + i: c for i, c in enumerate(cs)}),
    st.integers(min_value=-8, max_value=3),
    st.lists(render_coeffs, max_size=14),
)
# A few terms from a valuation near a multiple of the suffix memo's block,
# below 0 or above, at offsets that reach into a third block: runs across
# block edges, spans of more than two blocks and all-negative exponents.
BLOCK = qalg._SUFFIX_BLOCK
block_polys = st.builds(
    lambda v, terms: LaurentPoly({v + e: c for e, c in terms.items()}),
    st.builds(lambda b, d: b * BLOCK + d, st.integers(min_value=-4, max_value=2), st.integers(min_value=-3, max_value=3)),
    st.dictionaries(
        st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=2 * BLOCK - 2, max_value=2 * BLOCK + 6)),
        render_coeffs,
        max_size=10,
    ),
)


# Palindromes, which are rendered from their first half: interior zeros,
# +-1 and negative coefficients, about exponents below, at and above 0.
render_palindromes = st.builds(
    palindrome, st.integers(min_value=-12, max_value=3), st.lists(render_coeffs, min_size=1, max_size=8), st.booleans()
)


class TestRendering:
    @given(st.one_of(render_polys, block_polys, render_palindromes))
    @example(LaurentPoly({-1: -1, 0: 5, 1: -1}))
    @example(LaurentPoly({0: 1, 1: 0, 2: 1}))
    @example(LaurentPoly({-2: 3, 2: 3}))
    @example(q_bracket(-4))
    @example(ZERO)
    @example(ONE)
    @example(-ONE)
    @example(Q)
    @example(-Q)
    @example(LaurentPoly({-1: -1}))
    @example(LaurentPoly({-3: 10**30}))
    @example(LaurentPoly({1: -(10**30)}))
    @example(LaurentPoly({0: -1, 1: -1, 2: -1}))
    @example(LaurentPoly({-1: 1, 3: -1}))
    @example(LaurentPoly({-BLOCK - 1: 1, -BLOCK: -1, -BLOCK + 1: 5}))
    @example(LaurentPoly({BLOCK - 1: -1, BLOCK: 1, BLOCK + 1: -5}))
    @example(LaurentPoly({-1: -1, 0: 1, 1: 1, 2 * BLOCK + 1: -2}))
    @example(LaurentPoly({-3 * BLOCK - 2: 7, -BLOCK: -1, -1: 1}))
    @example(LaurentPoly({e: e % 3 - 1 for e in range(-BLOCK - 3, 2 * BLOCK + 3)}))
    @example(LaurentPoly({qalg._SUFFIX_FAR - 1: -1, qalg._SUFFIX_FAR: 3, qalg._SUFFIX_FAR + 1: 1}))
    @example(LaurentPoly({-(10**30): -1, -(10**30) + 1: 2}))
    # A unit and a zero at the centre of an odd palindrome, which its first
    # half and its mirrored second half share.
    @example(LaurentPoly({3: 2, 4: -1, 5: 2}))
    @example(LaurentPoly({3: 2, 4: 1, 5: 2}))
    @example(LaurentPoly({3: 2, 4: 0, 5: 2}))
    @example(LaurentPoly({-1: 1, 0: 1, 1: 1}))
    # No coefficient in {-1, 0, 1}; interior zeros with no unit beside them.
    @example(LaurentPoly({0: 2, 1: 3}))
    @example(LaurentPoly({-2: 3, 0: 5, 3: -7}))
    # Odd palindromes centred on +-1 at the first exponent of a block.
    @example(LaurentPoly({BLOCK - 2: 3, BLOCK - 1: 2, BLOCK: 1, BLOCK + 1: 2, BLOCK + 2: 3}))
    @example(LaurentPoly({-BLOCK - 1: 2, -BLOCK: -1, -BLOCK + 1: 2}))
    @settings(max_examples=400)
    def test_matches_term_by_term_rendering(self, p):
        assert str(p) == render_oracle(p, "*", "", "")
        assert p.latex() == render_oracle(p, "", "{", "}")

    def test_suffix_memo_stays_bounded(self):
        memo = qalg._suffix_block
        memo.cache_clear()
        blocks = memo.cache_info().maxsize + 3
        p = LaurentPoly(dict.fromkeys(range(-BLOCK, (blocks - 1) * BLOCK), 1))
        assert str(p) == render_oracle(p, "*", "", "")
        assert p.latex() == render_oracle(p, "", "{", "}")
        info = memo.cache_info()
        assert info.maxsize == qalg._SUFFIX_BLOCKS and info.currsize == info.maxsize
        # Exponents of _SUFFIX_FAR or more are formatted without the memo.
        assert str(LaurentPoly({qalg._SUFFIX_FAR: 2})) == f"2*q^{qalg._SUFFIX_FAR}"
        assert memo.cache_info().currsize == info.currsize and memo.cache_info().misses == info.misses

    def test_canonical_text(self):
        p = LaurentPoly({-2: -1, -1: -1, 0: 2, 1: 3, 3: 1})
        assert str(p) == "-q^-2 - q^-1 + 2 + 3*q + q^3"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(-ONE) == "-1"
        assert str(Q) == "q"
        assert str(-Q + ONE) == "1 - q"
        assert str(LaurentPoly({2: -4})) == "-4*q^2"

    def test_latex_text(self):
        p = LaurentPoly({-2: -1, -1: -1, 0: 2, 1: 3, 3: 1})
        assert p.latex() == "-q^{-2} - q^{-1} + 2 + 3q + q^{3}"
        assert ZERO.latex() == "0"
        assert ONE.latex() == "1"
        assert (-ONE).latex() == "-1"
        assert Q.latex() == "q"
        assert (-Q).latex() == "-q"
        assert (-Q + ONE).latex() == "1 - q"
        assert LaurentPoly({1: -7}).latex() == "-7q"
        assert LaurentPoly({2: -4}).latex() == "-4q^{2}"
        assert LaurentPoly({-10: 1, 12: -1, 100: -25}).latex() == "q^{-10} - q^{12} - 25q^{100}"
        big = 123456789012345678901
        assert LaurentPoly({-30: big, 0: -big}).latex() == f"{big}q^{{-30}} - {big}"

    def test_json_round_trip(self):
        p = LaurentPoly({-2: -1, 0: 2, 5: 30})
        doc = p.to_json_dict()
        assert doc == {"terms": [{"e": -2, "c": "-1"}, {"e": 0, "c": "2"}, {"e": 5, "c": "30"}]}
        assert LaurentPoly({t["e"]: int(t["c"]) for t in doc["terms"]}) == p

    @given(polys)
    def test_json_round_trip_random(self, p):
        assert LaurentPoly({t["e"]: int(t["c"]) for t in p.to_json_dict()["terms"]}) == p


class TestStructure:
    def test_equality_is_structural(self):
        assert LaurentPoly({0: 1, 1: 0}) == ONE
        assert hash(LaurentPoly({2: 3})) == hash(LaurentPoly({2: 3}))

    def test_constants_hash_like_integers(self):
        # A constant equals its integer, so sets and dicts must not tell them apart.
        assert len({ONE, 1}) == 1
        assert len({ZERO, 0}) == 1
        assert {LaurentPoly.const(-7): 1}[-7] == 1

    @pytest.mark.parametrize(
        "terms", [{True: 1}, {0: True}, {0: 1.0}, [(0, 1)]], ids=["bool-e", "bool-c", "float-c", "pairs"]
    )
    def test_constructor_rejects_non_integers(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_bool_operand_becomes_an_integer(self):
        assert LaurentPoly.const(True).to_json_dict() == {"terms": [{"e": 0, "c": "1"}]}
        assert ONE == True  # noqa: E712
        assert LaurentPoly.const(False) is ZERO
        for op in (lambda: ONE * True, lambda: True * ONE, lambda: ZERO + True):
            with pytest.raises(TypeError):
                op()

    def test_unit_monomials(self):
        assert q_power(-5).is_unit_monomial()
        assert (-q_power(2)).is_unit_monomial()
        assert not q_bracket(2).is_unit_monomial()
        assert not LaurentPoly({1: 2}).is_unit_monomial()
        assert q_power(3).unit_inverse() == q_power(-3)
        assert (-q_power(3)).unit_inverse() == -q_power(-3)
        with pytest.raises(NonDivisibleError):
            q_bracket(2).unit_inverse()


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


# A Laurent polynomial p is carried into sympy as the pair (P, s) with
# P = q^s p an ordinary polynomial over ZZ.
def to_sympy(sympy, p: LaurentPoly, shift: int):
    terms = {(e + shift,): c for e, c in p.terms().items()}
    return sympy.Poly.from_dict(terms or {(0,): 0}, sympy.Symbol("q"), domain="ZZ")


def from_sympy(poly, shift: int) -> LaurentPoly:
    return LaurentPoly({e - shift: int(c) for (e,), c in poly.terms() if c})


def shift_of(*ps: LaurentPoly) -> int:
    return -min([p._v for p in ps if p] + [0])


class TestSympyOracle:
    @settings(max_examples=60, deadline=None)
    @given(a=st.one_of(dense_polys, wide_polys), b=st.one_of(dense_polys, wide_polys, polys))
    def test_mul_add_exact_div(self, sympy, a, b):
        sa, sb = shift_of(a), shift_of(b)
        pa, pb = to_sympy(sympy, a, sa), to_sympy(sympy, b, sb)
        assert a * b == from_sympy(pa * pb, sa + sb)
        s = shift_of(a, b)
        assert a + b == from_sympy(to_sympy(sympy, a, s) + to_sympy(sympy, b, s), s)
        if b:
            assert from_sympy((pa * pb).exquo(pb), sa) == a

    @settings(max_examples=60, deadline=None)
    @given(p=st.one_of(dense_polys, wide_polys), b=brackets)
    def test_mul_bracket(self, sympy, p, b):
        # [b] is fixed by (1 - q) [b] = 1 - q^b; check that identity in sympy.
        got = lp_add_bracket(ZERO, p, b)
        s, t = shift_of(got, p), shift_of(q_power(b))
        left = to_sympy(sympy, ONE - Q, t) * to_sympy(sympy, got, s)
        right = to_sympy(sympy, ONE - q_power(b), t) * to_sympy(sympy, p, s)
        assert left == right
