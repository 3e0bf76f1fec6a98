"""Kernel tests: brackets, products, exact division, evaluation, rendering."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qwhitney import qalg
from qwhitney.qalg import (
    EvalAtZeroError,
    LaurentPoly,
    NonDivisibleError,
    ONE,
    Q,
    SpanTooWideError,
    ZERO,
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

    def test_int_coercion(self):
        assert 2 * q_bracket(2) == LaurentPoly({0: 2, 1: 2})
        assert q_bracket(2) - 1 == Q

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

    def test_pow(self):
        assert q_bracket(2) ** 0 == ONE
        assert q_bracket(2) ** 3 == q_bracket(2) * q_bracket(2) * q_bracket(2)
        assert q_power(3) ** -2 == q_power(-6)
        with pytest.raises(NonDivisibleError):
            q_bracket(2) ** -1


class TestMulBracket:
    @given(st.one_of(dense_polys, wide_polys, polys), brackets)
    @example(LaurentPoly({0: 1, 1: -2}), 0)
    @example(ZERO, 5)
    @example(q_power(10**5) + ONE, 5)
    def test_matches_bracket_product(self, p, b):
        assert p.mul_bracket(b) == q_bracket(b) * p

    def test_examples(self):
        assert ONE.mul_bracket(3) == q_bracket(3)
        assert Q.mul_bracket(-2) == LaurentPoly({-1: -1, 0: -1})
        assert q_bracket(2).mul_bracket(2) == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_wide_span_is_rejected(self):
        # Dense storage would need 10^9 and 2^40 slots; the span check must
        # raise before anything of that size is allocated.
        for build in (lambda: q_power(10**9) + ONE, lambda: ONE.mul_bracket(2**40)):
            tracemalloc.start()
            try:
                with pytest.raises(SpanTooWideError):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


class TestExactDiv:
    def test_product_inverse(self):
        assert (q_bracket(2) * q_bracket(3)).exact_div(q_bracket(2)) == q_bracket(3)

    def test_monomial_quotient(self):
        assert q_power(3).exact_div(q_power(-1)) == q_power(4)

    def test_non_divisible(self):
        # Oracle: long division of [2] by [3] leaves a nonzero remainder.
        with pytest.raises(NonDivisibleError):
            q_bracket(2).exact_div(q_bracket(3))

    def test_non_divisible_coefficient(self):
        with pytest.raises(NonDivisibleError):
            LaurentPoly({0: 3}).exact_div(LaurentPoly({0: 2}))

    def test_zero_dividend(self):
        assert ZERO.exact_div(q_bracket(3)) == ZERO

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    @given(polys, polys)
    def test_round_trip(self, b, c):
        if b.is_zero():
            return
        a = b * c
        assert b * a.exact_div(b) == a


# Operands of a fused sum: small coefficients, whose sums stay on the word
# codec, or up to 10^30, whose products need slots wider than 8 bytes; each
# with one-term (monomial) and zero operands among them.
small_operands = st.one_of(polys, st.builds(lambda c, e: c * q_power(e), coeffs, exponents))
wide_operands = st.one_of(
    dense_polys,
    st.builds(lambda c, e: c * q_power(e), st.integers(min_value=-(10**30), max_value=10**30), exponents),
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
        got = lp_dot([(a, b) for a, b, _ in cases], [s for _, _, s in cases])
        assert got == want

    def test_edge_cases(self):
        a, b = LaurentPoly({-3: 5, 0: -7, 2: 1}), LaurentPoly({1: 2, 4: -9})
        assert lp_dot([]) is ZERO
        assert lp_dot([(ZERO, a), (b, ZERO)], [1, -1]) is ZERO
        assert lp_dot([(a, b), (b, a)], [1, -1]) == ZERO
        with pytest.raises(ValueError):
            lp_dot([(a, b)], [1, -1])
        # A sign other than +1 or -1 is refused, also on a pair that is zero.
        for bad in (0, 2, -2):
            with pytest.raises(ValueError):
                lp_dot([(a, b)], [bad])
            with pytest.raises(ValueError):
                lp_dot([(a, b), (ZERO, a)], [1, bad])
        assert lp_dot([(a, b)]) == naive_mul(a, b)
        # Monomials enter as scalars, alone or beside packed operands.
        assert lp_dot([(-3 * q_power(-2), 5 * q_power(7))]) == -15 * q_power(5)
        assert lp_dot([(q_power(2), a), (a, b)], [-1, 1]) == naive_mul(a, b) - naive_mul(q_power(2), a)

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
        got = [a * a, a * b, lp_dot([(a, b), (b, a)]), lp_dot([(a, a), (a, b)], [-1, 1])]
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


class TestDivBracket:
    @given(st.one_of(dense_polys, wide_polys, polys), brackets.filter(bool))
    @example(ONE, 1)
    @example(q_power(-4), -3)
    def test_inverts_mul_bracket(self, p, b):
        assert lp_div_bracket(p.mul_bracket(b), b) == p

    @given(st.one_of(dense_polys, wide_polys, polys))
    def test_one_is_the_identity(self, p):
        assert lp_div_bracket(p, 1) == p

    @given(st.one_of(dense_polys, polys), brackets.filter(lambda b: abs(b) > 1), exponents)
    def test_non_multiple_raises(self, p, b, e):
        # [b] divides p [b] but not the monomial q^e, so not their sum.
        with pytest.raises(NonDivisibleError):
            lp_div_bracket(p.mul_bracket(b) + q_power(e), b)

    def test_examples(self):
        assert lp_div_bracket(LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1}), 2) == q_bracket(3)
        assert lp_div_bracket(ZERO, 4) is ZERO
        with pytest.raises(NonDivisibleError):
            lp_div_bracket(q_bracket(4) + Q, 2)
        # A dividend shorter than [b] is never a multiple of it.
        for p, b in ((q_bracket(2), 3), (ONE, 2), (q_bracket(-2), -3)):
            with pytest.raises(NonDivisibleError):
                lp_div_bracket(p, b)
        with pytest.raises(ZeroDivisionError):
            lp_div_bracket(ONE, 0)


class TestFactorialAndBinomial:
    def test_binomial_examples(self):
        assert q_binomial_base(4, 0, 2) == ONE
        assert q_binomial_base(2, 1, 1) == LaurentPoly({0: 1, 1: 1})
        # Oracle: [2]! / ([1]! [1]!) in base q^2 by exact division.
        num = factorial_base(2, 2)
        den = factorial_base(1, 2) * factorial_base(1, 2)
        assert q_binomial_base(2, 1, 2) == num.exact_div(den)

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
                    assert q_binomial_base(k, j, m) == num.exact_div(den)


class TestEval:
    def test_q_to_one(self):
        assert q_bracket(3).eval_at_one() == 3
        assert ZERO.eval_at_one() == 0

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
        assert a.eval_at_one() == a.eval_at(1)


def render_oracle(p: LaurentPoly, times: str, lbrace: str, rbrace: str) -> str:
    # Independent oracle: one string per nonzero term, built term by term.
    if not p:
        return "0"
    parts: list[str] = []
    for e, c in p.sorted_terms():
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
render_polys = st.builds(
    lambda lo, cs: LaurentPoly({lo + i: c for i, c in enumerate(cs)}),
    st.integers(min_value=-8, max_value=3),
    st.lists(
        st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(min_value=-(10**30), max_value=10**30)),
        max_size=14,
    ),
)


class TestRendering:
    @given(render_polys)
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
    @settings(max_examples=400)
    def test_matches_term_by_term_rendering(self, p):
        assert str(p) == render_oracle(p, "*", "", "")
        assert p.latex() == render_oracle(p, "", "{", "}")

    def test_canonical_text(self):
        p = LaurentPoly({-2: -1, -1: -1, 0: 2, 1: 3, 3: 1})
        assert str(p) == "-q^-2 - q^-1 + 2 + 3*q + q^3"
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(-ONE) == "-1"
        assert str(Q) == "q"
        assert str(-Q + 1) == "1 - q"
        assert str(LaurentPoly({2: -4})) == "-4*q^2"

    def test_latex_text(self):
        p = LaurentPoly({-2: -1, -1: -1, 0: 2, 1: 3, 3: 1})
        assert p.latex() == "-q^{-2} - q^{-1} + 2 + 3q + q^{3}"
        assert ZERO.latex() == "0"
        assert ONE.latex() == "1"
        assert (-ONE).latex() == "-1"
        assert Q.latex() == "q"
        assert (-Q).latex() == "-q"
        assert (-Q + 1).latex() == "1 - q"
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

    @pytest.mark.parametrize("terms", [{True: 1}, {0: True}, {0: 1.0}], ids=["bool-e", "bool-c", "float-c"])
    def test_constructor_rejects_non_integers(self, terms):
        with pytest.raises(TypeError):
            LaurentPoly(terms)

    def test_bool_operand_becomes_an_integer(self):
        for value in (ONE * True, True * ONE, ZERO + True, LaurentPoly.const(True)):
            assert value.to_json_dict() == {"terms": [{"e": 0, "c": "1"}]}
        assert ONE == True  # noqa: E712
        assert LaurentPoly.const(False) is ZERO

    def test_unit_monomials(self):
        assert q_power(-5).is_unit_monomial()
        assert (-q_power(2)).is_unit_monomial()
        assert not q_bracket(2).is_unit_monomial()
        assert not LaurentPoly({1: 2}).is_unit_monomial()
        assert q_power(3).unit_inverse() == q_power(-3)
        assert (-q_power(3)).unit_inverse() == -q_power(-3)
        with pytest.raises(NonDivisibleError):
            q_bracket(2).unit_inverse()

    def test_degree_valuation(self):
        p = LaurentPoly({-2: 1, 3: 4})
        assert p.degree() == 3 and p.valuation() == -2
        assert ZERO.degree() is None and ZERO.valuation() is None


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
    return -min([p.valuation() for p in ps if p] + [0])


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
            assert (a * b).exact_div(b) == from_sympy((pa * pb).exquo(pb), sa) == a

    @settings(max_examples=60, deadline=None)
    @given(p=st.one_of(dense_polys, wide_polys), b=brackets)
    def test_mul_bracket(self, sympy, p, b):
        # [b] is fixed by (1 - q) [b] = 1 - q^b; check that identity in sympy.
        got = p.mul_bracket(b)
        s, t = shift_of(got, p), shift_of(q_power(b))
        left = to_sympy(sympy, ONE - Q, t) * to_sympy(sympy, got, s)
        right = to_sympy(sympy, ONE - q_power(b), t) * to_sympy(sympy, p, s)
        assert left == right
