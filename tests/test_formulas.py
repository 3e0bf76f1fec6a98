"""Tests for the closed-form and second-path evaluators."""

import pytest
from hypothesis import given, strategies as st

from qwhitney.qalg import (
    LaurentPoly,
    NonDivisibleError,
    ONE,
    Q,
    ZERO,
    q_bracket,
    q_power,
)
from qwhitney.triangles import FamilyId, Params, dowling, get_triangle
from qwhitney.formulas import (
    Variant,
    _div_factorial_base,
    dowling_qi,
    lah_explicit,
    lah_horizontal,
    lah_vertical,
    lah_via_composition,
    q_difference,
    rising_bracket_product,
    whitney2_explicit,
    whitney2_horizontal,
    whitney2_rational_gf,
    whitney2_vertical,
    whitney_from_lah,
)
from qwhitney.upoly import TruncSeries

P10 = Params(1, 0)
P11 = Params(1, 1)
P21 = Params(2, 1)

GRID = [Params(m, r) for m in (1, 2) for r in (-2, 0, 1, 3)]


class TestQDifference:
    def test_order_zero_and_one(self):
        f = lambda x: q_bracket(x + 5)
        assert q_difference(f, 0, 2) == q_bracket(5)
        assert q_difference(f, 1, 3) == q_bracket(8) - q_bracket(5)

    def test_order_two_of_squared_bracket(self):
        # Oracle: direct three-term sum q [0]^2 - (1+q) [1]^2 + [2]^2.
        got = q_difference(lambda x: rising_bracket_product(x, 0, 2), 2, 1)
        assert got == LaurentPoly({1: 1, 2: 1})

    def test_rejects_bad_args(self):
        f = lambda x: ONE
        with pytest.raises(ValueError):
            q_difference(f, -1, 1)
        with pytest.raises(ValueError):
            q_difference(f, 1, 0)

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=3))
    def test_linearity(self, k, h):
        alpha = q_bracket(3)
        beta = -q_power(-2)
        f = lambda x: rising_bracket_product(x + 1, 0, 2)
        g = lambda x: q_bracket(x - 2)
        combined = lambda x: alpha * f(x) + beta * g(x)
        assert q_difference(combined, k, h) == alpha * q_difference(
            f, k, h
        ) + beta * q_difference(g, k, h)


def subs_q_power(p: LaurentPoly, s: int) -> LaurentPoly:
    # Independent substitution oracle: q -> q^s.
    return LaurentPoly({s * e: c for e, c in p.terms().items()})


class TestFactorialDivision:
    def test_matches_direct_division(self):
        for m in (1, 2, 3):
            for k in range(5):
                divisor = ONE
                for i in range(1, k + 1):
                    divisor = divisor * q_bracket(m) * subs_q_power(q_bracket(i), m)
                entry = get_triangle(FamilyId.W2, Params(m, 1)).value(6, k)
                # The exact quotient of entry * divisor by divisor is entry.
                assert _div_factorial_base(entry * divisor, k, m) == entry

    def test_non_divisible_propagates(self):
        with pytest.raises(NonDivisibleError):
            _div_factorial_base(Q, 2, 1)


class TestWhitney2Paths:
    def test_explicit_examples(self):
        assert whitney2_explicit(P10, 2, 2) == Q
        assert whitney2_explicit(P11, 1, 1) == Q
        for n in range(5):
            assert whitney2_explicit(P21, n, 0) == rising_bracket_product(1, 0, n)

    def test_egf_examples(self):
        # The explicit sum is also the exponential generating function coefficient.
        assert whitney2_explicit(P10, 3, 2) == LaurentPoly({1: 2, 2: 1})
        assert whitney2_explicit(P21, 0, 0) == ONE
        assert whitney2_explicit(P11, 2, 2) == q_power(3)

    def test_vertical_examples(self):
        assert whitney2_vertical(P10, 1, 0) == get_triangle(FamilyId.W2, P10).value(2, 1) == ONE
        assert whitney2_vertical(P11, 1, 0) == LaurentPoly({1: 2, 2: 1})
        w2 = get_triangle(FamilyId.W2, P21).value
        for k in range(4):
            assert whitney2_vertical(P21, k, k) == w2(k + 1, k + 1)

    def test_horizontal_examples(self):
        assert whitney2_horizontal(P10, 2, 1) == ONE
        assert whitney2_horizontal(P11, 1, 0) == ONE
        w2 = get_triangle(FamilyId.W2, P21).value
        for n in range(4):
            assert whitney2_horizontal(P21, n, n) == w2(n, n)

    def test_rational_gf_examples(self):
        s = whitney2_rational_gf(P10, 0, 3)
        assert isinstance(s, TruncSeries) and s.order == 3
        assert s.coeff(0) == ONE
        assert all(s.coeff(n) == ZERO for n in (1, 2, 3))
        s = whitney2_rational_gf(P11, 0, 2)
        assert s.coeffs() == (ONE, ONE, ONE)
        s = whitney2_rational_gf(P10, 2, 3)
        assert s.coeff(3) == LaurentPoly({1: 2, 2: 1})

    def test_rational_gf_rejects_short_order(self):
        with pytest.raises(ValueError):
            whitney2_rational_gf(P10, 3, 2)

    def test_rational_gf_rejects_negative_k(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            whitney2_rational_gf(P10, -1, 3)

    def test_all_paths_agree_on_grid(self):
        for p in GRID:
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(7):
                for k in range(n + 1):
                    w = w2(n, k)
                    assert whitney2_explicit(p, n, k) == w, ("explicit", p, n, k)
                    assert whitney2_horizontal(p, n, k) == w, ("horizontal", p, n, k)
                    if n < 6:
                        assert whitney2_vertical(p, n, k) == w2(n + 1, k + 1)
            series = [whitney2_rational_gf(p, k, 6) for k in range(7)]
            for k in range(7):
                for n in range(7):
                    assert series[k].coeff(n) == w2(n, k), ("gf", p, n, k)


class TestLahPaths:
    def test_explicit_examples(self):
        assert lah_explicit(P10, 2, 1) == LaurentPoly({0: 1, 1: 1})
        assert lah_explicit(P10, 2, 2) == q_power(2)
        for n in range(5):
            assert lah_explicit(P21, n, 0) == rising_bracket_product(2, 2, n)

    def test_newton_examples(self):
        # Row n of q-Newton interpolation coefficients is the explicit sum at k = 0..n.
        lah = get_triangle(FamilyId.LAH, P10).value
        assert [lah_explicit(P10, 2, k) for k in range(3)] == [lah(2, k) for k in range(3)]
        assert [lah_explicit(P11, 1, k) for k in range(2)] == [q_bracket(2), q_power(2)]
        assert [lah_explicit(Params(3, -2), 0, k) for k in range(1)] == [ONE]

    def test_egf_examples(self):
        # The explicit sum is also the exponential generating function coefficient.
        assert lah_explicit(P10, 2, 1) == LaurentPoly({0: 1, 1: 1})
        assert lah_explicit(P21, 0, 0) == ONE
        assert lah_explicit(P11, 2, 2) == q_power(6)

    def test_vertical_corrected_examples(self):
        assert lah_vertical(Variant.CORRECTED, P11, 1, 0) == get_triangle(FamilyId.LAH, P11).value(2, 1)
        got = q_power(2) * q_bracket(4) + q_power(3) * q_bracket(2)
        assert lah_vertical(Variant.CORRECTED, P11, 1, 0) == got
        lah = get_triangle(FamilyId.LAH, P21).value
        for k in range(4):
            assert lah_vertical(Variant.CORRECTED, P21, k, k) == lah(k + 1, k + 1)

    def test_vertical_verbatim_mismatch(self):
        assert lah_vertical(Variant.VERBATIM, P11, 1, 0) != get_triangle(FamilyId.LAH, P11).value(2, 1)

    def test_horizontal_examples(self):
        assert lah_horizontal(P11, 1, 1) == q_power(2)
        assert lah_horizontal(P10, 2, 1) == get_triangle(FamilyId.LAH, P10).value(2, 1)
        lah = get_triangle(FamilyId.LAH, P21).value
        for n in range(4):
            assert lah_horizontal(P21, n, n) == lah(n, n)

    def test_all_paths_agree_on_grid(self):
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(7):
                for k in range(n + 1):
                    val = lah(n, k)
                    assert lah_explicit(p, n, k) == val, ("explicit", p, n, k)
                    assert lah_horizontal(p, n, k) == val, ("horizontal", p, n, k)
                    if n < 6:
                        assert lah_vertical(Variant.CORRECTED, p, n, k) == lah(n + 1, k + 1)


class TestCompositions:
    def test_lah_composition_corrected(self):
        assert lah_via_composition(Variant.CORRECTED, P11, 2, 2) == q_power(6)
        assert lah_via_composition(Variant.CORRECTED, P11, 2, 0) == LaurentPoly(
            {0: 1, 1: 2, 2: 2, 3: 1}
        )

    def test_lah_composition_verbatim_counterexample(self):
        assert lah_via_composition(Variant.VERBATIM, P10, 2, 2) == ONE
        assert get_triangle(FamilyId.LAH, P10).value(2, 2) == q_power(2)

    def test_whitney_from_lah(self):
        assert whitney_from_lah(Variant.CORRECTED, P10, 2, 2) == Q
        assert whitney_from_lah(Variant.CORRECTED, Params(3, -2), 0, 0) == ONE
        assert whitney_from_lah(Variant.VERBATIM, P11, 2, 2) == q_power(5)
        assert get_triangle(FamilyId.W2, P11).value(2, 2) == q_power(3)

    def test_dowling_qi(self):
        assert dowling_qi(Variant.CORRECTED, P10, 2) == LaurentPoly({0: 1, 1: 1})
        assert dowling_qi(Variant.CORRECTED, P10, 0) == ONE
        assert dowling_qi(Variant.VERBATIM, P10, 2) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_corrected_chain_on_grid(self):
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(7):
                assert dowling_qi(Variant.CORRECTED, p, n) == dowling(p, 1, n)
                for j in range(n + 1):
                    assert lah_via_composition(Variant.CORRECTED, p, n, j) == lah(n, j)
                    assert whitney_from_lah(Variant.CORRECTED, p, n, j) == w2(n, j)
