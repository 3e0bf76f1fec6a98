"""Tests for polynomials and truncated series in the formal variable u."""

import pytest
from hypothesis import given, strategies as st

from qwhitney import upoly
from qwhitney.qalg import LaurentPoly, ONE, Q, ZERO, lp_dot, q_bracket, q_power
from qwhitney.upoly import (
    NonUnitConstantTermError,
    TruncSeries,
    UPoly,
    bracket_linear,
    falling_factorial_u,
    rising_factorial_u,
    useries_inverse,
)


def has_degree(p, d):
    """True when the u-polynomial p has degree exactly d, by its coefficients."""
    return p.coeff(d) != ZERO and p == UPoly([p.coeff(i) for i in range(d + 1)])


def horner(p, d, value):
    """The u-polynomial p of degree at most d at u = value."""
    acc = ZERO
    for i in range(d, -1, -1):
        acc = acc * value + p.coeff(i)
    return acc


class TestBracketLinear:
    def test_plain_variable(self):
        assert bracket_linear(0) == UPoly((ZERO, ONE))

    def test_shift_one(self):
        # Oracle: the bracket of t+1 is [1] + q times the bracket of t.
        assert bracket_linear(1) == UPoly((ONE, Q))

    def test_shift_minus_one(self):
        # Oracle: q^-1 * (u - [1]).
        assert bracket_linear(-1) == UPoly((-q_power(-1), q_power(-1)))


class TestFactorials:
    def test_falling_example(self):
        # Oracle: expand u * (q^-1 u - q^-1) termwise.
        assert falling_factorial_u(1, 0, 2) == UPoly((ZERO, -q_power(-1), q_power(-1)))

    def test_empty_products(self):
        assert falling_factorial_u(2, 0, 0) == UPoly((ONE,))
        assert rising_factorial_u(5, -7, 0) == UPoly((ONE,))

    def test_single_factors(self):
        assert falling_factorial_u(1, -1, 1) == UPoly((ONE, Q))
        assert rising_factorial_u(3, 2, 1) == UPoly((q_bracket(2), q_power(2)))

    def test_rising_example(self):
        # Oracle: expand ([1] + q u)([2] + q^2 u) termwise.
        got = rising_factorial_u(1, 1, 2)
        assert got.coeff(0) == q_bracket(1) * q_bracket(2)
        assert got.coeff(1) == q_bracket(1) * q_power(2) + q_bracket(2) * q_power(1)
        assert got.coeff(1) == LaurentPoly({1: 1, 2: 2})
        assert got.coeff(2) == q_power(3)

    def test_rising_no_shift(self):
        assert rising_factorial_u(1, 0, 2) == UPoly((ZERO, ONE, Q))

    def test_degree_exact(self):
        for n in range(7):
            assert has_degree(falling_factorial_u(2, 3, n), n)
            assert has_degree(rising_factorial_u(2, 3, n), n)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            falling_factorial_u(0, 1, 2)
        with pytest.raises(ValueError):
            rising_factorial_u(-1, 1, 2)

    def test_reversal_law(self):
        for m in (1, 2, 3):
            for s in range(-3, 4):
                for n in range(9):
                    assert rising_factorial_u(m, s, n) == falling_factorial_u(
                        m, -s - (n - 1) * m, n
                    )

    def test_substitution_matches_bracket_products(self):
        for m in (1, 2):
            for s in (-2, 0, 1):
                for n in range(6):
                    for t0 in range(-3, 4):
                        want = ONE
                        for i in range(n):
                            want = want * q_bracket(t0 - s - i * m)
                        got = horner(falling_factorial_u(m, s, n), n, q_bracket(t0))
                        assert got == want, (m, s, n, t0)


# Coefficients in u, ZERO often, so that operands have zero interior coefficients.
laurent = st.one_of(
    st.just(ZERO), st.dictionaries(st.integers(-3, 3), st.integers(-5, 5), max_size=3).map(LaurentPoly)
)
coeff_lists = st.lists(laurent, max_size=7)


def naive_product(a, b, length):
    """The first `length` coefficients of the product of coefficient lists a
    and b, by the schoolbook double loop over every pair."""
    out = [ZERO] * length
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < length:
                out[i + j] = out[i + j] + x * y
    return out


class TestProductsMatchNaive:
    """UPoly and series products and the series inverse against the double loop."""

    @given(coeff_lists, coeff_lists)
    def test_upoly(self, a, b):
        assert UPoly(a) * UPoly(b) == UPoly(naive_product(a, b, len(a) + len(b)))

    @given(st.integers(0, 6), coeff_lists, st.integers(0, 6), coeff_lists)
    def test_series(self, order_a, a, order_b, b):
        sa, sb = TruncSeries(order_a, a), TruncSeries(order_b, b)
        assert sa == UPoly(a, order_a)
        order = min(order_a, order_b)
        assert sa * sb == TruncSeries(order, naive_product(sa.coeffs(), sb.coeffs(), order + 1))

    @given(coeff_lists, st.integers(0, 6), coeff_lists)
    def test_exact_times_series(self, a, order, b):
        # The product is known to the series' order, in either order of factors.
        exact, series = UPoly(a), TruncSeries(order, b)
        want = TruncSeries(order, naive_product(a, b, order + 1))
        assert exact * series == want
        assert series * exact == want

    @given(st.integers(-3, 3), st.sampled_from([1, -1]), st.integers(0, 6), coeff_lists)
    def test_inverse(self, e, sign, order, tail):
        s = TruncSeries(order, [LaurentPoly.const(sign) * q_power(e)] + tail)
        inv = useries_inverse(s)
        identity = TruncSeries(order, [ONE])
        assert TruncSeries(order, naive_product(s.coeffs(), inv.coeffs(), order + 1)) == identity
        assert s * inv == identity


class TestUPolyArithmetic:
    def test_coeff_out_of_range(self):
        assert UPoly((ONE,)).coeff(5) == ZERO
        assert UPoly((ZERO, ONE, Q)).coeff(2) == Q

    def test_coeff_constant_product(self):
        got = rising_factorial_u(1, 2, 2).coeff(0)
        assert got == q_bracket(2) * q_bracket(3)

    def test_trailing_zeros_trimmed(self):
        assert UPoly((ONE, ZERO, ZERO)) == UPoly((ONE,))
        assert UPoly((ZERO,)) == UPoly()

    def test_degree_additivity(self):
        ps = [(bracket_linear(2), 1), (rising_factorial_u(2, 1, 3), 3), (falling_factorial_u(1, 0, 2), 2)]
        for a, da in ps:
            assert has_degree(a, da)
            for b, db in ps:
                assert has_degree(a * b, da + db)

    def test_render(self):
        assert str(UPoly()) == "0"
        assert str(UPoly((ZERO, ONE, Q))) == "(1)*u^1 + (q)*u^2"
        assert repr(UPoly((ZERO, ONE))) == "UPoly((1)*u^1)"
        assert repr(UPoly((ZERO, ONE), 2)) == "TruncSeries(order=2, (1)*u^1)"
        assert str(TruncSeries(2)) == "0"

    def test_order_is_read_only(self):
        # The memoised factorials share their values, so none may change.
        for value in (falling_factorial_u(1, 0, 2), TruncSeries(2, [ONE])):
            with pytest.raises(AttributeError):
                value.order = 5
        assert falling_factorial_u(1, 0, 2).order is None

    def test_one_type(self):
        # TruncSeries is only the order-first constructor of UPoly.
        standard = {"__module__", "__qualname__", "__doc__", "__firstlineno__", "__static_attributes__"}
        assert "__mul__" not in vars(TruncSeries)
        assert set(vars(TruncSeries)) - standard == {"__slots__", "__init__"}
        assert TruncSeries(3, [ONE, Q]) == UPoly([ONE, Q], 3) != UPoly([ONE, Q])


class TestSeries:
    def test_geometric(self):
        inv = useries_inverse(TruncSeries(3, [ONE, -ONE]))
        assert inv.coeffs() == (ONE, ONE, ONE, ONE)

    def test_unit_bracket(self):
        inv = useries_inverse(TruncSeries(2, [ONE, -q_bracket(1)]))
        assert inv.coeffs() == (ONE, ONE, ONE)

    def test_two_term_bracket(self):
        inv = useries_inverse(TruncSeries(2, [ONE, -q_bracket(2)]))
        assert inv.coeff(1) == q_bracket(2)
        assert inv.coeff(2) == LaurentPoly({0: 1, 1: 2, 2: 1})

    def test_non_unit_constant_term(self):
        with pytest.raises(NonUnitConstantTermError):
            useries_inverse(TruncSeries(2, [q_bracket(2), ONE]))
        with pytest.raises(NonUnitConstantTermError):
            useries_inverse(TruncSeries(2, [ZERO, ONE]))

    def test_monomial_constant_term(self):
        s = TruncSeries(3, [-q_power(2), q_bracket(3)])
        inv = useries_inverse(s)
        assert s * inv == TruncSeries(3, [ONE])

    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=1, max_value=4))
    def test_inverse_round_trip(self, shift, order):
        coeffs = [q_power(shift), q_bracket(2), -q_bracket(3), q_power(-1)]
        s = TruncSeries(order, coeffs)
        prod = s * useries_inverse(s)
        assert prod.coeff(0) == ONE
        assert all(prod.coeff(i) == ZERO for i in range(1, order + 1))

    def test_series_coeff_beyond_order(self):
        assert TruncSeries(2, [ONE]).coeff(7) == ZERO

    def test_inverse_walks_only_stored_terms(self, monkeypatch):
        # A series is stored trimmed, so the inverse of 1 - u to order 200
        # hands `lp_dot` at most two pairs per coefficient.
        pairs = []

        def counting(ps):
            ps = list(ps)
            pairs.append(len(ps))
            return lp_dot(ps)

        monkeypatch.setattr(upoly, "lp_dot", counting)
        inv = useries_inverse(TruncSeries(200, [ONE, -ONE]))
        assert inv.coeffs() == (ONE,) * 201
        assert sum(pairs) <= 200 * 2
        assert TruncSeries(3, [ONE, ZERO]).coeffs() == (ONE,)
        assert TruncSeries(3, [ONE]).coeff(3) == ZERO

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            TruncSeries(-1, [])

    def test_inverse_needs_an_order(self):
        with pytest.raises(ValueError):
            useries_inverse(UPoly([ONE, -ONE]))
