"""Tests for the recurrence-driven triangle families and their inverses."""

import functools
import hashlib
import math
import pickle
import random

import pytest

from qwhitney.audit import _check_w_recurrence_sign
from qwhitney.cli import main
from qwhitney.formulas import Variant, _lah_outer
from qwhitney.qalg import LaurentPoly, ONE, Q, ZERO, q_bracket, q_power
from qwhitney.triangles import (
    FamilyId,
    InverseMatrix,
    NonUnitDiagonalError,
    Params,
    Triangle,
    _TRIANGLES,
    _WEIGHTS,
    clear_registry,
    dowling,
    get_triangle,
    lah_row_sum,
    next_row,
)
from qwhitney.upoly import UPoly, falling_factorial_u, rising_factorial_u

P10 = Params(1, 0)
P11 = Params(1, 1)

SMALL_GRID = [Params(m, r) for m in (1, 2, 3) for r in range(-2, 4)]


def u_combination(terms, d):
    """The u-polynomial sum of f * c over the pairs (f, c) of a u-polynomial f
    of degree at most d and a Laurent coefficient c, coefficient by coefficient."""
    return UPoly([sum((f.coeff(i) * c for f, c in terms), ZERO) for i in range(d + 1)])


class TestParams:
    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            Params(0, 1)
        with pytest.raises(ValueError):
            Params(-2, 1)

    def test_negative_r_allowed(self):
        assert Params(2, -5).r == -5

    @pytest.mark.parametrize("m, r", [(True, 0), (1, False), (2, True)])
    def test_rejects_bool(self, m, r):
        # Params(True, 0) == Params(1, 0), so an accepted bool could end up in a registered triangle.
        with pytest.raises(ValueError):
            Params(m, r)

    def test_keyword_and_positional(self):
        p = Params(m=2, r=-1)
        assert (p.m, p.r) == (2, -1)
        assert p == Params(2, -1) == Params(2, r=-1)

    def test_equal_pairs_equal_and_hash_alike(self):
        assert Params(3, 0) == Params(3, 0) and hash(Params(3, 0)) == hash(Params(3, 0))
        assert len({Params(3, 0), Params(3, 0), Params(0 + 3, -0)}) == 1
        assert Params(3, 0) != Params(3, 1) and Params(3, 0) != Params(1, 0)
        assert Params(1, 2) != (1, 2)

    def test_repr(self):
        assert repr(Params(2, -1)) == "Params(m=2, r=-1)"

    def test_pickle_round_trip(self):
        p = Params(2, -1)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(p, protocol))
            assert type(back) is Params and back == p and hash(back) == hash(p)

    def test_frozen(self):
        p = Params(2, 1)
        with pytest.raises(AttributeError):
            p.m = 3
        with pytest.raises(AttributeError):
            p.r = 0
        assert (p.m, p.r) == (2, 1)

    @pytest.mark.parametrize(
        "m, r, message",
        [
            (0, 1, "m must be an integer >= 1, got 0"),
            (1.0, 1, "m must be an integer >= 1, got 1.0"),
            (True, 0, "m must be an integer >= 1, got True"),
            (1, "2", "r must be an integer, got '2'"),
            (1, False, "r must be an integer, got False"),
        ],
    )
    def test_error_messages(self, m, r, message):
        with pytest.raises(ValueError) as info:
            Params(m, r)
        assert str(info.value) == message


class TestWhitney2:
    def test_examples(self):
        w2 = get_triangle(FamilyId.W2, P10).value
        assert w2(3, 2) == LaurentPoly({1: 2, 2: 1})
        assert get_triangle(FamilyId.W2, P11).value(2, 2) == q_power(3)
        assert w2(5, 7) == ZERO
        assert w2(-1, 0) == ZERO

    def test_boundaries(self):
        for p in SMALL_GRID:
            w2 = get_triangle(FamilyId.W2, p).value
            power = ONE
            for n in range(9):
                assert w2(n, 0) == power
                assert w2(n, n) == q_power(p.r * n + p.m * math.comb(n, 2))
                power = power * q_bracket(p.r)

    def test_q_to_one_is_stirling2_at_1_0(self):
        rows = [[1]]
        for n in range(1, 9):
            prev = rows[-1]
            rows.append(
                [
                    (prev[k - 1] if 0 <= k - 1 < n else 0) + k * (prev[k] if k < n else 0)
                    for k in range(n + 1)
                ]
            )
        w2 = get_triangle(FamilyId.W2, P10).value
        for n in range(9):
            for k in range(n + 1):
                assert w2(n, k).eval_at(1) == rows[n][k]

    def test_horizontal_gf(self):
        for p in SMALL_GRID:
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(9):
                acc = u_combination([(falling_factorial_u(p.m, p.r, k), w2(n, k)) for k in range(n + 1)], n)
                assert acc == UPoly([ZERO] * n + [ONE]), (p, n)


class TestWhitney2Verbatim:
    """The commonly printed second-kind recurrence has -r where the derived
    one has r, so its triangle is the second kind at -r: C03 (verbatim)
    reads it, and so do C15 and C16 (verbatim) through `_lah_outer`."""

    def test_agrees_at_r_zero(self):
        for m in (1, 2, 3):
            p = Params(m, 0)
            assert _check_w_recurrence_sign(Variant.VERBATIM, p, 8) is None
            verbatim = _lah_outer(Variant.VERBATIM, p)
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(9):
                for k in range(n + 1):
                    assert verbatim(n, k) == w2(n, k)

    def test_examples_at_r_one(self):
        verbatim = get_triangle(FamilyId.W2, Params(1, -1)).value
        assert verbatim(1, 1) == q_power(-1)
        assert verbatim(1, 0) == q_bracket(-1)
        assert verbatim(1, 1) != get_triangle(FamilyId.W2, P11).value(1, 1)
        assert _lah_outer(Variant.VERBATIM, P11)(1, 1) == q_power(-1)


class TestScaledForms:
    def test_examples(self):
        star = get_triangle(FamilyId.W2_FORM2, P11).value
        w2 = get_triangle(FamilyId.W2, P11).value
        assert star(1, 1) == ONE
        assert get_triangle(FamilyId.W2_FORM3, P11).value(1, 1) == Q
        for n in range(5):
            assert star(n, 0) == w2(n, 0)

    def test_scaling_relations(self):
        for p in SMALL_GRID:
            star = get_triangle(FamilyId.W2_FORM2, p).value
            tilde = get_triangle(FamilyId.W2_FORM3, p).value
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(8):
                for k in range(n + 1):
                    w = w2(n, k)
                    assert star(n, k) == q_power(-k * p.r - p.m * math.comb(k, 2)) * w
                    assert tilde(n, k) == q_power(k * p.r) * star(n, k)
                    assert tilde(n, k) == q_power(-p.m * math.comb(k, 2)) * w


class TestWhitney1:
    def test_table_values(self):
        for p in SMALL_GRID:
            m, r = p.m, p.r
            w1 = get_triangle(FamilyId.W1_FALLING, p).value
            assert w1(1, 1) == q_power(-r)
            assert w1(2, 1) == -(q_power(-(2 * r + m)) * (q_bracket(r) + q_bracket(r + m)))
        assert get_triangle(FamilyId.W1_FALLING, P10).value(2, 0) == ZERO

    def test_rows_are_falling_coefficients(self):
        for p in SMALL_GRID:
            w1 = get_triangle(FamilyId.W1_FALLING, p).value
            for n in range(9):
                fall = falling_factorial_u(p.m, p.r, n)
                for k in range(n + 1):
                    assert w1(n, k) == fall.coeff(k), (p, n, k)

    def test_rising_examples(self):
        assert get_triangle(FamilyId.W1_RISING, P11).value(2, 2) == q_power(3)
        assert get_triangle(FamilyId.W1_RISING, P10).value(2, 1) == ONE
        assert get_triangle(FamilyId.W1_RISING, Params(3, -2)).value(0, 0) == ONE

    def test_rising_rows_are_rising_coefficients(self):
        for p in SMALL_GRID:
            rising = get_triangle(FamilyId.W1_RISING, p).value
            for n in range(9):
                rise = rising_factorial_u(p.m, p.r, n)
                for k in range(n + 1):
                    assert rising(n, k) == rise.coeff(k)

    def test_rising_falling_row_conversion(self):
        for p in SMALL_GRID:
            rising = get_triangle(FamilyId.W1_RISING, p).value
            for n in range(9):
                w1 = get_triangle(FamilyId.W1_FALLING, Params(p.m, -p.r - (n - 1) * p.m)).value
                for k in range(n + 1):
                    assert rising(n, k) == w1(n, k)

    def test_orthogonality(self):
        for p in SMALL_GRID:
            w1 = get_triangle(FamilyId.W1_FALLING, p).value
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(8):
                for j in range(n + 1):
                    want = ONE if n == j else ZERO
                    left = ZERO
                    right = ZERO
                    for k in range(j, n + 1):
                        left = left + w1(n, k) * w2(k, j)
                        right = right + w2(n, k) * w1(k, j)
                    assert left == want and right == want, (p, n, j)


class TestLah:
    def test_examples(self):
        lah = get_triangle(FamilyId.LAH, P11).value
        assert get_triangle(FamilyId.LAH, P10).value(2, 1) == LaurentPoly({0: 1, 1: 1})
        assert lah(2, 1) == LaurentPoly({2: 1, 3: 2, 4: 2, 5: 1})
        assert lah(2, 2) == q_power(6)

    def test_boundaries(self):
        for p in SMALL_GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(9):
                assert lah(n, n) == q_power(2 * p.r * n + p.m * n * (n - 1))
                want = ONE
                for i in range(n):
                    want = want * q_bracket(2 * p.r + i * p.m)
                assert lah(n, 0) == want

    def test_horizontal_gf(self):
        for p in SMALL_GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(9):
                acc = u_combination([(falling_factorial_u(p.m, 0, k), lah(n, k)) for k in range(n + 1)], n)
                assert acc == rising_factorial_u(p.m, 2 * p.r, n), (p, n)

    def test_q_to_one_classical_lah(self):
        lah = get_triangle(FamilyId.LAH, P10).value
        for n in range(1, 9):
            for k in range(1, n + 1):
                want = math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)
                assert lah(n, k).eval_at(1) == want

    def test_q_to_one_cheon_jung_recurrence(self):
        for p in SMALL_GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(1, 9):
                for k in range(n + 1):
                    got = lah(n, k).eval_at(1)
                    want = lah(n - 1, k - 1).eval_at(1) + (
                        2 * p.r + k * p.m + (n - 1) * p.m
                    ) * lah(n - 1, k).eval_at(1)
                    assert got == want


class TestFillStep:
    """Each entry is one fused step, lp_add_bracket(q^a T[n-1,k-1], T[n-1,k], b);
    here it is recomputed from the previous row with q_bracket(b) through the
    packed multiply."""

    def test_every_family_is_one_weight_row(self):
        assert set(FamilyId) == set(_WEIGHTS)

    def test_family_must_be_a_family_id(self):
        # A triangle keyed by the name "lah" would fill nothing past row 0; a
        # params that is not a Params is refused before the key is made of it.
        for family, params, message in (
            ("lah", P10, "family must be a FamilyId, got 'lah'"),
            (FamilyId.W2, (1, 0), r"params must be a Params, got \(1, 0\)"),
        ):
            clear_registry()
            with pytest.raises(ValueError, match=message):
                get_triangle(family, params)
            assert not _TRIANGLES

    @pytest.mark.parametrize("family", list(_WEIGHTS))
    def test_matches_products_of_the_previous_row(self, family):
        weights = _WEIGHTS[family]
        for m in (1, 2, 3):
            for r in range(-5, 6):
                tri = Triangle(family, Params(m, r))
                for n in range(1, 15):
                    prev, row = tri.row(n - 1), tri.row(n)
                    assert tuple(next_row(family, Params(m, r), prev, n)) == row
                    for k in range(n + 1):
                        a, b = weights(m, r, n, k)
                        left = q_power(a) * prev[k - 1] if k else ZERO
                        right = q_bracket(b) * prev[k] if k < n else ZERO
                        assert row[k] == left + right, (family, m, r, n, k)

    def test_matches_the_recurrence_mod_a_prime(self):
        # A witness that shares no code with the kernel: each family's
        # recurrence T[n,k] = x^a T[n-1,k-1] + [b]_x T[n-1,k] run in plain
        # integers mod the prime P at a seeded point x, with the weights (a, b)
        # written out from the families' definitions, not read from _WEIGHTS.
        P = (1 << 61) - 1
        x = random.Random(20261019).randrange(2, P - 1)
        over = pow(1 - x, -1, P)

        @functools.cache
        def power(e):
            return pow(x, e, P)

        def bracket(b):
            return (1 - power(b)) * over % P

        weights = {
            "w2": lambda m, r, n, k: (m * (k - 1) + r, m * k + r),
            "w2-star": lambda m, r, n, k: (0, m * k + r),
            "w2-tilde": lambda m, r, n, k: (r, m * k + r),
            # [t - c] = x^-c [t] + [-c] and [t + c] = x^c [t] + [c], c = r + (n-1)m.
            "w1": lambda m, r, n, k: (-(r + (n - 1) * m), -(r + (n - 1) * m)),
            "w1-rising": lambda m, r, n, k: (r + (n - 1) * m, r + (n - 1) * m),
            "lah": lambda m, r, n, k: (2 * r + m * (k - 1) + m * (n - 1), 2 * r + k * m + (n - 1) * m),
        }
        assert sorted(weights) == sorted(family.value for family in FamilyId)
        for name, weight in weights.items():
            for m in (1, 2, 3):
                for r in range(-3, 4):
                    value = get_triangle(FamilyId(name), Params(m, r)).value
                    row = [1]
                    for n in range(17):
                        if n:
                            prev = row + [0]
                            row = []
                            for k in range(n + 1):
                                a, b = weight(m, r, n, k)
                                left = power(a) * prev[k - 1] if k else 0
                                row.append((left + bracket(b) * prev[k]) % P)
                        for k in range(n + 1):
                            got = sum(c * power(e) for e, c in value(n, k).terms().items()) % P
                            assert got == row[k], (name, m, r, n, k)

    def test_next_row_is_pure(self):
        # Rows iterated from the seed row alone: the step stores no triangle,
        # changes no previous row, and gives the registry's rows.
        clear_registry()
        rows = {}
        for family in FamilyId:
            for m in (1, 2, 3):
                for r in range(-3, 4):
                    params = Params(m, r)
                    prev = [ONE]
                    rows[family, params] = [prev]
                    for n in range(1, 13):
                        before = tuple(prev)
                        row = next_row(family, params, prev, n)
                        assert len(prev) == len(before) and all(x is y for x, y in zip(prev, before))
                        rows[family, params].append(row)
                        prev = row
        assert not _TRIANGLES
        for (family, params), filled in rows.items():
            tri = get_triangle(family, params)
            assert [list(tri.row(n)) for n in range(13)] == filled, (family, params)

    @pytest.mark.parametrize("params", SMALL_GRID)
    def test_lah_entries_are_palindromes(self, params):
        # The shortcut's premise, and its effect: each nonzero entry reads the
        # same backwards, its second half built from its first half's objects
        # (distinct objects past 256 otherwise; (3, 3) reaches 2^37 by row 12).
        tri = Triangle(FamilyId.LAH, params)
        for n in range(13):
            for value in tri.row(n):
                c = value._c
                assert c == c[::-1]
                assert all(x is y for x, y in zip(c, reversed(c)))


class TestRowSums:
    def test_dowling_examples(self):
        assert dowling(P10, 1, 3) == LaurentPoly({0: 1, 1: 2, 2: 1, 3: 1})
        assert dowling(P10, 1, 0) == ONE
        assert dowling(P10, 1, 2) == LaurentPoly({0: 1, 1: 1})

    def test_dowling_bell_limit(self):
        bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for n, b in enumerate(bells):
            assert dowling(P10, 1, n).eval_at(1) == b

    def test_dowling_rejects_bad_form(self):
        # True and 1.0 equal 1 and hash alike, but are not forms.
        for form in (4, True, 1.0):
            with pytest.raises(ValueError, match="form must be 1, 2 or 3"):
                dowling(P10, form, 2)

    def test_lah_row_sums(self):
        assert lah_row_sum(P10, 1) == ONE
        assert lah_row_sum(P10, 2) == LaurentPoly({0: 1, 1: 1, 2: 1})
        assert lah_row_sum(Params(3, -2), 0) == ONE


class TestInversion:
    def test_inverse_of_falling_is_whitney2(self):
        for p in SMALL_GRID:
            inv = get_triangle(FamilyId.W1_FALLING, p).inverse
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(9):
                for k in range(n + 1):
                    assert inv.value(n, k) == w2(n, k), (p, n, k)

    def test_rising_inverse_example(self):
        inv = get_triangle(FamilyId.W1_RISING, P10).inverse
        assert inv.value(2, 1) == -q_power(-1)
        assert inv.value(2, 2) == q_power(-1)

    def test_diagonal_product_is_one(self):
        for family in (FamilyId.W2, FamilyId.LAH, FamilyId.W1_RISING):
            inv = get_triangle(family, P11).inverse
            tri = get_triangle(family, P11)
            for n in range(6):
                assert inv.value(n, n) * tri.value(n, n) == ONE

    def test_two_sided_identity(self):
        for family in (FamilyId.W1_RISING, FamilyId.LAH):
            inv = get_triangle(family, Params(2, -1)).inverse
            tri = get_triangle(family, Params(2, -1))
            for n in range(7):
                for j in range(n + 1):
                    want = ONE if n == j else ZERO
                    left = ZERO
                    right = ZERO
                    for k in range(j, n + 1):
                        left = left + inv.value(n, k) * tri.value(k, j)
                        right = right + tri.value(n, k) * inv.value(k, j)
                    assert left == want and right == want

    def test_non_unit_diagonal_rejected(self):
        tri = Triangle(FamilyId.W2, P10)
        tri._rows = [[ONE], [ZERO, q_bracket(2)]]
        tri._ensure = lambda n: None
        with pytest.raises(NonUnitDiagonalError) as err:
            InverseMatrix(tri).value(1, 1)
        assert (err.value.n, err.value.entry) == (1, q_bracket(2))
        # An audit worker process sends the error back pickled.
        copy = pickle.loads(pickle.dumps(err.value))
        assert (copy.n, copy.entry, str(copy)) == (1, q_bracket(2), str(err.value))

    def test_inverse_is_a_triangle(self):
        # The inverse only supplies its row rule; the fill is Triangle's.
        standard = {"__module__", "__qualname__", "__doc__", "__firstlineno__", "__static_attributes__"}
        assert issubclass(InverseMatrix, Triangle)
        assert set(vars(InverseMatrix)) - standard == {"__init__", "_next_row"}

    def test_inverse_rows_are_its_values(self):
        for family in (FamilyId.W1_FALLING, FamilyId.W2, FamilyId.W1_RISING):
            for p in (P10, Params(2, -3), Params(3, 3)):
                inv = get_triangle(family, p).inverse
                for n in range(9):
                    assert inv.row(n) == tuple(inv.value(n, k) for k in range(n + 1)), (family, p, n)

    def test_non_unit_diagonal_keeps_earlier_rows(self):
        # w1 at (2, 1) with +1 added at its diagonal cell (5, 5): every read
        # from row 5 on raises at row 5, and rows 0..4 stay readable.
        clear_registry()
        w1 = get_triangle(FamilyId.W1_FALLING, Params(2, 1))
        w1.row(8)
        w1._rows[5][5] = w1.value(5, 5) + ONE
        try:
            inv = w1.inverse
            for _ in range(2):
                with pytest.raises(NonUnitDiagonalError) as err:
                    inv.value(7, 0)
                assert err.value.n == 5
            assert inv.value(4, 4) * w1.value(4, 4) == ONE
        finally:
            clear_registry()

    def test_out_of_range_is_zero(self):
        inv = get_triangle(FamilyId.W2, P10).inverse
        assert inv.value(2, 3) == ZERO
        assert inv.value(-1, 0) == ZERO

    def test_cleared_registry_drops_inverses(self):
        inv = get_triangle(FamilyId.W2, P11).inverse
        assert get_triangle(FamilyId.W2, P11).inverse is inv
        clear_registry()
        fresh = get_triangle(FamilyId.W2, P11).inverse
        assert fresh is not inv and fresh.source is get_triangle(FamilyId.W2, P11)


# sha256 of `qwhitney table --family F --m M --r R --nmax 12 --format json`:
# every family's output bytes are pinned, so a change to the shared fill
# cannot silently alter any of them.
TABLE_DIGESTS = {
    ("w2", 1, 0): "47e0f8103269aa444d8c80b99a76c3fa889ab400a478586554c974ba2932b322",
    ("w2", 2, -3): "ceaf18f8f7c3eb1bba753b1487ed1dac516a515aeb7c59c17d9d71ba1ee2b8e1",
    ("w2", 3, 3): "d019efec61cf3a5a9672f59f686bd0b992c0d6c9320a3b99fc62ec7ac4c6c9e8",
    ("w2-star", 1, 0): "396fb0f08aab2e1647740c2727b73256f6a806a1b7efa8d1aa9eaa6ace2c93f1",
    ("w2-star", 2, -3): "57f1ce821bbfbcf315cc6f331af5c901fc77e1f6e3b4ae0054abf83f157f88ae",
    ("w2-star", 3, 3): "61132568a904237616326728ac5295496324da9ab38ae1a2563faab4122f305d",
    ("w2-tilde", 1, 0): "747f7caea99e52245c3c727659ffb701ecc158e919ca6ddad276807fb8612653",
    ("w2-tilde", 2, -3): "b5d3fa9db14d3dd8870601d4cf2887506c29a79254df957179f066ba512bb6b8",
    ("w2-tilde", 3, 3): "f8bf77877ce6c113382d1feb7b2f92d8096dd1b45576638d9849067381c8d637",
    ("w1", 1, 0): "b895aeb09e683768192d0572e9d09c3db6e058d55628357415fb2daab3c11eb6",
    ("w1", 2, -3): "b9facf732c99363ebc314a393423ddf121148ea3f12c6eab8efce38021e0c252",
    ("w1", 3, 3): "1614603fd9e12c238215eb046ff9c95d40d679c48a51113cedd08436ddcd2854",
    ("w1-rising", 1, 0): "19000f103132c4620f39a705149ffc3dd5781515b017d761c3665e4a63115ac0",
    ("w1-rising", 2, -3): "95ecebab93498a6134e8a810227857df640413f2a152f8539f3a3dfcdaac28e5",
    ("w1-rising", 3, 3): "350cf9e5818e777ae3299afbd8a9e836f8a1e73ca880f6f6ab3047a802b282c6",
    ("lah", 1, 0): "03c632bda060bbc0d2f95b27c663151e24307c3cca12814fa126c772f6551666",
    ("lah", 2, -3): "71d9d43db09836ae5a2d1de225b141890074a6317f0dccb48896cf715c1b247b",
    ("lah", 3, 3): "148116b6534441869e7afdc01ace473848b86203cdb450ecd3272e4fbb5a0940",
}


@pytest.mark.parametrize("family, m, r", sorted(TABLE_DIGESTS))
def test_table_bytes_unchanged(family, m, r, capsys):
    args = ["table", "--family", family, "--m", str(m), "--r", str(r), "--nmax", "12", "--format", "json"]
    assert main(args) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == TABLE_DIGESTS[family, m, r]


# sha256 of `qwhitney table --family w2-verbatim --m M --r R --nmax 12`, the
# text tables of the printed sign variant as that family name wrote them
# before it was removed; `--family w2` at -r writes the same bytes.
VERBATIM_TEXT_DIGESTS = {
    (1, 0): "2157ae358f7a22a4237103433b28d1e1da6110833a795884f923043b357407fb",
    (2, -3): "3d6bd759b4583e132a4b0d712d43fd9a5ddb833a08713cca5a1384e18a1f4883",
    (3, 3): "53f58f93bd66c4c2eea8d417e7f5153760cc0d4e9ec93391eaaab28c2538fcf5",
}


@pytest.mark.parametrize("m, r", sorted(VERBATIM_TEXT_DIGESTS))
def test_sign_variant_table_is_w2_at_minus_r(m, r, capsys):
    assert main(["table", "--family", "w2", "--m", str(m), "--r", str(-r), "--nmax", "12"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERBATIM_TEXT_DIGESTS[m, r]
