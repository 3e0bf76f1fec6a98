"""Acceptance suite: every criterion is an exact polynomial (or integer)
equality over the full parameter grid; tolerance is zero everywhere.

One PASS/FAIL line per criterion is printed (visible under pytest -s).
"""

import hashlib
import json
import math
import random

from qwhitney.qalg import (
    LaurentPoly,
    ONE,
    ZERO,
    lp_div_bracket,
    q_binomial_base,
    q_bracket,
    q_power,
)
from qwhitney.upoly import UPoly, falling_factorial_u, rising_factorial_u
from qwhitney.triangles import (
    FamilyId,
    Params,
    dowling,
    get_triangle,
)
from qwhitney.formulas import (
    Variant,
    dowling_qi,
    lah_explicit,
    lah_horizontal,
    lah_vertical,
    lah_via_composition,
    whitney2_explicit,
    whitney2_horizontal,
    whitney2_rational_gf,
    whitney2_vertical,
    whitney_from_lah,
)
from qwhitney.cli import main as cli_main

GRID = [Params(m, r) for m in (1, 2, 3) for r in range(-2, 4)]
# sha256 of `qwhitney audit --json` over the default grid.
AUDIT_JSON_SHA256 = "2df583ded9d014aa1bb48a51ff053cd02b78f992792cabe65e7fd02ee067b55d"
# sha256 of `qwhitney audit --grid "m=1..3 r=-3..4 nmax=7" --json`: 840 results,
# 210 of them fails spread over all 9 erratum checks, with counterexamples at
# r = -3 and 4, which the default grid does not reach.
WIDE_GRID = "m=1..3 r=-3..4 nmax=7"
WIDE_AUDIT_JSON_SHA256 = "22dac6d57fb1fd6bb27a744764539fb1dba77e3e19dcaa37fb1be49db34fef11"


def u_combination(terms, d):
    """The u-polynomial sum of f * c over the pairs (f, c) of a u-polynomial f
    of degree at most d and a Laurent coefficient c, coefficient by coefficient."""
    return UPoly([sum((f.coeff(i) * c for f, c in terms), ZERO) for i in range(d + 1)])


def _report(name, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_c1_horizontal_gf_second_kind():
    def body():
        for p in GRID:
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(16):
                acc = u_combination([(falling_factorial_u(p.m, p.r, k), w2(n, k)) for k in range(n + 1)], n)
                assert acc == UPoly([ZERO] * n + [ONE]), (p, n)

    _report("1 horizontal-gf-second-kind", body)


def test_c2_dual_path_second_kind():
    def body():
        for p in GRID:
            w2 = get_triangle(FamilyId.W2, p).value
            series = [whitney2_rational_gf(p, k, 12) for k in range(13)]
            for n in range(13):
                for k in range(n + 1):
                    w = w2(n, k)
                    assert whitney2_explicit(p, n, k) == w, ("explicit", p, n, k)
                    assert whitney2_horizontal(p, n, k) == w, ("horizontal", p, n, k)
                    assert series[k].coeff(n) == w, ("rational", p, n, k)
                    if n < 12:
                        assert whitney2_vertical(p, n, k) == w2(n + 1, k + 1), (
                            "vertical",
                            p,
                            n,
                            k,
                        )

    _report("2 dual-path-second-kind", body)


def test_c3_lah_identities():
    def body():
        m_step = None
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(13):
                terms = []
                for k in range(n + 1):
                    val = lah(n, k)
                    assert lah_explicit(p, n, k) == val, ("explicit", p, n, k)
                    assert lah_horizontal(p, n, k) == val, ("horizontal", p, n, k)
                    if n < 12:
                        assert lah_vertical(Variant.CORRECTED, p, n, k) == lah(n + 1, k + 1), (
                            "vertical",
                            p,
                            n,
                            k,
                        )
                    terms.append((falling_factorial_u(p.m, 0, k), val))
                assert u_combination(terms, n) == rising_factorial_u(p.m, 2 * p.r, n), ("gf", p, n)

    _report("3 lah-identities", body)


def test_c4_orthogonality_and_inverse_relations():
    def body():
        for p in GRID:
            w1 = get_triangle(FamilyId.W1_FALLING, p).value
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(13):
                for j in range(n + 1):
                    want = ONE if n == j else ZERO
                    left = ZERO
                    right = ZERO
                    for k in range(j, n + 1):
                        left = left + w1(n, k) * w2(k, j)
                        right = right + w2(n, k) * w1(k, j)
                    assert left == want, ("first*second", p, n, j)
                    assert right == want, ("second*first", p, n, j)
            inv = get_triangle(FamilyId.W1_FALLING, p).inverse
            inv2 = get_triangle(FamilyId.W2, p).inverse
            for n in range(13):
                for k in range(n + 1):
                    assert inv.value(n, k) == w2(n, k), ("inverse", p, n, k)
                    assert inv2.value(n, k) == w1(n, k), ("inverse2", p, n, k)

    _report("4 orthogonality-inverse-relations", body)


def test_c5_corrected_composition_chain():
    def body():
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            w2 = get_triangle(FamilyId.W2, p).value
            for n in range(13):
                assert dowling_qi(Variant.CORRECTED, p, n) == dowling(p, 1, n), ("qi", p, n)
                for j in range(n + 1):
                    assert lah_via_composition(Variant.CORRECTED, p, n, j) == lah(n, j), (
                        "lah",
                        p,
                        n,
                        j,
                    )
                    assert whitney_from_lah(Variant.CORRECTED, p, n, j) == w2(n, j), (
                        "w",
                        p,
                        n,
                        j,
                    )

    _report("5 corrected-composition-chain", body)


def test_c6_golden_values():
    def body():
        assert get_triangle(FamilyId.W2, Params(1, 0)).value(3, 2) == LaurentPoly({1: 2, 2: 1})
        assert get_triangle(FamilyId.LAH, Params(1, 0)).value(2, 1) == LaurentPoly({0: 1, 1: 1})
        lah11 = get_triangle(FamilyId.LAH, Params(1, 1)).value
        assert lah11(2, 1) == LaurentPoly({2: 1, 3: 2, 4: 2, 5: 1})
        assert lah11(2, 2) == q_power(6)
        assert dowling(Params(1, 0), 1, 3) == LaurentPoly({0: 1, 1: 2, 2: 1, 3: 1})

    _report("6 golden-values", body)


def _bell_oracle(top):
    bells, row = [1], [1]
    for _ in range(top):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bells.append(row[0])
    return bells


def test_c7_q_to_one_oracles():
    def body():
        p10 = Params(1, 0)
        lah10 = get_triangle(FamilyId.LAH, p10).value
        for n in range(11):
            for k in range(n + 1):
                if n == 0 and k == 0:
                    want = 1
                elif k < 1:
                    want = 0
                else:
                    want = math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)
                assert lah10(n, k).eval_at(1) == want, ("lah", n, k)
        bells = _bell_oracle(10)
        for n in range(11):
            assert dowling(p10, 1, n).eval_at(1) == bells[n], ("bell", n)
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(1, 11):
                for k in range(n + 1):
                    got = lah(n, k).eval_at(1)
                    want = lah(n - 1, k - 1).eval_at(1) + (
                        2 * p.r + k * p.m + (n - 1) * p.m
                    ) * lah(n - 1, k).eval_at(1)
                    assert got == want, ("cheon-jung", p, n, k)

    _report("7 q-to-one-oracles", body)


def test_c8_erratum_findings(tmp_path):
    def body():
        p10, p11 = Params(1, 0), Params(1, 1)
        # Second-kind recurrence sign: entry (1, 1) at (m, r) = (1, 1).
        assert get_triangle(FamilyId.W2, Params(1, -1)).value(1, 1) == q_power(-1)
        assert get_triangle(FamilyId.W2, p11).value(1, 1) == q_power(1)
        # Composition identity as stated: (n, j) = (2, 2) at (m, r) = (1, 0).
        assert lah_via_composition(Variant.VERBATIM, p10, 2, 2) == ONE
        assert get_triangle(FamilyId.LAH, p10).value(2, 2) == q_power(2)
        # Row-sum formula as stated at n = 2, (m, r) = (1, 0).
        assert dowling_qi(Variant.VERBATIM, p10, 2) == LaurentPoly({0: 1, 1: 1, 2: 1, 3: 1})
        assert dowling(p10, 1, 2) == LaurentPoly({0: 1, 1: 1})
        # Vertical recurrence as stated at (n, k) = (1, 0), (m, r) = (1, 1).
        assert lah_vertical(Variant.VERBATIM, p11, 1, 0) != get_triangle(FamilyId.LAH, p11).value(2, 1)
        # Unit-diagonal boundary claim flagged exactly when the exponent is nonzero.
        for p in GRID:
            lah = get_triangle(FamilyId.LAH, p).value
            for n in range(11):
                exponent = 2 * p.r * n + p.m * n * (n - 1)
                assert (lah(n, n) == ONE) == (exponent == 0), (p, n)
        # Full audit over the default grid: exit 0 with the findings present.
        report_path = tmp_path / "audit.json"
        code = cli_main(["audit", "--quiet", "--json", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["errata"] == [
            "C03_W_RECURRENCE_SIGN",
            "C11_LAH_VERTICAL",
            "C14_LAH_COMPOSITION",
            "C15_W_FROM_LAH",
            "C16_DOWLING_QI",
            "C18_LAH_DIAGONAL",
            "C19_LAH_COLUMN_ZERO",
            "C24_W1_BOUNDARY",
            "C25_W1_TABLE",
        ]
        assert doc["summary"]["fail"] > 0

    _report("8 erratum-findings", body)


def test_c9_kernel_properties():
    def body():
        rng = random.Random(20260810)

        def rand_poly(max_terms=6):
            return LaurentPoly(
                {
                    rng.randint(-15, 15): rng.randint(-99, 99)
                    for _ in range(rng.randint(0, max_terms))
                }
            )

        for _ in range(10_000):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            ab = a * b
            assert ab == b * a
            assert (ab) * c == a * (b * c)
            assert a * (b + c) == ab + a * c
        for _ in range(2_000):
            k, c = rng.randint(1, 12), rand_poly()
            assert lp_div_bracket(q_bracket(k) * c, k) == c
        for a in range(-50, 51):
            for b in range(-50, 51):
                assert q_bracket(a + b) == q_bracket(a) + q_power(a) * q_bracket(b)
        for m in (1, 2, 3):
            for k in range(21):
                for j in range(k + 1):
                    assert q_binomial_base(k, j, m) == q_binomial_base(k, k - j, m)

    _report("9 kernel-properties", body)


def test_c10_audit_determinism(tmp_path):
    def body():
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(["audit", "--quiet", "--json", str(first)]) == 0
        assert cli_main(["audit", "--quiet", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0
        # The default-grid report, byte for byte, as first recorded.
        assert hashlib.sha256(first.read_bytes()).hexdigest() == AUDIT_JSON_SHA256
        wide = tmp_path / "wide.json"
        assert cli_main(["audit", "--grid", WIDE_GRID, "--quiet", "--json", str(wide)]) == 0
        assert hashlib.sha256(wide.read_bytes()).hexdigest() == WIDE_AUDIT_JSON_SHA256

    _report("10 audit-determinism", body)
