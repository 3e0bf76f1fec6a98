"""Checks of the benchmark's outputs that do not import or trust qwhitney.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json

# The README's erratum list: verbatim fails somewhere, corrected passes everywhere.
EXPECTED_ERRATA = [
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

# A Mersenne prime: the table is also evaluated at a seeded point modulo it.
PRIME = (1 << 61) - 1


def check_audit(data: bytes, m_values: list[int], r_values: list[int], nmax: int, results: int) -> list[str]:
    """An audit JSON report covers the grid, counts and errata consistently."""
    try:
        doc = json.loads(data)
        checks = doc["checks"]
        grid = doc["grid"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable audit report: {exc}"]
    problems = []
    if grid != {"m": m_values, "r": r_values, "nmax": nmax}:
        problems.append(f"report grid {grid} is not the requested grid")
    if len(checks) != results:
        problems.append(f"{len(checks)} results, expected {results}")
    passed = sum(1 for res in checks if res["status"] == "pass")
    summary = {"total": len(checks), "pass": passed, "fail": len(checks) - passed}
    if doc.get("summary") != summary:
        problems.append(f"summary {doc.get('summary')} does not count the results {summary}")
    variants: dict[str, set[str]] = {}
    verbatim_fails: set[str] = set()
    corrected_fails: set[str] = set()
    for res in checks:
        variants.setdefault(res["id"], set()).add(res["variant"])
        failed = res["status"] == "fail"
        if failed and res["variant"] == "verbatim":
            verbatim_fails.add(res["id"])
        if failed and res["variant"] == "corrected":
            corrected_fails.add(res["id"])
        if failed and "counterexample" not in res:
            problems.append(f"{res['id']} fails without a counterexample")
    errata = [
        check_id
        for check_id, seen in variants.items()
        if len(seen) == 2 and check_id in verbatim_fails and check_id not in corrected_fails
    ]
    if doc.get("errata") != errata:
        problems.append(f"reported errata {doc.get('errata')} differ from the results' {errata}")
    if errata != EXPECTED_ERRATA:
        problems.append(f"errata {errata}, expected {EXPECTED_ERRATA}")
    single = {check_id for check_id, seen in variants.items() if len(seen) == 1}
    genuine = sorted((verbatim_fails & single) | corrected_fails)
    if genuine:
        problems.append(f"genuine failures: {genuine}")
    return problems


def _terms(cell: str):
    """(exponent, coefficient) pairs of one rendered polynomial, e.g. '-q^-2 + 3*q'."""
    sign = 1
    for token in cell.split(" "):
        if token == "+":
            sign = 1
            continue
        if token == "-":
            sign = -1
            continue
        if token[0] == "-":
            sign, token = -sign, token[1:]
        coeff, star, power = token.partition("*")
        if not star:
            coeff, power = ("1", token) if token[0] == "q" else (token, "")
        if not power:
            exponent = 0
        elif power == "q":
            exponent = 1
        elif power.startswith("q^"):
            exponent = int(power[2:])
        else:
            raise ValueError(f"bad term {token!r}")
        yield exponent, sign * int(coeff)
        sign = 1


def lah_oracle(m: int, r: int, nmax: int, x: int, mod: int | None = None) -> list[list[int]]:
    """The Lah-type triangle evaluated at q = x by the integer recurrence
    L[n,k] = x^(2r+m(k-1)+m(n-1)) L[n-1,k-1] + [2r+km+(n-1)m]_x L[n-1,k],
    exactly or modulo `mod`. Covers parameters whose exponents are >= 0."""

    def power(e: int) -> int:
        if e < 0:
            raise ValueError("the oracle covers nonnegative exponents only")
        return pow(x, e, mod) if mod else x**e

    def bracket(b: int) -> int:
        if b < 0:
            raise ValueError("the oracle covers nonnegative brackets only")
        if x == 1:
            return b
        if mod:
            return (power(b) - 1) * pow(x - 1, -1, mod) % mod
        return (power(b) - 1) // (x - 1)

    rows = [[1]]
    for n in range(1, nmax + 1):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            value = 0
            if k >= 1:
                value += power(2 * r + m * (k - 1) + m * (n - 1)) * prev[k - 1]
            if k <= n - 1:
                value += bracket(2 * r + k * m + (n - 1) * m) * prev[k]
            row.append(value % mod if mod else value)
        rows.append(row)
    return rows


def check_lah_table(data: bytes, m: int, r: int, nmax: int, point: int) -> list[str]:
    """Every cell of a text `table --family lah` output equals the integer
    recurrence at q = 1 and q = 2 exactly, and at q = point modulo PRIME."""
    lines = data.decode().split("\n")
    if lines[-1] != "" or len(lines) != nmax + 2:
        return [f"expected {nmax + 1} newline-terminated rows, got {len(lines) - 1} lines"]
    at_one = lah_oracle(m, r, nmax, 1)
    at_two = lah_oracle(m, r, nmax, 2)
    at_point = lah_oracle(m, r, nmax, point, PRIME)
    problems = []
    for n, line in enumerate(lines[:-1]):
        cells = line.split(", ")
        if len(cells) != n + 1:
            problems.append(f"row {n} has {len(cells)} cells")
            continue
        for k, cell in enumerate(cells):
            one = two = mod = 0
            power, last = 1, 0
            try:
                for e, c in _terms(cell):
                    if e < 0:
                        raise ValueError(f"negative exponent {e}")
                    one += c
                    two += c << e
                    power = power * point % PRIME if e == last + 1 else pow(point, e, PRIME)
                    last = e
                    mod = (mod + c * power) % PRIME
            except (ValueError, IndexError) as exc:
                problems.append(f"cell ({n}, {k}) does not parse: {exc}")
                continue
            for label, got, want in (
                ("1", one, at_one[n][k]),
                ("2", two, at_two[n][k]),
                (f"{point} mod 2^61-1", mod, at_point[n][k]),
            ):
                if got != want:
                    problems.append(f"cell ({n}, {k}) at q = {label}: {got} != {want}")
    return problems
