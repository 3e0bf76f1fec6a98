"""Memoized number-triangle families driven by one two-term recurrence.

Six related families are produced over a common parameter pair (m, r):
three forms of the second-kind triangle, two first-kind triangles (falling
and rising basis), and the Lah-type triangle.  They differ only in their
row of the weight table `_WEIGHTS`, and every row of every family comes from
one pure step, `next_row`: row n from row n - 1 by the family's weights.
Entries are exact Laurent polynomials.  One lazily filled matrix, `Triangle`,
stores the rows: it is filled row-major on demand and never recomputes an
entry; a subclass, such as the inverse `InverseMatrix`, supplies only its
row rule.

Every entry is read through the shared triangle: bind
`get_triangle(family, params).value` once, then call it with (n, k); an
entry of its inverse, through `.inverse.value` the same way.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

from .qalg import LaurentPoly, ONE, ZERO, _is_int, lp_add_bracket, lp_dot, q_power


class NonUnitDiagonalError(ArithmeticError):
    """Triangular inversion requires every diagonal entry to be +-q^e; `n` is
    the row of the first one that is not, and `entry` that diagonal entry."""

    def __init__(self, n: int, entry: LaurentPoly):
        super().__init__(f"diagonal entry at n={n} is {entry}, not a unit monomial")
        self.n, self.entry = n, entry

    def __reduce__(self):
        # Rebuilt from (n, entry), not from the message: an audit worker
        # process sends the error back pickled.
        return type(self), (self.n, self.entry)


class Params:
    """The parameter pair (m, r); m >= 1, r any integer.  Immutable, equal
    and hashed by (m, r).  A plain class: `dataclasses` would add about 10 ms
    to every start."""

    m: int
    r: int

    def __init__(self, m: int, r: int) -> None:
        if not _is_int(m) or m < 1:
            raise ValueError(f"m must be an integer >= 1, got {m!r}")
        if not _is_int(r):
            raise ValueError(f"r must be an integer, got {r!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.r) == (other.m, other.r)

    def __hash__(self) -> int:
        return hash((self.m, self.r))

    def __repr__(self) -> str:
        return f"Params(m={self.m!r}, r={self.r!r})"


def _usable_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where `os` has no
    `fork`: the one rule for whether work is shared with forked processes."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class FamilyId(Enum):
    """The closed set of triangle families, keyed by their stable CLI names."""

    W2 = "w2"
    W2_FORM2 = "w2-star"
    W2_FORM3 = "w2-tilde"
    W1_FALLING = "w1"
    W1_RISING = "w1-rising"
    LAH = "lah"


class Triangle:
    """The one lazily filled, memoized matrix T[n, k], here of one (family,
    params); a subclass supplies only its row rule, `_next_row`."""

    def __init__(self, family: FamilyId, params: Params):
        if not isinstance(family, FamilyId):
            raise ValueError(f"family must be a FamilyId, got {family!r}")
        self.family = family
        self.params = params
        self._rows: list[list[LaurentPoly]] = [[ONE]]

    def value(self, n: int, k: int) -> LaurentPoly:
        if n < 0 or k < 0 or k > n:
            return ZERO
        self._ensure(n)
        return self._rows[n][k]

    def row(self, n: int) -> tuple[LaurentPoly, ...]:
        if n < 0:
            raise ValueError("row index must be >= 0")
        self._ensure(n)
        return tuple(self._rows[n])

    @cached_property
    def inverse(self) -> InverseMatrix:
        """The forward-substitution inverse, kept on the triangle, so every
        reader of this triangle shares it."""
        return InverseMatrix(self)

    def _ensure(self, n: int) -> None:
        while len(self._rows) <= n:
            self._rows.append(self._next_row(len(self._rows)))

    def _next_row(self, n: int) -> list[LaurentPoly]:
        return next_row(self.family, self.params, self._rows[n - 1], n)


# Every family obeys T[n,k] = q^a T[n-1,k-1] + [b] T[n-1,k] from the seed
# T[0,0] = 1, with the weights (a, b) = _WEIGHTS[family](m, r, n, k).
_WEIGHTS: dict[FamilyId, Callable[[int, int, int, int], tuple[int, int]]] = {
    FamilyId.W2: lambda m, r, n, k: (m * (k - 1) + r, m * k + r),
    # Rescaling the canonical recurrence by q^(-kr - m*binom(k,2)) cancels
    # the diagonal weight entirely.
    FamilyId.W2_FORM2: lambda m, r, n, k: (0, m * k + r),
    FamilyId.W2_FORM3: lambda m, r, n, k: (r, m * k + r),
    # Multiplying the falling product by [t-r-(n-1)m] = q^-c ([t] - [c]),
    # c = r + (n-1)m, and using -q^-c [c] = [-c].
    FamilyId.W1_FALLING: lambda m, r, n, k: (-(r + (n - 1) * m), -(r + (n - 1) * m)),
    # Multiplying the rising product by [t+r+(n-1)m] = [c] + q^c [t].
    FamilyId.W1_RISING: lambda m, r, n, k: (r + (n - 1) * m, r + (n - 1) * m),
    FamilyId.LAH: lambda m, r, n, k: (
        2 * r + m * (k - 1) + m * (n - 1),
        2 * r + k * m + (n - 1) * m,
    ),
}


def next_row(family: FamilyId, params: Params, prev: Sequence[LaurentPoly], n: int) -> list[LaurentPoly]:
    """Row n of `family` at `params` from its row n - 1, `prev`, by the
    family's weights: the one step every row of every family comes from.  It
    reads no registry, stores nothing and leaves `prev` as it is."""
    m, r = params.m, params.r
    weights = _WEIGHTS[family]
    row = []
    for k in range(n + 1):
        a, b = weights(m, r, n, k)
        entry = q_power(a) * prev[k - 1] if k else ZERO
        row.append(lp_add_bracket(entry, prev[k], b) if k < n else entry)
    return row


_TRIANGLES: dict[tuple[FamilyId, int, int], Triangle] = {}


def get_triangle(family: FamilyId, params: Params) -> Triangle:
    """The process-wide shared triangle for (family, params)."""
    if not isinstance(params, Params):
        raise ValueError(f"params must be a Params, got {params!r}")
    key = (family, params.m, params.r)
    tri = _TRIANGLES.get(key)
    if tri is None:
        tri = _TRIANGLES[key] = Triangle(family, params)
    return tri


def clear_registry() -> None:
    """Drop every memoized triangle, and with it its inverse (test isolation
    hook); later lookups fill new triangles from the current weight table."""
    _TRIANGLES.clear()


_DOWLING_FAMILY = {1: FamilyId.W2, 2: FamilyId.W2_FORM2, 3: FamilyId.W2_FORM3}


def _row_sum(family: FamilyId, params: Params, n: int) -> LaurentPoly:
    return sum(get_triangle(family, params).row(n), ZERO)


def dowling(params: Params, form: int, n: int) -> LaurentPoly:
    """Row sum of the requested second-kind form (form in {1, 2, 3})."""
    family = _DOWLING_FAMILY.get(form) if _is_int(form) else None
    if family is None:
        raise ValueError(f"form must be 1, 2 or 3, got {form!r}")
    return _row_sum(family, params, n)


def lah_row_sum(params: Params, n: int) -> LaurentPoly:
    """Sum of the Lah-type triangle row n."""
    return _row_sum(FamilyId.LAH, params, n)


class InverseMatrix(Triangle):
    """Lower-triangular inverse of a triangle: a `Triangle` whose row rule is
    forward substitution, read the same way, `.row(n)` included.

    Rows satisfy sum_k M[n,k] T[k,j] = delta(n,j); because both matrices are
    lower triangular with unit-monomial diagonals, the same entries also give
    the right-sided identity.
    """

    def __init__(self, source: Triangle):
        super().__init__(source.family, source.params)
        self.source = source
        self._rows = []  # no seed row: row 0's diagonal is checked too

    def _next_row(self, i: int) -> list[LaurentPoly]:
        # Raising before the row is stored keeps rows < i readable.
        t = self.source
        diag = t.value(i, i)
        if not diag.is_unit_monomial():
            raise NonUnitDiagonalError(i, diag)
        row = [ZERO] * (i + 1)
        row[i] = diag.unit_inverse()
        for j in range(i - 1, -1, -1):
            acc = lp_dot((row[k], t.value(k, j)) for k in range(j + 1, i + 1))
            # Row j, built and checked earlier, holds 1 / T[j, j] on its diagonal.
            row[j] = -(acc * self._rows[j][j])
        return row
