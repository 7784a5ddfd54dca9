"""Boustrophedon difference arrays and two classical summation identities.

Every array follows the same cell rule h(i, j) = h(i, j-1) - h(i-1, j-1)
for 1 <= j <= floor(i/2), with zeros beyond; the variants differ only in
how the first column is seeded.  Rows are stored densely with
floor(i/2) + 1 entries each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Optional, Tuple

from . import numbers
from .reports import Case
from .stirling import preset, stirling2

VARIANTS = ("ls-from-T", "v-from-U", "genocchi")


@dataclass(frozen=True)
class SeidelArray:
    """A filled difference array.

    The genocchi variant is self-seeding: even rows start with zero (one at
    the top) and each odd row starts with the sum of the row above it, so
    the array produces Genocchi numbers without being given any.
    """

    variant: str
    k: Optional[int]
    rows: Tuple[Tuple[Fraction, ...], ...]

    def entry(self, i: int, j: int) -> Fraction:
        if i < 0 or i >= len(self.rows):
            raise IndexError(f"row {i} outside array of {len(self.rows)} rows")
        row = self.rows[i]
        return row[j] if 0 <= j < len(row) else Fraction(0)


def seidel_array(variant: str, k: int = 0, rows: int = 1) -> SeidelArray:
    """Build a difference array row by row.

    ls-from-T seeds even rows with a shifted central-factorial column and
    odd rows with k+1 times it; v-from-U seeds with a half-odd-square
    column and (2k+1)/2 times it; genocchi seeds itself.  Construction is
    strictly row-sequential because the genocchi odd-row seed needs the
    completed previous row.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid variants: {', '.join(VARIANTS)}")
    if rows < 1:
        raise ValueError("need at least one row")
    if k < 0:
        raise ValueError("column parameter must be >= 0")

    # A seeded array reads column k of its triangle only in rows up to its
    # last even row's seed, so only those rows are built; an entry right of
    # the diagonal (k past the row) is 0, however large k is.
    top = (rows - 1) // 2
    if variant == "ls-from-T":
        tri = stirling2(preset("central-factorial"), top + 2).rows
        even_seed = lambda i: tri[i + 1][k + 1] if k <= i else 0  # noqa: E731
        odd_factor = Fraction(k + 1)
    elif variant == "v-from-U":
        tri = stirling2(preset("u-half-odd"), top + 1).rows
        even_seed = lambda i: tri[i][k] if k <= i else 0  # noqa: E731
        odd_factor = Fraction(2 * k + 1, 2)
    else:
        even_seed = lambda i: Fraction(1 if i == 0 else 0)  # noqa: E731
        odd_factor = None

    out: list[Tuple[Fraction, ...]] = []
    for i in range(rows):
        width = i // 2 + 1
        if i % 2 == 0:
            head = even_seed(i // 2)
        elif variant == "genocchi":
            head = sum(out[i - 1], Fraction(0))
        else:
            head = odd_factor * even_seed(i // 2)
        row = [head]
        for j in range(1, width):
            row.append(row[j - 1] - out[i - 1][j - 1])
        out.append(tuple(row))
    return SeidelArray(variant, None if variant == "genocchi" else k, tuple(out))


def seidel_diagonal(arr: SeidelArray, n: int) -> Fraction:
    """The settled value h(2n, n) of the array."""
    if 2 * n >= len(arr.rows):
        raise IndexError(f"diagonal {n} needs {2 * n + 1} rows, array has {len(arr.rows)}")
    return arr.rows[2 * n][n]


def seidel_identity_cases(depth: int) -> Iterator[Case]:
    """Alternating binomial sum of Genocchi numbers: 1 at n = 1, else 0."""
    for n in range(1, depth + 1):
        total = sum(
            (-1) ** k * comb(n, 2 * k) * numbers.genocchi(n - k) for k in range(n // 2 + 1)
        )
        yield (f"n={n}", total, 1 if n == 1 else 0)


def kaneko_cases(depth: int) -> Iterator[Case]:
    """Weighted Bernoulli recurrence over a shifted binomial row.

    Two forms are checked for every n up to the bound: the full sum over
    C(n+1, i) (n+i+1) B(n+i), which vanishes for all n >= 0, and the
    even-index partial sum over C(n+1, 2n-2j+1) (2j+1) B(2j), which equals
    C(n+1, 2n), that is 1 for n <= 1 and 0 afterwards.
    """
    for n in range(depth + 1):
        full = sum(
            comb(n + 1, i) * (n + i + 1) * numbers.bernoulli(n + i) for i in range(n + 2)
        )
        yield (f"n={n}", full, 0)
        partial = sum(
            comb(n + 1, 2 * n - 2 * j + 1) * (2 * j + 1) * numbers.bernoulli(2 * j)
            for j in range(n + 1)
        )
        yield (f"n={n} (partial form)", partial, comb(n + 1, 2 * n))
