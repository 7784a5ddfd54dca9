"""Boustrophedon difference arrays.

Every array follows the same cell rule h(i, j) = h(i, j-1) - h(i-1, j-1)
for 1 <= j <= floor(i/2), with zeros beyond; the variants differ only in
how the first column is seeded.  Rows are stored densely with
floor(i/2) + 1 entries each.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .stirling import preset, stirling2

VARIANTS = ("ls-from-T", "v-from-U", "genocchi")


class SeidelArray(NamedTuple):
    """A filled difference array.

    The genocchi variant is self-seeding: even rows start with zero (one at
    the top) and each odd row starts with the sum of the row above it, so
    the array produces Genocchi numbers without being given any.  The
    genocchi and ls-from-T arrays are integral and hold ints; v-from-U
    holds Fractions, and ints where its seed column does.
    """

    variant: str
    k: Optional[int]
    rows: Tuple[Tuple[Fraction | int, ...], ...]


def seidel_array(variant: str, k: int = 0, rows: int = 1) -> SeidelArray:
    """Build a difference array row by row.

    ls-from-T seeds even rows with column k of the central-factorial-shifted
    triangle and odd rows with k+1 times it; v-from-U seeds with column k
    of the u-half-odd triangle and (2k+1)/2 times it; genocchi seeds
    itself.  Construction is strictly row-sequential because the genocchi
    odd-row seed needs the completed previous row.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid variants: {', '.join(VARIANTS)}")
    if rows < 1:
        raise ValueError("need at least one row")
    if k < 0:
        raise ValueError("column parameter must be >= 0")

    if variant == "genocchi":
        even_seed = lambda i: 1 if i == 0 else 0  # noqa: E731
        odd_factor = None
    else:
        name, odd_factor = (
            ("central-factorial-shifted", k + 1) if variant == "ls-from-T"
            else ("u-half-odd", Fraction(2 * k + 1, 2))
        )
        # A seeded array reads column k of its triangle only in rows up to
        # its last even row's seed, so only those rows are built; an entry
        # right of the diagonal (k past the row) is 0, however large k is.
        top = (rows - 1) // 2
        tri = stirling2(preset(name), top + 1).rows
        even_seed = lambda i: tri[i][k] if k <= i else 0  # noqa: E731

    out: list[Tuple[Fraction | int, ...]] = []
    for i in range(rows):
        width = i // 2 + 1
        if i % 2 == 0:
            head = even_seed(i // 2)
        elif variant == "genocchi":
            head = sum(out[i - 1])
        else:
            head = odd_factor * even_seed(i // 2)
        row = [head]
        for j in range(1, width):
            row.append(row[j - 1] - out[i - 1][j - 1])
        out.append(tuple(row))
    return SeidelArray(variant, None if variant == "genocchi" else k, tuple(out))


def seidel_diagonal(arr: SeidelArray, n: int) -> Fraction | int:
    """The settled value h(2n, n) of the array."""
    if n < 0:
        raise ValueError("diagonal index must be >= 0")
    if 2 * n >= len(arr.rows):
        raise IndexError(f"diagonal {n} needs {2 * n + 1} rows, array has {len(arr.rows)}")
    return arr.rows[2 * n][n]

