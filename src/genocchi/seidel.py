"""Boustrophedon difference arrays.

Every array follows the same cell rule h(i, j) = h(i, j-1) - h(i-1, j-1)
for 1 <= j <= floor(i/2), with zeros beyond; the variants differ only in
how the first column is seeded, by an exact Stirling column or by itself.
Rows are stored densely with floor(i/2) + 1 entries each.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import mul, sub
from typing import NamedTuple, Optional, Tuple

from .stirling import _second_kind, preset
from .trimat import _ratio

VARIANTS = ("ls-from-T", "v-from-U", "genocchi")


class SeidelArray(NamedTuple):
    """A filled difference array.

    The genocchi variant is self-seeding: even rows start with zero (one at
    the top) and each odd row starts with the sum of the row above it, so
    the array produces Genocchi numbers without being given any.  The
    genocchi and ls-from-T arrays are integral and hold ints; a v-from-U
    cell is an int where it is integral and a Fraction otherwise.
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
    odd-row seed needs the completed previous row.  The exact seed column is
    read from stirling's build of columns 0..k, which is skipped when every
    seed is 0 (k past the last even row).  Each row runs in int arithmetic
    over the lcm of the heads' denominators, a power of 2 (v-from-U) or 1;
    every cell is divided back once.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; valid variants: {', '.join(VARIANTS)}")
    if rows < 1:
        raise ValueError("need at least one row")
    if k < 0:
        raise ValueError("column parameter must be >= 0")
    if k and variant == "genocchi":
        raise ValueError(f"the genocchi variant takes no column parameter, got k={k}")

    # seeds[i] is the head of even row 2i; an odd row's head is factor times
    # the seed above it, or for genocchi the sum of the completed row above.
    top = (rows - 1) // 2
    if variant == "genocchi":
        seeds, factor = [1, *[0] * top], None
    else:
        name, factor = (
            ("central-factorial-shifted", k + 1) if variant == "ls-from-T"
            else ("u-half-odd", Fraction(2 * k + 1, 2))
        )
        # Only columns 0..k of rows 0..top are read; an entry right of the
        # diagonal (k past the row) is 0.
        seeds = [0] * min(k, top + 1)
        if k <= top:
            seeds += [row[k] for row in _second_kind(preset(name), top + 1, k + 1)[k:]]

    # Row r is held as ints h(r, j) over a scale D_r, the lcm of D_{r-1} and
    # its head's denominator, so h(r, j) = h(r, j-1) - (D_r/D_{r-1}) h(r-1, j-1).
    out: list[Tuple[Fraction | int, ...]] = []
    prev: list[int] = []
    scale = 1
    for r in range(rows):
        if r % 2 == 0:
            head = seeds[r // 2]
        elif factor is None:
            head = _ratio(sum(prev), scale)
        else:
            head = factor * seeds[r // 2]
        grown = lcm(scale, head.denominator)
        f = grown // scale
        above = prev[: r // 2] if f == 1 else map(mul, prev[: r // 2], repeat(f))
        row = list(accumulate(above, sub, initial=head.numerator * (grown // head.denominator)))
        out.append(tuple(row) if grown == 1 else tuple(map(_ratio, row, repeat(grown))))
        prev, scale = row, grown
    return SeidelArray(variant, None if variant == "genocchi" else k, tuple(out))

