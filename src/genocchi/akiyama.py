"""Row-difference-and-scale matrix engine and the summation-identity suite.

The engine fills a rectangular array downward from a seeded top row using
m(i, j) = w(j) * (m(i-1, j) - m(i-1, j+1)).  Each step consumes one column,
so the top row is allocated with rows + cols entries; the requested window
is then exact, never silently truncated.  The first column realizes the
alternating diagonal-conjugation sums, which is what the identity suite
checks against factorials, Genocchi, tangent and Bernoulli values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Tuple

from . import numbers
from .reports import Case
from .stirling import SQUARES_FROM_2, WeightSpec, preset, stirling1, stirling2


@dataclass(frozen=True)
class ATSpec:
    """Weights, seed and extents for one engine run."""

    weights: WeightSpec
    seed: Callable[[int], Fraction]
    rows: int
    cols: int


def at_matrix(spec: ATSpec) -> Tuple[Tuple[Fraction, ...], ...]:
    """Fill the array and return the requested rows x cols window."""
    if spec.rows < 1 or spec.cols < 1:
        raise ValueError("extents must be >= 1")
    width = spec.cols + spec.rows
    row = [Fraction(spec.seed(j)) for j in range(width)]
    out = [tuple(row[: spec.cols])]
    for _ in range(1, spec.rows):
        width -= 1
        nxt = []
        for j in range(width):
            wj = spec.weights(j)
            if wj == 0:
                raise ValueError(f"zero weight w({j}) encountered")
            nxt.append(wj * (row[j] - row[j + 1]))
        row = nxt
        out.append(tuple(row[: spec.cols]))
    return tuple(out)


def odd_double_factorial(k: int) -> int:
    """Product of the first k odd numbers; empty product is 1."""
    result = 1
    for i in range(1, k + 1):
        result *= 2 * i - 1
    return result


# ----------------------------------------------------------------------
# summation identities 6.6 to 6.17, as case generators for the catalog in
# connect.  Each builds its triangle once, at the largest order it needs,
# reads its rows directly, and yields (where, lhs, rhs) for every n from its
# first meaningful value up to the depth.  Integral sides are ints; they
# print exactly as the equal Fractions would.


def cases_6_6(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("stirling-shift"), depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(x * (-1) ** j * Fraction(factorial(j), j + 1) for j, x in enumerate(row))
        yield (f"n={n}", lhs, numbers.bernoulli_b(n))


def cases_6_7(depth: int) -> Iterator[Case]:
    rows = stirling1(preset("stirling-shift"), depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(x * numbers.bernoulli_b(j) for j, x in enumerate(row))
        yield (f"n={n}", lhs, Fraction((-1) ** n * factorial(n), n + 1))


def cases_6_8(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("central-factorial"), depth + 1).rows
    for n in range(1, depth + 1):
        lhs = sum(
            (-1) ** (k - 1) * x * k * factorial(k - 1) ** 2 for k, x in enumerate(rows[n][1:], 1)
        )
        yield (f"n={n}", lhs, (-1) ** (n - 1) * numbers.genocchi(n))


def cases_6_9(depth: int) -> Iterator[Case]:
    rows = stirling1(preset("central-factorial"), depth + 1).rows
    for n in range(1, depth + 1):
        lhs = sum(
            (-1) ** (n - k) * x * numbers.genocchi(k) for k, x in enumerate(rows[n][1:], 1)
        )
        yield (f"n={n}", lhs, factorial(n) * factorial(n - 1))


def cases_6_10(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("central-factorial"), depth + 1).rows
    for n in range(1, depth + 1):
        lhs = sum((-1) ** (k - 1) * x * factorial(k) ** 2 for k, x in enumerate(rows[n][1:], 1))
        yield (f"n={n}", lhs, (-1) ** (n - 1) * numbers.genocchi(n + 1))


def cases_6_11(depth: int) -> Iterator[Case]:
    rows = stirling1(preset("central-factorial"), depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum((-1) ** (n - k) * x * numbers.genocchi(k + 1) for k, x in enumerate(row))
        yield (f"n={n}", lhs, factorial(n) ** 2)


def cases_6_12(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("legendre-stirling"), depth + 2).rows
    for n in range(depth + 1):
        lhs = sum(
            (-1) ** (n - k) * x * factorial(k + 1) ** 2 for k, x in enumerate(rows[n + 1][1:])
        )
        yield (f"n={n}", lhs, numbers.median_genocchi(n + 1))


def cases_6_13(depth: int) -> Iterator[Case]:
    rows = stirling2(SQUARES_FROM_2, depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(
            (-1) ** (n - k) * x * factorial(k + 1) * factorial(k + 2) for k, x in enumerate(row)
        )
        yield (f"n={n}", lhs, numbers.genocchi(n + 1) + numbers.genocchi(n + 2))


def cases_6_14(depth: int) -> Iterator[Case]:
    rows = stirling1(SQUARES_FROM_2, depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(
            (-1) ** (n - k) * x * (numbers.genocchi(k + 1) + numbers.genocchi(k + 2))
            for k, x in enumerate(row)
        )
        yield (f"n={n}", lhs, factorial(n + 1) * factorial(n + 2))


def cases_6_15(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("central-factorial"), depth + 2).rows
    for n in range(depth + 1):
        lhs = sum(
            (-1) ** j * Fraction(factorial(j) ** 2, j + 1) * x
            for j, x in enumerate(rows[n + 1][1:])
        )
        yield (f"n={n}", lhs, (2 * n + 1) * numbers.bernoulli(2 * n))


def cases_6_16(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("u-half-odd"), depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(
            (-1) ** (n - k) * 4 ** (n - k) * x * (2 * k + 1) * odd_double_factorial(k) ** 2
            for k, x in enumerate(row)
        )
        yield (f"n={n}", lhs, numbers.tangent(n))


def cases_6_17(depth: int) -> Iterator[Case]:
    rows = stirling2(preset("u-half-odd"), depth + 1).rows
    for n, row in enumerate(rows):
        lhs = sum(
            (-1) ** k * x * Fraction(odd_double_factorial(k) ** 2, (2 * k + 1) * 4**k)
            for k, x in enumerate(row)
        )
        yield (f"n={n}", lhs, numbers.bernoulli(2 * n))
