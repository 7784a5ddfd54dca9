"""Row-difference-and-scale matrix engine.

The engine fills a rectangular array downward from a seeded top row using
m(i, j) = w(j) * (m(i-1, j) - m(i-1, j+1)).  Each step consumes one column,
so the top row is allocated with rows + cols entries; the requested window
is then exact, never silently truncated.  The first column realizes the
alternating diagonal-conjugation sums: weighted Stirling row sums, as in 6.6-6.17.
The fill runs in int arithmetic: the seeds are scaled by the lcm s of
their denominators and the weights by theirs, d, so row i holds s * d**i
times the true row, and only the window is divided back, once per entry.
An entry is an int exactly when it is integral.  A seed value that is not
an int or a Fraction, a bool included, is a TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import prod
from typing import Callable, NamedTuple, Tuple

from .stirling import WeightSpec
from .trimat import _ratio, _scaled


class ATSpec(NamedTuple):
    """Weights, seed and extents for one engine run."""

    weights: WeightSpec
    seed: Callable[[int], Fraction | int]
    rows: int
    cols: int


def at_matrix(spec: ATSpec) -> Tuple[Tuple[Fraction | int, ...], ...]:
    """Fill the array and return the requested rows x cols window."""
    if spec.rows < 1 or spec.cols < 1:
        raise ValueError("extents must be >= 1")
    width = spec.cols + spec.rows
    row = [spec.seed(j) for j in range(width)]
    for j, x in enumerate(row):
        if type(x) not in (int, Fraction):
            raise TypeError(f"seed value {x!r} at j={j} is not an int or Fraction")
    weights = [spec.weights(j) for j in range(width - 1)] if spec.rows > 1 else []
    if 0 in weights:
        raise ValueError(f"zero weight w({weights.index(0)}) encountered")
    # The checks above see the values as given; from here on row i holds
    # ints, the true row times scale = s * d**i.
    row, scale = _scaled(row)
    weights, d = _scaled(weights)
    out = []
    for i in range(spec.rows):
        if i:
            row = [w * (a - b) for w, a, b in zip(weights, row, row[1:])]
            scale *= d
        window = row[: spec.cols]
        out.append(tuple(window) if scale == 1 else tuple(map(_ratio, window, repeat(scale))))
    return tuple(out)


def odd_double_factorial(k: int) -> int:
    """Product of the first k odd numbers; empty product is 1."""
    return prod(range(1, 2 * k, 2))
