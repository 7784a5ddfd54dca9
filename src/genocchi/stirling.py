"""Generalized Stirling triangles driven by rational weight sequences.

A weight sequence w maps every index n >= 0 to a rational number.  The
second-kind triangle follows S(n, k) = S(n-1, k-1) + w(k) * S(n-1, k) and
the first-kind triangle follows s(n, k) = s(n-1, k-1) - w(n-1) * s(n-1, k);
as matrices the two are mutual inverses.  Weights may be negative or
fractional: one of the named presets starts at -1/4, so no positivity or
monotonicity is enforced.  For weights with w(0) = 0 the index-shifted
triangle, entry (i, j) being S(i+1, j+1) or s(i+1, j+1), is the triangle
of the shifted weights w(n+1), the preset named with a -shifted suffix.

Both builds run in int arithmetic.  The weights are scaled by the lcm d of
their denominators, so d**(n-k) times entry (n, k) follows the same
recurrence with the int weights d * w, and each entry is divided back once
by d**(n-k).  Integral weights have d = 1 and are used as given.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from .trimat import Scalar, TriMatrix, _exact, _ratio, _scaled


class WeightSpec(NamedTuple):
    """A named total weight sequence n -> w(n).

    Calling the spec gives w(n) as an int when it is integral and as a
    Fraction otherwise; a w(n) that is neither, such as a float or a bool,
    is a TypeError rather than a binary approximation.
    """

    name: str
    w: Callable[[int], Scalar]

    def __call__(self, n: int) -> Scalar:
        x = self.w(n)
        if type(x) not in (int, Fraction):
            raise TypeError(f"weight {self.name} w({n}) = {x!r} is not an int or Fraction")
        return _exact(x)


PRESETS: dict[str, WeightSpec] = {
    "stirling": WeightSpec("stirling", lambda n: n),
    "stirling-shift": WeightSpec("stirling-shift", lambda n: n + 1),
    "central-factorial": WeightSpec("central-factorial", lambda n: n * n),
    "legendre-stirling": WeightSpec("legendre-stirling", lambda n: n * (n + 1)),
    "u-half-odd": WeightSpec("u-half-odd", lambda n: Fraction((2 * n + 1) ** 2, 4)),
    "v-product-quarter": WeightSpec(
        "v-product-quarter", lambda n: Fraction((2 * n - 1) * (2 * n + 1), 4)
    ),
}


def preset(name: str) -> WeightSpec:
    """Look up a named weight preset, advanced one position per trailing -shifted.

    central-factorial-shifted-shifted is the weight sequence (n+2)**2.
    """
    base, shifts = name, 0
    while base.endswith("-shifted"):
        base, shifts = base[: -len("-shifted")], shifts + 1
    try:
        spec = PRESETS[base]
    except KeyError:
        raise ValueError(
            f"unknown weight preset {base!r}; valid presets: {', '.join(PRESETS)}"
        ) from None
    return shift_weight(spec, shifts) if shifts else spec


def shift_weight(spec: WeightSpec, by: int = 1) -> WeightSpec:
    """Weight sequence advanced by `by` positions, as one offset however large."""
    inner = spec.w
    return WeightSpec(spec.name + "-shifted" * by, lambda n: inner(n + by))


def _second_kind(spec: WeightSpec, order: int, width: int) -> list[list[Scalar]]:
    """Exact rows 0..order-1 of the second-kind triangle, in columns k < width.

    Column k reads only columns up to k, so each row of a narrow build is a
    prefix of the whole triangle's row; only w(k) for k < min(width, order-1)
    are read and scaled.
    """
    weights, d = _scaled([spec(k) for k in range(min(width, order - 1))])

    def rows() -> Iterator[list[int]]:
        row = [1]
        yield row
        for _ in range(1, order):
            # S(n, k) = S(n-1, k-1) + w(k) S(n-1, k), with S(n-1, -1) = S(n-1, n) = 0
            row = list(map(add, [0, *row], [*map(mul, weights, row), 0]))
            if len(row) > width:
                row.pop()
            yield row

    return _unscaled(rows(), d, order)


def _unscaled(rows: Iterable[list[int]], d: int, order: int) -> list[list[Scalar]]:
    """Rows of d**(n-k) times entry (n, k), with each entry divided back once.

    The scaled rows are read one at a time, so only the result is held whole.
    """
    if d == 1:
        return list(rows)
    powers = [d**e for e in range(order)]
    return [list(map(_ratio, row, powers[n::-1])) for n, row in enumerate(rows)]


def stirling2(spec: WeightSpec, order: int) -> TriMatrix:
    """Second-kind triangle for the given weights, as an order-N matrix."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return TriMatrix(_second_kind(spec, order, order))


def stirling1(spec: WeightSpec, order: int) -> TriMatrix:
    """First-kind triangle for the given weights; inverse of stirling2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    weights, d = _scaled([spec(n) for n in range(order - 1)])

    def rows() -> Iterator[list[int]]:
        row = [1]
        yield row
        for wn in weights:
            # s(n, k) = s(n-1, k-1) - w(n-1) s(n-1, k), with s(n-1, -1) = s(n-1, n) = 0
            row = list(map(sub, [0, *row], [*(wn * x for x in row), 0]))
            yield row

    return TriMatrix(_unscaled(rows(), d, order))

