"""Exact lower-triangular matrix algebra over the rationals.

Every matrix in this package is a finite leading block of an infinite
lower-triangular matrix, so truncation consistency (the order-k block of an
order-N build equals the order-k build) is a tested property throughout.

Exact values are held as an int when integral and as a Fraction otherwise
(see _exact).  Products and solves run on a scaled-integer kernel: each
rational row or column is scaled once to ints by the lcm of its
denominators (_scaled), the work is done in int arithmetic, and each result
entry is divided back once (_ratio).  Integral matrices skip the scaling.
x.solve(b), that is x^-1 @ b, is one fraction-free forward substitution per
column of b; a +1/-1 pivot never grows a column's denominator, so an
integral matrix with a +1/-1 diagonal is solved in int arithmetic
throughout.  A product with an inverse operand is a solve and never forms
the inverse: a @ x^-1 is x.solve_right(a), the solve of the anti-transposes
(flip), and inverse() is the solve against the identity.

Scaling pays where each output entry costs many multiply-adds: kernels,
recurrences and dot-product sums.  The package's rational builds of that
kind use the same two helpers, each in int arithmetic over one common
denominator per build, row or sequence: the Bernoulli recurrence, the
Stirling triangles with the Seidel seeds, the Akiyama-Tanigawa engine, the
closed-form connection matrices and the catalog's case sums.  Where an
entry costs one operation, plain int and Fraction arithmetic is faster than
the round trip, so the catalog's entrywise operators (a + b, column scaling,
moving down a row, prefix sums and row differences) do not scale.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Tuple

Scalar = Fraction | int
Rule = Callable[[int, int], Scalar]


def _exact(x) -> Scalar:
    """x as an int when it is integral, else as a Fraction.

    Only ints and Fractions are exact: anything else, a float or a bool
    included, is a TypeError rather than a binary approximation.
    """
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise TypeError(f"{x!r} is not an int or Fraction")
    return x.numerator if x.denominator == 1 else x


def _ratio(num: int, den: int) -> Scalar:
    """num / den for ints with den > 0, as an int when it divides."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return q if r == 0 else Fraction(num, den)


def _scaled(values: Sequence[Scalar]) -> Tuple[Sequence[int], int]:
    """(ints, d): the values times d, the lcm of their denominators.

    A Fraction is scaled through its numerator, since x * d would give an
    integral Fraction rather than an int; so an integral Fraction comes out
    as an int too, and only all-int values are returned as given.
    """
    dens = [x.denominator for x in values if type(x) is not int]
    if not dens:
        return values, 1
    d = lcm(*dens)
    return [x * d if type(x) is int else x.numerator * (d // x.denominator) for x in values], d


class SingularMatrixError(ValueError):
    """Inversion hit a zero diagonal entry."""

    def __init__(self, index: int):
        super().__init__(f"singular matrix: zero diagonal entry at index {index}")
        self.index = index


class TriMatrix:
    """Immutable lower-triangular matrix with exact rational entries.

    Row i stores the entries (i, 0), ..., (i, i); entries with j > i are an
    implicit zero.  An entry is an int when it is integral and a Fraction
    otherwise, whichever of the two it was given as, so equal matrices
    compare and hash equal.  All operations return new values, so matrices
    can be shared freely between threads and identity checks never observe
    mutation.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        packed = []
        for i, row in enumerate(rows):
            entries = tuple(map(_exact, row))
            if len(entries) != i + 1:
                raise ValueError(f"row {i} has {len(entries)} entries, expected {i + 1}")
            packed.append(entries)
        if not packed:
            raise ValueError("order must be >= 1")
        self._rows: Tuple[Tuple[Scalar, ...], ...] = tuple(packed)

    @classmethod
    def _trusted(cls, rows: Iterable[Tuple[Scalar, ...]]) -> "TriMatrix":
        """A matrix over rows that are already exact tuples of lengths 1, 2, ...

        Skips the per-entry normalisation of __init__; only the kernel's own
        results and slices of existing matrices come through here.
        """
        m = object.__new__(cls)
        m._rows = tuple(rows)
        return m

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_rule(cls, rule: Rule, order: int) -> "TriMatrix":
        """Materialize the entries rule(i, j) for all j <= i < order."""
        return cls([[rule(i, j) for j in range(i + 1)] for i in range(order)])

    @classmethod
    def identity(cls, order: int) -> "TriMatrix":
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls._trusted((0,) * i + (1,) for i in range(order))

    # ------------------------------------------------------------------
    # accessors

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        return self._rows

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        i, j = ij
        n = self.order
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i},{j}) outside order-{n} matrix")
        return self._rows[i][j] if j <= i else 0

    def column(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(self[i, j] for i in range(self.order))

    # ------------------------------------------------------------------
    # algebra

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        """Exact product; both operands must have the same order.

        Each row of self and each column of other is scaled to ints by the
        lcm of its denominators, so every entry is an int dot product
        divided back once by the two scales.
        """
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        n, a, b = self.order, self._rows, other._rows
        # cols[j] holds the entries (j, j), ..., (n-1, j) of other, so entry
        # (i, j) of the product is the dot product of a[i][j:] with it.
        cols = [[b[k][j] for k in range(j, n)] for j in range(n)]
        right = [_scaled(col) for col in cols]
        return TriMatrix._trusted(
            tuple(
                _ratio(sum(map(mul, row[j:], col)), dr * dc)
                for j, (col, dc) in zip(range(i + 1), right)
            )
            for i, (row, dr) in enumerate(map(_scaled, a))
        )

    __matmul__ = mul

    def solve(self, b: "TriMatrix") -> "TriMatrix":
        """self^-1 @ b by fraction-free forward substitution, never forming self^-1.

        self is first scaled row by row to an int matrix R = D A, with D
        diagonal, so that A^-1 B = R^-1 (D B), and R y = c is solved one
        column at a time, c being column j of D B scaled to ints by the lcm
        s of its denominators.  The column's entries are int numerators over
        one common denominator: an entry is its row's sum over den * R[i][i],
        so the denominator grows only by the part of the pivot R[i][i] that
        does not divide the sum, and a +1/-1 pivot divides every sum.  Each
        entry is divided back once, by den * s.

        Raises SingularMatrixError naming the first zero diagonal index.
        """
        if self.order != b.order:
            raise ValueError(f"order mismatch: {self.order} vs {b.order}")
        self._check_pivots()
        n, rhs = self.order, b._rows
        r, scales = zip(*map(_scaled, self._rows))
        out: list[list[Scalar]] = [[] for _ in range(n)]
        for j in range(n):
            c, s = _scaled([rhs[k][j] for k in range(j, n)])
            # column j of the solution: entry (j + t, j) is p[t] / (den * s)
            p, den = [], 1
            for i in range(j, n):
                num = -sum(map(mul, r[i][j:i], p))
                if c[i - j]:
                    num += c[i - j] * scales[i] * den
                # entry (i, j) is num / (den * d): the part f of the pivot d
                # that does not divide num grows the denominator
                d = r[i][i]
                if num % d:
                    f = abs(d) // gcd(num, d)
                    p = [x * f for x in p]
                    den *= f
                    num *= f
                p.append(num // d)
            if den * s != 1:
                p = [_ratio(x, den * s) for x in p]
            for t, x in enumerate(p):
                out[j + t].append(x)
        return TriMatrix._trusted(map(tuple, out))

    def solve_right(self, a: "TriMatrix") -> "TriMatrix":
        """a @ self^-1, as flip(flip(self).solve(flip(a))), since flip(a @ x) = flip(x) @ flip(a).

        Raises SingularMatrixError naming the first zero diagonal index of
        self, as inverse does, not its index in the flipped matrix.
        """
        self._check_pivots()
        return self.flip().solve(a.flip()).flip()

    def inverse(self) -> "TriMatrix":
        """Exact inverse, as the solve against the identity.

        An integral matrix with a +1/-1 diagonal is inverted in int
        arithmetic throughout.  Raises SingularMatrixError naming the first
        zero diagonal index.
        """
        return self.solve(TriMatrix.identity(self.order))

    def _check_pivots(self) -> None:
        for i, row in enumerate(self._rows):
            if row[i] == 0:
                raise SingularMatrixError(i)

    def flip(self) -> "TriMatrix":
        """The anti-transpose: entry (i, j) moves to (n-1-j, n-1-i), again lower-triangular."""
        rows, n = self._rows, self.order
        return TriMatrix._trusted(
            tuple(rows[i][j] for i in range(n - 1, j - 1, -1)) for j in range(n - 1, -1, -1)
        )

    def leading_submatrix(self, order: int) -> "TriMatrix":
        """Top-left block of the given order."""
        if not (1 <= order <= self.order):
            raise ValueError(f"submatrix order {order} outside 1..{self.order}")
        return TriMatrix._trusted(self._rows[:order])

    def drop_leading(self) -> "TriMatrix":
        """Delete the first row and column."""
        if self.order == 1:
            raise ValueError("cannot drop the only row of an order-1 matrix")
        return TriMatrix._trusted(row[1:] for row in self._rows[1:])

    def first_difference(self, other: "TriMatrix") -> Optional[Tuple[int, int]]:
        """Row-major position of the first differing entry, or None."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        for i in range(self.order):
            for j in range(i + 1):
                if self._rows[i][j] != other._rows[i][j]:
                    return (i, j)
        return None

    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        if self.order <= 6:
            body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
            return f"TriMatrix[{body}]"
        return f"TriMatrix(order={self.order})"
