"""Exact lower-triangular matrix algebra over the rationals.

Every matrix in this package is a finite leading block of an infinite
lower-triangular matrix, so truncation consistency (the order-k block of an
order-N build equals the order-k build) is a tested property throughout.

Exact values are held as an int when integral and as a Fraction otherwise
(see _exact).  Products and inverses run on a scaled-integer kernel: each
rational row or column is scaled once to ints by the lcm of its
denominators (_scaled), the work is done in int arithmetic, and each result
entry is divided back once (_ratio).  Integral matrices skip the scaling.
The inverse is one fraction-free column solve for every matrix; a +1/-1
pivot never grows a column's denominator, so an integral matrix with a
+1/-1 diagonal is inverted in int arithmetic throughout.  The package's
rational builds use the same two helpers: the Bernoulli recurrence, the
Stirling triangles, the Seidel arrays, the Akiyama-Tanigawa engine and the
closed-form connection matrices each run in int arithmetic over one common
denominator per build, row or sequence.
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
        return cls.from_rule(lambda i, j: 1 if i == j else 0, order)

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

    def inverse(self) -> "TriMatrix":
        """Exact inverse by fraction-free forward substitution.

        The matrix is first scaled row by row to an int matrix R = D A, with
        D diagonal, and R is inverted one column at a time: the column's
        entries are int numerators over one common denominator.  An entry
        is its row's sum over den * R[i][i], so the denominator grows only
        by the part of the pivot R[i][i] that does not divide the sum; a
        +1/-1 pivot divides every sum, so an integral matrix with a +1/-1
        diagonal keeps a denominator of 1 and comes out all int.
        Then inverse(A) = inverse(R) D, so column j is scaled back by D[j].

        Raises SingularMatrixError naming the first zero diagonal index.
        """
        rows = self._rows
        for i, row in enumerate(rows):
            if row[i] == 0:
                raise SingularMatrixError(i)
        n = len(rows)
        r, scales = zip(*map(_scaled, rows))
        inv: list[list[Scalar]] = [[] for _ in range(n)]
        for j in range(n):
            # column j of inverse(R): entry (j + t, j) is p[t] / den
            rjj = r[j][j]
            p, den = [1 if rjj > 0 else -1], abs(rjj)
            for i in range(j + 1, n):
                num = -sum(map(mul, r[i][j:i], p))
                # entry (i, j) is num / (den * d): the part f of the pivot d
                # that does not divide num grows the denominator
                d = r[i][i]
                if num % d:
                    f = abs(d) // gcd(num, d)
                    p = [x * f for x in p]
                    den *= f
                    num *= f
                p.append(num // d)
            dj = scales[j]
            if den != 1 or dj != 1:
                p = [_ratio(x * dj, den) for x in p]
            for t, x in enumerate(p):
                inv[j + t].append(x)
        return TriMatrix._trusted(tuple(map(tuple, inv)))

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
