"""Exact lower-triangular matrix algebra over the rationals.

Every matrix in this package is a finite leading block of an infinite
lower-triangular matrix, so truncation consistency (the order-k block of an
order-N build equals the order-k build) is a tested property throughout.

Exact values are held as an int when integral and as a Fraction otherwise
(see _exact); the connection matrices are mostly integral with unit
diagonals, so their products and inverses stay in int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Tuple

Scalar = Fraction | int
Rule = Callable[[int, int], Scalar]


def _exact(x) -> Scalar:
    """x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class SingularMatrixError(ValueError):
    """Inversion hit a zero diagonal entry."""

    def __init__(self, index: int):
        super().__init__(f"singular matrix: zero diagonal entry at index {index}")
        self.index = index


class TriMatrix:
    """Immutable lower-triangular matrix with exact rational entries.

    Row i stores the entries (i, 0), ..., (i, i); entries with j > i are an
    implicit zero.  An entry is an int when it is integral and a Fraction
    otherwise, whatever type it was given as, so equal matrices compare and
    hash equal.  All operations return new values, so matrices can be
    shared freely between threads and identity checks never observe
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

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_rule(cls, rule: Rule, order: int) -> "TriMatrix":
        """Materialize the entries rule(i, j) for all j <= i < order."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls([[rule(i, j) for j in range(i + 1)] for i in range(order)])

    @classmethod
    def identity(cls, order: int) -> "TriMatrix":
        return cls.from_rule(lambda i, j: 1 if i == j else 0, order)

    @classmethod
    def diagonal(cls, values: Sequence[Scalar]) -> "TriMatrix":
        """Diagonal matrix whose order is the number of values given."""
        vals = [_exact(v) for v in values]
        if not vals:
            raise ValueError("diagonal needs at least one value")
        return cls([[vals[i] if j == i else 0 for j in range(i + 1)] for i in range(len(vals))])

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

    def diagonal_entries(self) -> Tuple[Scalar, ...]:
        return tuple(self._rows[i][i] for i in range(self.order))

    # ------------------------------------------------------------------
    # algebra

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        """Exact product; both operands must have the same order."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        n, a, b = self.order, self._rows, other._rows
        # cols[j] holds the entries (j, j), ..., (n-1, j) of other, so entry
        # (i, j) of the product is the dot product of a[i][j:] with it.
        cols = [[b[k][j] for k in range(j, n)] for j in range(n)]
        return TriMatrix(
            [[sum(map(mul, row[j:], cols[j])) for j in range(i + 1)] for i, row in enumerate(a)]
        )

    __matmul__ = mul

    def inverse(self) -> "TriMatrix":
        """Exact inverse by forward substitution.

        A diagonal entry of +1 or -1 is its own reciprocal, so an integral
        matrix with a unit diagonal is inverted in int arithmetic; any other
        diagonal entry is divided through as a Fraction.

        Raises SingularMatrixError naming the first zero diagonal index.
        """
        rows = self._rows
        for i, row in enumerate(rows):
            if row[i] == 0:
                raise SingularMatrixError(i)
        # cols[j] holds the inverse's entries (j, j), (j+1, j), ... computed so far.
        cols: list[list[Scalar]] = []
        inv = []
        for i, row in enumerate(rows):
            d = row[i]
            neg_recip = -d if d == 1 or d == -1 else Fraction(-1, d)
            out = []
            for j in range(i):
                x = neg_recip * sum(map(mul, row[j:i], cols[j]))
                cols[j].append(x)
                out.append(x)
            out.append(-neg_recip)
            cols.append([-neg_recip])
            inv.append(out)
        return TriMatrix(inv)

    def leading_submatrix(self, order: int) -> "TriMatrix":
        """Top-left block of the given order."""
        if not (1 <= order <= self.order):
            raise ValueError(f"submatrix order {order} outside 1..{self.order}")
        return TriMatrix(self._rows[:order])

    def drop_leading(self, count: int = 1) -> "TriMatrix":
        """Delete the first `count` rows and columns."""
        if not (0 < count < self.order):
            raise ValueError(f"cannot drop {count} rows from order {self.order}")
        return TriMatrix(
            [self._rows[i + count][count : i + count + 1] for i in range(self.order - count)]
        )

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
