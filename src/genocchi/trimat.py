"""Exact lower-triangular matrix algebra over the rationals.

Every matrix in this package is a finite leading block of an infinite
lower-triangular matrix, so truncation consistency (the order-k block of an
order-N build equals the order-k build) is a tested property throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Tuple

Scalar = Fraction | int
Rule = Callable[[int, int], Scalar]


class SingularMatrixError(ValueError):
    """Inversion hit a zero diagonal entry."""

    def __init__(self, index: int):
        super().__init__(f"singular matrix: zero diagonal entry at index {index}")
        self.index = index


class TriMatrix:
    """Immutable lower-triangular matrix with exact rational entries.

    Row i stores the entries (i, 0), ..., (i, i); entries with j > i are an
    implicit zero.  All operations return new values, so matrices can be
    shared freely between threads and identity checks never observe
    mutation.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        packed = []
        for i, row in enumerate(rows):
            entries = tuple(Fraction(x) for x in row)
            if len(entries) != i + 1:
                raise ValueError(f"row {i} has {len(entries)} entries, expected {i + 1}")
            packed.append(entries)
        if not packed:
            raise ValueError("order must be >= 1")
        self._rows: Tuple[Tuple[Fraction, ...], ...] = tuple(packed)

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
        vals = [Fraction(v) for v in values]
        if not vals:
            raise ValueError("diagonal needs at least one value")
        return cls([[vals[i] if j == i else 0 for j in range(i + 1)] for i in range(len(vals))])

    # ------------------------------------------------------------------
    # accessors

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return self._rows

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        n = self.order
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i},{j}) outside order-{n} matrix")
        return self._rows[i][j] if j <= i else Fraction(0)

    def column(self, j: int) -> Tuple[Fraction, ...]:
        return tuple(self[i, j] for i in range(self.order))

    def diagonal_entries(self) -> Tuple[Fraction, ...]:
        return tuple(self._rows[i][i] for i in range(self.order))

    # ------------------------------------------------------------------
    # algebra

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        """Exact product; both operands must have the same order."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        a, b = self._rows, other._rows
        rows = []
        for i in range(self.order):
            rows.append(
                [sum(a[i][k] * b[k][j] for k in range(j, i + 1)) for j in range(i + 1)]
            )
        return TriMatrix(rows)

    __matmul__ = mul

    def inverse(self) -> "TriMatrix":
        """Exact inverse by forward substitution.

        Raises SingularMatrixError naming the first zero diagonal index.
        """
        n = self.order
        for i in range(n):
            if self._rows[i][i] == 0:
                raise SingularMatrixError(i)
        inv: list[list[Fraction]] = []
        for i in range(n):
            row = []
            for j in range(i + 1):
                if i == j:
                    row.append(1 / self._rows[i][i])
                else:
                    acc = sum(self._rows[i][k] * inv[k][j] for k in range(j, i))
                    row.append(-acc / self._rows[i][i])
            inv.append(row)
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
