"""Exact lower-triangular matrix algebra over the rationals.

Every matrix in this package is a finite leading block of an infinite
lower-triangular matrix, so truncation consistency (the order-k block of an
order-N build equals the order-k build) is a tested property throughout.

A TriMatrix holds each row once, as ints over one positive row denominator
that shares no factor with all of them, so an integral row is its ints over
1 and equal matrices compare and hash equal as int tuples.  Products,
solves, slices and the catalog's entrywise operators run in int arithmetic
on that form, and the rational builders emit it directly; a value, an int
when integral and a Fraction otherwise (see _exact), is made only where it
leaves a matrix (rows, m[i, j]).  x.solve(b), that is x^-1 @ b, is one
fraction-free forward substitution per column of b; a +1/-1 pivot never
grows a column's denominator, so an integral matrix with a +1/-1 diagonal
is solved in int arithmetic throughout.  A product with an inverse operand
is a solve and never forms the inverse: a @ x^-1 is x.solve_right(a), the
solve of the anti-transposes (flip), and inverse() is the solve against
the identity.

Holding the rows scaled pays twice: a product or solve entry costs many
multiply-adds, which run on ints, and an entrywise operator costs one int
operation per entry and one gcd per rational row, where a Fraction costs a
gcd per entry.  The package's other rational builds of the kernel kind
scale through _scaled and divide back through _ratio, each over one common
denominator per build, row or sequence: the Bernoulli recurrence, the
Stirling weights, the Seidel seeds, the Akiyama-Tanigawa engine and the
catalog's case sums.

Cache, the list type of the number and polynomial caches, lives here
beside _scaled and _ratio, at the bottom of the imports: it counts the
in-place edits of every cache, so that connect can tell whether a build it
keeps may read a changed value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Optional, Sequence, Tuple

Scalar = Fraction | int
Rule = Callable[[int, int], Scalar]
ScaledRow = Tuple[Tuple[int, ...], int]  # (nums, den), entry j being nums[j] / den


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


def _reduced(row: Tuple[Iterable[int], int]) -> ScaledRow:
    """(nums, den) with den > 0 in the stored form, divided by gcd(den, *nums)."""
    nums, den = tuple(row[0]), row[1]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple([x // g for x in nums]), den // g
    return nums, den


def _over_lcm(rows: Sequence[ScaledRow]) -> Tuple[Sequence[Sequence[int]], int]:
    """(ints, s): the stored rows' ints brought over s, the lcm of their denominators."""
    s = lcm(*(den for _, den in rows))
    return [nums if den == s else [x * (s // den) for x in nums] for nums, den in rows], s


class Cache(list):
    """A number or polynomial cache that counts the edits made to it.

    Every list method that can change or drop a held value (item and slice
    assignment, del, pop, insert, remove, clear, sort, reverse and *=) adds
    1 to Cache.edits, one count shared by every cache: a result computed
    from cached values is still current while the count is unchanged.
    append, extend and += only grow a cache, by values computed from the
    held ones, so they count nothing.
    """

    edits = 0


def _counted(method):
    def counted(self, *args, **kwargs):
        Cache.edits += 1
        return method(self, *args, **kwargs)

    counted.__name__, counted.__qualname__ = method.__name__, f"Cache.{method.__name__}"
    return counted


for _name in ("__setitem__", "__delitem__", "__imul__", "pop", "insert", "remove", "clear",
              "sort", "reverse"):
    setattr(Cache, _name, _counted(getattr(list, _name)))


class SingularMatrixError(ValueError):
    """Inversion hit a zero diagonal entry."""

    def __init__(self, index: int):
        super().__init__(f"singular matrix: zero diagonal entry at index {index}")
        self.index = index


class TriMatrix:
    """Immutable lower-triangular matrix with exact rational entries.

    Row i holds the entries (i, 0), ..., (i, i); entries with j > i are an
    implicit zero.  The row is stored once as a pair (nums, den), an int
    tuple and an int den > 0 with gcd(den, *nums) = 1, entry (i, j) being
    nums[j] / den.  The form is unique, so equal matrices compare and hash
    equal.  rows and m[i, j] read entries as values, an int when integral
    and a Fraction otherwise.  All operations return new values, so matrices
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
            # over the lcm of reduced denominators, the ints share no factor with it
            nums, den = _scaled(entries)
            packed.append((tuple(nums), den))
        if not packed:
            raise ValueError("order must be >= 1")
        self._rows: Tuple[ScaledRow, ...] = tuple(packed)

    @classmethod
    def _trusted(cls, rows: Iterable[ScaledRow]) -> "TriMatrix":
        """A matrix over rows already in the stored form, of lengths 1, 2, ...

        Skips the reduction of from_scaled; only rows that keep the form,
        such as slices of existing matrices, come through here.
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
    def from_ratios(cls, rule: Callable[[int, int], Tuple[int, int]], order: int) -> "TriMatrix":
        """Materialize the entries num / den, for (num, den) = rule(i, j) with den > 0.

        Each row is held over the lcm of its entries' dens in lowest terms.
        """
        if order < 1:
            raise ValueError("order must be >= 1")

        def row(i: int) -> ScaledRow:
            nums, dens = [], []
            for num, den in (rule(i, j) for j in range(i + 1)):
                g = gcd(num, den)
                nums.append(num // g)
                dens.append(den // g)
            d = lcm(*dens)
            return tuple([x if e == d else x * (d // e) for x, e in zip(nums, dens)]), d

        return cls._trusted(map(row, range(order)))

    @classmethod
    def from_scaled(cls, rows: Iterable[Tuple[Iterable[int], int]]) -> "TriMatrix":
        """The matrix of rows nums[j] / den, for (nums, den) of lengths 1, 2, ... and den > 0."""
        return cls._trusted(map(_reduced, rows))

    @classmethod
    def identity(cls, order: int) -> "TriMatrix":
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls._trusted(((0,) * i + (1,), 1) for i in range(order))

    # ------------------------------------------------------------------
    # accessors

    @property
    def order(self) -> int:
        return len(self._rows)

    @property
    def scaled_rows(self) -> Tuple[ScaledRow, ...]:
        """The stored rows: (nums, den) for each row, entry j being nums[j] / den."""
        return self._rows

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The entries as values, made on each read; an integral row is its stored tuple."""
        return tuple(
            nums if den == 1 else tuple([_ratio(x, den) for x in nums]) for nums, den in self._rows
        )

    def cells(self) -> Tuple[Tuple[int | str, ...], ...]:
        """The rows for printing with str, read without making a Fraction.

        An integral row is its ints; another row is the text of its values, p/q in lowest terms.
        """
        return tuple(
            nums if den == 1 else tuple([
                f"{x // g}/{den // g}" if (g := gcd(x, den)) != den else str(x // g) for x in nums
            ])
            for nums, den in self._rows
        )

    def __getitem__(self, ij: Tuple[int, int]) -> Scalar:
        i, j = ij
        n = self.order
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i},{j}) outside order-{n} matrix")
        return _ratio(self._rows[i][0][j], self._rows[i][1]) if j <= i else 0

    def column(self, j: int) -> Tuple[Scalar, ...]:
        return tuple(self[i, j] for i in range(self.order))

    # ------------------------------------------------------------------
    # algebra

    def mul(self, other: "TriMatrix") -> "TriMatrix":
        """Exact product; both operands must have the same order.

        other's rows are brought over s, the lcm of their denominators, so
        entry (i, j) is an int dot product over s times row i's denominator.
        """
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        n = self.order
        b, s = _over_lcm(other._rows)
        # cols[j] holds s times the entries (j, j), ..., (n-1, j) of other, so
        # entry (i, j) of the product is the dot product of a[i][j:] with it.
        cols = [[b[k][j] for k in range(j, n)] for j in range(n)]
        return TriMatrix.from_scaled(
            ([sum(map(mul, row[j:], col)) for j, col in zip(range(i + 1), cols)], den * s)
            for i, (row, den) in enumerate(self._rows)
        )

    __matmul__ = mul

    def solve(self, b: "TriMatrix") -> "TriMatrix":
        """self^-1 @ b by fraction-free forward substitution, never forming self^-1.

        self's stored rows are an int matrix R = D A, with D the diagonal of
        its row denominators, so that A^-1 B = R^-1 (D B), and R y = c is
        solved one column at a time, c being s times column j of D B, s the
        lcm of b's row denominators.  The column's entries are int numerators
        over one common denominator: an entry is its row's sum over
        den * R[i][i], so the denominator grows only by the part of the pivot
        R[i][i] that does not divide the sum, and a +1/-1 pivot divides every
        sum.  Column j is over den * s, and row i of the solution over the
        lcm of those of columns 0..i.

        Raises SingularMatrixError naming the first zero diagonal index.
        """
        if self.order != b.order:
            raise ValueError(f"order mismatch: {self.order} vs {b.order}")
        self._check_pivots()
        n = self.order
        r, scales = zip(*self._rows)
        rhs, s = _over_lcm(b._rows)
        cols = []
        for j in range(n):
            c = [rhs[k][j] for k in range(j, n)]
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
            cols.append((p, den * s))
        over = list(accumulate((e for _, e in cols), lcm))  # over[i]: row i's denominator
        out: list[list[int]] = [[] for _ in range(n)]
        for j, (p, e) in enumerate(cols):
            for t, x in enumerate(p):
                out[j + t].append(x if over[j + t] == e else x * (over[j + t] // e))
        return TriMatrix.from_scaled(zip(out, over))

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
        for i, (nums, _) in enumerate(self._rows):
            if nums[i] == 0:
                raise SingularMatrixError(i)

    def flip(self) -> "TriMatrix":
        """The anti-transpose: entry (i, j) moves to (n-1-j, n-1-i), again lower-triangular."""
        n = self.order
        rows, s = _over_lcm(self._rows)
        return TriMatrix.from_scaled(
            ([rows[i][j] for i in range(n - 1, j - 1, -1)], s) for j in range(n - 1, -1, -1)
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
        return TriMatrix.from_scaled((nums[1:], den) for nums, den in self._rows[1:])

    def first_difference(self, other: "TriMatrix") -> Optional[Tuple[int, int]]:
        """Row-major position of the first differing entry, or None."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        for i, (x, y) in enumerate(zip(self._rows, other._rows)):
            if x != y:
                # rows in the stored form differ only where some entry does
                (a, da), (b, db) = x, y
                return i, next(j for j in range(i + 1) if a[j] * db != b[j] * da)
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
            body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
            return f"TriMatrix[{body}]"
        return f"TriMatrix(order={self.order})"
