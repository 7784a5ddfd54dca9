"""Connection matrices between polynomial bases and the identity catalog.

The central object is the triangular matrix that rewrites the odd-index
Fibonacci basis as the even-index one; its entries are scaled Genocchi
numbers, its eigenvalues are 1, 2, 3, ... with central-factorial columns as
eigenvectors, and its inverse carries scaled Bernoulli numbers.  The Lucas
analogue does the same with tangent numbers and half-odd eigenvalues.

CATALOG holds all 56 identities in label order, each a Row(kind, reads,
cases) from one adapter: the matrix sides it reads, each at depth + an
offset, and cases(depth, *matrices), which yields (where, reference,
*others).  A factorization or connection identity is one case of whole
matrices, compared by TriMatrix equality (equal kept sides share their row
objects, so a warm check compares them by identity); its where renders a
failure at the first difference, as "entry (i,j)", as "n=i,k=j" for a
product against a triangle, or as "n=i" with row i of each side as a
polynomial when a basis matrix is rewritten.  A summation identity has one
case per n, a weighted sum along a row of one triangle (6.6 to 6.17, the
sums the Akiyama-Tanigawa engine's first column computes on Stirling
triangles, and 4.17, Seidel's alternating Genocchi sum, column 0 of E G = O
up to sign, on the choose-even matrix E) or over a binomial row (4.48, the
one label that reads no matrix), summed in ints over the scales of its terms
and divided back once.  Each matrix side is data, a _Side: a builder read by
name (stirling2 of a preset, basis_matrix of a basis, genocchi_matrix, ...)
or a @ b, a + b, x.inv, x.cols(scale), x.down(), x.drop(), x.sums() or
x.diffs() of other sides.  A product with an inverse operand is a solve
against the matrix it inverts, so x.inv @ b is the side x.solve(b) and a @
x.inv the side x.solve_right(a), and a catalog run inverts no matrix.  A1, A2
and Z are the prefix sums of the rows of A, the differences of consecutive
A1 rows and the prefix sums of those differences of A^-1.  MATRICES names the
sides the triangle subcommand prints; a weight preset's triangle there is
its stirling2 or stirling1 side.
One evaluator, _Table, plans every read before it builds, builds each side
once at the largest order planned and serves each read as a leading block.
Every table reads its sides through _KEPT, the one store this module keeps
for the life of the process (see _kept): a side read whole (_READ: by a row,
as a named matrix or as a preset's triangle) is kept from its second make,
at the largest order read so far, so a cold verify all, which makes each
side once, keeps nothing, and an operand only, such as Ginv.diffs() under Z,
is made again with the side over it.  A kept side is made again when its
builder on this module is swapped, so a swapped builder is seen by every
label that reads it, when its preset's PRESETS entry changes, when any
number or polynomial cache is edited in place (trimat.Cache counts the
edits), or, for an operator side, when an _OPERATORS entry or a builder
under it changes.  A cache replaced by another object, a swapped function on
numbers or polyalg, a patched _Table.get and a swapped TriMatrix method are
not seen by a kept side.  shared_builds(labels, depth) plans one table for
those rows without running a case, and evaluate(side, order) one for a
single side.  verify(label, depth, table=None), the one runner, reads a
row's sides from that table, or from one it plans for that row alone, drops
each side from the table after its last reader and keeps the report there,
so an alias label such as 4.6 reuses its twin's report.
Labels such as "3.9" or "5.10" are part of the command line contract.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate, pairwise
from math import comb, factorial
from operator import add, matmul, mul, sub
from typing import Any, Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from . import numbers
from .akiyama import odd_double_factorial
from .polyalg import Poly, basis_matrix
from .reports import IdentityReport, UnknownIdentityError
from .stirling import PRESETS, _unshifted, preset, stirling1, stirling2
from .trimat import Cache, TriMatrix, _ratio, _scaled

# ----------------------------------------------------------------------
# matrix builders


def genocchi_matrix(order: int) -> TriMatrix:
    """Matrix taking the odd Fibonacci basis to the even one."""
    g = [numbers.genocchi(d + 1) for d in range(order)]

    def rule(n: int, k: int) -> Fraction | int:
        return _ratio((-1) ** (n - k) * comb(2 * n + 2, 2 * k) * g[n - k], 2 * k + 1)

    return TriMatrix.from_rule(rule, order)


def genocchi_matrix_squared(order: int) -> TriMatrix:
    """Closed form for the square of the Genocchi matrix."""
    g = [numbers.genocchi(d + 2) for d in range(order)]

    def rule(n: int, k: int) -> Fraction | int:
        return _ratio(
            (-1) ** (n - k) * comb(2 * n + 2, 2 * k) * (n + k + 2) * g[n - k],
            (2 * k + 1) * (n + 2 - k),
        )

    return TriMatrix.from_rule(rule, order)


def genocchi_matrix_inverse(order: int) -> TriMatrix:
    """Closed form for the inverse of the Genocchi matrix."""
    b = [numbers.bernoulli(2 * d) for d in range(order)]

    def rule(j: int, k: int) -> Fraction | int:
        x = b[j - k]
        return _ratio(comb(2 * j + 1, 2 * k + 1) * x.numerator, x.denominator * (k + 1))

    return TriMatrix.from_rule(rule, order)


def tangent_matrix(order: int) -> TriMatrix:
    """Matrix taking the even Lucas basis to the odd one."""
    t = [numbers.tangent(d) for d in range(order)]

    def rule(i: int, j: int) -> Fraction | int:
        return _ratio((-1) ** (i - j) * t[i - j] * comb(2 * i + 1, 2 * j), 2 ** (2 * (i - j) + 1))

    return TriMatrix.from_rule(rule, order)


def tangent_matrix_inverse(order: int) -> TriMatrix:
    """Closed form for the inverse of the tangent matrix.

    Carries a leading factor 2; the variant without it (a regression
    fixture in the tests) is a near miss that already fails at order 1.
    """
    b = [numbers.bernoulli(2 * d) for d in range(order)]

    def rule(i: int, j: int) -> Fraction | int:
        x = b[i - j]
        return _ratio(2 * comb(2 * i, 2 * j) * x.numerator, x.denominator * (2 * j + 1))

    return TriMatrix.from_rule(rule, order)


def _genocchi_over_lucas(order: int) -> TriMatrix:
    """The tangent matrix in Genocchi numbers: (-1)**d C(2n+1, 2k) G(d+1) / (2d+2), d = n-k."""
    g = [numbers.genocchi(d + 1) for d in range(order)]

    def rule(n: int, k: int) -> Fraction | int:
        d = n - k
        return _ratio((-1) ** d * comb(2 * n + 1, 2 * k) * g[d], 2 * d + 2)

    return TriMatrix.from_rule(rule, order)


def c_matrix(order: int) -> TriMatrix:
    """Signed augmented Pascal matrix: entry (i, j) is (-1)**(i-j) C(i+1, j)."""
    return TriMatrix.from_rule(lambda i, j: (-1) ** (i - j) * comb(i + 1, j), order)


def c_matrix_inverse(order: int) -> TriMatrix:
    """Closed-form inverse of the signed augmented Pascal matrix."""
    b = [numbers.bernoulli_b(d) for d in range(order)]

    def rule(i: int, j: int) -> Fraction | int:
        x = b[i - j]
        return _ratio(comb(i, j) * x.numerator, x.denominator * (j + 1))

    return TriMatrix.from_rule(rule, order)


def pascal_matrix(order: int) -> TriMatrix:
    return TriMatrix.from_rule(lambda i, j: comb(i, j), order)


def pascal_plus_matrix(order: int) -> TriMatrix:
    return TriMatrix.from_rule(lambda i, j: comb(i + 1, j), order)


def choose_even_matrix(order: int) -> TriMatrix:
    """Entry (i, j) is C(i+1, 2i-2j)."""
    return TriMatrix.from_rule(lambda i, j: comb(i + 1, 2 * i - 2 * j), order)


def choose_odd_matrix(order: int) -> TriMatrix:
    """Entry (i, j) is C(i+1, 2i-2j+1)."""
    return TriMatrix.from_rule(lambda i, j: comb(i + 1, 2 * i - 2 * j + 1), order)


def _cols(m: TriMatrix, scale: Callable[[int], Fraction | int]) -> TriMatrix:
    """m with column j multiplied by scale(j), that is m @ diag(scale(0), scale(1), ...)."""
    scales = [scale(j) for j in range(m.order)]
    return TriMatrix([map(mul, row, scales) for row in m.rows])


# ----------------------------------------------------------------------
# identity catalog


class _Side(NamedTuple):
    """A matrix side of a catalog case, as data; _Table builds it at an order.

    op names a builder on this module, read with args (its family: a preset
    or basis name) before the order, or one of _OPERATORS, applied to args.
    """

    op: str
    args: tuple = ()

    def __add__(self, other: _Side) -> _Side:
        """self + other, entrywise; not the concatenation of two tuples."""
        return _Side("+", (self, other))

    def __matmul__(self, other: _Side) -> _Side:
        """self @ other; with an inverse operand, a solve against the matrix it inverts."""
        if self.op == "inv":
            return _Side("solve", (self.args[0], other))
        if other.op == "inv":
            return _Side("solve_right", (self, other.args[0]))
        return _Side("@", (self, other))

    @property
    def inv(self) -> _Side:
        """Marks self as an inverse operand, which __matmul__ turns into a solve."""
        return _Side("inv", (self,))

    def cols(self, scale: Callable[[int], Fraction | int]) -> _Side:
        """self @ diag(scale(0), scale(1), ...)."""
        return _Side("cols", (self, scale))

    def down(self) -> _Side:
        """self moved down one row, over a zero first row."""
        return _Side("down", (self,))

    def drop(self) -> _Side:
        """self without its first row and column, cut from one order more."""
        return _Side("drop", (self,))

    def sums(self) -> _Side:
        """Prefix sums along each row of self."""
        return _Side("sums", (self,))

    def diffs(self) -> _Side:
        """Row n of self minus row n + 1, read from one order more."""
        return _Side("diffs", (self,))


# One check of a catalog identity: (where, reference, *others).  It holds
# when every other side equals the reference.  Its sides are scalars, or the
# whole matrices of a factorization or connection row, whose where renders
# their first difference.
Case = Tuple[Any, ...]


class Row(NamedTuple):
    """A catalog row: its kind, the matrix sides it reads and its cases.

    reads holds (side, offset) pairs, each side read at depth + offset;
    cases(depth, *matrices) yields the checks over those matrices.
    """

    kind: str
    reads: Tuple[Tuple[_Side, int], ...]
    cases: Callable[..., Iterable[Case]]


# op -> (offset, f): f takes the operands of a side, each read at the side's
# order + offset, and its other args; the identity, which has no operand,
# takes the order.  Each operator is a kernel call (@, solve, solve_right,
# drop) or plain int and Fraction arithmetic at one operation per entry,
# where scaling to ints would cost more than it saves (see trimat).
_OPERATORS: Dict[str, Tuple[int, Callable[..., TriMatrix]]] = {
    "@": (0, matmul),
    "+": (0, lambda a, b: TriMatrix([map(add, x, y) for x, y in zip(a.rows, b.rows)])),
    "down": (0, lambda m: TriMatrix([(0,), *((*row, 0) for row in m.rows[:-1])])),
    "solve": (0, lambda x, b: x.solve(b)),  # x^-1 @ b
    "solve_right": (0, lambda a, x: x.solve_right(a)),  # a @ x^-1
    "cols": (0, _cols),
    "drop": (1, lambda m: m.drop_leading()),
    "sums": (0, lambda m: TriMatrix([accumulate(row) for row in m.rows])),
    "diffs": (1, lambda m: TriMatrix([map(sub, a, b) for a, b in pairwise(m.rows)])),
    "identity": (0, TriMatrix.identity),
}


class _Table:
    """Builds each planned side once and serves every read of it as a leading block.

    Truncation commutes with building and with every operator, so a side is
    built once, at the largest order planned for it.  Every read is planned
    before the table is read: a side read but never planned is a KeyError.
    Every side comes through _kept, which serves it from _KEPT while it
    holds there.
    """

    def __init__(self, runs: Iterable[Tuple[Row, int]] = ()):
        self.planned: Dict[_Side, int] = {}  # side -> largest order the run reads
        self.last: Dict[_Side, Optional[Row]] = {}  # side -> the last row that reads it
        self.entries: Dict[_Side, TriMatrix] = {}
        self.keys: Dict[_Side, tuple] = {}  # side -> the _key of what its entry was made from
        self.reports: Dict[Tuple[Row, int], IdentityReport] = {}
        self.runs = dict.fromkeys(runs)  # the (row, depth) planned, in the order they run
        for row, depth in self.runs:
            for side, offset in row.reads:
                self.plan(side, depth + offset, row)

    def plan(self, side: _Side, order: int, reader: Optional[Row] = None) -> None:
        """Plan a read of side at the order, with the reads it makes of its operands."""
        self.planned[side] = max(self.planned.get(side, 0), order)
        self.last[side] = reader
        offset = _OPERATORS[side.op][0] if side.op in _OPERATORS else 0
        for x in side.args:
            if isinstance(x, _Side):
                self.plan(x, order + offset, reader)

    def get(self, side: _Side, order: int) -> TriMatrix:
        m = self.entries.get(side)
        if m is None:
            key, m = _kept(side, self.planned[side], self.make)
            self.keys[side], self.entries[side] = key, m
        return m if m.order == order else m.leading_submatrix(order)

    def make(self, side: _Side, order: int) -> Tuple[tuple, TriMatrix]:
        """(key, side at the order): a builder call, or its operator over operands from this table.

        The key is _key(side) as of the operands this table read, which it
        may have held since before a change.
        """
        op, args = side
        if op in _OPERATORS:
            offset, f = entry = _OPERATORS[op]
            operands = [self.get(x, order + offset) if isinstance(x, _Side) else x for x in args]
            key = (entry, *(self.keys[x] if isinstance(x, _Side) else id(x) for x in args))
            return key, f(*operands or [order])
        build = globals()[op]  # looked up now, so that a swapped builder is seen
        stirling = op in ("stirling1", "stirling2")
        return _key(side), build(*(map(preset, args) if stirling else args), order)


def _key(side: _Side) -> tuple:
    """What a kept build of the side was made from; the build is read while this is unchanged.

    For a builder side: the builder that its name looks up, Cache.edits and,
    for a Stirling side, the PRESETS entry its preset name resolves to
    (preset makes a new spec for a shifted name on every call).  For an
    operator side: its _OPERATORS entry, its other args by identity and the
    keys of its operands, down to the builder sides under it.
    """
    op, args = side
    if op in _OPERATORS:
        return (_OPERATORS[op], *(_key(x) if isinstance(x, _Side) else id(x) for x in args))
    key = (globals()[op], Cache.edits)
    if op in ("stirling1", "stirling2"):
        key += tuple(PRESETS.get(_unshifted(name)[0]) for name in args)
    return key


# The builds kept for the life of the process: side -> (key, build).  See _kept.
_KEPT: Dict[_Side, Tuple[tuple, TriMatrix]] = {}
# The sides made once, which _kept keeps when they are made again if in _READ.
_SEEN: set = set()


def _kept(side: _Side, order: int,
          make: Callable[[_Side, int], Tuple[tuple, TriMatrix]]) -> Tuple[tuple, TriMatrix]:
    """(key, build) of a side at the order or above, kept in _KEPT.

    A kept build is read while its order is at least the order read and its
    key is the side's _key now.  Otherwise make builds the side at the order
    read, and its key is what that build was made from.  A side in _READ
    enters _KEPT on its second make, so a run that makes each side once, such
    as a cold verify all, keeps nothing.  A build that enters replaces the
    side's kept build, so _KEPT holds one order of each side, and takes its
    leading rows from the kept build whose leading rows equal the most of
    them (_share): a side that grows keeps its old row objects, and equal
    sides, such as the two of an identity that holds, are held once and
    compare row by row as the same objects.  A kept build whose key no longer
    holds is dropped before make runs; one that is only too small stays while
    the larger build is made, so _share can give the larger build its rows.
    """
    held = _KEPT.get(side)
    if held:
        if held[0] != _key(side):
            del _KEPT[side]
        elif held[1].order >= order:
            return held
    key, m = make(side, order)
    if side not in _SEEN or side not in _READ:
        _SEEN.add(side)
        return key, m
    _KEPT[side] = key, _share(m)
    return _KEPT[side]


def _share(m: TriMatrix) -> TriMatrix:
    """m over the row objects of the kept build whose leading rows equal the most of m's."""
    rows, best = m.rows, ()
    for _, kept in _KEPT.values():
        n = 0
        for a, b in zip(rows, kept.rows):
            if a is not b and a != b:
                break
            n += 1
        if n > len(best):
            best = kept.rows[:n]
    return TriMatrix._trusted(best + rows[len(best):]) if best else m


def evaluate(side: _Side, order: int) -> TriMatrix:
    """side at the order, from a table planned for this one read."""
    if order < 1:
        raise ValueError("order must be >= 1")
    table = _Table()
    table.plan(side, order)
    return table.get(side, order)


def shared_builds(labels: Iterable[str], depth: int) -> _Table:
    """One _Table planned for the verify calls of these labels at the depth.

    Pass it to each call as its table.  It holds each side from its first
    read to its last reader, so a builder or cache changed in between is
    seen only by a new table.
    """
    return _Table((CATALOG[label], depth) for label in labels if label in CATALOG)


def _first_entry(where: str, reference: TriMatrix, *others: TriMatrix) -> Tuple[str, str, str]:
    """Renders a failing case at the first differing entry (i, j) of its first differing side."""
    other = next(m for m in others if m != reference)
    i, j = reference.first_difference(other)
    return where.format(i, j), str(reference[i, j]), str(other[i, j])


def _first_row(reference: TriMatrix, *others: TriMatrix) -> Tuple[str, str, str]:
    """Renders a failing case at the earliest row n that differs in any side, as polynomials."""
    n = min(reference.first_difference(m)[0] for m in others if m != reference)
    other = next(m for m in others if m.rows[n] != reference.rows[n])
    return f"n={n}", str(Poly(reference.rows[n])), str(Poly(other.rows[n]))


def _matrices(*sides: _Side, kind: str = "factorization", offset: int = 0,
              at: Callable[..., tuple] = partial(_first_entry, "entry ({},{})")) -> Row:
    """An identity as one case of whole matrices, each side read at order depth + offset.

    It holds when every side equals the first; its where, at, renders it if it fails.
    """
    return Row(kind, tuple((side, offset) for side in sides), lambda depth, *ms: [(at, *ms)])


def _poly_rows(reference: _Side, *products: _Side) -> Row:
    """A connection identity: products, such as coefficients @ a basis, equal to a basis matrix."""
    return _matrices(reference, *products, kind="connection", offset=1, at=_first_row)


def _entries(product: _Side, triangle: _Side) -> Row:
    """A connection identity: a product equal to a triangle, entry (n, k) by entry."""
    at = partial(_first_entry, "n={},k={}")
    return _matrices(product, triangle, kind="connection", offset=1, at=at)


def _row_sums(triangle: _Side, weight: Callable[[int, int], Fraction | int],
              rhs: Callable[[int], Fraction | int], first: int = 0) -> Row:
    """A summation identity as weighted sums along the rows of one triangle.

    Case n, for first <= n <= depth, compares sum_k weight(n, k) x_k over
    row n - first of the triangle, read at order depth + 1 - first, with
    rhs(n).
    """

    def cases(depth: int, matrix: TriMatrix) -> Iterator[Case]:
        rows = matrix.rows
        for n in range(first, depth + 1):
            row, dr = _scaled(rows[n - first])
            weights, dw = _scaled([weight(n, k) for k in range(len(row))])
            yield (f"n={n}", _ratio(sum(map(mul, weights, row)), dw * dr), rhs(n))

    return Row("summation", ((triangle, 1 - first),), cases)


def kaneko_cases(depth: int) -> Iterator[Case]:
    """Weighted Bernoulli recurrence over a shifted binomial row.

    Two forms are checked for every n up to the bound: the full sum over
    C(n+1, i) (n+i+1) B(n+i), which vanishes for all n >= 0, and the
    even-index partial sum over C(n+1, 2n-2j+1) (2j+1) B(2j), which equals
    C(n+1, 2n), that is 1 for n <= 1 and 0 afterwards.
    """
    for n in range(depth + 1):
        b, d = _scaled([numbers.bernoulli(n + i) for i in range(n + 2)])
        full = sum(comb(n + 1, i) * (n + i + 1) * x for i, x in enumerate(b))
        yield (f"n={n}", _ratio(full, d), 0)
        b, d = _scaled([numbers.bernoulli(2 * j) for j in range(n + 1)])
        partial = sum(comb(n + 1, 2 * n - 2 * j + 1) * (2 * j + 1) * x for j, x in enumerate(b))
        yield (f"n={n} (partial form)", _ratio(partial, d), comb(n + 1, 2 * n))


_s2 = lambda name: _Side("stirling2", (name,))  # noqa: E731
_s1 = lambda name: _Side("stirling1", (name,))  # noqa: E731
_LS, _t = _s2("legendre-stirling"), _s1("central-factorial")
_Tsh, _tsh = _s2("central-factorial-shifted"), _s1("central-factorial-shifted")
_LSsh = _s2("legendre-stirling-shifted")
_Ssh, _ssh = _s2("stirling-shifted"), _s1("stirling-shifted")
_S, _s = _s2("stirling"), _s1("stirling")
_U, _u = _s2("u-half-odd"), _s1("u-half-odd")
_V = _s2("v-product-quarter")
_T2, _t2 = _s2("central-factorial-shifted-shifted"), _s1("central-factorial-shifted-shifted")
_Fodd, _Feven = _Side("basis_matrix", ("F_odd",)), _Side("basis_matrix", ("F_even",))
_Leven, _Lodd = _Side("basis_matrix", ("L_even",)), _Side("basis_matrix", ("L_odd",))
# Row k of _Sodd is F(2k+1) + F(2k+2), of _Seven F(2k) + F(2k+1).
_Sodd, _Seven = _Fodd + _Feven, _Fodd + _Feven.down()
_G, _Ginv = _Side("genocchi_matrix"), _Side("genocchi_matrix_inverse")
_A1 = _G.sums()
_A2, _Z = _A1.diffs(), _Ginv.diffs().sums()
_B, _Binv = _Side("tangent_matrix"), _Side("tangent_matrix_inverse")
_C, _Cinv = _Side("c_matrix"), _Side("c_matrix_inverse")
_P, _Pplus = _Side("pascal_matrix"), _Side("pascal_plus_matrix")
_E, _O = _Side("choose_even_matrix"), _Side("choose_odd_matrix")

# The named matrices of the triangle subcommand, by command line name.
MATRICES: Dict[str, _Side] = {
    "genocchi-matrix": _G, "genocchi-matrix-squared": _Side("genocchi_matrix_squared"),
    "genocchi-matrix-inverse": _Ginv, "tangent-matrix": _B, "tangent-matrix-inverse": _Binv,
    "a1": _A1, "a2": _A2, "z": _Z, "c-matrix": _C, "c-matrix-inverse": _Cinv,
    "pascal": _P, "pascal-plus": _Pplus, "choose-even": _E, "choose-odd": _O,
    "f-odd": _Fodd, "f-even": _Feven, "l-even": _Leven, "l-odd": _Lodd,
}

_nat = lambda j: j + 1  # noqa: E731

_even_fibonacci_via_genocchi = _poly_rows(_Feven, _G @ _Fodd)
_odd_fibonacci_via_bernoulli = _poly_rows(_Fodd, _Ginv @ _Feven)
_genocchi_via_fibonacci = _matrices(_G, _Feven @ _Fodd.inv)
_genocchi_via_choose = _matrices(_G, _E.inv @ _O)

# label -> Row, in label order, which is the order "verify all"
# reports in.  Labels 4.6, 4.14, 4.15 and 4.46 restate 2.1, 4.11, 4.13 and
# 2.2 with the same Row, so a table checks each of those rows once.
# An eigen-decomposition X diag(scale) X^-1 is X.cols(scale) @ X.inv.
CATALOG: Dict[str, Row] = {
    "2.1": _even_fibonacci_via_genocchi,
    "2.2": _odd_fibonacci_via_bernoulli,
    "2.3": _poly_rows(_Lodd, _B @ _Leven, _Side("_genocchi_over_lucas") @ _Leven),
    "2.4": _poly_rows(_Leven, _Binv @ _Lodd),
    "2.15/2.16-inverse": _matrices(_Side("identity"), _C @ _Cinv),
    "3.9": _matrices(_C, _Pplus @ _P.inv, _Ssh.cols(_nat) @ _ssh),
    "3.10": _matrices(_Pplus, _C @ _P),
    "3.11": _matrices(_Ssh, _P @ _S),
    "3.12": _matrices(_Ssh.cols(_nat), _Pplus @ _S),
    "3.13": _matrices(_P.inv @ _Pplus, _S.cols(_nat) @ _s),
    "3.14": _entries(_Fodd @ _LS, _Tsh),
    "3.15": _entries(_Feven @ _LS, _Tsh.cols(_nat)),
    "3.16": _matrices(_Tsh, _Fodd @ _LS),
    "3.17": _matrices(_Tsh.cols(_nat), _Feven @ _LS),
    "3.18": _matrices(_Feven @ _Fodd.inv, _Tsh.cols(_nat) @ _Tsh.inv),
    "3.19": _matrices(_Fodd.inv @ _Feven, _LS.cols(_nat) @ _LS.inv),
    "3.20": _entries(_E @ _Tsh, _LSsh),
    "3.21": _entries(_O @ _Tsh, _LSsh.cols(_nat)),
    "3.22": _matrices(_LSsh, _E @ _Tsh),
    "3.23": _matrices(_LSsh.cols(_nat), _O @ _Tsh),
    "3.24": _matrices(_E.inv @ _O, _Tsh.cols(_nat) @ _Tsh.inv),
    "3.25": _matrices(_O @ _E.inv, _LSsh.cols(_nat) @ _LSsh.inv),
    "3.26": _matrices(_Feven @ _Fodd.inv, _E.inv @ _O),
    "3.27": _matrices(_E @ _Feven, _O @ _Fodd, _LSsh.cols(_nat) @ _LS.inv),
    "4.6": _even_fibonacci_via_genocchi,
    "4.11": _genocchi_via_fibonacci,
    "4.12": _matrices(_G, _Tsh.cols(_nat) @ _Tsh.inv),
    "4.13": _genocchi_via_choose,
    "4.14": _genocchi_via_fibonacci,
    "4.15": _genocchi_via_choose,
    "4.16": _matrices(_G, _Tsh.cols(_nat) @ _tsh),
    # Row n-1 of E holds C(n, 2k) at column n-1-k: Seidel's sum, 1 at n = 1 and 0 after.
    "4.17": _row_sums(
        _E, lambda n, j: (-1) ** (n - 1 - j) * numbers.genocchi(j + 1),
        lambda n: 1 if n == 1 else 0, first=1,
    ),
    "4.21": _matrices((_Fodd.inv @ _Feven).drop(), _LSsh.cols(lambda j: j + 2) @ _LSsh.inv),
    "4.40": _poly_rows(_Fodd, _A1 @ _Seven),
    "4.42": _poly_rows(_Sodd, _A2 @ _Seven),
    "4.43": _matrices(_A2, _T2.cols(lambda j: j + 2) @ _t2),
    "4.46": _odd_fibonacci_via_bernoulli,
    "4.48": Row("summation", (), kaneko_cases),
    "4.49": _matrices(_Ginv, _Tsh.cols(lambda j: Fraction(1, j + 1)) @ _tsh),
    "4.50": _poly_rows(_Seven, _Z @ _Sodd),
    "5.7": _matrices(_B, _Lodd @ _Leven.inv),
    "5.8": _entries(_Leven @ _V, _U.cols(lambda k: 2)),
    "5.9": _entries(_Lodd @ _V, _U.cols(lambda k: 2 * k + 1)),
    "5.10": _matrices(_B, _U.cols(lambda j: Fraction(2 * j + 1, 2)) @ _u),
    # 6.6 and 6.7 read the stirling-shift preset, not the equal shifted stirling triangle.
    "6.6": _row_sums(
        _s2("stirling-shift"),
        lambda n, k: Fraction((-1) ** k * factorial(k), k + 1),
        lambda n: numbers.bernoulli_b(n),
    ),
    "6.7": _row_sums(
        _s1("stirling-shift"),
        lambda n, k: numbers.bernoulli_b(k),
        lambda n: Fraction((-1) ** n * factorial(n), n + 1),
    ),
    "6.8": _row_sums(
        _Tsh, lambda n, k: (-1) ** k * (k + 1) * factorial(k) ** 2,
        lambda n: (-1) ** (n - 1) * numbers.genocchi(n), first=1,
    ),
    "6.9": _row_sums(
        _tsh, lambda n, k: (-1) ** (n - k - 1) * numbers.genocchi(k + 1),
        lambda n: factorial(n) * factorial(n - 1), first=1,
    ),
    "6.10": _row_sums(
        _Tsh, lambda n, k: (-1) ** k * factorial(k + 1) ** 2,
        lambda n: (-1) ** (n - 1) * numbers.genocchi(n + 1), first=1,
    ),
    "6.11": _row_sums(
        _t, lambda n, k: (-1) ** (n - k) * numbers.genocchi(k + 1), lambda n: factorial(n) ** 2
    ),
    "6.12": _row_sums(
        _LSsh, lambda n, k: (-1) ** (n - k) * factorial(k + 1) ** 2,
        lambda n: numbers.median_genocchi(n + 1),
    ),
    "6.13": _row_sums(
        _T2,
        lambda n, k: (-1) ** (n - k) * factorial(k + 1) * factorial(k + 2),
        lambda n: numbers.genocchi(n + 1) + numbers.genocchi(n + 2),
    ),
    "6.14": _row_sums(
        _t2,
        lambda n, k: (-1) ** (n - k) * (numbers.genocchi(k + 1) + numbers.genocchi(k + 2)),
        lambda n: factorial(n + 1) * factorial(n + 2),
    ),
    "6.15": _row_sums(
        _Tsh, lambda n, k: Fraction((-1) ** k * factorial(k) ** 2, k + 1),
        lambda n: (2 * n + 1) * numbers.bernoulli(2 * n),
    ),
    "6.16": _row_sums(
        _U, lambda n, k: (-4) ** (n - k) * (2 * k + 1) * odd_double_factorial(k) ** 2,
        lambda n: numbers.tangent(n),
    ),
    "6.17": _row_sums(
        _U, lambda n, k: Fraction((-1) ** k * odd_double_factorial(k) ** 2, (2 * k + 1) * 4**k),
        lambda n: numbers.bernoulli(2 * n),
    ),
}

# The sides _kept may keep: those read whole by a row, as a named matrix or a preset triangle.
_READ = {side for row in CATALOG.values() for side, _ in row.reads}
_READ |= {*MATRICES.values(), *(kind(name) for name in PRESETS for kind in (_s1, _s2))}

FACTORIZATION_IDS: Tuple[str, ...] = tuple(
    label for label, row in CATALOG.items() if row.kind == "factorization"
)
CONNECTION_IDS: Tuple[str, ...] = tuple(
    label for label, row in CATALOG.items() if row.kind == "connection"
)


def first_mismatch(cases: Iterable[Case]) -> Optional[Tuple[str, str, str]]:
    """The (where, lhs, rhs) strings of the first case whose sides differ, or None.

    A case of whole matrices is rendered by its where, called with its sides.
    """
    for where, reference, *others in cases:
        for other in others:
            if other != reference:
                if callable(where):
                    return where(reference, *others)
                return (where, str(reference), str(other))
    return None


def verify(label: str, depth: int, table: Optional[_Table] = None) -> IdentityReport:
    """Check one catalog identity at every case up to the depth bound.

    The row's sides come from table if it planned this row at this depth,
    which then drops those this row reads last, and a label whose row the
    table checked at this depth before (an alias such as 4.6, or a repeated
    label) reuses that report.  Otherwise they come from a table planned for
    this one run.  Either table reads its sides through _kept, so a warm
    process makes a kept side again only for a larger order or after a
    builder, preset or cache under it changed.
    """
    if label not in CATALOG:
        raise UnknownIdentityError(label, tuple(CATALOG))
    if depth < 1:
        raise ValueError("depth must be >= 1")
    row = CATALOG[label]
    if table is None or (row, depth) not in table.runs:
        table = _Table([(row, depth)])
    if (row, depth) not in table.reports:
        matrices = [table.get(side, depth + offset) for side, offset in row.reads]
        for side in [s for s, reader in table.last.items() if reader is row]:
            table.entries.pop(side, None)
        found = first_mismatch(row.cases(depth, *matrices))
        table.reports[row, depth] = IdentityReport(label, depth, found is None, found)
    return table.reports[row, depth]._replace(ident=label)
