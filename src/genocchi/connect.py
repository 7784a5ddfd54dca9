"""Connection matrices between polynomial bases and the identity catalog.

The central object is the triangular matrix that rewrites the odd-index
Fibonacci basis as the even-index one; its entries are scaled Genocchi
numbers, its eigenvalues are 1, 2, 3, ... with central-factorial columns as
eigenvectors, and its inverse carries scaled Bernoulli numbers.  The Lucas
analogue does the same with tangent numbers and half-odd eigenvalues.

CATALOG holds all 56 identities in label order, each a row (kind, cases)
from one adapter.  The cases are (where, reference, *others): one case of
whole matrices for a factorization; one per index n (polynomials) or per
(n, k) pair (scalars) for a connection identity, read off one
coefficient-matrix x basis-matrix product; one per n for a summation
identity, a weighted sum along a row of one Stirling triangle (6.6 to 6.17,
the sums the Akiyama-Tanigawa engine's first column computes) or over a
binomial row (4.17, 4.48).  Every side is a function of the order that reads
its matrices through _get when the label runs, so a builder swapped on this
module is seen by every label that reads it.  verify runs one label's cases
through first_mismatch.  The verify calls made inside shared_builds share
one build table: each (builder, family) is built once, at the largest order
read, and sliced, and an alias label such as 4.6 reuses its twin's report.
Labels such as "3.9" or "5.10" are part of the command line contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate, pairwise, repeat
from math import comb, factorial, lcm
from operator import mul
from typing import Any, Callable, Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from . import numbers
from .akiyama import odd_double_factorial
from .polyalg import Poly, basis_matrix, fib_poly, lucas_poly
from .reports import IdentityReport, UnknownIdentityError
from .stirling import WeightSpec, preset, stirling1, stirling2
from .trimat import TriMatrix, _ratio, _scaled

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


def _differences(rows: Sequence[Sequence[Fraction | int]]) -> Iterator[Tuple[list, int]]:
    """(ints, d) for each row n but the last: rows[n] - rows[n + 1] entrywise, times d.

    d is the lcm of the two rows' denominators, so the differences are ints.
    """
    for (a, da), (b, db) in pairwise(map(_scaled, rows)):
        d = lcm(da, db)
        yield [x * (d // da) - y * (d // db) for x, y in zip(a, b)], d


def a1_matrix(order: int) -> TriMatrix:
    """Partial row sums of the Genocchi matrix, each row summed in ints over its lcm."""
    return TriMatrix([
        list(map(_ratio, accumulate(row), repeat(d)))
        for row, d in map(_scaled, genocchi_matrix(order).rows)
    ])


def a2_matrix(order: int) -> TriMatrix:
    """Difference of consecutive rows of the partial-sum matrix."""
    diffs = _differences(a1_matrix(order + 1).rows)
    return TriMatrix([list(map(_ratio, diff, repeat(d))) for diff, d in diffs])


def z_matrix(order: int) -> TriMatrix:
    """Inverse of the row-difference matrix, in closed form.

    Entry (n, k) sums the first k+1 column-wise differences of consecutive
    rows of the inverse Genocchi matrix.
    """
    diffs = _differences(genocchi_matrix_inverse(order + 1).rows)
    return TriMatrix([list(map(_ratio, accumulate(diff), repeat(d))) for diff, d in diffs])


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
# linear functionals


class LinearFunctional(NamedTuple):
    """Linear functional on polynomials, stored by its monomial moments."""

    name: str
    moments: Tuple[Fraction | int, ...]


def functional_apply(f: LinearFunctional, p: Poly) -> Fraction | int:
    """Dot product of the coefficients of p with the stored moments."""
    if p.degree >= len(f.moments):
        raise ValueError(
            f"functional {f.name} has {len(f.moments)} moments, "
            f"cannot evaluate degree {p.degree}"
        )
    return sum(c * m for c, m in zip(p.coeffs, f.moments))


def lambda_functional(depth: int) -> LinearFunctional:
    """Functional that is 1 on the first odd Fibonacci polynomial, else 0.

    Its monomial moments are the signed median Genocchi numbers.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return LinearFunctional(
        "lambda",
        tuple((-1) ** n * numbers.median_genocchi(n) for n in range(depth)),
    )


def lambda_star_functional(depth: int) -> LinearFunctional:
    """Composition of the lambda functional with multiplication by -s."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return LinearFunctional(
        "lambda-star",
        tuple((-1) ** n * numbers.median_genocchi(n + 1) for n in range(depth)),
    )


def mu_functional(depth: int) -> LinearFunctional:
    """Functional that is 1 on the first even Fibonacci polynomial, else 0.

    The moments are obtained operationally, by expanding monomials in the
    even-index basis, so the even-basis values are definitional while the
    odd-basis values are a theorem pinned down in the tests.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    inv = basis_matrix("F_even", depth).inverse()
    return LinearFunctional("mu", inv.column(0))


def phi_functional(k: int, depth: int) -> LinearFunctional:
    """Functional whose odd-Fibonacci values form a central-factorial column.

    Indexing starts at k = 1; the monomial moments are a column of the
    Legendre-Stirling triangle.
    """
    if k < 1:
        raise ValueError("functional index must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ls = stirling2(preset("legendre-stirling"), max(depth, k))
    return LinearFunctional(f"phi_{k}", tuple(ls[n, k - 1] for n in range(depth)))


# ----------------------------------------------------------------------
# identity catalog


class _Builds:
    """The build table of one shared_builds scope; _get fills and empties it."""

    def __init__(self):
        self.depth = 0  # 0 while the planning pass runs
        self.reads: Dict[tuple, int] = {}  # family -> reads still to come
        self.extra: Dict[tuple, int] = {}  # family -> largest order read minus the depth
        self.entries: Dict[tuple, list] = {}  # family -> [build, its inverse or None]
        self.reports: Dict[tuple, IdentityReport] = {}  # (row, depth) -> report


_builds: Optional[_Builds] = None  # the table of the open shared_builds scope


def _get(build: Callable[..., TriMatrix], *args: Any, inverse: bool = False) -> TriMatrix:
    """build(*args), or its inverse, where the last argument is the order.

    Inside shared_builds, a family (the builder and its other arguments, a
    weight spec by its name) is built once, at the largest order the run
    reads, and dropped after its last read; each read takes a leading block
    of that build or of its inverse, since truncation commutes with inversion.
    """
    t = _builds
    if t is not None:
        *family, order = args
        key = (build, *(a.name if isinstance(a, WeightSpec) else a for a in family))
        if not t.depth:
            t.reads[key] = t.reads.get(key, 0) + 1
            t.extra[key] = max(t.extra.get(key, 0), order - 1)
        elif t.reads.get(key):  # else a read the planning pass did not see: built on its own
            entry = t.entries.get(key)
            if entry is None or entry[0].order < order:
                entry = t.entries[key] = [build(*family, max(order, t.depth + t.extra[key])), None]
            if inverse and entry[1] is None:
                entry[1] = entry[0].inverse()
            t.reads[key] -= 1
            if not t.reads[key]:
                del t.entries[key]
            m = entry[1] if inverse else entry[0]
            return m if m.order == order else m.leading_submatrix(order)
    m = build(*args)
    return m.inverse() if inverse else m


@contextmanager
def shared_builds(labels: Iterable[str], depth: int) -> Iterator[None]:
    """Share one build table (see _get) among the verify calls of these labels made inside.

    A planning pass first runs the labels at depth 1, counting each family's
    reads and orders.  The table lives for the scope only, so a builder or
    cache changed between two scopes is seen by the second.
    """
    global _builds
    outer, _builds = _builds, _Builds()
    try:
        for label in labels:
            if label in CATALOG:
                verify(label, 1)
        _builds.depth = depth
        yield
    finally:
        _builds = outer


_s2 = lambda name: lambda n, **kw: _get(stirling2, preset(name), n, **kw)  # noqa: E731
_s1 = lambda name: lambda n, **kw: _get(stirling1, preset(name), n, **kw)  # noqa: E731
_basis = lambda name: lambda n, **kw: _get(basis_matrix, name, n, **kw)  # noqa: E731
_LS = _s2("legendre-stirling")
_t = _s1("central-factorial")
_Tsh = _s2("central-factorial-shifted")
_tsh = _s1("central-factorial-shifted")
_LSsh = _s2("legendre-stirling-shifted")
_Ssh = _s2("stirling-shifted")
_ssh = _s1("stirling-shifted")
_S = _s2("stirling")
_s = _s1("stirling")
_U = _s2("u-half-odd")
_u = _s1("u-half-odd")
_V = _s2("v-product-quarter")
_T2 = _s2("central-factorial-shifted-shifted")
_t2 = _s1("central-factorial-shifted-shifted")
_Fodd = _basis("F_odd")
_Feven = _basis("F_even")
_Leven = _basis("L_even")
_Lodd = _basis("L_odd")
_fib_sum = lambda m: fib_poly(m) + fib_poly(m + 1)  # noqa: E731
_nat = lambda j: j + 1  # noqa: E731


def _similar(side: Callable[..., TriMatrix], n: int,
             scale: Callable[[int], Fraction | int] = _nat) -> TriMatrix:
    """X @ diag(scale(0), scale(1), ...) @ X.inverse() for X = side(n), from one build of X."""
    x = side(n)
    return _cols(x, scale) @ (x.inverse() if _builds is None else side(n, inverse=True))


# One check of a catalog identity: (where, reference, *others).  It holds
# when every other side equals the reference; the sides are matrices,
# polynomials or scalars.  A catalog row is (kind, cases); each adapter
# below returns one, and calls the sides it takes when the label runs.
Case = Tuple[Any, ...]
Cases = Callable[[int], Iterable[Case]]
Row = Tuple[str, Cases]


def _matrices(sides: Callable[[int], Tuple[TriMatrix, ...]]) -> Row:
    """A factorization as one case: every side built whole at the order."""

    def cases(order: int) -> Iterator[Case]:
        yield ("entry", *sides(order))

    return "factorization", cases


def _poly_rows(
    reference: Callable[[int], Poly],
    basis: Callable[[int], Poly],
    coefficients: Callable[[int], Tuple[TriMatrix, ...]],
) -> Row:
    """A connection identity as the rows of coefficient @ basis matrices.

    Case n compares reference(n) with sum_k C[n, k] basis(k) for each
    coefficient matrix C of coefficients(depth + 1), as row n of the
    product C @ B, where row k of B holds the coefficients of basis(k), a
    polynomial of degree k.
    """

    def cases(depth: int) -> Iterator[Case]:
        order = depth + 1
        b = TriMatrix([basis(k).coeffs for k in range(order)])
        products = [c @ b for c in coefficients(order)]
        for n in range(order):
            yield (f"n={n}", reference(n), *(Poly(p.rows[n]) for p in products))

    return "connection", cases


def _entries(product: Callable[[int], TriMatrix], triangle: Callable[[int], TriMatrix]) -> Row:
    """A connection identity as the entries of one matrix product.

    Case (n, k) compares entry (n, k) of product(depth + 1) with entry
    (n, k) of triangle(depth + 1).
    """

    def cases(depth: int) -> Iterator[Case]:
        lhs, rhs = product(depth + 1).rows, triangle(depth + 1).rows
        for n in range(depth + 1):
            for k in range(n + 1):
                yield (f"n={n},k={k}", lhs[n][k], rhs[n][k])

    return "connection", cases


def _row_sums(
    triangle: Callable[[int], TriMatrix],
    weight: Callable[[int, int], Fraction | int],
    rhs: Callable[[int], Fraction | int],
    first: int = 0,
) -> Row:
    """A summation identity as weighted sums along the rows of one triangle.

    Case n, for first <= n <= depth, compares sum_k weight(n, k) x_k over
    row n - first of triangle(depth + 1 - first) with rhs(n).
    """

    def cases(depth: int) -> Iterator[Case]:
        rows = triangle(depth + 1 - first).rows
        for n in range(first, depth + 1):
            yield (f"n={n}", sum(weight(n, k) * x for k, x in enumerate(rows[n - first])), rhs(n))

    return "summation", cases


def seidel_identity_cases(depth: int) -> Iterator[Case]:
    """Alternating binomial sum of Genocchi numbers: 1 at n = 1, else 0."""
    for n in range(1, depth + 1):
        total = sum(
            (-1) ** k * comb(n, 2 * k) * numbers.genocchi(n - k) for k in range(n // 2 + 1)
        )
        yield (f"n={n}", total, 1 if n == 1 else 0)


def kaneko_cases(depth: int) -> Iterator[Case]:
    """Weighted Bernoulli recurrence over a shifted binomial row.

    Two forms are checked for every n up to the bound: the full sum over
    C(n+1, i) (n+i+1) B(n+i), which vanishes for all n >= 0, and the
    even-index partial sum over C(n+1, 2n-2j+1) (2j+1) B(2j), which equals
    C(n+1, 2n), that is 1 for n <= 1 and 0 afterwards.
    """
    for n in range(depth + 1):
        full = sum(
            comb(n + 1, i) * (n + i + 1) * numbers.bernoulli(n + i) for i in range(n + 2)
        )
        yield (f"n={n}", full, 0)
        partial = sum(
            comb(n + 1, 2 * n - 2 * j + 1) * (2 * j + 1) * numbers.bernoulli(2 * j)
            for j in range(n + 1)
        )
        yield (f"n={n} (partial form)", partial, comb(n + 1, 2 * n))


_even_fibonacci_via_genocchi = _poly_rows(
    lambda n: fib_poly(2 * n + 2),
    lambda k: fib_poly(2 * k + 1),
    lambda n: (_get(genocchi_matrix, n),),
)
_odd_fibonacci_via_bernoulli = _poly_rows(
    lambda n: fib_poly(2 * n + 1),
    lambda k: fib_poly(2 * k + 2),
    lambda n: (_get(genocchi_matrix_inverse, n),),
)
_genocchi_via_fibonacci = _matrices(
    lambda n: (_get(genocchi_matrix, n), _Feven(n) @ _Fodd(n, inverse=True))
)
_genocchi_via_choose = _matrices(lambda n: (
    _get(genocchi_matrix, n),
    _get(choose_even_matrix, n, inverse=True) @ _get(choose_odd_matrix, n),
))

# label -> (kind, cases), in label order, which is the order "verify all"
# reports in.  Labels 4.6, 4.14, 4.15 and 4.46 restate 2.1, 4.11, 4.13 and 2.2.
CATALOG: Dict[str, Row] = {
    "2.1": _even_fibonacci_via_genocchi,
    "2.2": _odd_fibonacci_via_bernoulli,
    "2.3": _poly_rows(
        lambda n: lucas_poly(2 * n + 1),
        lambda k: lucas_poly(2 * k),
        lambda n: (_get(tangent_matrix, n), _get(_genocchi_over_lucas, n)),
    ),
    "2.4": _poly_rows(
        lambda n: lucas_poly(2 * n),
        lambda k: lucas_poly(2 * k + 1),
        lambda n: (_get(tangent_matrix_inverse, n),),
    ),
    "2.15/2.16-inverse": _matrices(
        lambda n: (TriMatrix.identity(n), _get(c_matrix, n) @ _get(c_matrix_inverse, n))
    ),
    "3.9": _matrices(lambda n: (
        _get(c_matrix, n),
        _get(pascal_plus_matrix, n) @ _get(pascal_matrix, n, inverse=True),
        _cols(_Ssh(n), _nat) @ _ssh(n),
    )),
    "3.10": _matrices(lambda n: (
        _get(pascal_plus_matrix, n), _get(c_matrix, n) @ _get(pascal_matrix, n)
    )),
    "3.11": _matrices(lambda n: (_Ssh(n), _get(pascal_matrix, n) @ _S(n))),
    "3.12": _matrices(lambda n: (_cols(_Ssh(n), _nat), _get(pascal_plus_matrix, n) @ _S(n))),
    "3.13": _matrices(lambda n: (
        _get(pascal_matrix, n, inverse=True) @ _get(pascal_plus_matrix, n),
        _cols(_S(n), _nat) @ _s(n),
    )),
    "3.14": _entries(lambda n: _Fodd(n) @ _LS(n), _Tsh),
    "3.15": _entries(lambda n: _Feven(n) @ _LS(n), lambda n: _cols(_Tsh(n), _nat)),
    "3.16": _matrices(lambda n: (_Tsh(n), _Fodd(n) @ _LS(n))),
    "3.17": _matrices(lambda n: (_cols(_Tsh(n), _nat), _Feven(n) @ _LS(n))),
    "3.18": _matrices(lambda n: (_Feven(n) @ _Fodd(n, inverse=True), _similar(_Tsh, n))),
    "3.19": _matrices(lambda n: (_Fodd(n, inverse=True) @ _Feven(n), _similar(_LS, n))),
    "3.20": _entries(lambda n: _get(choose_even_matrix, n) @ _Tsh(n), _LSsh),
    "3.21": _entries(
        lambda n: _get(choose_odd_matrix, n) @ _Tsh(n), lambda n: _cols(_LSsh(n), _nat)
    ),
    "3.22": _matrices(lambda n: (_LSsh(n), _get(choose_even_matrix, n) @ _Tsh(n))),
    "3.23": _matrices(lambda n: (_cols(_LSsh(n), _nat), _get(choose_odd_matrix, n) @ _Tsh(n))),
    "3.24": _matrices(lambda n: (
        _get(choose_even_matrix, n, inverse=True) @ _get(choose_odd_matrix, n), _similar(_Tsh, n)
    )),
    "3.25": _matrices(lambda n: (
        _get(choose_odd_matrix, n) @ _get(choose_even_matrix, n, inverse=True), _similar(_LSsh, n)
    )),
    "3.26": _matrices(lambda n: (
        _Feven(n) @ _Fodd(n, inverse=True),
        _get(choose_even_matrix, n, inverse=True) @ _get(choose_odd_matrix, n),
    )),
    "3.27": _matrices(lambda n: (
        _get(choose_even_matrix, n) @ _Feven(n),
        _get(choose_odd_matrix, n) @ _Fodd(n),
        _cols(_LSsh(n), _nat) @ _LS(n, inverse=True),
    )),
    "4.6": _even_fibonacci_via_genocchi,
    "4.11": _genocchi_via_fibonacci,
    "4.12": _matrices(lambda n: (_get(genocchi_matrix, n), _similar(_Tsh, n))),
    "4.13": _genocchi_via_choose,
    "4.14": _genocchi_via_fibonacci,
    "4.15": _genocchi_via_choose,
    "4.16": _matrices(lambda n: (_get(genocchi_matrix, n), _cols(_Tsh(n), _nat) @ _tsh(n))),
    "4.17": ("summation", seidel_identity_cases),
    "4.21": _matrices(lambda n: (
        (_Fodd(n + 1, inverse=True) @ _Feven(n + 1)).drop_leading(),
        _similar(_LSsh, n, lambda j: j + 2),
    )),
    "4.40": _poly_rows(
        lambda n: fib_poly(2 * n + 1), lambda k: _fib_sum(2 * k), lambda n: (_get(a1_matrix, n),)
    ),
    "4.42": _poly_rows(
        lambda n: _fib_sum(2 * n + 1), lambda k: _fib_sum(2 * k), lambda n: (_get(a2_matrix, n),)
    ),
    "4.43": _matrices(lambda n: (
        _get(a2_matrix, n),
        _cols(_T2(n), lambda j: j + 2) @ _t2(n),
    )),
    "4.46": _odd_fibonacci_via_bernoulli,
    "4.48": ("summation", kaneko_cases),
    "4.49": _matrices(lambda n: (
        _get(genocchi_matrix_inverse, n),
        _cols(_Tsh(n), lambda j: Fraction(1, j + 1)) @ _tsh(n),
    )),
    "4.50": _poly_rows(
        lambda n: _fib_sum(2 * n), lambda k: _fib_sum(2 * k + 1), lambda n: (_get(z_matrix, n),)
    ),
    "5.7": _matrices(lambda n: (_get(tangent_matrix, n), _Lodd(n) @ _Leven(n, inverse=True))),
    "5.8": _entries(lambda n: _Leven(n) @ _V(n), lambda n: _cols(_U(n), lambda k: 2)),
    "5.9": _entries(lambda n: _Lodd(n) @ _V(n), lambda n: _cols(_U(n), lambda k: 2 * k + 1)),
    "5.10": _matrices(lambda n: (
        _get(tangent_matrix, n),
        _cols(_U(n), lambda j: Fraction(2 * j + 1, 2)) @ _u(n),
    )),
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

FACTORIZATION_IDS: Tuple[str, ...] = tuple(
    label for label, (kind, _) in CATALOG.items() if kind == "factorization"
)
CONNECTION_IDS: Tuple[str, ...] = tuple(
    label for label, (kind, _) in CATALOG.items() if kind == "connection"
)


def first_mismatch(cases: Iterable[Case]) -> Optional[Tuple[str, str, str]]:
    """The (where, lhs, rhs) strings of the first case whose sides differ.

    Matrix sides are compared whole and located at their first differing
    entry in row-major order, so their where reads "entry (i,j)".  Returns
    None when every case holds.
    """
    for where, reference, *others in cases:
        for other in others:
            if other != reference:
                if isinstance(reference, TriMatrix):
                    i, j = reference.first_difference(other)
                    return (f"{where} ({i},{j})", str(reference[i, j]), str(other[i, j]))
                return (where, str(reference), str(other))
    return None


def verify(label: str, depth: int) -> IdentityReport:
    """Check one catalog identity at every case up to the depth bound.

    Inside shared_builds, a label whose row was checked at this depth
    before (an alias such as 4.6, or a repeated label) reuses that report.
    """
    if label not in CATALOG:
        raise UnknownIdentityError(label, tuple(CATALOG))
    if depth < 1:
        raise ValueError("depth must be >= 1")
    row, reports = CATALOG[label], {} if _builds is None else _builds.reports
    if (row, depth) not in reports:
        counterexample = first_mismatch(row[1](depth))
        reports[row, depth] = IdentityReport(label, depth, counterexample is None, counterexample)
    return reports[row, depth]._replace(ident=label)
