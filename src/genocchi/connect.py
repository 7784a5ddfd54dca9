"""Connection matrices between polynomial bases and the identity catalog.

The central object is the triangular matrix that rewrites the odd-index
Fibonacci basis as the even-index one; its entries are scaled Genocchi
numbers, its eigenvalues are 1, 2, 3, ... with central-factorial columns as
eigenvectors, and its inverse carries scaled Bernoulli numbers.  The Lucas
analogue does the same with tangent numbers and half-odd eigenvalues.

CATALOG holds all 56 identities in label order.  Each one is a generator of
cases (where, reference, *others): a factorization is one case of whole
matrices compared entrywise, a connection identity has one case per index n
(polynomial, compared coefficientwise) or per (n, k) pair (scalar), and a
summation identity one per n.  A connection case is a row or an entry of
one matrix product, a coefficient matrix times a basis coefficient matrix,
so each side is built whole and its cases are read off it.  verify runs
the cases of one label through first_mismatch.  Catalog labels are fixed
strings such as "3.9" or "5.10" and form part of the command line
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import sub
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from . import akiyama, numbers, seidel
from .polyalg import Poly, basis_matrix, fib_poly, lucas_poly
from .reports import Case, IdentityReport, UnknownIdentityError
from .stirling import (
    SQUARES_FROM_2,
    preset,
    stirling1,
    stirling1_shifted,
    stirling2,
    stirling2_shifted,
)
from .trimat import TriMatrix, _exact

# ----------------------------------------------------------------------
# matrix builders


def genocchi_matrix(order: int) -> TriMatrix:
    """Matrix taking the odd Fibonacci basis to the even one."""

    def rule(n: int, k: int) -> Fraction:
        return Fraction(
            (-1) ** (n - k) * comb(2 * n + 2, 2 * k) * numbers.genocchi(n - k + 1),
            2 * k + 1,
        )

    return TriMatrix.from_rule(rule, order)


def genocchi_matrix_squared(order: int) -> TriMatrix:
    """Closed form for the square of the Genocchi matrix."""

    def rule(n: int, k: int) -> Fraction:
        return Fraction(
            (-1) ** (n - k) * comb(2 * n + 2, 2 * k) * (n + k + 2) * numbers.genocchi(n - k + 2),
            (2 * k + 1) * (n + 2 - k),
        )

    return TriMatrix.from_rule(rule, order)


def genocchi_matrix_inverse(order: int) -> TriMatrix:
    """Closed form for the inverse of the Genocchi matrix."""

    def rule(j: int, k: int) -> Fraction:
        return comb(2 * j + 1, 2 * k + 1) * numbers.bernoulli(2 * j - 2 * k) / (k + 1)

    return TriMatrix.from_rule(rule, order)


def tangent_matrix(order: int) -> TriMatrix:
    """Matrix taking the even Lucas basis to the odd one."""

    def rule(i: int, j: int) -> Fraction:
        return Fraction(
            (-1) ** (i - j) * numbers.tangent(i - j) * comb(2 * i + 1, 2 * j),
            2 ** (2 * (i - j) + 1),
        )

    return TriMatrix.from_rule(rule, order)


def tangent_matrix_inverse(order: int) -> TriMatrix:
    """Closed form for the inverse of the tangent matrix.

    Carries a leading factor 2; the variant without it (a regression
    fixture in the tests) is a near miss that already fails at order 1.
    """

    def rule(i: int, j: int) -> Fraction:
        return 2 * comb(2 * i, 2 * j) * numbers.bernoulli(2 * i - 2 * j) / (2 * j + 1)

    return TriMatrix.from_rule(rule, order)


def a1_matrix(order: int) -> TriMatrix:
    """Partial row sums of the Genocchi matrix."""
    return TriMatrix([list(accumulate(row)) for row in genocchi_matrix(order).rows])


def a2_matrix(order: int) -> TriMatrix:
    """Difference of consecutive rows of the partial-sum matrix."""
    a1 = a1_matrix(order + 1).rows
    return TriMatrix([list(map(sub, a1[n], a1[n + 1])) for n in range(order)])


def z_matrix(order: int) -> TriMatrix:
    """Inverse of the row-difference matrix, in closed form.

    Entry (n, k) sums the first k+1 column-wise differences of consecutive
    rows of the inverse Genocchi matrix.
    """
    w = genocchi_matrix_inverse(order + 1).rows
    return TriMatrix([list(accumulate(map(sub, w[n], w[n + 1]))) for n in range(order)])


def c_matrix(order: int) -> TriMatrix:
    """Signed augmented Pascal matrix: entry (i, j) is (-1)**(i-j) C(i+1, j)."""
    return TriMatrix.from_rule(lambda i, j: (-1) ** (i - j) * comb(i + 1, j), order)


def c_matrix_inverse(order: int) -> TriMatrix:
    """Closed-form inverse of the signed augmented Pascal matrix."""
    return TriMatrix.from_rule(
        lambda i, j: comb(i, j) * numbers.bernoulli_b(i - j) / (j + 1), order
    )


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


def _diag(order: int, value: Callable[[int], Fraction | int]) -> TriMatrix:
    return TriMatrix.diagonal([value(j) for j in range(order)])


def _nat_diag(order: int) -> TriMatrix:
    return _diag(order, lambda j: j + 1)


# ----------------------------------------------------------------------
# linear functionals


@dataclass(frozen=True)
class LinearFunctional:
    """Linear functional on polynomials, stored by its monomial moments."""

    name: str
    moments: Tuple[Fraction, ...]


def functional_apply(f: LinearFunctional, p: Poly) -> Fraction:
    """Dot product of the coefficients of p with the stored moments."""
    if p.degree >= len(f.moments):
        raise ValueError(
            f"functional {f.name} has {len(f.moments)} moments, "
            f"cannot evaluate degree {p.degree}"
        )
    return sum((c * m for c, m in zip(p.coeffs, f.moments)), Fraction(0))


def lambda_functional(depth: int) -> LinearFunctional:
    """Functional that is 1 on the first odd Fibonacci polynomial, else 0.

    Its monomial moments are the signed median Genocchi numbers.
    """
    return LinearFunctional(
        "lambda",
        tuple(Fraction((-1) ** n * numbers.median_genocchi(n)) for n in range(depth)),
    )


def lambda_star_functional(depth: int) -> LinearFunctional:
    """Composition of the lambda functional with multiplication by -s."""
    return LinearFunctional(
        "lambda-star",
        tuple(Fraction((-1) ** n * numbers.median_genocchi(n + 1)) for n in range(depth)),
    )


def mu_functional(depth: int) -> LinearFunctional:
    """Functional that is 1 on the first even Fibonacci polynomial, else 0.

    The moments are obtained operationally, by expanding monomials in the
    even-index basis, so the even-basis values are definitional while the
    odd-basis values are a theorem pinned down in the tests.
    """
    inv = basis_matrix("F_even", depth).inverse()
    return LinearFunctional("mu", inv.column(0))


def phi_functional(k: int, depth: int) -> LinearFunctional:
    """Functional whose odd-Fibonacci values form a central-factorial column.

    Indexing starts at k = 1; the monomial moments are a column of the
    Legendre-Stirling triangle.
    """
    if k < 1:
        raise ValueError("functional index must be >= 1")
    ls = stirling2(preset("legendre-stirling"), max(depth, k))
    return LinearFunctional(f"phi_{k}", tuple(ls[n, k - 1] for n in range(depth)))


# ----------------------------------------------------------------------
# identity catalog

_LS = lambda n: stirling2(preset("legendre-stirling"), n)  # noqa: E731
_Tsh = lambda n: stirling2_shifted(preset("central-factorial"), n)  # noqa: E731
_tsh = lambda n: stirling1_shifted(preset("central-factorial"), n)  # noqa: E731
_LSsh = lambda n: stirling2_shifted(preset("legendre-stirling"), n)  # noqa: E731
_Ssh = lambda n: stirling2_shifted(preset("stirling"), n)  # noqa: E731
_ssh = lambda n: stirling1_shifted(preset("stirling"), n)  # noqa: E731
_S = lambda n: stirling2(preset("stirling"), n)  # noqa: E731
_s = lambda n: stirling1(preset("stirling"), n)  # noqa: E731
_U = lambda n: stirling2(preset("u-half-odd"), n)  # noqa: E731
_u = lambda n: stirling1(preset("u-half-odd"), n)  # noqa: E731
_Fodd = lambda n: basis_matrix("F_odd", n)  # noqa: E731
_Feven = lambda n: basis_matrix("F_even", n)  # noqa: E731
_Leven = lambda n: basis_matrix("L_even", n)  # noqa: E731
_Lodd = lambda n: basis_matrix("L_odd", n)  # noqa: E731

Cases = Callable[[int], Iterable[Case]]


def _matrices(sides: Callable[[int], Tuple[TriMatrix, ...]]) -> Cases:
    """A factorization as one case: every side built whole at the order."""

    def cases(order: int) -> Iterator[Case]:
        yield ("entry", *sides(order))

    return cases


def _poly_rows(
    reference: Callable[[int], Poly],
    basis: Callable[[int], Poly],
    *coefficients: Callable[[int], TriMatrix],
) -> Cases:
    """A connection identity as the rows of coefficient @ basis matrices.

    Case n compares reference(n) with sum_k C[n, k] basis(k) for each
    coefficient matrix C, as row n of the product C @ B, where row k of B
    holds the coefficients of basis(k), a polynomial of degree k.
    """

    def cases(depth: int) -> Iterator[Case]:
        order = depth + 1
        b = TriMatrix([basis(k).coeffs for k in range(order)])
        products = [c(order) @ b for c in coefficients]
        for n in range(order):
            yield (f"n={n}", reference(n), *(Poly(p.rows[n]) for p in products))

    return cases


def _entries(
    product: Callable[[int], TriMatrix],
    triangle: Callable[[int], TriMatrix],
    scale: Callable[[int], int] = lambda k: 1,
) -> Cases:
    """A connection identity as the entries of one matrix product.

    Case (n, k) compares entry (n, k) of product(depth + 1) with scale(k)
    times entry (n, k) of triangle(depth + 1); both sides are ints when
    integral.
    """

    def cases(depth: int) -> Iterator[Case]:
        lhs, rhs = product(depth + 1).rows, triangle(depth + 1).rows
        for n in range(depth + 1):
            for k in range(n + 1):
                yield (f"n={n},k={k}", lhs[n][k], _exact(scale(k) * rhs[n][k]))

    return cases


def _genocchi_over_lucas(order: int) -> TriMatrix:
    """The tangent matrix in Genocchi numbers: (-1)**d C(2n+1, 2k) G(d+1) / (2d+2), d = n-k."""

    def rule(n: int, k: int) -> Fraction:
        d = n - k
        return Fraction((-1) ** d * comb(2 * n + 1, 2 * k) * numbers.genocchi(d + 1), 2 * d + 2)

    return TriMatrix.from_rule(rule, order)


# The left factors of 3.14/3.15 are built from the binomial rule alone and
# the Fibonacci bases of the polynomial cases from fib_poly alone, as the
# identities state them; basis_matrix would also cross-check the two routes.
_Fodd_rule = lambda n: TriMatrix.from_rule(lambda i, j: comb(2 * i - j, j), n)  # noqa: E731
_Feven_rule = lambda n: TriMatrix.from_rule(lambda i, j: comb(2 * i + 1 - j, j), n)  # noqa: E731
_V = lambda n: stirling2(preset("v-product-quarter"), n)  # noqa: E731
_fib_sum = lambda m: fib_poly(m) + fib_poly(m + 1)  # noqa: E731

_even_fibonacci_via_genocchi = _poly_rows(
    lambda n: fib_poly(2 * n + 2), lambda k: fib_poly(2 * k + 1), genocchi_matrix
)
_odd_fibonacci_via_bernoulli = _poly_rows(
    lambda n: fib_poly(2 * n + 1), lambda k: fib_poly(2 * k + 2), genocchi_matrix_inverse
)

_genocchi_via_fibonacci = _matrices(
    lambda n: (genocchi_matrix(n), _Feven(n) @ _Fodd(n).inverse())
)
_genocchi_via_choose = _matrices(
    lambda n: (genocchi_matrix(n), choose_even_matrix(n).inverse() @ choose_odd_matrix(n))
)

# label -> (kind, cases), in label order, which is the order "verify all"
# reports in.  Labels 4.6, 4.14, 4.15 and 4.46 restate 2.1, 4.11, 4.13 and 2.2.
CATALOG: Dict[str, Tuple[str, Cases]] = {
    "2.1": ("connection", _even_fibonacci_via_genocchi),
    "2.2": ("connection", _odd_fibonacci_via_bernoulli),
    "2.3": ("connection", _poly_rows(
        lambda n: lucas_poly(2 * n + 1),
        lambda k: lucas_poly(2 * k),
        tangent_matrix,
        _genocchi_over_lucas,
    )),
    "2.4": ("connection", _poly_rows(
        lambda n: lucas_poly(2 * n), lambda k: lucas_poly(2 * k + 1), tangent_matrix_inverse
    )),
    "2.15/2.16-inverse": ("factorization", _matrices(
        lambda n: (TriMatrix.identity(n), c_matrix(n) @ c_matrix_inverse(n))
    )),
    "3.9": ("factorization", _matrices(lambda n: (
        c_matrix(n),
        pascal_plus_matrix(n) @ pascal_matrix(n).inverse(),
        _Ssh(n) @ _nat_diag(n) @ _ssh(n),
    ))),
    "3.10": ("factorization", _matrices(
        lambda n: (pascal_plus_matrix(n), c_matrix(n) @ pascal_matrix(n))
    )),
    "3.11": ("factorization", _matrices(lambda n: (_Ssh(n), pascal_matrix(n) @ _S(n)))),
    "3.12": ("factorization", _matrices(
        lambda n: (_Ssh(n) @ _nat_diag(n), pascal_plus_matrix(n) @ _S(n))
    )),
    "3.13": ("factorization", _matrices(lambda n: (
        pascal_matrix(n).inverse() @ pascal_plus_matrix(n),
        _S(n) @ _nat_diag(n) @ _s(n),
    ))),
    "3.14": ("connection", _entries(lambda n: _Fodd_rule(n) @ _LS(n), _Tsh)),
    "3.15": ("connection", _entries(
        lambda n: _Feven_rule(n) @ _LS(n), _Tsh, lambda k: k + 1
    )),
    "3.16": ("factorization", _matrices(lambda n: (_Tsh(n), _Fodd(n) @ _LS(n)))),
    "3.17": ("factorization", _matrices(lambda n: (_Tsh(n) @ _nat_diag(n), _Feven(n) @ _LS(n)))),
    "3.18": ("factorization", _matrices(lambda n: (
        _Feven(n) @ _Fodd(n).inverse(),
        _Tsh(n) @ _nat_diag(n) @ _Tsh(n).inverse(),
    ))),
    "3.19": ("factorization", _matrices(lambda n: (
        _Fodd(n).inverse() @ _Feven(n),
        _LS(n) @ _nat_diag(n) @ _LS(n).inverse(),
    ))),
    "3.20": ("connection", _entries(lambda n: choose_even_matrix(n) @ _Tsh(n), _LSsh)),
    "3.21": ("connection", _entries(
        lambda n: choose_odd_matrix(n) @ _Tsh(n), _LSsh, lambda k: k + 1
    )),
    "3.22": ("factorization", _matrices(lambda n: (_LSsh(n), choose_even_matrix(n) @ _Tsh(n)))),
    "3.23": ("factorization", _matrices(
        lambda n: (_LSsh(n) @ _nat_diag(n), choose_odd_matrix(n) @ _Tsh(n))
    )),
    "3.24": ("factorization", _matrices(lambda n: (
        choose_even_matrix(n).inverse() @ choose_odd_matrix(n),
        _Tsh(n) @ _nat_diag(n) @ _Tsh(n).inverse(),
    ))),
    "3.25": ("factorization", _matrices(lambda n: (
        choose_odd_matrix(n) @ choose_even_matrix(n).inverse(),
        _LSsh(n) @ _nat_diag(n) @ _LSsh(n).inverse(),
    ))),
    "3.26": ("factorization", _matrices(lambda n: (
        _Feven(n) @ _Fodd(n).inverse(),
        choose_even_matrix(n).inverse() @ choose_odd_matrix(n),
    ))),
    "3.27": ("factorization", _matrices(lambda n: (
        choose_even_matrix(n) @ _Feven(n),
        choose_odd_matrix(n) @ _Fodd(n),
        _LSsh(n) @ _nat_diag(n) @ _LS(n).inverse(),
    ))),
    "4.6": ("connection", _even_fibonacci_via_genocchi),
    "4.11": ("factorization", _genocchi_via_fibonacci),
    "4.12": ("factorization", _matrices(lambda n: (
        genocchi_matrix(n),
        _Tsh(n) @ _nat_diag(n) @ _Tsh(n).inverse(),
    ))),
    "4.13": ("factorization", _genocchi_via_choose),
    "4.14": ("factorization", _genocchi_via_fibonacci),
    "4.15": ("factorization", _genocchi_via_choose),
    "4.16": ("factorization", _matrices(
        lambda n: (genocchi_matrix(n), _Tsh(n) @ _nat_diag(n) @ _tsh(n))
    )),
    "4.17": ("summation", seidel.seidel_identity_cases),
    "4.21": ("factorization", _matrices(lambda n: (
        (_Fodd(n + 1).inverse() @ _Feven(n + 1)).drop_leading(),
        _LSsh(n) @ _diag(n, lambda j: j + 2) @ _LSsh(n).inverse(),
    ))),
    "4.40": ("connection", _poly_rows(
        lambda n: fib_poly(2 * n + 1), lambda k: _fib_sum(2 * k), a1_matrix
    )),
    "4.42": ("connection", _poly_rows(
        lambda n: _fib_sum(2 * n + 1), lambda k: _fib_sum(2 * k), a2_matrix
    )),
    "4.43": ("factorization", _matrices(lambda n: (
        a2_matrix(n),
        stirling2(SQUARES_FROM_2, n) @ _diag(n, lambda j: j + 2) @ stirling1(SQUARES_FROM_2, n),
    ))),
    "4.46": ("connection", _odd_fibonacci_via_bernoulli),
    "4.48": ("summation", seidel.kaneko_cases),
    "4.49": ("factorization", _matrices(lambda n: (
        genocchi_matrix_inverse(n),
        _Tsh(n) @ _diag(n, lambda j: Fraction(1, j + 1)) @ _tsh(n),
    ))),
    "4.50": ("connection", _poly_rows(
        lambda n: _fib_sum(2 * n), lambda k: _fib_sum(2 * k + 1), z_matrix
    )),
    "5.7": ("factorization", _matrices(
        lambda n: (tangent_matrix(n), _Lodd(n) @ _Leven(n).inverse())
    )),
    "5.8": ("connection", _entries(lambda n: _Leven(n) @ _V(n), _U, lambda k: 2)),
    "5.9": ("connection", _entries(lambda n: _Lodd(n) @ _V(n), _U, lambda k: 2 * k + 1)),
    "5.10": ("factorization", _matrices(lambda n: (
        tangent_matrix(n),
        _U(n) @ _diag(n, lambda j: Fraction(2 * j + 1, 2)) @ _u(n),
    ))),
    "6.6": ("summation", akiyama.cases_6_6),
    "6.7": ("summation", akiyama.cases_6_7),
    "6.8": ("summation", akiyama.cases_6_8),
    "6.9": ("summation", akiyama.cases_6_9),
    "6.10": ("summation", akiyama.cases_6_10),
    "6.11": ("summation", akiyama.cases_6_11),
    "6.12": ("summation", akiyama.cases_6_12),
    "6.13": ("summation", akiyama.cases_6_13),
    "6.14": ("summation", akiyama.cases_6_14),
    "6.15": ("summation", akiyama.cases_6_15),
    "6.16": ("summation", akiyama.cases_6_16),
    "6.17": ("summation", akiyama.cases_6_17),
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
    """Check one catalog identity at every case up to the depth bound."""
    if label not in CATALOG:
        raise UnknownIdentityError(label, tuple(CATALOG))
    if depth < 1:
        raise ValueError("depth must be >= 1")
    counterexample = first_mismatch(CATALOG[label][1](depth))
    return IdentityReport(label, depth, counterexample is None, counterexample)
