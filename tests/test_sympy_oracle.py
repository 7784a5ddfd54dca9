"""Differential checks against sympy, which is optional and skipped when absent."""

from fractions import Fraction

import pytest

from genocchi import connect, numbers
from genocchi.polyalg import basis_matrix
from genocchi.stirling import preset, stirling1, stirling2
from genocchi.trimat import TriMatrix

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402


def exact(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def test_bernoulli_b_matches_sympy():
    for n in range(60):
        assert numbers.bernoulli_b(n) == exact(sympy.bernoulli(n)), n


def test_genocchi_matches_sympy():
    for n in range(1, 31):
        assert (-1) ** n * numbers.genocchi(n) == exact(sympy.genocchi(2 * n)), n


def test_stirling_preset_matches_sympy():
    order = 20
    second = stirling2(preset("stirling"), order)
    first = stirling1(preset("stirling"), order)
    for n in range(order):
        for k in range(n + 1):
            assert second[n, k] == exact(stirling(n, k, kind=2)), (n, k)
            assert first[n, k] == exact(stirling(n, k, kind=1, signed=True)), (n, k)


# The weights of every preset name the catalog reads, written out here rather
# than read from genocchi.stirling, so that the oracles share no code with it.
CATALOG_WEIGHTS = {
    "stirling": lambda n: n,
    "stirling-shift": lambda n: n + 1,
    "central-factorial": lambda n: n**2,
    "legendre-stirling": lambda n: n * (n + 1),
    "u-half-odd": lambda n: sympy.Rational((2 * n + 1) ** 2, 4),
    "v-product-quarter": lambda n: sympy.Rational((2 * n - 1) * (2 * n + 1), 4),
    "stirling-shifted": lambda n: n + 1,
    "central-factorial-shifted": lambda n: (n + 1) ** 2,
    "central-factorial-shifted-shifted": lambda n: (n + 2) ** 2,
    "legendre-stirling-shifted": lambda n: (n + 1) * (n + 2),
}


def first_kind_by_expansion(w, order):
    """Row n holds the coefficients of prod_{m<n} (x - w(m)), lowest degree first."""
    x = sympy.Symbol("x")
    rows = []
    for n in range(order):
        coeffs = sympy.Poly(sympy.prod([x - w(m) for m in range(n)]), x).all_coeffs()[::-1]
        rows.append(coeffs + [0] * (order - len(coeffs)))
    return sympy.Matrix(rows)


@pytest.mark.parametrize("name", CATALOG_WEIGHTS)
def test_stirling_triangles_match_the_product_expansion_and_its_inverse(name):
    order = 10
    first = first_kind_by_expansion(CATALOG_WEIGHTS[name], order)
    assert to_sympy(stirling1(preset(name), order)) == first
    assert to_sympy(stirling2(preset(name), order)) == first.inv()


def test_median_genocchi_is_a_column_of_the_binomial_inverse():
    n = 14
    inverse = sympy.Matrix(n, n, lambda i, j: sympy.binomial(2 * i - j, j) if j <= i else 0).inv()
    for i in range(n):
        assert numbers.median_genocchi(i) == (-1) ** i * inverse[i, 0], i


def test_tangent_matches_the_taylor_series_of_tan():
    # (2k+1)! [x^(2k+1)] tan x, a route that shares nothing with the Bernoulli recurrence
    x = sympy.Symbol("x")
    series = sympy.tan(x).series(x, 0, 42).removeO()
    for k in range(20):
        coeff = exact(series.coeff(x, 2 * k + 1) * sympy.factorial(2 * k + 1))
        assert numbers.tangent(k) == coeff, k


def to_sympy(m: TriMatrix):
    return sympy.Matrix([[sympy.Rational(str(m[i, j])) for j in range(m.order)] for i in range(m.order)])


def from_sympy(m) -> TriMatrix:
    n = m.rows
    assert all(m[i, j] == 0 for i in range(n) for j in range(i + 1, n))
    return TriMatrix([[exact(m[i, j]) for j in range(i + 1)] for i in range(n)])


@pytest.mark.parametrize("build", [
    lambda order: stirling2(preset("legendre-stirling"), order),
    lambda order: basis_matrix("L_even", order),
], ids=["stirling2(legendre-stirling)", "L_even"])
def test_solve_matches_the_sympy_inverse(build):
    order = 12
    x = build(order)
    b = stirling2(preset("u-half-odd"), order)  # a rational right-hand side
    inv = to_sympy(x).inv()
    assert x.solve(b) == from_sympy(inv * to_sympy(b))
    assert x.solve_right(b) == from_sympy(to_sympy(b) * inv)


S = sympy.Symbol("s")


def fibonacci(n):
    """This package's F(n) = F(n-1) + s F(n-2) as a polynomial in s, from sympy's
    F_n(x) = x F_(n-1)(x) + F_(n-2)(x): the coefficient of s**k is that of x**(n-1-2k)."""
    if n == 0:  # sympy defines F_n(x) for n >= 1 only
        return sympy.Poly(0, S)
    x = sympy.Symbol("x")
    fx = sympy.Poly(sympy.fibonacci(n, x), x)
    coeffs = [fx.coeff_monomial(x ** (n - 1 - 2 * k)) for k in range((n + 1) // 2)]
    return sympy.Poly(coeffs[::-1], S)


def lucas(n):
    """L(n) = F(n+1) + s F(n-1) over sympy's Fibonacci polynomials, and L(0) = 2."""
    return sympy.Poly(2, S) if n == 0 else fibonacci(n + 1) + sympy.Poly(S, S) * fibonacci(n - 1)


# Row i of each basis is the polynomial of index 2i + offset.
ORACLE_BASES = {"F_odd": (fibonacci, 1), "F_even": (fibonacci, 2),
                "L_even": (lucas, 0), "L_odd": (lucas, 1)}


def oracle_basis(which, order):
    poly, offset = ORACLE_BASES[which]
    rows = [poly(2 * i + offset).all_coeffs()[::-1] for i in range(order)]
    return sympy.Matrix(order, order, lambda i, j: rows[i][j] if j < len(rows[i]) else 0)


@pytest.mark.parametrize("which", ORACLE_BASES)
def test_basis_rows_match_sympy_fibonacci(which):
    order = 12
    assert to_sympy(basis_matrix(which, order)) == oracle_basis(which, order)


@pytest.mark.parametrize("build, numerator, denominator", [
    (connect.genocchi_matrix, "F_even", "F_odd"),
    (connect.tangent_matrix, "L_odd", "L_even"),
], ids=["genocchi_matrix", "tangent_matrix"])
def test_connection_matrix_is_a_quotient_of_sympy_bases(build, numerator, denominator):
    # G rewrites the odd-index Fibonacci basis as the even one, B the even-index Lucas
    # basis as the odd one: G = F_even F_odd^-1 and B = L_odd L_even^-1.
    order = 12
    want = oracle_basis(numerator, order) * oracle_basis(denominator, order).inv()
    assert to_sympy(build(order)) == want
