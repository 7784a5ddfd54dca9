"""Hand-written case loops for some connection identities.

These build each case one polynomial term or one scalar sum at a time, the
way the catalog once did, and serve as references for the catalog's
adapters, which read the same cases off whole matrix products.  Each
generator yields (where, reference, *others) in the catalog's order.
"""

from fractions import Fraction
from math import comb

from genocchi import connect, numbers
from genocchi.polyalg import Poly, fib_poly, lucas_poly
from genocchi.stirling import preset, stirling2


def poly_21(depth):
    for n in range(depth + 1):
        rhs = Poly()
        for k in range(n + 1):
            coeff = Fraction(
                (-1) ** (n - k) * numbers.genocchi(n - k + 1) * comb(2 * n + 2, 2 * k),
                2 * k + 1,
            )
            rhs = rhs + coeff * fib_poly(2 * k + 1)
        yield (f"n={n}", fib_poly(2 * n + 2), rhs)


def poly_22(depth):
    for n in range(depth + 1):
        rhs = Poly()
        for k in range(n + 1):
            coeff = comb(2 * n + 1, 2 * k + 1) * numbers.bernoulli(2 * n - 2 * k) / (k + 1)
            rhs = rhs + coeff * fib_poly(2 * k + 2)
        yield (f"n={n}", fib_poly(2 * n + 1), rhs)


def poly_23(depth):
    for n in range(depth + 1):
        via_tangent = Poly()
        via_genocchi = Poly()
        for k in range(n + 1):
            d = n - k
            base = (-1) ** d * comb(2 * n + 1, 2 * k)
            via_tangent = via_tangent + (
                Fraction(base * numbers.tangent(d), 2 ** (2 * d + 1)) * lucas_poly(2 * k)
            )
            via_genocchi = via_genocchi + (
                Fraction(base * numbers.genocchi(d + 1), 2 * d + 2) * lucas_poly(2 * k)
            )
        yield (f"n={n}", lucas_poly(2 * n + 1), via_tangent, via_genocchi)


def poly_24(depth):
    for n in range(depth + 1):
        rhs = Poly()
        for j in range(n + 1):
            coeff = comb(2 * n, 2 * j) * numbers.bernoulli(2 * n - 2 * j) / (2 * j + 1)
            rhs = rhs + coeff * lucas_poly(2 * j + 1)
        yield (f"n={n}", lucas_poly(2 * n), 2 * rhs)


def poly_46(depth):
    a = connect.genocchi_matrix(depth + 1)
    for n in range(depth + 1):
        rhs = Poly()
        for k in range(n + 1):
            rhs = rhs + a[n, k] * fib_poly(2 * k + 1)
        yield (f"n={n}", fib_poly(2 * n + 2), rhs)


def _fib_sum(m):
    return fib_poly(m) + fib_poly(m + 1)


def _prefix_sums(row):
    return [sum(row[: k + 1]) for k in range(len(row))]


def poly_440(depth):
    a = connect.genocchi_matrix(depth + 1)
    for n in range(depth + 1):
        a1 = _prefix_sums(a.rows[n])
        rhs = Poly()
        for k in range(n + 1):
            rhs = rhs + a1[k] * _fib_sum(2 * k)
        yield (f"n={n}", fib_poly(2 * n + 1), rhs)


def poly_442(depth):
    a = connect.genocchi_matrix(depth + 2)
    for n in range(depth + 1):
        a1, below = _prefix_sums(a.rows[n]), _prefix_sums(a.rows[n + 1])
        rhs = Poly()
        for k in range(n + 1):
            rhs = rhs + (a1[k] - below[k]) * _fib_sum(2 * k)
        yield (f"n={n}", _fib_sum(2 * n + 1), rhs)


def poly_450(depth):
    b = connect.genocchi_matrix_inverse(depth + 2)
    for n in range(depth + 1):
        z = _prefix_sums([b[n, k] - b[n + 1, k] for k in range(n + 1)])
        rhs = Poly()
        for k in range(n + 1):
            rhs = rhs + z[k] * _fib_sum(2 * k + 1)
        yield (f"n={n}", _fib_sum(2 * n), rhs)


def scalar_314(depth):
    ls = stirling2(preset("legendre-stirling"), depth + 1)
    t2 = stirling2(preset("central-factorial"), depth + 2)
    for n in range(depth + 1):
        for k in range(n + 1):
            lhs = sum(comb(2 * n - j, j) * ls[j, k] for j in range(n + 1))
            yield (f"n={n},k={k}", lhs, t2[n + 1, k + 1])


def scalar_58(depth):
    uu = stirling2(preset("u-half-odd"), depth + 1)
    vv = stirling2(preset("v-product-quarter"), depth + 1)
    for n in range(depth + 1):
        row = lucas_poly(2 * n).coeffs
        for k in range(n + 1):
            lhs = sum(row[j] * vv[j, k] for j in range(len(row)))
            yield (f"n={n},k={k}", lhs, 2 * uu[n, k])


REFERENCES = {
    "2.1": poly_21,
    "2.2": poly_22,
    "2.3": poly_23,
    "2.4": poly_24,
    "3.14": scalar_314,
    "4.6": poly_46,
    "4.40": poly_440,
    "4.42": poly_442,
    "4.50": poly_450,
    "5.8": scalar_58,
}
