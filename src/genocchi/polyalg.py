"""Dense exact polynomials plus the Fibonacci and Lucas polynomial families.

The Fibonacci variant used here has F(0) = 0, F(1) = 1 and the recursion
F(n) = F(n-1) + s*F(n-2); the Lucas companion starts from L(0) = 2,
L(1) = 1 with the same recursion.  Both families are built twice (closed
binomial form and recursion); if the two routes disagree, ArithmeticError
is raised.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Tuple

from .trimat import Scalar, TriMatrix, _exact


class Poly:
    """Immutable dense polynomial with exact coefficients in one variable s.

    coeffs[k] is the coefficient of s**k; trailing zeros are trimmed and the
    zero polynomial has an empty coefficient tuple.  A coefficient is an int
    when it is integral and a Fraction otherwise, so equal polynomials
    compare and hash equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(map(_exact, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: Fraction | int = 1) -> "Poly":
        return cls([0] * k + [c])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    def shift(self, k: int) -> "Poly":
        """Multiply by s**k."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs)

    def truncate(self, n: int) -> "Poly":
        """Drop all terms of degree >= n."""
        return Poly(self.coeffs[:n])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([*map(add, a, b), *a[len(b) :]])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*s" if c != 1 else "s")
            else:
                parts.append(f"{c}*s^{k}" if c != 1 else f"s^{k}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


_fib: list[Poly] = [Poly(), Poly([1])]
_lucas: list[Poly] = [Poly([2]), Poly([1])]


def _fib_closed(n: int) -> Poly:
    if n == 0:
        return Poly()
    return Poly([comb(n - 1 - k, k) for k in range((n - 1) // 2 + 1)])


def _lucas_closed(n: int) -> Poly:
    if n == 0:
        return Poly([2])
    return Poly([Fraction(n, n - k) * comb(n - k, k) for k in range(n // 2 + 1)])


def fib_poly(n: int) -> Poly:
    """Fibonacci polynomial with index n >= 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_fib) <= n:
        m = len(_fib)
        nxt = _fib[m - 1] + _fib[m - 2].shift(1)
        closed = _fib_closed(m)
        if nxt != closed:
            raise ArithmeticError(f"fibonacci routes disagree at {m}")
        _fib.append(closed)
    return _fib[n]


def lucas_poly(n: int) -> Poly:
    """Lucas polynomial with index n >= 0."""
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_lucas) <= n:
        m = len(_lucas)
        nxt = _lucas[m - 1] + _lucas[m - 2].shift(1)
        closed = _lucas_closed(m)
        if nxt != closed:
            raise ArithmeticError(f"lucas routes disagree at {m}")
        if closed != fib_poly(m + 1) + fib_poly(m - 1).shift(1):
            raise ArithmeticError(f"lucas/fibonacci bridge fails at {m}")
        _lucas.append(closed)
    return _lucas[n]


BASIS_KINDS = ("F_odd", "F_even", "L_even", "L_odd")


def basis_matrix(which: str, order: int) -> TriMatrix:
    """Coefficient matrix of one of the four polynomial bases.

    Row i holds the coefficients of the i-th basis element: F_odd gives the
    odd-index Fibonacci polynomials (binomial entries C(2i-j, j)), F_even
    the even-index ones (C(2i+1-j, j)), and L_even / L_odd the Lucas
    polynomials with even and odd index.  Rows are cross-checked against the
    polynomial builders.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if which == "F_odd":
        m = TriMatrix.from_rule(lambda i, j: comb(2 * i - j, j), order)
        polys = [fib_poly(2 * i + 1) for i in range(order)]
    elif which == "F_even":
        m = TriMatrix.from_rule(lambda i, j: comb(2 * i + 1 - j, j), order)
        polys = [fib_poly(2 * i + 2) for i in range(order)]
    elif which == "L_even":
        polys = [lucas_poly(2 * i) for i in range(order)]
        m = TriMatrix([p.coeffs for p in polys])
    elif which == "L_odd":
        polys = [lucas_poly(2 * i + 1) for i in range(order)]
        m = TriMatrix([p.coeffs for p in polys])
    else:
        raise ValueError(f"unknown basis {which!r}; expected one of {BASIS_KINDS}")
    for i in range(order):
        if m.rows[i] != polys[i].coeffs:
            raise ArithmeticError(f"basis row {i} disagrees with polynomial")
    return m
