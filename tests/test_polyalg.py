import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

from genocchi import polyalg
from genocchi.polyalg import BASIS_KINDS, Poly, basis_matrix, fib_poly, lucas_poly
from genocchi.trimat import TriMatrix


def binet_value(n, s0):
    """Independent evaluation oracle for square discriminants 1 + 4*s0."""
    disc = 1 + 4 * Fraction(s0)
    num, den = disc.numerator, disc.denominator
    r_num, r_den = isqrt(num), isqrt(den)
    assert r_num * r_num == num and r_den * r_den == den, "oracle needs a square discriminant"
    root = Fraction(r_num, r_den)
    alpha = (1 + root) / 2
    beta = (1 - root) / 2
    return (alpha**n - beta**n) / (alpha - beta)


# ----------------------------------------------------------------------
# Poly basics


def test_zero_poly_is_empty():
    assert Poly().coeffs == ()
    assert Poly([0, 0]).coeffs == ()
    assert Poly().degree == -1


def test_trailing_zeros_trimmed():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([1, 2, 0, 0]).degree == 1


def test_str_writes_a_unit_coefficient_bare():
    assert str(Poly([0, 1])) == "s"
    assert str(Poly([0, 0, 1])) == "s^2"
    assert str(Poly([3, -1, 2])) == "3 - 1*s + 2*s^2"
    assert str(Poly()) == "0"


def test_arithmetic():
    p = Poly([1, 2])
    q = Poly([0, 1, 1])
    assert (p + q).coeffs == (1, 3, 1)
    assert (p - p).is_zero()
    assert (p * q).coeffs == (0, 1, 3, 2)
    assert (3 * p).coeffs == (3, 6)
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert Poly([1, 2, 3]).truncate(2).coeffs == (1, 2)


def test_shift_truncate_and_monomial_reject_a_negative_degree():
    p = Poly([1, 2, 3])
    assert p.shift(0) == p and p.truncate(0).is_zero()
    assert Poly.monomial(2, 5).coeffs == (0, 0, 5) and Poly.monomial(3, 0).is_zero()
    for call in (lambda: p.shift(-1), lambda: p.truncate(-1), lambda: Poly.monomial(-1)):
        with pytest.raises(ValueError):
            call()


def test_eval_horner():
    p = Poly([1, -2, 3])
    x = Fraction(5, 7)
    assert p.eval(x) == 1 - 2 * x + 3 * x * x
    # the package's value rule: an int when the value is integral
    for p, x, want in [
        (Poly([1, 2]), 3, 7),
        (Poly(), 3, 0),
        (Poly([Fraction(1, 2), Fraction(1, 2)]), 1, 1),
        (Poly([0, 2]), Fraction(1, 2), 1),
    ]:
        value = p.eval(x)
        assert value == want and type(value) is int
    assert Poly([1, 2]).eval(Fraction(1, 4)) == Fraction(3, 2)


# ----------------------------------------------------------------------
# Fibonacci / Lucas families


def test_fib_first_terms():
    expected = [
        Poly(),
        Poly([1]),
        Poly([1]),
        Poly([1, 1]),
        Poly([1, 2]),
        Poly([1, 3, 1]),
        Poly([1, 4, 3]),
        Poly([1, 5, 6, 1]),
        Poly([1, 6, 10, 4]),
    ]
    assert [fib_poly(n) for n in range(9)] == expected


def test_lucas_first_terms():
    expected = [
        Poly([2]),
        Poly([1]),
        Poly([1, 2]),
        Poly([1, 3]),
        Poly([1, 4, 2]),
        Poly([1, 5, 5]),
        Poly([1, 6, 9, 2]),
    ]
    assert [lucas_poly(n) for n in range(7)] == expected


def test_degrees():
    for n in range(21):
        assert fib_poly(2 * n + 1).degree == n
        assert fib_poly(2 * n + 2).degree == n
        assert lucas_poly(2 * n).degree == n
        assert lucas_poly(2 * n + 1).degree == n


def test_eval_examples():
    # (alpha, beta) = (2, -1) at s0 = 2: oracle gives (2**5 - (-1)**5) / 3 = 11
    assert binet_value(5, 2) == 11
    assert fib_poly(5).eval(2) == 11
    assert fib_poly(6).eval(Fraction(-1, 4)) == Fraction(3, 16)
    for x in (0, 5, Fraction(-7, 3)):
        assert fib_poly(1).eval(x) == 1


def test_binet_oracle_across_square_discriminants():
    for s0 in (2, 6, 12):
        for n in range(21):
            assert fib_poly(n).eval(s0) == binet_value(n, s0)


def test_quarter_point_values():
    for n in range(31):
        assert fib_poly(n).eval(Fraction(-1, 4)) == n / Fraction(2) ** (n - 1)


def test_even_fib_as_odd_combination():
    for n in range(21):
        total = Poly()
        for j in range(n + 1):
            total = total + fib_poly(2 * n + 1 - 2 * j).shift(j)
        assert total == fib_poly(2 * n + 2)


def test_lucas_fibonacci_bridge():
    for n in range(1, 21):
        assert lucas_poly(n) == fib_poly(n + 1) + fib_poly(n - 1).shift(1)


# ----------------------------------------------------------------------
# basis matrices


def test_basis_matrix_examples():
    assert basis_matrix("F_odd", 3) == TriMatrix([[1], [1, 1], [1, 3, 1]])
    assert basis_matrix("F_even", 2) == TriMatrix([[1], [1, 2]])
    assert basis_matrix("L_even", 2) == TriMatrix([[2], [1, 2]])
    assert basis_matrix("L_odd", 2) == TriMatrix([[1], [1, 3]])


def test_basis_matrix_rows_match_polynomials():
    for which, poly_at in (
        ("F_odd", lambda i: fib_poly(2 * i + 1)),
        ("F_even", lambda i: fib_poly(2 * i + 2)),
        ("L_even", lambda i: lucas_poly(2 * i)),
        ("L_odd", lambda i: lucas_poly(2 * i + 1)),
    ):
        m = basis_matrix(which, 10)
        for i in range(10):
            assert m.rows[i] == poly_at(i).coeffs


def test_basis_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_matrix("F_odd", 0)
    with pytest.raises(ValueError):
        basis_matrix("nope", 3)
    assert set(BASIS_KINDS) == {"F_odd", "F_even", "L_even", "L_odd"}


# ----------------------------------------------------------------------
# cross-checks hold without assertions


def test_broken_closed_form_raises(monkeypatch):
    monkeypatch.setattr(polyalg, "_fib_closed", lambda n: Poly([1] * n))
    monkeypatch.setattr(polyalg, "_fib", [Poly(), Poly([1])])
    with pytest.raises(ArithmeticError, match="fibonacci routes disagree at 2"):
        fib_poly(5)


BROKEN_CLOSED_FORM = """
from genocchi import polyalg
if __debug__:
    raise SystemExit("assertions are enabled")
polyalg._fib_closed = lambda n: polyalg.Poly([1] * n)
polyalg._fib = [polyalg.Poly(), polyalg.Poly([1])]
try:
    polyalg.fib_poly(5)
except ArithmeticError as exc:
    print(exc)
"""


def test_broken_closed_form_raises_under_optimize():
    src = str(Path(polyalg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CLOSED_FORM],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "fibonacci routes disagree at 2"
