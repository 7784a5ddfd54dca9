"""Differential checks against sympy, which is optional and skipped when absent."""

from fractions import Fraction

import pytest

from genocchi import numbers
from genocchi.stirling import preset, stirling1, stirling2

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
