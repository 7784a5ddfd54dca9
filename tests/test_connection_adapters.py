"""The catalog's connection adapters against hand-written case loops.

The adapters read each connection case off a whole matrix product; the
loops in connection_reference build the same cases term by term.  Both
must give the same cases, and the same reports when a cached value the
cases rest on is perturbed.
"""

from fractions import Fraction

import pytest

from connection_reference import REFERENCES
from fixtures import catalog_cases, perturbed
from genocchi import connect, numbers, polyalg
from genocchi.polyalg import Poly
from genocchi.reports import IdentityReport
from genocchi.trimat import _exact


def assert_same_side(got, want):
    assert got == want
    assert str(got) == str(want)
    if isinstance(want, Poly):
        assert type(got) is Poly
    else:
        # The loops' sums may leave an integral Fraction; the adapters give an int.
        assert type(got) is type(_exact(want))


@pytest.mark.parametrize(
    "label", ["2.3", "5.8", "2.1", "2.2", "2.4", "3.14", "4.40", "4.42", "4.50"]
)
def test_adapter_cases_equal_the_loops(label):
    got, want = catalog_cases(label, 12), list(REFERENCES[label](12))
    assert [case[0] for case in got] == [case[0] for case in want]
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for got_side, want_side in zip(g[1:], w[1:]):
            assert_same_side(got_side, want_side)


def test_4_6_restates_2_1():
    cases = catalog_cases("4.6", 20)
    assert cases == catalog_cases("2.1", 20)
    assert cases == list(REFERENCES["4.6"](20))


def reference_report(label, depth):
    found = connect.first_mismatch(REFERENCES[label](depth))
    return IdentityReport(label, depth, found is None, found)


PERTURBATIONS = {
    "bernoulli": (numbers._bernoulli, 8, lambda b: b + 1),
    "lucas": (polyalg._lucas, 6, lambda p: p + Poly.one()),
    "fibonacci": (polyalg._fib, 6, lambda p: p + Poly.one()),
}


@pytest.mark.parametrize("which", list(PERTURBATIONS))
def test_perturbed_caches_give_the_loops_reports(which):
    labels = ["2.1", "2.2", "2.3", "2.4", "3.14", "5.8"]
    # Warm every cache the cases read, so the perturbed entry is the one read.
    numbers.bernoulli(60)
    numbers.genocchi(30)
    polyalg.lucas_poly(40)
    for label in labels:
        assert connect.verify(label, 12) == reference_report(label, 12)
    with perturbed(*PERTURBATIONS[which]):
        reports = [
            (connect.verify(label, d), reference_report(label, d))
            for label in labels
            for d in (6, 12)
        ]
    for got, want in reports:
        assert got == want
    assert any(not got.passed for got, _ in reports)
    assert all(connect.verify(label, 12).passed for label in labels)


def test_scalar_adapter_sides_are_int_when_integral():
    for label in ("3.14", "3.15", "3.20", "3.21", "5.8", "5.9"):
        for _, *sides in catalog_cases(label, 10):
            for side in sides:
                assert type(side) in (int, Fraction)
                assert type(side) is int or side.denominator != 1
