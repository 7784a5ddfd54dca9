"""The catalog's connection adapters against hand-written case loops.

The adapters check each connection row as one case of whole matrices; the
loops in connection_reference build its cases term by term, one per row or
per entry.  Both must give the same cases, and the same reports when a
cached value the cases rest on is perturbed.
"""

from fractions import Fraction

import pytest

from connection_reference import REFERENCES
from fixtures import ENTRY_ROWS, catalog_cases, perturbed
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


def side_cases(label, depth):
    """The label's one case of whole matrices cut into the loops' cases.

    Case n holds row n of each side as a polynomial; for an entry row, case
    (n, k) holds entry (n, k) of each side.
    """
    (_, *sides), = catalog_cases(label, depth)
    if label in ENTRY_ROWS:
        return [(f"n={n},k={k}", *(m[n, k] for m in sides))
                for n in range(depth + 1) for k in range(n + 1)]
    return [(f"n={n}", *(Poly(m.rows[n]) for m in sides)) for n in range(depth + 1)]


@pytest.mark.parametrize(
    "label", ["2.3", "5.8", "2.1", "2.2", "2.4", "3.14", "4.40", "4.42", "4.50"]
)
def test_adapter_cases_equal_the_loops(label):
    got, want = side_cases(label, 12), list(REFERENCES[label](12))
    assert [case[0] for case in got] == [case[0] for case in want]
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for got_side, want_side in zip(g[1:], w[1:]):
            assert_same_side(got_side, want_side)


def test_4_6_restates_2_1():
    assert catalog_cases("4.6", 20) == catalog_cases("2.1", 20)
    assert side_cases("4.6", 20) == list(REFERENCES["4.6"](20))


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
    for label in ENTRY_ROWS:
        (_, *sides), = catalog_cases(label, 10)
        for x in (x for side in sides for row in side.rows for x in row):
            assert type(x) in (int, Fraction)
            assert type(x) is int or x.denominator != 1
