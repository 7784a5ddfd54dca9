"""Routes and fixtures that only the tests use.

`tangent_matrix_inverse_printed` is the closed form of the tangent-matrix
inverse without its leading factor 2, a near miss kept as a regression
fixture.  `conjugation_first_column` computes the first column of the
triangle-diagonal-inverse conjugation product directly, as an independent
route for the first column of the row-difference-and-scale engine, which
`at_first_column` reads off an engine run.
"""

from fractions import Fraction
from math import comb

from genocchi import numbers
from genocchi.akiyama import ATSpec, at_matrix
from genocchi.stirling import stirling2
from genocchi.trimat import TriMatrix


def tangent_matrix_inverse_printed(order):
    """The closed form of the tangent-matrix inverse without the factor 2; wrong on purpose."""

    def rule(i, j):
        return comb(2 * i, 2 * j) * numbers.bernoulli(2 * i - 2 * j) / (2 * j + 1)

    return TriMatrix.from_rule(rule, order)


def at_first_column(weights, seed, count):
    """First column of an engine run with `count` rows."""
    matrix = at_matrix(ATSpec(weights, seed, rows=count, cols=1))
    return tuple(r[0] for r in matrix)


def conjugation_first_column(weights, diag, count):
    """First column of the triangle-diagonal-inverse conjugation product.

    Computed directly from the alternating sum over the second-kind
    triangle; the engine's first column must reproduce it.
    """
    tri = stirling2(weights, count)
    out = []
    for n in range(count):
        prod = Fraction(1)
        acc = Fraction(0)
        for j in range(n + 1):
            acc += (-1) ** j * tri[n, j] * Fraction(diag(j)) * prod
            prod *= weights(j)
        out.append(acc)
    return tuple(out)
