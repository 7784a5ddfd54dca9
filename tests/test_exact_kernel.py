"""The int/Fraction kernel under TriMatrix and Poly against all-Fraction references.

Every value the kernel holds must be an int when it is integral and a
Fraction otherwise, never a float; the references below compute the same
products and inverses, and the catalog's exact-arithmetic operators, with
every entry a Fraction, entry by entry, with no scaling to ints.
"""

from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genocchi import connect
from genocchi.polyalg import Poly, basis_matrix
from genocchi.stirling import PRESETS, stirling1, stirling2
from genocchi.trimat import SingularMatrixError, TriMatrix

ints_st = st.integers(min_value=-9, max_value=9)
fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
unit_st = st.sampled_from([1, -1])
pivots_st = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])


def assert_exact(values):
    for x in values:
        assert type(x) in (int, Fraction), f"{x!r} is a {type(x).__name__}"
        if x.denominator == 1:
            assert type(x) is int, f"integral value {x!r} is not an int"


def assert_exact_matrix(m: TriMatrix):
    for row in m.rows:
        assert_exact(row)


def ref_mul(a, b):
    n = len(a)
    return [
        [sum((Fraction(a[i][k]) * Fraction(b[k][j]) for k in range(j, i + 1)), Fraction(0))
         for j in range(i + 1)]
        for i in range(n)
    ]


def ref_inverse(a):
    inv = []
    for i in range(len(a)):
        d = Fraction(a[i][i])
        row = []
        for j in range(i):
            acc = sum((Fraction(a[i][k]) * inv[k][j] for k in range(j, i)), Fraction(0))
            row.append(-acc / d)
        row.append(1 / d)
        inv.append(row)
    return inv


def ref_poly_mul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += Fraction(a) * Fraction(b)
    return out


def trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@st.composite
def triangles(draw, order=None, entry=None, diagonal=None):
    """Rows of a lower triangle: integral or rational entries, unit or non-unit diagonal.

    Unless `entry` is given, each row draws its own entry kind, so integral
    and rational rows mix in one matrix.
    """
    if order is None:
        order = draw(st.integers(min_value=1, max_value=7))
    if diagonal is None:
        diagonal = draw(st.sampled_from([unit_st, ints_st, fractions_st]))
    diagonal = diagonal.filter(lambda x: x != 0)
    rows = []
    for i in range(order):
        row_entry = entry if entry is not None else draw(st.sampled_from([ints_st, fractions_st]))
        rows.append([draw(diagonal) if j == i else draw(row_entry) for j in range(i + 1)])
    return rows


@settings(max_examples=60, deadline=None)
@given(triangles(), st.data())
def test_mul_matches_fraction_reference(rows, data):
    other = data.draw(triangles(order=len(rows)))
    got = TriMatrix(rows) @ TriMatrix(other)
    assert got.rows == tuple(map(tuple, ref_mul(rows, other)))
    assert_exact_matrix(got)


@settings(max_examples=60, deadline=None)
@given(triangles())
def test_inverse_matches_fraction_reference(rows):
    got = TriMatrix(rows).inverse()
    assert got.rows == tuple(map(tuple, ref_inverse(rows)))
    assert_exact_matrix(got)


@settings(max_examples=30, deadline=None)
@given(triangles(entry=ints_st, diagonal=unit_st))
def test_unit_diagonal_integral_inverse_stays_int(rows):
    inv = TriMatrix(rows).inverse()
    assert all(type(x) is int for row in inv.rows for x in row)
    assert TriMatrix(rows) @ inv == TriMatrix.identity(len(rows))


@settings(max_examples=60, deadline=None)
@given(triangles(diagonal=pivots_st), st.data())
def test_solve_matches_fraction_reference(rows, data):
    other = data.draw(st.one_of(triangles(order=len(rows)), rational_triangles(order=len(rows))))
    x, b = TriMatrix(rows), TriMatrix(other)
    got = x.solve(b)
    assert got.rows == tuple(map(tuple, ref_mul(ref_inverse(rows), other)))
    assert got == x.inverse() @ b
    assert_kernel_outputs_exact(got)
    # right division, through the anti-transpose
    right = x.solve_right(b)
    assert right.rows == tuple(map(tuple, ref_mul(other, ref_inverse(rows))))
    assert right == b @ x.inverse()
    assert_kernel_outputs_exact(right)
    assert x.flip().flip() == x and (x @ b).flip() == b.flip() @ x.flip()


@settings(max_examples=30, deadline=None)
@given(triangles(order=6, diagonal=pivots_st), st.data())
def test_zero_pivot_names_the_same_index_in_every_solve(rows, data):
    zeros = data.draw(st.sets(st.integers(min_value=0, max_value=5), min_size=1))
    x = TriMatrix([[0 if i == j and i in zeros else v for j, v in enumerate(row)]
                   for i, row in enumerate(rows)])
    b = TriMatrix.identity(6)
    for run in (x.inverse, lambda: x.solve(b), lambda: x.solve_right(b)):
        with pytest.raises(SingularMatrixError) as raised:
            run()
        assert raised.value.index == min(zeros)


def test_non_unit_diagonal_inverse_is_rational():
    inv = TriMatrix([[2], [1, 3]]).inverse()
    assert inv.rows == ((Fraction(1, 2),), (Fraction(-1, 6), Fraction(1, 3)))
    assert_exact_matrix(inv)
    assert TriMatrix([[2], [1, 3]]) @ inv == TriMatrix.identity(2)


def test_unit_pivot_after_the_column_denominator_grew():
    # Rows 0 and 2 grow column 0's denominator to 12 before row 3's -1 pivot
    # arrives, and column 1's to 3 before it; column 3 stays integral.
    rows = [[2], [1, 1], [Fraction(1, 2), 1, 3], [1, 1, 1, -1]]
    inv = TriMatrix(rows).inverse()
    assert inv.rows == tuple(map(tuple, ref_inverse(rows)))
    assert inv.rows[3] == (Fraction(1, 12), Fraction(2, 3), Fraction(1, 3), -1)
    assert_exact_matrix(inv)


def test_entries_normalise_on_construction():
    m = TriMatrix([[Fraction(4, 2)], [Fraction(5, 2), Fraction(3)]])
    assert m.rows == ((2,), (Fraction(5, 2), 3))
    assert_exact_matrix(m)
    assert m == TriMatrix([[2], [Fraction(5, 2), 3]])
    assert hash(m) == hash(TriMatrix([[Fraction(2)], [Fraction(5, 2), Fraction(3)]]))
    assert type(m[0, 1]) is int


@pytest.mark.parametrize("x", [2.5, 2.0, True, "2"])
def test_inexact_entries_are_rejected(x):
    # a float is not silently read as its binary Fraction, nor a bool as 0 or 1
    for build in (lambda: TriMatrix([[1], [x, 1]]), lambda: Poly([1, x])):
        with pytest.raises(TypeError, match="is not an int or Fraction$"):
            build()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(ints_st, fractions_st), max_size=6),
    st.lists(st.one_of(ints_st, fractions_st), max_size=6),
    st.one_of(ints_st, fractions_st),
)
def test_poly_add_mul_match_fraction_reference(p, q, c):
    a, b = Poly(p), Poly(q)
    longer = max(len(p), len(q))
    padded = lambda cs: [Fraction(x) for x in cs] + [Fraction(0)] * (longer - len(cs))  # noqa: E731
    cases = {
        "add": (a + b, trimmed(map(sum, zip(padded(p), padded(q))))),
        "mul": (a * b, trimmed(ref_poly_mul(trimmed(p), trimmed(q)))),
        "scalar": (c * a, trimmed(Fraction(c) * Fraction(x) for x in p)),
        "shift": (a.shift(2), trimmed([0, 0, *p]) if trimmed(p) else []),
    }
    for name, (got, want) in cases.items():
        assert list(got.coeffs) == want, name
        assert_exact(got.coeffs)
    assert Poly(p) == Poly([Fraction(x) for x in p])
    assert hash(Poly(p)) == hash(Poly([Fraction(x) for x in p]))


def test_stirling_entries_are_exact():
    for spec in PRESETS.values():
        for build in (stirling1, stirling2):
            assert_exact_matrix(build(spec, 12))
    assert all(type(x) is int for row in stirling2(PRESETS["stirling"], 12).rows for x in row)


# ----------------------------------------------------------------------
# the scaled-integer kernel on rational operands


DENOMINATORS = {
    "4^n": lambda i, j: 4 ** (i - j),
    "lcm(1..n)": lambda i, j: lcm(*range(1, i + 2)),
    "mixed": lambda i, j: (j + 1) * 4**i,
}


@st.composite
def rational_triangles(draw, order=None, diagonal=None):
    """Rows whose entry (i, j) has numerator drawn and a 4^n or lcm(1..n) denominator.

    The diagonal is either constant (like the 2s of L_even) or varies from
    row to row (like (2j+1)/2 in the u-half-odd factorization).
    """
    if order is None:
        order = draw(st.integers(min_value=1, max_value=8))
    den = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    nums = st.integers(min_value=-50, max_value=50)
    if diagonal is None:
        diagonal = draw(st.sampled_from(["constant", "varying"]))
    if diagonal == "constant":
        d = draw(fractions_st.filter(lambda x: x != 0))
        diag = [d] * order
    else:
        nonzero = st.one_of(ints_st, fractions_st).filter(lambda x: x != 0)
        diag = [draw(nonzero) for _ in range(order)]
    return [
        [diag[i] if j == i else Fraction(draw(nums), den(i, j)) for j in range(i + 1)]
        for i in range(order)
    ]


def assert_kernel_outputs_exact(m: TriMatrix):
    assert_exact_matrix(m)
    for k in range(1, m.order + 1):
        assert_exact_matrix(m.leading_submatrix(k))
    while m.order > 1:
        m = m.drop_leading()
        assert_exact_matrix(m)


@settings(max_examples=60, deadline=None)
@given(rational_triangles(), st.data())
def test_rational_mul_matches_fraction_reference(rows, data):
    other = data.draw(st.one_of(rational_triangles(order=len(rows)), triangles(order=len(rows))))
    got = TriMatrix(rows) @ TriMatrix(other)
    assert got.rows == tuple(map(tuple, ref_mul(rows, other)))
    assert_kernel_outputs_exact(got)


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_triangles(), triangles()))
def test_inverse_round_trips(rows):
    a = TriMatrix(rows)
    inv = a.inverse()
    assert inv.rows == tuple(map(tuple, ref_inverse(rows)))
    assert a @ inv == TriMatrix.identity(len(rows))
    assert inv @ a == TriMatrix.identity(len(rows))
    assert inv.inverse() == a
    assert_kernel_outputs_exact(inv)


# The catalog's exact-arithmetic operators, each applied to Fraction rows a
# (and b) entry by entry, with s the column scales of "cols".
EXACT_OPERATORS = {
    "cols": lambda a, b, s: [[x * y for x, y in zip(row, s)] for row in a],
    "sums": lambda a, b, s: [list(accumulate(row)) for row in a],
    "diffs": lambda a, b, s: [[x - y for x, y in zip(r, t)] for r, t in zip(a, a[1:])],
    "+": lambda a, b, s: [[x + y for x, y in zip(r, t)] for r, t in zip(a, b)],
    "down": lambda a, b, s: [[Fraction(0)], *([*row, Fraction(0)] for row in a[:-1])],
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(EXACT_OPERATORS)),
    st.one_of(rational_triangles(), triangles(), triangles(entry=ints_st, diagonal=ints_st)),
    st.data(),
)
def test_exact_operators_match_fraction_reference(op, rows, data):
    n = len(rows)
    offset, f = connect._OPERATORS[op]
    assume(n > offset)  # an operand read at one order more has at least two rows
    other = data.draw(st.one_of(rational_triangles(order=n), triangles(order=n)))
    scales = data.draw(st.lists(st.one_of(ints_st, fractions_st), min_size=n, max_size=n))
    a, b = TriMatrix(rows), TriMatrix(other)
    operands = {"cols": (a, scales.__getitem__), "+": (a, b)}.get(op, (a,))
    got = f(*operands)
    as_fractions = lambda m: [[Fraction(x) for x in row] for row in m]  # noqa: E731
    want = EXACT_OPERATORS[op](as_fractions(rows), as_fractions(other), scales)
    assert got.order == n - offset
    assert got.rows == tuple(map(tuple, want))
    assert_kernel_outputs_exact(got)


def test_library_factorizations_invert_like_the_reference():
    order = 10
    u_half = stirling2(PRESETS["u-half-odd"], order)
    half_odd = TriMatrix.from_rule(lambda i, j: Fraction(2 * j + 1, 2) if i == j else 0, order)
    varying = u_half @ half_odd @ stirling1(PRESETS["u-half-odd"], order)
    l_even = basis_matrix("L_even", order)
    assert [l_even[i, i] for i in range(order)] == [2] * order
    for m in (varying, l_even, u_half, connect.genocchi_matrix_inverse(order)):
        inv = m.inverse()
        assert inv.rows == tuple(map(tuple, ref_inverse(m.rows)))
        assert m @ inv == TriMatrix.identity(order)
        assert inv.inverse() == m
        assert_kernel_outputs_exact(inv)
        assert_kernel_outputs_exact(m @ m)
    assert varying == connect.tangent_matrix(order)
