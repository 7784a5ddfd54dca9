from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genocchi.trimat import SingularMatrixError, TriMatrix

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_st = fractions_st.filter(lambda x: x != 0)


@st.composite
def tri_matrices(draw, max_order=5):
    n = draw(st.integers(min_value=1, max_value=max_order))
    rows = [
        [draw(nonzero_st) if j == i else draw(fractions_st) for j in range(i + 1)]
        for i in range(n)
    ]
    return TriMatrix(rows)


def test_from_rule_identity():
    assert TriMatrix.from_rule(lambda i, j: 1 if i == j else 0, 3) == TriMatrix.identity(3)


def test_from_rule_binomial_rows():
    m = TriMatrix.from_rule(lambda i, j: comb(2 * i - j, j), 2)
    assert m.rows == ((Fraction(1),), (Fraction(1), Fraction(1)))


def test_from_rule_rejects_zero_order():
    with pytest.raises(ValueError):
        TriMatrix.from_rule(lambda i, j: 1, 0)


def test_constructor_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"^row 1 has 3 entries, expected 2$"):
        TriMatrix([[1], [2, 3, 4]])
    with pytest.raises(ValueError, match=r"^row 2 has 2 entries, expected 3$"):
        TriMatrix([[1], [2, 3], [4, 5]])


def test_entry_above_diagonal_is_zero():
    m = TriMatrix([[1], [2, 3]])
    assert m[0, 1] == 0
    with pytest.raises(IndexError):
        m[0, 2]
    with pytest.raises(IndexError, match=r"^entry \(2,0\) outside order-2 matrix$"):
        m[2, 0]


def test_repr_shows_the_values_of_a_matrix_up_to_order_6():
    assert repr(TriMatrix([[Fraction(1, 2)], [1, Fraction(-3, 4)]])) == "TriMatrix[1/2; 1 -3/4]"
    assert repr(TriMatrix.identity(6)).startswith("TriMatrix[1; 0 1; 0 0 1;")
    assert repr(TriMatrix.identity(7)) == "TriMatrix(order=7)"


def test_mul_identity_is_neutral():
    x = TriMatrix([[2], [3, 4], [5, 6, 7]])
    assert TriMatrix.identity(3) @ x == x
    assert x @ TriMatrix.identity(3) == x


def test_mul_order_mismatch():
    with pytest.raises(ValueError):
        TriMatrix.identity(2) @ TriMatrix.identity(3)


def test_inverse_hand_computed_two_by_two():
    # [[1], [-1, 2]] inverted by hand: second row solves -1*x + 2*y = 0, 2*y = 1
    m = TriMatrix([[1], [-1, 2]])
    assert m.inverse() == TriMatrix([[1], [Fraction(1, 2), Fraction(1, 2)]])


def test_inverse_identity():
    assert TriMatrix.identity(4).inverse() == TriMatrix.identity(4)


def test_inverse_singular_names_index():
    m = TriMatrix([[1], [5, 0], [1, 2, 3]])
    with pytest.raises(SingularMatrixError) as err:
        m.inverse()
    assert err.value.index == 1


def test_leading_submatrix():
    m = TriMatrix([[1], [2, 3], [4, 5, 6]])
    assert m.leading_submatrix(1) == TriMatrix([[1]])
    assert m.leading_submatrix(2) == TriMatrix([[1], [2, 3]])
    assert m.leading_submatrix(3) == m
    with pytest.raises(ValueError):
        m.leading_submatrix(4)
    with pytest.raises(ValueError):
        m.leading_submatrix(0)


def test_drop_leading():
    m = TriMatrix([[1], [2, 3], [4, 5, 6]])
    assert m.drop_leading() == TriMatrix([[3], [5, 6]])
    assert m.drop_leading().drop_leading() == TriMatrix([[6]])
    with pytest.raises(ValueError):
        TriMatrix([[1]]).drop_leading()


def test_first_difference():
    a = TriMatrix([[1], [2, 3]])
    b = TriMatrix([[1], [2, 4]])
    assert a.first_difference(b) == (1, 1)
    assert a.first_difference(a) is None


def test_immutability_against_source_rows():
    rows = [[1], [2, 3]]
    m = TriMatrix(rows)
    rows[1][0] = 99
    assert m[1, 0] == 2


@settings(max_examples=40, deadline=None)
@given(tri_matrices())
def test_inverse_roundtrip(m):
    inv = m.inverse()
    assert m @ inv == TriMatrix.identity(m.order)
    assert inv.inverse() == m


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mul_associative(data):
    n = data.draw(st.integers(min_value=1, max_value=8))

    def anym():
        return TriMatrix(
            [[data.draw(fractions_st) for _ in range(i + 1)] for i in range(n)]
        )

    a, b, c = anym(), anym(), anym()
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=25, deadline=None)
@given(tri_matrices(), st.integers(min_value=1, max_value=5))
def test_truncation_commutes_with_inverse(m, k):
    k = min(k, m.order)
    assert m.inverse().leading_submatrix(k) == m.leading_submatrix(k).inverse()
