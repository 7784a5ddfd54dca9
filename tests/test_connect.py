from fractions import Fraction

import pytest

import golden
from fixtures import tangent_matrix_inverse_printed
from genocchi import connect, numbers
from genocchi.polyalg import Poly, basis_matrix, fib_poly
from genocchi.reports import UnknownIdentityError
from genocchi.stirling import preset, stirling2_shifted
from genocchi.trimat import TriMatrix

F = Fraction


# ----------------------------------------------------------------------
# golden matrices


def test_genocchi_matrix_golden():
    a5 = connect.genocchi_matrix(5)
    assert a5.rows == golden.A_5
    assert a5[4, 2] == 126
    assert connect.genocchi_matrix(1) == TriMatrix([[1]])


def test_genocchi_matrix_squared_golden():
    sq = connect.genocchi_matrix_squared(5)
    assert sq.rows == golden.A_5_SQUARED
    assert sq[2, 0] == 17
    assert sq[1, 1] == 4


def test_tangent_matrix_golden():
    b5 = connect.tangent_matrix(5)
    assert b5.rows == golden.B_5
    assert b5[3, 0] == F(-17, 8)
    assert b5[0, 0] == F(1, 2)


def test_a1_matrix_golden():
    a1 = connect.a1_matrix(6)
    assert a1.rows == golden.A1_6
    assert a1[2, 1] == -2
    assert a1[0, 0] == 1


def test_a2_matrix_golden():
    a2 = connect.a2_matrix(5)
    assert a2.rows == golden.A2_5
    assert a2[1, 0] == -4
    assert a2[0, 0] == 2


def test_partial_sum_matrices_match_definitions():
    # a1 sums row prefixes of A, a2 takes differences of consecutive a1 rows
    # and z sums prefixes of differences of consecutive rows of A^-1.
    order = 12
    a, w = connect.genocchi_matrix(order + 1), connect.genocchi_matrix_inverse(order + 1)
    a1 = [[sum(a[n, j] for j in range(k + 1)) for k in range(n + 1)] for n in range(order + 1)]
    a2 = [[a1[n][k] - a1[n + 1][k] for k in range(n + 1)] for n in range(order)]
    z = [
        [sum(w[n, j] - w[n + 1, j] for j in range(k + 1)) for k in range(n + 1)]
        for n in range(order)
    ]
    assert connect.a1_matrix(order + 1) == TriMatrix(a1)
    assert connect.a2_matrix(order) == TriMatrix(a2)
    assert connect.z_matrix(order) == TriMatrix(z)


def test_inverse_binomial_golden():
    fib_odd = basis_matrix("F_odd", 6)
    assert fib_odd.inverse().rows == golden.FIB_ODD_INVERSE_6
    product = fib_odd.inverse() @ basis_matrix("F_even", 6)
    assert product.rows == golden.FIB_ODD_INV_TIMES_EVEN_6


def test_second_column_of_inverse_product():
    product = basis_matrix("F_odd", 8).inverse() @ basis_matrix("F_even", 8)
    col = product.column(1)
    assert col[0] == 0
    assert col[1] == 2
    for n in range(2, 8):
        assert col[n] == (-1) ** (n - 1) * numbers.median_genocchi(n)


# ----------------------------------------------------------------------
# closed forms against triangular inversion


def test_genocchi_matrix_inverse_closed_form():
    assert connect.genocchi_matrix_inverse(12) == connect.genocchi_matrix(12).inverse()
    assert connect.genocchi_matrix_inverse(2) == TriMatrix([[1], [F(1, 2), F(1, 2)]])
    assert connect.genocchi_matrix_inverse(1)[0, 0] == 1


def test_genocchi_matrix_inverse_first_column():
    inv = connect.genocchi_matrix_inverse(9)
    assert [str(x) for x in inv.column(0)] == golden.ODD_WEIGHTED_BERNOULLI_9
    for n in range(9):
        assert inv[n, 0] == (2 * n + 1) * numbers.bernoulli(2 * n)


def test_tangent_matrix_inverse_closed_form():
    assert connect.tangent_matrix_inverse(12) == connect.tangent_matrix(12).inverse()
    assert connect.tangent_matrix_inverse(2) == TriMatrix([[2], [F(1, 3), F(2, 3)]])
    assert connect.tangent_matrix_inverse(1)[0, 0] == 2


def test_tangent_matrix_inverse_printed_form_fails():
    # the closed form without the factor 2 is wrong already at order 1
    printed = tangent_matrix_inverse_printed(1)
    assert connect.tangent_matrix(1) @ printed != TriMatrix.identity(1)
    assert printed != connect.tangent_matrix(1).inverse()


def test_genocchi_matrix_squared_is_the_square():
    a = connect.genocchi_matrix(10)
    assert connect.genocchi_matrix_squared(10) == a @ a


def test_squared_row_relations():
    a = connect.genocchi_matrix(13)
    sq = connect.genocchi_matrix_squared(12)
    for n in range(12):
        assert sq[n, 0] == -a[n + 1, 0]
        for k in range(1, n):
            assert sq[n, k] == a[n, k - 1] - a[n + 1, k]


def test_z_matrix_inverts_a2():
    assert connect.z_matrix(6) @ connect.a2_matrix(6) == TriMatrix.identity(6)
    z = connect.z_matrix(3)
    assert z[0, 0] == F(1, 2)
    assert z[1, 0] == F(2, 3)


# ----------------------------------------------------------------------
# structural invariants


def test_row_sums_are_one():
    a = connect.genocchi_matrix(21)
    for row in a.rows:
        assert sum(row) == 1


def test_weighted_row_identity_at_quarter_point():
    a = connect.genocchi_matrix(21)
    for n in range(21):
        total = sum(4 ** (n - k) * (2 * k + 1) * a[n, k] for k in range(n + 1))
        assert total == n + 1


def test_periodic_row_identity():
    a = connect.genocchi_matrix(21)
    for n in range(7):
        row = 3 * n + 2
        lhs = sum(a[row, 3 * k] for k in range(n + 1))
        rhs = sum(a[row, 3 * k + 2] for k in range(n + 1))
        assert lhs == rhs


def test_eigen_relation():
    order = 12
    a = connect.genocchi_matrix(order)
    t_sh = stirling2_shifted(preset("central-factorial"), order)
    for k in range(order - 1):
        col = t_sh.column(k)
        image = tuple(sum(a[n, j] * col[j] for j in range(n + 1)) for n in range(order))
        assert image == tuple((k + 1) * c for c in col)


# ----------------------------------------------------------------------
# linear functionals


def test_lambda_functional():
    lam = connect.lambda_functional(16)
    assert connect.functional_apply(lam, fib_poly(1)) == 1
    assert connect.functional_apply(lam, fib_poly(6)) == 3
    for n in range(1, 13):
        assert connect.functional_apply(lam, fib_poly(2 * n + 1)) == (1 if n == 0 else 0)
        assert connect.functional_apply(lam, fib_poly(2 * n)) == (-1) ** (n - 1) * numbers.genocchi(n)


def test_lambda_moments_are_signed_medians():
    lam = connect.lambda_functional(8)
    assert lam.moments == tuple(
        F((-1) ** n * numbers.median_genocchi(n)) for n in range(8)
    )


def test_lambda_star_values():
    star = connect.lambda_star_functional(16)
    values = [connect.functional_apply(star, fib_poly(n)) for n in range(13)]
    assert values == [0, 1, 1, -1, -3, 3, 17, -17, -155, 155, 2073, -2073, -38227]
    for n in range(13):
        # the defining relation: negated evaluation against s times the polynomial
        lam = connect.lambda_functional(16)
        assert connect.functional_apply(star, fib_poly(n)) == -connect.functional_apply(
            lam, fib_poly(n).shift(1)
        )


def test_lambda_star_sums():
    star = connect.lambda_star_functional(16)
    for n in range(13):
        total = connect.functional_apply(star, fib_poly(2 * n) + fib_poly(2 * n + 1))
        assert total == (1 if n == 0 else 0)
    for n in range(1, 13):
        total = connect.functional_apply(star, fib_poly(2 * n - 1) + fib_poly(2 * n))
        assert total == (-1) ** (n - 1) * (numbers.genocchi(n) + numbers.genocchi(n + 1))


def test_mu_functional():
    mu = connect.mu_functional(16)
    for n in range(13):
        assert connect.functional_apply(mu, fib_poly(2 * n + 2)) == (1 if n == 0 else 0)
        assert connect.functional_apply(mu, fib_poly(2 * n + 1)) == (2 * n + 1) * numbers.bernoulli(2 * n)


def test_phi_functional():
    phi2 = connect.phi_functional(2, 16)
    assert connect.functional_apply(phi2, fib_poly(7)) == 21
    t_sh = stirling2_shifted(preset("central-factorial"), 14)
    for k in range(1, 5):
        phi = connect.phi_functional(k + 1, 16)
        for n in range(12):
            assert connect.functional_apply(phi, fib_poly(2 * n + 1)) == t_sh[n, k]
            assert connect.functional_apply(phi, fib_poly(2 * n + 2)) == (k + 1) * t_sh[n, k]
    with pytest.raises(ValueError):
        connect.phi_functional(0, 4)


def test_functional_apply_insufficient_moments():
    lam = connect.lambda_functional(3)
    with pytest.raises(ValueError):
        connect.functional_apply(lam, fib_poly(9))


# ----------------------------------------------------------------------
# catalogs


def test_factorization_catalog_passes():
    for ident in connect.FACTORIZATION_IDS:
        report = connect.verify(ident, 8)
        assert report.passed, report.describe()
        assert report.counterexample is None


def test_factorization_unknown_id():
    with pytest.raises(UnknownIdentityError):
        connect.verify("9.99", 5)


def _mismatch_with_last_side(label, depth, change):
    """first_mismatch over the label's cases with the last side of the last case changed."""
    _, cases = connect.CATALOG[label]
    cases = list(cases(depth))
    where, *sides = cases[-1]
    sides[-1] = change(sides[-1])
    cases[-1] = (where, *sides)
    return where, sides[-1], connect.first_mismatch(cases)


def test_factorization_reports_difference():
    _, doctored, found = _mismatch_with_last_side(
        "4.16", 5, lambda side: TriMatrix.diagonal([1] * 5)
    )
    reference = connect.genocchi_matrix(5)
    assert reference.first_difference(doctored) == (1, 0)
    assert found == ("entry (1,0)", str(reference[1, 0]), "0")


def _bump(side):
    """The side with 1 added: to its last row's first entry, if it is a matrix."""
    if isinstance(side, TriMatrix):
        rows = [list(row) for row in side.rows]
        rows[-1][0] += 1
        return TriMatrix(rows)
    if isinstance(side, Poly):
        return side + Poly.one()
    return side + 1


@pytest.mark.parametrize("label", list(connect.CATALOG))
def test_every_label_reports_a_perturbed_side(label):
    with pytest.raises(ValueError):
        connect.verify(label, 0)
    assert connect.verify(label, 1).passed
    depth = 6
    assert connect.verify(label, depth).passed
    where, bumped, found = _mismatch_with_last_side(label, depth, _bump)
    if isinstance(bumped, TriMatrix):
        assert found[0] == f"{where} ({bumped.order - 1},0)"
    else:
        assert found[0] == where and found[2] == str(bumped)


def test_connection_catalog_passes():
    for ident in connect.CONNECTION_IDS:
        report = connect.verify(ident, 10)
        assert report.passed, report.describe()


def test_connection_unknown_id():
    with pytest.raises(UnknownIdentityError):
        connect.verify("1.23", 5)


def test_connection_hand_instances():
    # the n = 1 case of the even-basis expansion: coefficients -1 and 2
    lhs = fib_poly(4)
    rhs = -1 * fib_poly(1) + 2 * fib_poly(3)
    assert lhs == rhs == Poly([1, 2])


def test_truncation_consistency_of_families():
    builders = [
        connect.genocchi_matrix,
        connect.genocchi_matrix_squared,
        connect.genocchi_matrix_inverse,
        connect.tangent_matrix,
        connect.tangent_matrix_inverse,
        connect.a1_matrix,
        connect.a2_matrix,
        connect.z_matrix,
        connect.c_matrix,
        connect.c_matrix_inverse,
    ]
    for build in builders:
        full = build(12)
        for k in range(1, 13):
            assert full.leading_submatrix(k) == build(k)
