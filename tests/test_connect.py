from contextlib import ExitStack
from fractions import Fraction

import pytest

import golden
from fixtures import (
    CACHES, ENTRY_ROWS, catalog_cases, perturbed, tangent_matrix_inverse_printed,
)
from genocchi import cli, connect, numbers, polyalg, stirling
from genocchi.polyalg import Poly, basis_matrix, fib_poly
from genocchi.reports import UnknownIdentityError
from genocchi.stirling import WeightSpec, preset, stirling2
from genocchi.trimat import Cache, TriMatrix

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


def _named(name, order):
    return connect.evaluate(connect.MATRICES[name], order)


def test_a1_matrix_golden():
    a1 = _named("a1", 6)
    assert a1.rows == golden.A1_6
    assert a1[2, 1] == -2
    assert a1[0, 0] == 1


def test_a2_matrix_golden():
    a2 = _named("a2", 5)
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
    assert _named("a1", order + 1) == TriMatrix(a1)
    assert _named("a2", order) == TriMatrix(a2)
    assert _named("z", order) == TriMatrix(z)


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
    assert _named("z", 6) @ _named("a2", 6) == TriMatrix.identity(6)
    z = _named("z", 3)
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
    t_sh = stirling2(preset("central-factorial-shifted"), order)
    for k in range(order - 1):
        col = t_sh.column(k)
        image = tuple(sum(a[n, j] * col[j] for j in range(n + 1)) for n in range(order))
        assert image == tuple((k + 1) * c for c in col)


# ----------------------------------------------------------------------
# linear functionals, each given by its monomial moments


def _apply(moments, p):
    """The linear functional with these monomial moments, evaluated at p."""
    assert len(p.coeffs) <= len(moments), (p, len(moments))
    return sum(c * m for c, m in zip(p.coeffs, moments))


# lambda* is p -> lambda(-s p); mu is 1 on F_2 and 0 on F_4, F_6, ... by
# construction; phi_k, k >= 1, reads column k - 1 of the Legendre-Stirling triangle.
LAMBDA = tuple((-1) ** n * numbers.median_genocchi(n) for n in range(16))
LAMBDA_STAR = tuple((-1) ** n * numbers.median_genocchi(n + 1) for n in range(16))
MU = basis_matrix("F_even", 16).inverse().column(0)
_LS = stirling2(preset("legendre-stirling"), 16)
PHI = {k: _LS.column(k - 1) for k in range(1, 6)}


def test_lambda_functional():
    assert _apply(LAMBDA, fib_poly(1)) == 1
    assert _apply(LAMBDA, fib_poly(6)) == 3
    for n in range(13):
        assert _apply(LAMBDA, fib_poly(2 * n + 1)) == (1 if n == 0 else 0)
    for n in range(1, 13):
        assert _apply(LAMBDA, fib_poly(2 * n)) == (-1) ** (n - 1) * numbers.genocchi(n)


def test_lambda_star_values():
    values = [_apply(LAMBDA_STAR, fib_poly(n)) for n in range(13)]
    assert values == [0, 1, 1, -1, -3, 3, 17, -17, -155, 155, 2073, -2073, -38227]
    for n in range(13):
        # the defining relation: negated evaluation against s times the polynomial
        assert _apply(LAMBDA_STAR, fib_poly(n)) == -_apply(LAMBDA, fib_poly(n).shift(1))


def test_lambda_star_sums():
    for n in range(13):
        total = _apply(LAMBDA_STAR, fib_poly(2 * n) + fib_poly(2 * n + 1))
        assert total == (1 if n == 0 else 0)
    for n in range(1, 13):
        total = _apply(LAMBDA_STAR, fib_poly(2 * n - 1) + fib_poly(2 * n))
        assert total == (-1) ** (n - 1) * (numbers.genocchi(n) + numbers.genocchi(n + 1))


def test_mu_functional():
    for n in range(13):
        assert _apply(MU, fib_poly(2 * n + 2)) == (1 if n == 0 else 0)
        assert _apply(MU, fib_poly(2 * n + 1)) == (2 * n + 1) * numbers.bernoulli(2 * n)


def test_phi_functional():
    assert _apply(PHI[2], fib_poly(7)) == 21
    t_sh = stirling2(preset("central-factorial-shifted"), 14)
    for k in range(1, 5):
        for n in range(12):
            assert _apply(PHI[k + 1], fib_poly(2 * n + 1)) == t_sh[n, k]
            assert _apply(PHI[k + 1], fib_poly(2 * n + 2)) == (k + 1) * t_sh[n, k]


# ----------------------------------------------------------------------
# catalogs


def test_factorization_catalog_passes():
    for ident in connect.FACTORIZATION_IDS:
        report = connect.verify(ident, 8)
        assert report.passed, report.describe()
        assert report.counterexample is None


def test_catalog_kinds_are_counted():
    # Each ID tuple holds exactly the labels of its kind, in label order.
    kinds = {kind: tuple(label for label, row in connect.CATALOG.items() if row.kind == kind)
             for kind in ("factorization", "connection", "summation")}
    assert kinds["factorization"] == connect.FACTORIZATION_IDS
    assert kinds["connection"] == connect.CONNECTION_IDS
    assert {kind: len(labels) for kind, labels in kinds.items()} == {
        "factorization": 27, "connection": 15, "summation": 14,
    }


def test_factorization_unknown_id():
    with pytest.raises(UnknownIdentityError):
        connect.verify("9.99", 5)


def _mismatch_with_last_side(label, depth, change):
    """first_mismatch over the label's cases with the last side of the last case changed."""
    cases = catalog_cases(label, depth)
    where, *sides = cases[-1]
    sides[-1] = change(sides[-1])
    cases[-1] = (where, *sides)
    return where, sides[-1], connect.first_mismatch(cases)


def test_factorization_reports_difference():
    _, doctored, found = _mismatch_with_last_side("4.16", 5, lambda side: TriMatrix.identity(5))
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
        # the one case of whole matrices fails at the bumped entry, (n, 0)
        n = bumped.order - 1
        if connect.CATALOG[label].kind == "factorization":
            assert found[0] == f"entry ({n},0)" and found[2] == str(bumped[n, 0])
        elif label in ENTRY_ROWS:
            assert found[0] == f"n={n},k=0" and found[2] == str(bumped[n, 0])
        else:
            assert found[0] == f"n={n}" and found[2] == str(Poly(bumped.rows[n]))
    else:
        assert found[0] == where and found[2] == str(bumped)


# The report of each connection and summation label at depth 6 with _bump
# applied to the last side of its last case, recorded when the connection
# cases built their basis matrix from fib_poly and lucas_poly, one case per
# row or per entry, and the summation sums ran in Fraction arithmetic.  The
# one case of a connection row now holds whole matrices, so its last side is
# bumped where the last case's was: at (n, n) for an entry row and at (n, 0),
# the constant term, for a polynomial row.  The sums run in ints, whose str
# must be the Fraction's.
PERTURBED_LAST_CASES = {
    "2.1": (
        "2.1: FAIL at n=6: lhs=1 + 12*s + 55*s^2 + 120*s^3 + 126*s^4 + 56*s^5 + 7*s^6 "
        "rhs=2 + 12*s + 55*s^2 + 120*s^3 + 126*s^4 + 56*s^5 + 7*s^6"
    ),
    "2.2": (
        "2.2: FAIL at n=6: lhs=1 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6 "
        "rhs=2 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6"
    ),
    "2.3": (
        "2.3: FAIL at n=6: lhs=1 + 13*s + 65*s^2 + 156*s^3 + 182*s^4 + 91*s^5 + 13*s^6 "
        "rhs=2 + 13*s + 65*s^2 + 156*s^3 + 182*s^4 + 91*s^5 + 13*s^6"
    ),
    "2.4": (
        "2.4: FAIL at n=6: lhs=1 + 12*s + 54*s^2 + 112*s^3 + 105*s^4 + 36*s^5 + 2*s^6 "
        "rhs=2 + 12*s + 54*s^2 + 112*s^3 + 105*s^4 + 36*s^5 + 2*s^6"
    ),
    "3.14": "3.14: FAIL at n=6,k=6: lhs=1 rhs=2",
    "3.15": "3.15: FAIL at n=6,k=6: lhs=7 rhs=8",
    "3.20": "3.20: FAIL at n=6,k=6: lhs=1 rhs=2",
    "3.21": "3.21: FAIL at n=6,k=6: lhs=7 rhs=8",
    "4.6": (
        "4.6: FAIL at n=6: lhs=1 + 12*s + 55*s^2 + 120*s^3 + 126*s^4 + 56*s^5 + 7*s^6 "
        "rhs=2 + 12*s + 55*s^2 + 120*s^3 + 126*s^4 + 56*s^5 + 7*s^6"
    ),
    "4.17": "4.17: FAIL at n=6: lhs=0 rhs=1",
    "4.40": (
        "4.40: FAIL at n=6: lhs=1 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6 "
        "rhs=2 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6"
    ),
    "4.42": (
        "4.42: FAIL at n=6: lhs=2 + 23*s + 100*s^2 + 204*s^3 + 196*s^4 + 77*s^5 + 8*s^6 "
        "rhs=3 + 23*s + 100*s^2 + 204*s^3 + 196*s^4 + 77*s^5 + 8*s^6"
    ),
    "4.46": (
        "4.46: FAIL at n=6: lhs=1 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6 "
        "rhs=2 + 11*s + 45*s^2 + 84*s^3 + 70*s^4 + 21*s^5 + s^6"
    ),
    "4.48": "4.48: FAIL at n=6 (partial form): lhs=0 rhs=1",
    "4.50": (
        "4.50: FAIL at n=6: lhs=2 + 21*s + 81*s^2 + 140*s^3 + 105*s^4 + 27*s^5 + s^6 "
        "rhs=3 + 21*s + 81*s^2 + 140*s^3 + 105*s^4 + 27*s^5 + s^6"
    ),
    "5.8": "5.8: FAIL at n=6,k=6: lhs=2 rhs=3",
    "5.9": "5.9: FAIL at n=6,k=6: lhs=13 rhs=14",
    "6.6": "6.6: FAIL at n=6: lhs=1/42 rhs=43/42",
    "6.7": "6.7: FAIL at n=6: lhs=720/7 rhs=727/7",
    "6.8": "6.8: FAIL at n=6: lhs=-2073 rhs=-2072",
    "6.9": "6.9: FAIL at n=6: lhs=86400 rhs=86401",
    "6.10": "6.10: FAIL at n=6: lhs=-38227 rhs=-38226",
    "6.11": "6.11: FAIL at n=6: lhs=518400 rhs=518401",
    "6.12": "6.12: FAIL at n=6: lhs=198272 rhs=198273",
    "6.13": "6.13: FAIL at n=6: lhs=967796 rhs=967797",
    "6.14": "6.14: FAIL at n=6: lhs=203212800 rhs=203212801",
    "6.15": "6.15: FAIL at n=6: lhs=-691/210 rhs=-481/210",
    "6.16": "6.16: FAIL at n=6: lhs=22368256 rhs=22368257",
    "6.17": "6.17: FAIL at n=6: lhs=-691/2730 rhs=2039/2730",
}


def test_perturbed_summations_render_as_pinned(monkeypatch):
    assert list(PERTURBED_LAST_CASES) == [
        label for label, row in connect.CATALOG.items() if row.kind != "factorization"
    ]
    for label, pinned in PERTURBED_LAST_CASES.items():
        row = connect.CATALOG[label]

        def cases(depth, *matrices, row=row, label=label):
            listed = list(row.cases(depth, *matrices))
            where, *sides = listed[-1]
            last = _bump_at(sides[-1], BUMP_SITES[1]) if label in ENTRY_ROWS else _bump(sides[-1])
            listed[-1] = (where, *sides[:-1], last)
            return listed

        monkeypatch.setitem(connect.CATALOG, label, row._replace(cases=cases))
        assert connect.verify(label, 6).describe() == pinned


# The labels whose triangles read each weight preset, so a change to w(3)
# of that preset alone must fail them and no other.
PRESET_LABELS = {
    "stirling": ["3.9", "3.11", "3.12", "3.13"],
    "stirling-shift": ["6.6", "6.7"],
    "central-factorial": [
        "3.14", "3.15", "3.16", "3.17", "3.18", "3.20", "3.21", "3.22", "3.23", "3.24",
        "4.12", "4.16", "4.43", "4.49", "6.8", "6.9", "6.10", "6.11", "6.13", "6.14", "6.15",
    ],
    "legendre-stirling": [
        "3.14", "3.15", "3.16", "3.17", "3.19", "3.20", "3.21", "3.22", "3.23", "3.25",
        "3.27", "4.21", "6.12",
    ],
    "u-half-odd": ["5.8", "5.9", "5.10", "6.16", "6.17"],
    "v-product-quarter": ["5.8", "5.9"],
}


@pytest.mark.parametrize("name", list(PRESET_LABELS))
def test_perturbed_preset_fails_exactly_its_labels(name, monkeypatch):
    w = stirling.PRESETS[name].w
    monkeypatch.setitem(
        stirling.PRESETS, name, WeightSpec(name, lambda n: w(n) + 1 if n == 3 else w(n))
    )
    failed = [label for label in connect.CATALOG if not connect.verify(label, 12).passed]
    assert failed == PRESET_LABELS[name]


# The labels that read each matrix builder on the connect module, directly
# or through an operator (4.42 reads A2, the row differences of A1, the
# prefix sums of the genocchi_matrix build).
BUILDER_LABELS = {
    "genocchi_matrix": [
        "2.1", "4.6", "4.11", "4.12", "4.13", "4.14", "4.15", "4.16", "4.40", "4.42", "4.43",
    ],
    "genocchi_matrix_inverse": ["2.2", "4.46", "4.49", "4.50"],
    "tangent_matrix": ["2.3", "5.7", "5.10"],
    "tangent_matrix_inverse": ["2.4"],
    "_genocchi_over_lucas": ["2.3"],
    "c_matrix": ["2.15/2.16-inverse", "3.9", "3.10"],
    "c_matrix_inverse": ["2.15/2.16-inverse"],
    "pascal_matrix": ["3.9", "3.10", "3.11", "3.13"],
    "pascal_plus_matrix": ["3.9", "3.10", "3.12", "3.13"],
    "choose_even_matrix": [
        "3.20", "3.22", "3.24", "3.25", "3.26", "3.27", "4.13", "4.15", "4.17",
    ],
    "choose_odd_matrix": ["3.21", "3.23", "3.24", "3.25", "3.26", "3.27", "4.13", "4.15"],
    "stirling1": ["3.9", "3.13", "4.16", "4.43", "4.49", "5.10", "6.7", "6.9", "6.11", "6.14"],
    "stirling2": [
        "3.9", "3.11", "3.12", "3.13", "3.14", "3.15", "3.16", "3.17", "3.18", "3.19", "3.20",
        "3.21", "3.22", "3.23", "3.24", "3.25", "3.27", "4.12", "4.16", "4.21", "4.43", "4.49",
        "5.8", "5.9", "5.10", "6.6", "6.8", "6.10", "6.12", "6.13", "6.15", "6.16", "6.17",
    ],
    "basis_matrix": [
        "2.1", "2.2", "2.3", "2.4", "3.14", "3.15", "3.16", "3.17", "3.18", "3.19", "3.26",
        "3.27", "4.6", "4.11", "4.14", "4.21", "4.40", "4.42", "4.46", "4.50", "5.7", "5.8",
        "5.9",
    ],
}

# The labels that read an index-shifted triangle: stirling1/stirling2 of a
# "-shifted" preset, the twice-shifted one of 4.43, 6.13 and 6.14 included.
# These cases bump only those builds.
SHIFTED_LABELS = {
    "stirling1_shifted": ["3.9", "4.16", "4.43", "4.49", "6.9", "6.14"],
    "stirling2_shifted": [
        "3.9", "3.11", "3.12", "3.14", "3.15", "3.16", "3.17", "3.18", "3.20", "3.21", "3.22",
        "3.23", "3.24", "3.25", "3.27", "4.12", "4.16", "4.21", "4.43", "4.49", "6.8", "6.10",
        "6.12", "6.13", "6.15",
    ],
}

# Entries of an order-n build that a bump adds 1 to.  No one site reaches
# every reader: a last-row bump of stirling2 cancels in 5.8, whose L_even
# has diagonal 2, a column-0 bump of basis_matrix is dropped by 4.21, and
# 4.40 fails only at (1, 0): A1's diagonal is the row sums of A, which are
# 1, so a last-row bump of F_odd moves A1 @ (F_odd + F_even.down()) as it
# moves F_odd, and one of F_even falls off the foot of F_even.down().
BUMP_SITES = (lambda n: (n - 1, 0), lambda n: (n - 1, n - 1), lambda n: (min(1, n - 1), 0))


def _bump_at(m, site):
    rows = [list(row) for row in m.rows]
    i, j = site(len(rows))
    rows[i][j] += 1
    return TriMatrix(rows)


def _bumped(build, site, reads=lambda args: True):
    def bumped(*args):
        m = build(*args)
        return _bump_at(m, site) if reads(args) else m

    return bumped


def _bump_target(name):
    """(builder name on connect, which of its calls a bump changes) for a BUILDER_LABELS
    or SHIFTED_LABELS key."""
    if name in SHIFTED_LABELS:
        return name.removesuffix("_shifted"), lambda args: args[0].name.endswith("-shifted")
    return name, lambda args: True


@pytest.fixture
def forget():
    """Empties connect's store and its set of sides made once, as in a fresh process.

    Called before each change the store does not see, so that nothing made
    before it is served; the fixture empties both again at teardown, so that
    nothing made under the change is served to a later test.
    """

    def clear():
        connect._KEPT.clear()
        connect._SEEN.clear()

    yield clear
    clear()


@pytest.fixture
def cold_verify(forget):
    """connect.verify with the kept sides dropped before each call, as in a fresh process.

    A bump lands at a site of whatever order the bumped builder makes, so a
    bumped build kept at a larger order by an earlier label would move the
    bump past the rows a later, smaller read compares; and a warm family is
    not built again, so a label's builds would depend on the labels before it.
    """

    def verify(label, depth):
        forget()
        return connect.verify(label, depth)

    return verify


@pytest.mark.parametrize("name", list(BUILDER_LABELS) + list(SHIFTED_LABELS))
def test_bumped_builder_fails_every_label_that_reads_it(name, monkeypatch, cold_verify):
    expected = {**BUILDER_LABELS, **SHIFTED_LABELS}[name]
    name, reads = _bump_target(name)
    build = getattr(connect, name)
    readers = []
    for label in connect.CATALOG:
        calls = []
        monkeypatch.setattr(
            connect, name, lambda *args: (reads(args) and calls.append(args)) or build(*args)
        )
        cold_verify(label, 6)
        if calls:
            readers.append(label)
    assert readers == expected
    failed = set()
    for site in BUMP_SITES:
        monkeypatch.setattr(connect, name, _bumped(build, site, reads))
        failed |= {label for label in connect.CATALOG if not cold_verify(label, 6).passed}
    assert [label for label in connect.CATALOG if label in failed] == readers


def test_no_label_builds_a_family_twice(monkeypatch, cold_verify):
    builds = []

    def recorded(build, family):
        def wrapper(arg, order):
            builds.append((build.__name__, family(arg), order))
            return build(arg, order)

        return wrapper

    for build in (stirling.stirling1, stirling.stirling2):
        monkeypatch.setattr(connect, build.__name__, recorded(build, lambda spec: spec.name))
    monkeypatch.setattr(connect, "basis_matrix", recorded(basis_matrix, str))
    by_label = {}
    for label in connect.CATALOG:
        builds.clear()
        assert cold_verify(label, 12).passed
        by_label[label] = list(builds)
    assert {
        label: [build for build in found if found.count(build) > 1]
        for label, found in by_label.items() if len(set(found)) < len(found)
    } == {}
    assert set(by_label["3.18"]) == {
        ("basis_matrix", "F_even", 12),
        ("basis_matrix", "F_odd", 12),
        ("stirling2", "central-factorial-shifted", 12),
    }


# Two sides of a row with several sides made to fail at once, and the
# report that picks among them: a polynomial row (2.3) reports its earliest
# differing n, a factorization (3.9) the first side that differs, at its first
# differing entry.
SEVERAL_FAILING_SIDES = {
    "2.3": (
        {"tangent_matrix": (5, 0), "_genocchi_over_lucas": (3, 0)},
        "2.3: FAIL at n=3: lhs=1 + 7*s + 14*s^2 + 7*s^3 rhs=3 + 7*s + 14*s^2 + 7*s^3",
    ),
    "3.9": (
        {"pascal_plus_matrix": (5, 0), "stirling1": (2, 0)},
        "3.9: FAIL at entry (5,0): lhs=-1 rhs=0",
    ),
}


@pytest.mark.parametrize("label", list(SEVERAL_FAILING_SIDES))
def test_several_failing_sides_report_as_pinned(label, monkeypatch, cold_verify):
    bumps, pinned = SEVERAL_FAILING_SIDES[label]
    for name, site in bumps.items():
        bumped = _bumped(getattr(connect, name), lambda n, site=site: site)
        monkeypatch.setattr(connect, name, bumped)
    assert cold_verify(label, 6).describe() == pinned


# ----------------------------------------------------------------------
# shared builds


def _shared_reports(labels, depth):
    table = connect.shared_builds(labels, depth)
    return [connect.verify(label, depth, table) for label in labels]


@pytest.mark.parametrize("labels, depth", [
    (list(connect.CATALOG), 1),
    (list(connect.CATALOG), 6),
    (list(connect.CATALOG), 12),
    (["6.17", "4.14", "3.18", "2.15/2.16-inverse", "4.21", "5.9"], 9),
    (["3.19", "4.6", "3.19", "2.1", "4.6", "6.8", "3.19"], 7),
])
def test_shared_run_gives_the_per_label_reports(labels, depth):
    assert _shared_reports(labels, depth) == [connect.verify(label, depth) for label in labels]


def test_a_row_the_scope_did_not_plan_reads_its_own_table():
    # 4.42 at depth 9 and 4.50 at all lie outside the plan of this table.
    table = connect.shared_builds(["4.42"], 6)
    runs = [("4.42", 9), ("4.50", 6), ("4.42", 6)]
    reports = [connect.verify(label, depth, table) for label, depth in runs]
    assert table.entries == {} and list(table.reports) == [(connect.CATALOG["4.42"], 6)]
    assert reports == [connect.verify(label, depth) for label, depth in runs]


@pytest.mark.parametrize("name", list(BUILDER_LABELS) + list(SHIFTED_LABELS))
def test_bumped_builder_fails_its_readers_in_a_shared_run(name, monkeypatch):
    # The table builds a family at the largest order any label reads, so the
    # last row of that build lies outside the rows a smaller read compares.
    # The bump goes where it goes in an order-6 build, the order a depth-6
    # label compares, wherever the shared build ends.
    expected = {**BUILDER_LABELS, **SHIFTED_LABELS}[name]
    name, reads = _bump_target(name)
    build = getattr(connect, name)
    labels = list(connect.CATALOG)
    failed = set()
    for site in BUMP_SITES:
        monkeypatch.setattr(connect, name, _bumped(build, lambda n: site(min(n, 6)), reads))
        failed |= {report.ident for report in _shared_reports(labels, 6) if not report.passed}
    assert [label for label in labels if label in failed] == expected


# The labels that read each side an operator derives from a build: A1, the
# prefix sums of the rows of A, A2, the differences of its consecutive rows,
# Z, the prefix sums of those differences of A^-1, and the Fibonacci-sum
# bases, F_odd + F_even (row k is F(2k+1) + F(2k+2)) and F_odd +
# F_even.down() (row k is F(2k) + F(2k+1)).
DERIVED_LABELS = {
    connect._A1: ["4.40", "4.42", "4.43"],
    connect._A2: ["4.42", "4.43"],
    connect._Z: ["4.50"],
    connect._Sodd: ["4.42", "4.50"],
    connect._Seven: ["4.40", "4.42", "4.50"],
}


@pytest.mark.parametrize("shared", [False, True], ids=["per-label", "shared"])
@pytest.mark.parametrize(
    "side", list(DERIVED_LABELS), ids=["A1", "A2", "Z", "Fsum-odd", "Fsum-even"]
)
def test_bumped_derived_side_fails_its_readers(side, shared, monkeypatch, forget):
    # Every read of this side alone is bumped; in a shared run at the sites of
    # an order-6 build, as for the builders above.  A kept product is not made
    # again, so it does not see the patched _Table.get: the store is emptied
    # before each site, and each product over the side is made once per site.
    labels, get, failed = list(connect.CATALOG), connect._Table.get, set()
    assert [label for label in labels if side in _planned([label], 6)] == DERIVED_LABELS[side]
    for site in BUMP_SITES:
        forget()
        at = (lambda n, site=site: site(min(n, 6))) if shared else site

        def bumped(table, read, order, at=at):
            m = get(table, read, order)
            return _bump_at(m, at) if read == side else m

        monkeypatch.setattr(connect._Table, "get", bumped)
        reports = _shared_reports(labels, 6) if shared else [connect.verify(x, 6) for x in labels]
        failed |= {report.ident for report in reports if not report.passed}
    assert [label for label in labels if label in failed] == DERIVED_LABELS[side]


def test_shared_runs_see_a_change_made_between_them(monkeypatch):
    labels = list(connect.CATALOG)
    numbers.bernoulli(60)
    numbers.genocchi(30)
    assert all(report.passed for report in _shared_reports(labels, 12))
    with perturbed(numbers._bernoulli, 8, lambda b: b + 1):
        reports = _shared_reports(labels, 12)
        assert reports == [connect.verify(label, 12) for label in labels]
        assert [r.ident for r in reports if not r.passed] == [
            "2.2", "2.4", "2.15/2.16-inverse", "4.46", "4.48", "4.49", "4.50",
            "6.6", "6.7", "6.15", "6.17",
        ]
    assert all(report.passed for report in _shared_reports(labels, 12))
    monkeypatch.setattr(connect, "tangent_matrix", _bumped(connect.tangent_matrix, BUMP_SITES[2]))
    reports = _shared_reports(labels, 12)
    assert [r.ident for r in reports if not r.passed] == BUILDER_LABELS["tangent_matrix"]


def _planned(labels, depth):
    """The shared table's plan for these labels: side -> the largest order read."""
    return connect.shared_builds(labels, depth).planned


def _families(plan):
    """The (builder, *family) reads of a plan, the operands of its operators included."""
    return {(side.op, *side.args) for side in plan if side.op not in connect._OPERATORS}


# The entries of each family's build that no reader compares: bumping one
# leaves every label that reads the family passing.  Each family not named
# here has none.
BLIND_ENTRIES = {
    # Only row differences reach row 7 of the order-8 build (of the prefix sums
    # of A in 4.42 and 4.43, of A^-1 in 4.50), and row 6 has no column 7.
    ("genocchi_matrix",): [(7, 7)],
    ("genocchi_matrix_inverse",): [(7, 7)],
    # 6.7, the one label that reads stirling1 of stirling-shift, weights
    # column k by B_k, which is 0 for odd k >= 3, so no label compares
    # columns 3 and 5 of the order-7 build a depth-6 run reads.  Outside the
    # catalog, test_stirling.test_inverse_pair_for_all_presets (stirling2 @
    # stirling1 == I) and test_stirling.test_row_poly_check cover them.
    ("stirling1", "stirling-shift"): [(3, 3), (4, 3), (5, 3), (5, 5), (6, 3), (6, 5)],
}


@pytest.mark.parametrize(
    "family", sorted(_families(_planned(list(connect.CATALOG), 6))), ids="-".join
)
def test_blind_entries(family, monkeypatch):
    # Each entry of the build that a depth-6 run of the family's readers plans
    # is bumped in turn, and only those readers run, in one shared run.
    name, *args = family
    readers = [label for label in connect.CATALOG if family in _families(_planned([label], 6))]
    order = _planned(readers, 6)[connect._Side(name, tuple(args))]
    build, blind = getattr(connect, name), []
    reads = lambda a: [getattr(x, "name", x) for x in a[:-1]] == args  # noqa: E731
    for i in range(order):
        for j in range(i + 1):
            monkeypatch.setattr(connect, name, _bumped(build, lambda n, site=(i, j): site, reads))
            if all(report.passed for report in _shared_reports(readers, 6)):
                blind.append((i, j))
    assert blind == BLIND_ENTRIES.get(family, [])


def test_shared_table_is_released():
    labels = list(connect.CATALOG)
    reads = {label: set(_planned([label], 12)) for label in labels}
    table, held = connect.shared_builds(labels, 12), 0
    assert table.planned and not table.entries
    for i, label in enumerate(labels):
        connect.verify(label, 12, table)
        held = max(held, len(table.entries))
        # every side is dropped after the last label that reads it
        assert set(table.entries) <= set().union(*map(reads.get, labels[i + 1:])), label
    assert table.entries == {} and held > 0


def test_shared_run_builds_each_family_once(monkeypatch):
    # Builds are recorded per (builder, family), those that only an operator
    # reads included, such as the genocchi_matrix that A2 reads through A1.
    builds, inverted, products, solved = {}, [], [], []
    for name in BUILDER_LABELS:
        build = getattr(connect, name)

        def recorded(*args, build=build, name=name):
            m = build(*args)
            family = tuple(getattr(a, "name", a) for a in args[:-1])
            builds.setdefault((name, *family), []).append(m)
            return m

        monkeypatch.setattr(connect, name, recorded)
    inverse, mul, solve = TriMatrix.inverse, TriMatrix.mul, TriMatrix.solve
    first_mismatch = connect.first_mismatch
    monkeypatch.setattr(TriMatrix, "inverse", lambda m: inverted.append(m) or inverse(m))
    monkeypatch.setattr(TriMatrix, "__matmul__", lambda a, b: products.append(a) or mul(a, b))
    monkeypatch.setattr(TriMatrix, "solve", lambda x, b: solved.append((x, b)) or solve(x, b))
    checked = []
    monkeypatch.setattr(
        connect, "first_mismatch", lambda cases: checked.append(1) or first_mismatch(cases)
    )
    labels, depth = list(connect.CATALOG), 12
    table, reports = connect.shared_builds(labels, depth), []
    plan = table.planned
    for label in labels:
        made, ran = sum(map(len, builds.values())), len(checked)
        reports.append(connect.verify(label, depth, table))
        if label in ("4.6", "4.14", "4.15", "4.46"):
            # an alias reuses its twin's report: no build, no case run
            assert (sum(map(len, builds.values())), len(checked)) == (made, ran), label
    assert all(report.passed for report in reports)
    assert {family: len(made) for family, made in builds.items() if len(made) > 1} == {}
    assert len(builds) == 31 and set(builds) == _families(plan)
    # one product per product side: no case multiplies matrices
    assert len(products) == 26
    # no inverse is built: each product with an inverse operand is solved
    # once, at its planned order, against the one build of the operand it
    # inverts; a @ x^-1 as flip(x)^-1 @ flip(a)
    assert inverted == []
    solves = [side for side in plan if side.op in ("solve", "solve_right")]
    assert len(solved) == len(solves) == 12
    built = {family: build for family, (build,) in builds.items()}
    for side in solves:
        operand, other = side.args if side.op == "solve" else side.args[::-1]
        build = built[(operand.op, *operand.args)]
        x, b = build.leading_submatrix(plan[side]), connect.evaluate(other, plan[side])
        operands = (x, b) if side.op == "solve" else (x.flip(), b.flip())
        assert sum(s == operands for s in solved) == 1, side


def test_shared_run_computes_each_product_side_once(monkeypatch):
    mul, solve, first_mismatch = TriMatrix.mul, TriMatrix.solve, connect.first_mismatch
    products, solved, made, checked = [], [], [], []
    monkeypatch.setattr(TriMatrix, "__matmul__", lambda a, b: products.append((a, b)) or mul(a, b))
    monkeypatch.setattr(TriMatrix, "solve", lambda x, b: solved.append((x, b)) or solve(x, b))
    kinds = ("@", "solve", "solve_right")
    for op in kinds:
        offset, f = connect._OPERATORS[op]
        monkeypatch.setitem(
            connect._OPERATORS, op, (offset, lambda *args, f=f, op=op: made.append(op) or f(*args))
        )
    monkeypatch.setattr(
        connect, "first_mismatch", lambda cases: checked.append(1) or first_mismatch(cases)
    )
    labels, depth = list(connect.CATALOG), 12
    table = connect.shared_builds(labels, depth)
    # planning walks the sides and runs no case
    assert checked == [] and products == [] and solved == [] and made == []
    plan = table.planned
    assert all(connect.verify(label, depth, table).passed for label in labels)
    # each product and solve side is read, so made at least once: as many of
    # each kind as sides means each was made once
    assert sorted(made) == sorted(side.op for side in plan if side.op in kinds)
    # every product is made by an @ side: no case multiplies matrices
    assert len(products) == made.count("@")
    assert len(solved) == made.count("solve") + made.count("solve_right") == 12
    shared = {
        connect._Feven @ connect._Fodd.inv: ["3.18", "3.26", "4.11", "4.14"],
        connect._E.inv @ connect._O: ["3.24", "3.26", "4.13", "4.15"],
    }
    for side, readers in shared.items():
        assert [label for label in labels if side in _planned([label], depth)] == readers
        a, b = (connect.evaluate(x, plan[side]) for x in side.args)
        # a @ x^-1 is solved as flip(x)^-1 @ flip(a)
        operands = (b.flip(), a.flip()) if side.op == "solve_right" else (a, b)
        assert sum(s == operands for s in solved) == 1, side


def test_builder_readers_follow_from_the_plan():
    # BUILDER_LABELS and SHIFTED_LABELS, written out above, are what the plan
    # of each label reads, the operands of its operators included.
    readers = {}
    for label in connect.CATALOG:
        names = set()
        for op, *family in _families(_planned([label], 6)):
            names.add(op)
            if op.startswith("stirling") and family[0].endswith("-shifted"):
                names.add(f"{op}_shifted")
        for name in names:
            readers.setdefault(name, []).append(label)
    assert readers == {**BUILDER_LABELS, **SHIFTED_LABELS}


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
    for name, side in connect.MATRICES.items():
        full = connect.evaluate(side, 12)
        for k in range(1, 13):
            assert full.leading_submatrix(k) == connect.evaluate(side, k), (name, k)


def test_truncation_consistency_of_every_shared_family():
    # The families are read off the shared table's plan for the whole catalog,
    # so a builder the catalog reads later is covered too; the plan walks the
    # operands of every operator, so a family read only through A1, A2 or Z
    # would be too.
    assert _families(_planned(["4.42", "4.50"], 1)) == {
        ("genocchi_matrix",), ("genocchi_matrix_inverse",),
        ("basis_matrix", "F_odd"), ("basis_matrix", "F_even"),
    }
    families = _families(_planned(list(connect.CATALOG), 1))
    assert len(families) == 31
    assert {
        ("_genocchi_over_lucas",),
        ("stirling1", "stirling-shifted"),
        ("stirling2", "stirling-shifted"),
        ("stirling1", "central-factorial-shifted-shifted"),
        ("stirling2", "central-factorial-shifted-shifted"),
    } <= families
    for name, *family in families:
        build = getattr(connect, name)
        if build in (stirling.stirling1, stirling.stirling2):
            family = [preset(name) for name in family]
        full = build(*family, 14)
        inverse = full.inverse()
        for k in range(1, 15):
            part = build(*family, k)
            assert full.leading_submatrix(k) == part, (name, *family, k)
            assert inverse.leading_submatrix(k) == part.inverse(), (name, *family, k)


# ----------------------------------------------------------------------
# builder sides in the store


def _record_builds(monkeypatch):
    """Every builder on connect wrapped to record (name, *family, order) per call."""
    builds = []
    for name in BUILDER_LABELS:

        def recorded(*args, build=getattr(connect, name), name=name):
            builds.append((name, *(getattr(a, "name", a) for a in args)))
            return build(*args)

        monkeypatch.setattr(connect, name, recorded)
    return builds


def test_a_warm_verify_calls_no_builder(monkeypatch):
    builds = _record_builds(monkeypatch)
    first = connect.verify("3.18", 48)
    assert first.passed and sorted(builds) == [
        ("basis_matrix", "F_even", 48),
        ("basis_matrix", "F_odd", 48),
        ("stirling2", "central-factorial-shifted", 48),
    ]
    builds.clear()
    assert connect.verify("3.18", 48) == first and builds == []


def test_a_warm_connection_verify_builds_no_poly(monkeypatch):
    for _ in range(2):
        assert all(connect.verify(label, 12).passed for label in connect.CONNECTION_IDS)
    made, init = [], Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda p, *args: made.append(args) or init(p, *args))
    assert all(connect.verify(label, 12).passed for label in connect.CONNECTION_IDS)
    assert len(connect.CONNECTION_IDS) == 15 and made == []


def test_a_larger_read_rebuilds_once(monkeypatch):
    builds = _record_builds(monkeypatch)
    for depth in (8, 20, 12, 20, 8):
        assert connect.verify("6.16", depth).passed
    assert builds == [("stirling2", "u-half-odd", 9), ("stirling2", "u-half-odd", 21)]
    _, kept = connect._KEPT[connect._U]
    assert kept == stirling2(preset("u-half-odd"), 21)


def _seen_warm(read, change, monkeypatch, forget):
    """Reads twice, so the store keeps what read reads, then under change and after it.

    Under the change the warm read must differ from the read before it and
    equal a cold read; after it the read must be as before.
    """
    forget()
    before = [read() for _ in range(2)]
    change()
    warm = read()
    forget()
    assert warm != before[0] and warm == read()
    monkeypatch.undo()
    assert read() == before[0]
    return warm


def test_a_builder_swapped_after_a_warm_call_is_seen(monkeypatch, forget):
    def swap(name):
        return lambda: monkeypatch.setattr(connect, name, _bumped(getattr(connect, name), BUMP_SITES[0]))

    warm = _seen_warm(lambda: connect.verify("5.7", 12), swap("tangent_matrix"), monkeypatch, forget)
    assert warm.counterexample[0] == "entry (11,0)"
    # a preset triangle of the triangle subcommand reads its builder through the store too
    triangle = _seen_warm(lambda: cli.build_triangle("u-half-odd", 12, "first"), swap("stirling1"),
                          monkeypatch, forget)
    assert triangle == _bumped(stirling.stirling1, BUMP_SITES[0])(preset("u-half-odd"), 12)


def test_a_changed_preset_after_a_warm_call_is_seen(monkeypatch, forget):
    w = stirling.PRESETS["central-factorial"].w

    def change():
        monkeypatch.setitem(
            stirling.PRESETS, "central-factorial",
            WeightSpec("central-factorial", lambda n: w(n) + 1 if n == 3 else w(n)),
        )

    # 3.18 reads the shifted preset, for which preset() makes a new spec on every call.
    assert not _seen_warm(lambda: connect.verify("3.18", 12), change, monkeypatch, forget).passed
    for kind in cli.KINDS:
        _seen_warm(lambda: cli.build_triangle("central-factorial", 12, kind), change,
                   monkeypatch, forget)


@pytest.mark.parametrize("label, cache, index, change", [
    ("2.2", numbers._bernoulli, 8, lambda b: b + 1),
    ("3.18", polyalg._fib, 6, lambda p: p + Poly.one()),
], ids=["bernoulli", "fibonacci"])
def test_a_perturbed_cache_after_a_warm_call_is_seen(label, cache, index, change, forget):
    numbers.bernoulli(60)
    assert connect.verify(label, 12).passed
    with perturbed(cache, index, change):
        report = connect.verify(label, 12)
        forget()
        assert not report.passed and report == connect.verify(label, 12)
    assert connect.verify(label, 12).passed


def test_a_named_triangle_fills_the_store_that_verify_reads(monkeypatch, forget):
    forget()
    builds = _record_builds(monkeypatch)
    assert all(cli.build_triangle("genocchi-matrix", 40, "second").order == 40 for _ in range(2))
    assert builds == [("genocchi_matrix", 40)] * 2
    builds.clear()
    assert connect.verify("4.12", 12).passed
    assert builds == [("stirling2", "central-factorial-shifted", 12)]


def test_each_label_after_verify_all_fills_the_store_with_every_side_it_reads(
        monkeypatch, capsys, forget):
    forget()
    builds = _record_builds(monkeypatch)
    assert cli.main(["verify", "all", "--depth", "6"]) == 0 and connect._KEPT == {}
    # The labels one by one make each side a second time, so the store keeps
    # each side a label reads whole, at the largest order a label reads, and
    # a second pass builds nothing.
    assert all(connect.verify(label, 6).passed for label in connect.CATALOG)
    plan = connect.shared_builds(connect.CATALOG, 6).planned
    assert {side: m.order for side, (_, m) in connect._KEPT.items()} == {
        side: order for side, order in plan.items() if side in connect._READ
    }
    builds.clear()
    assert all(connect.verify(label, 6).passed for label in connect.CATALOG) and builds == []


# ----------------------------------------------------------------------
# operator sides in the store


def test_a_third_warm_verify_makes_no_product_or_solve(monkeypatch, forget):
    forget()
    calls, made, make = [], [], connect._Table.make
    monkeypatch.setattr(
        connect._Table, "make", lambda table, side, order: made.append(side) or make(table, side, order)
    )
    for name in ("__matmul__", "solve", "solve_right"):

        def recorded(*args, method=getattr(TriMatrix, name), name=name):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(TriMatrix, name, recorded)
    # Both sides of 3.18 are a @ x^-1, each one solve_right of one solve.
    first = connect.verify("3.18", 48)
    assert first.passed and sorted(calls) == ["solve", "solve", "solve_right", "solve_right"]
    calls.clear()
    assert connect.verify("3.18", 48) == first and len(calls) == 4
    calls.clear()
    assert connect.verify("3.18", 48) == first and calls == []
    # Every side, entrywise ones included, is kept by its second make: a third
    # call of each label, or of each named triangle built by operators, makes none.
    forget()
    for label in connect.CATALOG:
        reports = [connect.verify(label, 12) for _ in range(2)]
        made.clear()
        assert connect.verify(label, 12) == reports[0] and made == [], label
    for name in ("z", "a1", "a2"):
        builds = [connect.evaluate(connect.MATRICES[name], 30) for _ in range(2)]
        made.clear()
        assert connect.evaluate(connect.MATRICES[name], 30) == builds[0] and made == [], name


def test_a_warm_preset_triangle_makes_nothing(monkeypatch, forget):
    forget()
    made, make = [], connect._Table.make
    monkeypatch.setattr(
        connect._Table, "make", lambda table, side, order: made.append(side) or make(table, side, order)
    )
    for name, spec in stirling.PRESETS.items():
        for kind, builder in cli.KINDS.items():
            assert [cli.build_triangle(name, 40, kind) for _ in range(2)] == [
                getattr(stirling, builder)(spec, 40)] * 2
            assert made == [connect._Side(builder, (name,))] * 2, (name, kind)
            made.clear()
            assert cli.build_triangle(name, 40, kind).order == 40 and made == [], (name, kind)


def test_only_the_sides_read_whole_are_kept(forget):
    # An operand only, such as Ginv.diffs() under z, is made again when the
    # side over it is; the side over it is kept.
    forget()
    for _ in range(2):
        assert all(connect.verify(label, 12).passed for label in connect.CATALOG)
        assert all(connect.evaluate(side, 30).order == 30 for side in connect.MATRICES.values())
    operands = connect._SEEN - connect._READ
    assert len(operands) == 10 and connect._Ginv.diffs() in operands
    assert set(connect._KEPT) == connect._SEEN & connect._READ


@pytest.mark.parametrize("name, kind", [
    ("stirling", "first"), ("genocchi-matrix", "second"), ("z", "second"),
])
def test_an_order_below_one_is_rejected_however_warm(name, kind, forget):
    # The same message cold, after one build and after two, when a build is kept.
    forget()
    for _ in range(3):
        for order in (0, -1):
            with pytest.raises(ValueError, match=r"^order must be >= 1$"):
                cli.build_triangle(name, order, kind)
        cli.build_triangle(name, 5, kind)
    assert connect._KEPT


def test_a_cold_verify_all_keeps_nothing(capsys, forget):
    # It makes each side once, so it keeps none of them.
    forget()
    assert cli.main(["verify", "all", "--depth", "48"]) == 0 and connect._KEPT == {}
    assert connect._SEEN == set(connect.shared_builds(connect.CATALOG, 48).planned)


# A label, the entrywise side it reads, the builder under that side and which
# of its calls a bump changes.  Each label fails when its bump lands in the
# first column of the last row.
KEPT_ENTRYWISE_SIDES = {
    "3.12": (connect._Ssh.cols(connect._nat), "stirling2",
             lambda args: args[0].name == "stirling-shifted"),
    "5.8": (connect.CATALOG["5.8"].reads[1][0], "stirling2",
            lambda args: args[0].name == "u-half-odd"),
    "4.50": (connect._Seven, "basis_matrix", lambda args: True),
}


@pytest.mark.parametrize("label", list(KEPT_ENTRYWISE_SIDES))
def test_a_change_under_a_kept_entrywise_side_is_seen(label, monkeypatch, cold_verify):
    side, name, reads = KEPT_ENTRYWISE_SIDES[label]
    build = getattr(connect, name)
    bumped = _bumped(build, BUMP_SITES[0], reads)
    cold_verify(label, 12)
    assert connect.verify(label, 12).passed and side in connect._KEPT
    monkeypatch.setattr(connect, name, bumped)
    warm = connect.verify(label, 12)
    monkeypatch.setattr(connect, name, build)
    assert connect.verify(label, 12).passed
    monkeypatch.setattr(connect, name, bumped)
    assert not warm.passed and warm == cold_verify(label, 12)


def _swap_builder(monkeypatch, stack):
    monkeypatch.setattr(connect, "basis_matrix", _bumped(connect.basis_matrix, BUMP_SITES[0]))


def _change_preset(monkeypatch, stack):
    w = stirling.PRESETS["central-factorial"].w
    monkeypatch.setitem(
        stirling.PRESETS, "central-factorial",
        WeightSpec("central-factorial", lambda n: w(n) + 1 if n == 3 else w(n)),
    )


def _perturb_cache(monkeypatch, stack):
    stack.enter_context(perturbed(polyalg._fib, 6, lambda p: p + Poly.one()))


# A change under one kept product, and that product: its readers compare it
# with sides the change leaves as they are.
KEPT_PRODUCT_CHANGES = {
    "builder": (_swap_builder, connect._Feven @ connect._Fodd.inv),
    "preset": (_change_preset, connect._Tsh.cols(connect._nat) @ connect._Tsh.inv),
    "cache": (_perturb_cache, connect._Feven @ connect._Fodd.inv),
}


@pytest.mark.parametrize("change", list(KEPT_PRODUCT_CHANGES))
def test_a_change_under_a_kept_product_fails_its_readers(change, monkeypatch, forget):
    make, product = KEPT_PRODUCT_CHANGES[change]
    readers = [label for label in connect.CATALOG if product in _planned([label], 12)]
    assert len(readers) > 2
    forget()
    assert all(connect.verify(label, 12).passed for label in readers)
    assert product in connect._KEPT
    with ExitStack() as stack:
        make(monkeypatch, stack)
        # the first reader makes the product again and the store keeps it
        # under the changed key, which the later readers read
        assert [label for label in readers if connect.verify(label, 12).passed] == []
        monkeypatch.undo()
    assert all(connect.verify(label, 12).passed for label in readers)


def test_a_product_made_from_sides_held_across_a_change_is_not_served_after_it(
        monkeypatch, forget):
    # A shared table holds F_even and F_odd from 3.17 and 3.16 to 3.18, so
    # 3.18 reads the product of the builds made before basis_matrix was
    # swapped.  The store keeps that product under the builder it was made
    # from, so 4.11, which reads it in a table of its own, sees the swap.
    forget()
    assert connect.verify("4.11", 12).passed
    table = connect.shared_builds(["3.17", "3.16", "3.18"], 12)
    assert connect.verify("3.17", 12, table).passed and connect.verify("3.16", 12, table).passed
    monkeypatch.setattr(connect, "basis_matrix", _bumped(connect.basis_matrix, BUMP_SITES[0]))
    assert connect.verify("3.18", 12, table).passed
    assert connect._Feven @ connect._Fodd.inv in connect._KEPT
    assert not connect.verify("4.11", 12).passed
    monkeypatch.undo()
    assert connect.verify("4.11", 12).passed


def test_equal_kept_sides_share_row_objects(forget):
    forget()
    # 6.6 reads stirling2 of stirling-shift at depth + 1, 3.11 the equal
    # triangle of the shifted stirling preset at depth; each is kept on its
    # second run.
    for _ in range(2):
        assert connect.verify("6.6", 12).passed and connect.verify("3.11", 12).passed
    (_, shift), (_, shifted) = connect._KEPT[connect._s2("stirling-shift")], connect._KEPT[connect._Ssh]
    assert (shift.order, shifted.order) == (13, 12)
    assert all(a is b for a, b in zip(shift.rows, shifted.rows))
    # the two sides of 3.18 and the Genocchi matrix they both equal, which
    # 4.11 reads
    for _ in range(2):
        assert connect.verify("4.11", 12).passed and connect.verify("3.18", 12).passed
    held = [connect._KEPT[side][1].rows for side in
            (connect._G, connect._Feven @ connect._Fodd.inv,
             connect._Tsh.cols(connect._nat) @ connect._Tsh.inv)]
    assert held[1] is held[2] is held[0]


def test_a_grown_side_keeps_its_old_row_objects(forget):
    forget()
    product = connect.CATALOG["5.10"].reads[1][0]  # U.cols((2j+1)/2) @ u, equal to B
    for depth in (8, 8, 20):
        assert connect.verify("5.10", depth).passed
        if depth == 8:
            old = {side: connect._KEPT[side][1].rows for side in connect._KEPT}
    new = {side: connect._KEPT[side][1].rows for side in connect._KEPT}
    assert {side: (len(old[side]), len(rows)) for side, rows in new.items()} == {
        connect._B: (8, 20), connect._U: (8, 20), connect._u: (8, 20), product: (8, 20),
    }
    assert all(a is b for side in new for a, b in zip(old[side], new[side]))


def test_a_kept_build_that_no_longer_holds_is_dropped_before_it_is_made_again(
        monkeypatch, forget):
    forget()
    assert all(connect.verify("3.16", 12).passed for _ in range(2)) and connect._Fodd in connect._KEPT
    made = []

    def make(side, order):
        made.append(side in connect._KEPT)
        return connect._key(side), connect.basis_matrix(*side.args, order)

    # too small: the old build stays while the larger one is made
    connect._kept(connect._Fodd, 14, make)
    monkeypatch.setattr(connect, "basis_matrix", _bumped(connect.basis_matrix, BUMP_SITES[0]))
    # its key no longer holds: the old build is gone before the new one is made
    connect._kept(connect._Fodd, 14, make)
    assert made == [True, False]


def test_verify_after_evaluate_reports_as_a_cold_run(cold_verify, forget):
    forget()
    for side in [*connect.MATRICES.values()] * 2:  # twice, so the store keeps each
        assert connect.evaluate(side, 40).order == 40
    warm = {label: connect.verify(label, 12) for label in connect.CATALOG}
    assert warm == {label: cold_verify(label, 12) for label in connect.CATALOG}


def test_cache_counts_the_writes_that_can_change_a_held_value():
    assert all(type(cache) is Cache for cache in CACHES)
    c, start = Cache([1, 2, 3]), Cache.edits
    c.append(4)
    c.extend([5, 6])
    c += [7]
    assert Cache.edits == start and type(c) is Cache
    c[0] = 7
    c[:] = [3, 1, 2]
    del c[1]
    c.pop()
    c.insert(0, 2)
    c.remove(2)
    c.sort(reverse=True)
    c.reverse()
    c *= 2
    assert Cache.edits == start + 9 and c == [3, 3] and type(c) is Cache
    c.clear()
    assert Cache.edits == start + 10 and c == []
