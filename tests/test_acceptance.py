"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every comparison is exact; the only tolerances are the
stated wall-clock budgets.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import golden
from fixtures import tangent_matrix_inverse_printed
from genocchi import cli, connect, numbers, seidel
from genocchi.akiyama import ATSpec, at_matrix
from genocchi.polyalg import basis_matrix, fib_poly
from genocchi.stirling import (
    PRESETS,
    preset,
    shift_weight,
    stirling1,
    stirling2,
)
from genocchi.trimat import TriMatrix

F = Fraction


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num}] PASS: {description} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_golden_tables():
    with criterion(1, "all printed matrices and arrays reproduced exactly", budget=1.0):
        assert connect.genocchi_matrix(5).rows == golden.A_5
        assert connect.genocchi_matrix_squared(5).rows == golden.A_5_SQUARED
        assert (connect.genocchi_matrix(5) @ connect.genocchi_matrix(5)).rows == golden.A_5_SQUARED
        assert connect.tangent_matrix(5).rows == golden.B_5
        assert connect.evaluate(connect.MATRICES["a1"], 6).rows == golden.A1_6
        assert connect.evaluate(connect.MATRICES["a2"], 5).rows == golden.A2_5

        assert stirling2(preset("central-factorial"), 7).rows == golden.CENTRAL_T_7
        assert stirling1(preset("central-factorial"), 7).rows == golden.CENTRAL_t_7
        assert stirling2(preset("legendre-stirling"), 7).rows == golden.LEGENDRE_LS_7
        assert stirling1(preset("legendre-stirling"), 7).rows == golden.LEGENDRE_ls_7

        uu = stirling2(preset("u-half-odd"), 7)
        assert (
            tuple(tuple(F(4) ** (i - j) * uu[i, j] for j in range(i + 1)) for i in range(7))
            == golden.U_SCALED_7
        )
        low = stirling1(preset("u-half-odd"), 7)
        assert (
            tuple(tuple(F(4) ** (i - j) * low[i, j] for j in range(i + 1)) for i in range(7))
            == golden.u_SCALED_7
        )

        fib_odd6 = basis_matrix("F_odd", 6)
        assert fib_odd6.inverse().rows == golden.FIB_ODD_INVERSE_6
        assert (fib_odd6.inverse() @ basis_matrix("F_even", 6)).rows == golden.FIB_ODD_INV_TIMES_EVEN_6

        assert seidel.seidel_array("ls-from-T", k=2, rows=9).rows == golden.SEIDEL_LS_K2_9
        assert seidel.seidel_array("genocchi", rows=10).rows == golden.SEIDEL_GENOCCHI_10
        assert seidel.seidel_array("v-from-U", k=1, rows=7).rows == golden.SEIDEL_V_K1_7

        squares = shift_weight(preset("central-factorial"))
        assert (
            at_matrix(ATSpec(squares, lambda j: F(j + 1), 6, 6))
            == golden.AT_SQUARES_LINEAR_6
        )
        assert (
            at_matrix(ATSpec(squares, lambda j: F((j + 1) ** 2), 6, 6))
            == golden.AT_SQUARES_SQUARES_6
        )
        assert (
            at_matrix(ATSpec(squares, lambda j: F(1, j + 1), 6, 6))
            == golden.AT_SQUARES_HARMONIC_6
        )


def test_criterion_2_sequence_lists():
    with criterion(2, "sequence prefixes match the published lists exactly"):
        assert [numbers.genocchi(n) for n in range(1, 9)] == golden.GENOCCHI_8
        assert [numbers.genocchi_signed(n) for n in range(1, 11)] == golden.GENOCCHI_SIGNED_10
        assert [numbers.tangent(k) for k in range(7)] == golden.TANGENT_7
        assert [numbers.median_genocchi(n) for n in range(6)] == golden.MEDIAN_GENOCCHI_6
        assert [numbers.bernoulli(n) for n in range(17)] == [F(s) for s in golden.BERNOULLI_17]
        weighted = [(2 * n + 1) * numbers.bernoulli(2 * n) for n in range(9)]
        assert weighted == [F(s) for s in golden.ODD_WEIGHTED_BERNOULLI_9]
        assert list(connect.genocchi_matrix_inverse(9).column(0)) == weighted


def test_criterion_3_factorization_suite():
    with criterion(3, "every factorization id passes at order 12", budget=5.0):
        for ident in connect.FACTORIZATION_IDS:
            report = connect.verify(ident, 12)
            assert report.passed, report.describe()
        # the scalar companions of the section-3 theorems, same depth
        for ident in ("3.14", "3.15", "3.20", "3.21"):
            assert connect.verify(ident, 12).passed


def test_criterion_4_connection_suite():
    with criterion(4, "connection-constant identities hold for n <= 15", budget=5.0):
        for ident in ("2.1", "2.2", "2.3", "2.4", "4.6", "4.40", "4.42", "4.46", "4.50", "5.8", "5.9"):
            report = connect.verify(ident, 15)
            assert report.passed, report.describe()


def test_criterion_5_eigen_relation():
    with criterion(5, "central-factorial columns are eigenvectors with eigenvalue k+1"):
        order = 12
        a = connect.genocchi_matrix(order)
        t_sh = stirling2(preset("central-factorial-shifted"), order)
        for k in range(order - 1):
            col = t_sh.column(k)
            image = tuple(sum(a[n, j] * col[j] for j in range(n + 1)) for n in range(order))
            assert image == tuple((k + 1) * c for c in col), f"column {k}"


def test_criterion_6_summation_identities():
    with criterion(6, "summation identities hold at full depth", budget=10.0):
        assert connect.verify("4.17", 40).passed
        assert connect.verify("4.48", 40).passed
        for ident in (f"6.{i}" for i in range(6, 18)):
            report = connect.verify(ident, 25)
            assert report.passed, report.describe()


def test_criterion_7_cross_oracles():
    with criterion(7, "independent routes agree; the near-miss closed form fails"):
        depth = 15

        # route 1: scaled Bernoulli numbers
        route_bernoulli = [numbers.genocchi(n) for n in range(1, depth + 1)]

        # route 2: self-seeding difference array, no number-theoretic input
        arr = seidel.seidel_array("genocchi", rows=2 * depth)
        route_array = [(-1) ** (n - 1) * arr.rows[2 * n - 1][0] for n in range(1, depth + 1)]

        # route 3: moments from a raw matrix inversion applied to the even basis
        inv = TriMatrix.from_rule(lambda i, j: comb(2 * i - j, j), depth + 1).inverse()
        moments = inv.column(0)  # (-1)**n times the median values
        route_functional = []
        for n in range(1, depth + 1):
            coeffs = fib_poly(2 * n).coeffs
            lam = sum(c * moments[j] for j, c in enumerate(coeffs))
            route_functional.append((-1) ** (n - 1) * lam)

        assert route_array == route_bernoulli
        assert route_functional == route_bernoulli

        assert connect.genocchi_matrix_inverse(12) == connect.genocchi_matrix(12).inverse()
        assert connect.tangent_matrix_inverse(12) == connect.tangent_matrix(12).inverse()
        assert tangent_matrix_inverse_printed(1) != connect.tangent_matrix(1).inverse()


def test_criterion_8_property_suite():
    with criterion(8, "truncation consistency, inverse pairs, shifted-weight identities"):
        families = {
            name: lambda n, side=side: connect.evaluate(side, n)
            for name, side in connect.MATRICES.items()
        }
        for name, spec in PRESETS.items():
            families[f"{name}-second"] = lambda n, s=spec: stirling2(s, n)
            families[f"{name}-first"] = lambda n, s=spec: stirling1(s, n)
        for name in ("central-factorial", "legendre-stirling"):
            spec = preset(f"{name}-shifted")
            families[f"{name}-second-shifted"] = lambda n, s=spec: stirling2(s, n)
            families[f"{name}-first-shifted"] = lambda n, s=spec: stirling1(s, n)

        for name, build in families.items():
            full = build(16)
            for k in range(1, 17):
                assert full.leading_submatrix(k) == build(k), f"{name} at {k}"

        for spec in PRESETS.values():
            assert stirling2(spec, 16) @ stirling1(spec, 16) == TriMatrix.identity(16)

        # shifted-weight identities for the squares-from-one sequence
        w = shift_weight(preset("central-factorial"))
        wh = shift_weight(w)
        big2, big1 = stirling2(w, 14), stirling1(w, 14)
        small2, small1 = stirling2(wh, 13), stirling1(wh, 13)
        for n in range(13):
            for k in range(n + 1):
                assert small2[n, k] == big2[n + 1, k + 1] - big2[n, k + 1]
                assert small1[n, k] == -sum(big1[n + 1, j] for j in range(k + 1))

        depth = 12
        s2, s1 = stirling2(w, depth + 2), stirling1(w, depth + 2)
        h2, h1 = stirling2(wh, depth + 1), stirling1(wh, depth + 1)

        def f1(n, j):
            return sum(s2[n, m] * (m + 1) * s1[m, j] for m in range(n + 1))

        for n in range(depth):
            for k in range(n + 1):
                lhs = sum(h2[n, m] * (m + 2) * h1[m, k] for m in range(n + 1))
                rhs = sum(f1(n, j) - f1(n + 1, j) for j in range(k + 1))
                assert lhs == rhs
        # and the transfer target is the row-difference matrix itself
        assert connect.verify("4.43", depth).passed


def test_full_catalog_through_cli_dispatch():
    # the command line catalog is complete and internally consistent
    assert len(tuple(cli.CATALOG)) == 56
    for ident in tuple(cli.CATALOG):
        assert cli.CATALOG[ident](6).passed, ident
