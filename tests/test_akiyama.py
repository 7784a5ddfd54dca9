from fractions import Fraction
from math import factorial

import pytest

import golden
from fixtures import at_first_column, catalog_cases, conjugation_first_column
from genocchi import connect, numbers
from genocchi.akiyama import ATSpec, at_matrix, odd_double_factorial
from genocchi.reports import UnknownIdentityError
from genocchi.stirling import WeightSpec, preset, shift_weight, stirling1

F = Fraction

SQUARES_FROM_1 = shift_weight(preset("central-factorial"))  # (n+1)**2
LINEAR_SHIFT = preset("stirling-shift")  # n+1


def seed_harmonic(j):
    return F(1, j + 1)


def seed_linear(j):
    return F(j + 1)


def seed_squares(j):
    return F((j + 1) ** 2)


def test_at_matrix_golden_linear_seed():
    m = at_matrix(ATSpec(SQUARES_FROM_1, seed_linear, rows=6, cols=6))
    assert m == golden.AT_SQUARES_LINEAR_6
    assert m[3][2] == -729
    assert tuple(r[0] for r in m) == (1, -1, 3, -17, 155, -2073)


def test_at_matrix_golden_squares_seed():
    m = at_matrix(ATSpec(SQUARES_FROM_1, seed_squares, rows=6, cols=6))
    assert m == golden.AT_SQUARES_SQUARES_6
    assert tuple(r[0] for r in m) == (1, -3, 17, -155, 2073, -38227)


def test_at_matrix_golden_harmonic_seed():
    m = at_matrix(ATSpec(SQUARES_FROM_1, seed_harmonic, rows=6, cols=6))
    assert m == golden.AT_SQUARES_HARMONIC_6
    assert tuple(r[0] for r in m) == (
        1,
        F(1, 2),
        F(-1, 6),
        F(1, 6),
        F(-3, 10),
        F(5, 6),
    )


@pytest.mark.parametrize("weights", [LINEAR_SHIFT, SQUARES_FROM_1], ids=["linear", "squares"])
@pytest.mark.parametrize("seed", [lambda j: j + 1, lambda j: (j + 1) ** 2, lambda j: 1],
                         ids=["linear", "squares", "ones"])
def test_at_matrix_integral_inputs_give_ints(weights, seed):
    m = at_matrix(ATSpec(weights, seed, rows=12, cols=12))
    assert all(type(x) is int for row in m for x in row)


def fraction_at_window(weights, seed, rows, cols):
    """The engine's window by its cell law, every cell a Fraction."""
    row = [F(seed(j)) for j in range(rows + cols)]
    out = [row[:cols]]
    for _ in range(1, rows):
        row = [F(weights(j)) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
        out.append(row[:cols])
    return tuple(map(tuple, out))


@pytest.mark.parametrize("weights", [LINEAR_SHIFT, SQUARES_FROM_1, preset("u-half-odd"),
                                     preset("v-product-quarter")],
                         ids=lambda spec: spec.name)
@pytest.mark.parametrize("seed", [seed_harmonic, seed_linear], ids=["harmonic", "linear"])
def test_at_matrix_matches_fraction_cell_law(weights, seed):
    m = at_matrix(ATSpec(weights, seed, rows=30, cols=25))
    assert m == fraction_at_window(weights, seed, 30, 25)
    assert all((type(x) is int) == (x.denominator == 1) for row in m for x in row)


def test_at_seed_headroom():
    # the engine must sample rows + cols seed positions, no fewer
    seen = []

    def recording_seed(j):
        seen.append(j)
        return F(j + 1)

    at_matrix(ATSpec(SQUARES_FROM_1, recording_seed, rows=4, cols=3))
    assert sorted(seen) == list(range(7))


def test_at_matrix_reads_each_weight_once():
    calls = []

    def weight(n):
        calls.append(n)
        return (n + 1) ** 2

    m = at_matrix(ATSpec(WeightSpec("counted", weight), seed_linear, rows=80, cols=80))
    assert sorted(calls) == list(range(159))
    calls.clear()
    assert tuple(row[:6] for row in m[:6]) == golden.AT_SQUARES_LINEAR_6
    assert at_matrix(ATSpec(WeightSpec("counted", weight), seed_linear, rows=1, cols=5)) == (
        tuple(F(j + 1) for j in range(5)),
    )
    assert calls == []


def test_at_matrix_zero_weight():
    with pytest.raises(ValueError, match=r"^zero weight w\(0\) encountered$"):
        at_matrix(ATSpec(preset("central-factorial"), seed_linear, rows=3, cols=2))
    weights = WeightSpec("zeros", lambda n: 0 if n in (2, 4) else n + 1)
    with pytest.raises(ValueError, match=r"^zero weight w\(2\) encountered$"):
        at_matrix(ATSpec(weights, seed_linear, rows=3, cols=3))
    # one row applies no step, so it reads no weight
    assert at_matrix(ATSpec(preset("central-factorial"), seed_linear, rows=1, cols=3)) == (
        (1, 2, 3),
    )


def test_at_matrix_rejects_inexact_values():
    # A float seed or weight would compute in binary approximations.
    with pytest.raises(TypeError, match=r"^seed value 1\.0 at j=0 is not an int or Fraction$"):
        at_matrix(ATSpec(LINEAR_SHIFT, lambda j: 1 / (j + 1), rows=2, cols=2))
    thirds = WeightSpec("f", lambda n: 1 / 3)
    with pytest.raises(TypeError, match=r"^weight f w\(0\) = 0\.333"):
        thirds(0)
    with pytest.raises(TypeError):
        at_matrix(ATSpec(thirds, seed_linear, rows=2, cols=2))
    # one row reads no weight, so the float weight is never seen
    assert at_matrix(ATSpec(thirds, seed_linear, rows=1, cols=2)) == ((1, 2),)
    # a bool is an int subclass but not an exact value: it is refused, not returned
    with pytest.raises(TypeError, match=r"^seed value True at j=0 is not an int or Fraction$"):
        at_matrix(ATSpec(LINEAR_SHIFT, lambda j: True, rows=2, cols=2))
    truth = WeightSpec("t", lambda n: True)
    with pytest.raises(TypeError, match=r"^weight t w\(0\) = True is not an int or Fraction$"):
        at_matrix(ATSpec(truth, seed_linear, rows=2, cols=2))


def test_at_matrix_extent_validation():
    with pytest.raises(ValueError):
        at_matrix(ATSpec(SQUARES_FROM_1, seed_linear, rows=0, cols=2))


def test_conjugation_examples():
    assert conjugation_first_column(SQUARES_FROM_1, lambda j: F(j + 1), 5) == (
        1,
        -1,
        3,
        -17,
        155,
    )
    assert conjugation_first_column(preset("u-half-odd"), lambda j: F(1), 6) == (
        1,
        0,
        0,
        0,
        0,
        0,
    )
    assert conjugation_first_column(LINEAR_SHIFT, seed_harmonic, 6) == tuple(
        numbers.bernoulli_b(n) for n in range(6)
    )


def test_conjugation_inversion_relation():
    # summing a first-kind row against the first column recovers the seed
    for weights, diag in (
        (SQUARES_FROM_1, seed_linear),
        (SQUARES_FROM_1, seed_harmonic),
        (LINEAR_SHIFT, seed_harmonic),
    ):
        col = conjugation_first_column(weights, diag, 13)
        low = stirling1(weights, 13)
        for n in range(13):
            lhs = sum(low[n, j] * col[j] for j in range(n + 1))
            prod = F(1)
            for j in range(n):
                prod *= weights(j)
            assert lhs == (-1) ** n * diag(n) * prod


def test_at_first_column_matches_conjugation():
    cases = [
        (LINEAR_SHIFT, seed_harmonic),
        (SQUARES_FROM_1, seed_linear),
        (SQUARES_FROM_1, seed_squares),
        (SQUARES_FROM_1, seed_harmonic),
    ]
    for weights, seed in cases:
        assert at_first_column(weights, seed, 13) == conjugation_first_column(
            weights, seed, 13
        )


def test_at_cell_law():
    # every cell is an alternating scaled combination of first-column values
    weights, seed = SQUARES_FROM_1, seed_linear
    matrix = at_matrix(ATSpec(weights, seed, rows=6, cols=6))
    col = at_first_column(weights, seed, 12)
    low = stirling1(weights, 7)
    for n in range(6):
        for k in range(6):
            prod = F(1)
            for m in range(k):
                prod *= weights(m)
            expected = (
                F((-1) ** k, 1) / prod
                * sum(low[k, i] * col[n + i] for i in range(k + 1))
            )
            assert matrix[n][k] == expected


def test_double_factorial():
    assert [odd_double_factorial(k) for k in range(5)] == [1, 1, 3, 15, 105]


def test_sum_identity_catalog():
    sum_ids = tuple(f"6.{i}" for i in range(6, 18))
    assert tuple(
        label for label, row in connect.CATALOG.items() if row.kind == "summation"
    ) == ("4.17", "4.48", *sum_ids)
    for ident in sum_ids:
        report = connect.verify(ident, 12)
        assert report.passed, report.describe()


def test_integral_sum_sides_are_ints():
    # 6.8 to 6.14 sum integer triangles against integer sequences; 6.16 sums
    # a rational triangle against the tangent numbers.
    for ident in ("6.8", "6.9", "6.10", "6.11", "6.12", "6.13", "6.14", "6.16"):
        for where, lhs, rhs in catalog_cases(ident, 12):
            assert type(rhs) is int, (ident, where)
            assert ident == "6.16" or type(lhs) is int, (ident, where)


def test_sum_identity_unknown():
    with pytest.raises(UnknownIdentityError):
        connect.verify("6.99", 4)


def test_sum_identity_hand_instances():
    # 6.11 at n = 3: 4 G(4) + 5 G(6) + G(8) = 4 + 15 + 17 = 36 = (3!)**2
    t1 = stirling1(preset("central-factorial"), 4)
    total = sum(
        (-1) ** (3 - k) * t1[3, k] * numbers.genocchi(k + 1) for k in range(4)
    )
    assert total == 36 == factorial(3) ** 2

    # 6.16 at n = 1: -4 * (1/4) + 3 * 1 = 2, the second tangent number
    u2 = preset("u-half-odd")
    from genocchi.stirling import stirling2

    uu = stirling2(u2, 2)
    assert uu[1, 0] == F(1, 4) and uu[1, 1] == 1
    total = sum(
        (-1) ** (1 - k) * 4 ** (1 - k) * uu[1, k] * (2 * k + 1) * odd_double_factorial(k) ** 2
        for k in range(2)
    )
    assert total == 2 == numbers.tangent(1)

    # 6.12 at n = 2: 4 - 32 + 36 = 8, a median Genocchi value
    from genocchi.stirling import stirling2 as s2

    ls = s2(preset("legendre-stirling"), 4)
    total = sum(
        (-1) ** (2 - k) * ls[3, k + 1] * factorial(k + 1) ** 2 for k in range(3)
    )
    assert total == 8 == numbers.median_genocchi(3)


def test_custom_weight_cross_run():
    # engine and direct sum also agree on a weight sequence with mixed signs
    w = WeightSpec("alternating", lambda n: F((-1) ** n * (n + 1), 2))
    assert at_first_column(w, seed_linear, 9) == conjugation_first_column(
        w, seed_linear, 9
    )
