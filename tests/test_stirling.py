from fractions import Fraction
from operator import mul

import pytest

import golden
from genocchi.polyalg import Poly
from genocchi.stirling import (
    PRESETS,
    WeightSpec,
    _second_kind,
    preset,
    shift_weight,
    stirling1,
    stirling2,
)
from genocchi.trimat import TriMatrix


def test_preset_weights():
    assert preset("stirling")(3) == 3
    assert preset("stirling-shift")(3) == 4
    assert preset("central-factorial")(3) == 9
    assert preset("legendre-stirling")(3) == 12
    assert preset("u-half-odd")(1) == Fraction(9, 4)
    assert preset("v-product-quarter")(0) == Fraction(-1, 4)
    with pytest.raises(ValueError):
        preset("nope")


def test_central_factorial_tables():
    assert stirling2(preset("central-factorial"), 7).rows == golden.CENTRAL_T_7
    assert stirling1(preset("central-factorial"), 7).rows == golden.CENTRAL_t_7


def test_legendre_stirling_tables():
    assert stirling2(preset("legendre-stirling"), 7).rows == golden.LEGENDRE_LS_7
    assert stirling1(preset("legendre-stirling"), 7).rows == golden.LEGENDRE_ls_7


def test_half_odd_scaled_tables():
    uu = stirling2(preset("u-half-odd"), 7)
    scaled = tuple(
        tuple(Fraction(4) ** (i - j) * uu[i, j] for j in range(i + 1)) for i in range(7)
    )
    assert scaled == golden.U_SCALED_7
    low = stirling1(preset("u-half-odd"), 7)
    scaled_low = tuple(
        tuple(Fraction(4) ** (i - j) * low[i, j] for j in range(i + 1)) for i in range(7)
    )
    assert scaled_low == golden.u_SCALED_7


def test_spot_values():
    t2 = stirling2(preset("central-factorial"), 7)
    assert t2[4, 2] == 21 and t2[5, 3] == 147 and t2[6, 3] == 1408
    t1 = stirling1(preset("central-factorial"), 6)
    assert t1[5, 1] == 576 and t1[4, 2] == 49
    ls2 = stirling2(preset("legendre-stirling"), 7)
    assert ls2[4, 2] == 52 and ls2[6, 3] == 3824
    ls1 = stirling1(preset("legendre-stirling"), 4)
    assert ls1[3, 1] == 12
    uu = stirling2(preset("u-half-odd"), 3)
    assert 4 * uu[2, 1] == 10
    low = stirling1(preset("u-half-odd"), 4)
    assert 4**3 * low[3, 0] == -225


def test_inverse_pair_for_all_presets():
    for spec in PRESETS.values():
        n = 20
        assert stirling2(spec, n) @ stirling1(spec, n) == TriMatrix.identity(n)


def test_diagonals_all_one():
    for spec in PRESETS.values():
        for m in (stirling2(spec, 12), stirling1(spec, 12)):
            assert [m[i, i] for i in range(12)] == [1] * 12


def test_classical_embedding():
    # The index-shifted triangle, entry (i, j) being S(i+1, j+1) or
    # s(i+1, j+1), is the triangle of the -shifted preset exactly when
    # w(0) = 0.  Otherwise column 0 of the deeper build is nonzero below row
    # 0 and feeds column 1, so the two differ from order 2 on.
    for name, spec in PRESETS.items():
        for build in (stirling1, stirling2):
            for n in range(1, 12):
                by_index = build(spec, n + 1).drop_leading()
                by_weight = build(preset(f"{name}-shifted"), n)
                assert (by_index == by_weight) == (spec(0) == 0 or n == 1), (name, build, n)
    # The presets the catalog shifts by name all start at zero; the
    # index-shifted classical triangle is the stirling-shift one.
    assert [name for name, spec in PRESETS.items() if spec(0) == 0] == [
        "stirling", "central-factorial", "legendre-stirling",
    ]
    assert stirling2(preset("stirling"), 11).drop_leading() == stirling2(preset("stirling-shift"), 10)


def assert_row_polys(spec, n):
    """Row n of the first-kind triangle expands prod_{j<n} (x - w(j)), and row n of the
    second-kind one reassembles x**n from the prefixes of that product."""
    prefix = [Poly.one()]
    for j in range(n):
        prefix.append(prefix[-1] * Poly([-spec(j), 1]))
    assert Poly(stirling1(spec, n + 1).rows[n]) == prefix[n]
    second = stirling2(spec, n + 1).rows[n]
    assert sum(map(mul, second, prefix), Poly()) == Poly.monomial(n)


def test_row_poly_check():
    for spec in PRESETS.values():
        for n in range(9):
            assert_row_polys(spec, n)


def test_row_poly_hand_expansion():
    # (x)(x - 1)(x - 4) = x**3 - 5 x**2 + 4 x matches the first-kind row
    row = stirling1(preset("central-factorial"), 4).rows[3]
    assert Poly(row) == Poly([0, 4, -5, 1])


def assert_ogf(spec, k, order):
    """Column k of the second-kind triangle times prod_{j<=k} (1 - w(j) x) is x**k,
    modulo x**order; for k >= order both sides vanish."""
    second = stirling2(spec, order)
    column = Poly(second[n, k] if k <= n else 0 for n in range(order))
    denom = Poly.one()
    for j in range(k + 1):
        denom = (denom * Poly([1, -spec(j)])).truncate(order)
    assert (column * denom).truncate(order) == Poly.monomial(k).truncate(order)


def test_ogf_check():
    assert_ogf(preset("stirling-shift"), 0, 10)
    assert_ogf(preset("central-factorial"), 2, 8)
    for spec in PRESETS.values():
        assert_ogf(spec, 0, 1)
        for k in range(5):
            assert_ogf(spec, k, 12)


def test_ogf_check_past_the_last_row():
    # column k of an order-N triangle is all zeros for k >= N, and so is x**k mod x**N
    for spec in PRESETS.values():
        for order in (1, 4):
            assert_ogf(spec, order + 2, order)


def test_ogf_hand_instance():
    # column 2 of the central-factorial triangle: 1, 5, 21, 85, ... against (1-x)(1-4x)
    t2 = stirling2(preset("central-factorial"), 6)
    assert [t2[n, 2] for n in range(2, 6)] == [1, 5, 21, 85]
    series = Poly([t2[n, 2] for n in range(6)])
    denom = Poly([1, -1]) * Poly([1, -4])
    assert (series * denom).truncate(6) == Poly.monomial(2)


def test_shift_weight_values():
    squares_from_1 = shift_weight(preset("central-factorial"))
    assert [squares_from_1(n) for n in range(4)] == [1, 4, 9, 16]
    squares_from_2 = shift_weight(squares_from_1)
    assert [squares_from_2(n) for n in range(3)] == [4, 9, 16]
    assert shift_weight(preset("stirling-shift"))(5) == 7
    assert squares_from_1.name.endswith("-shifted")
    twice = preset("central-factorial-shifted-shifted")
    assert twice.name == "central-factorial-shifted-shifted"
    assert all(twice(n) == (n + 2) ** 2 == squares_from_2(n) for n in range(12))
    # the shifts are one offset, so a long suffix chain does not nest calls
    assert preset("stirling" + "-shifted" * 2000)(3) == 2003
    with pytest.raises(ValueError, match="unknown weight preset 'nope';"):
        preset("nope-shifted")


def test_shifted_weight_second_kind_relation():
    # with w(0) = 1: the shifted triangle is a difference of consecutive rows
    w = shift_weight(preset("central-factorial"))  # (n+1)**2, w(0) = 1
    wh = shift_weight(w)
    big = stirling2(w, 17)
    small = stirling2(wh, 16)
    for n in range(16):
        for k in range(n + 1):
            assert small[n, k] == big[n + 1, k + 1] - big[n, k + 1]


def test_shifted_weight_first_kind_relation():
    w = shift_weight(preset("central-factorial"))
    wh = shift_weight(w)
    big = stirling1(w, 17)
    small = stirling1(wh, 16)
    for n in range(16):
        for k in range(n + 1):
            assert small[n, k] == -sum(big[n + 1, j] for j in range(k + 1))


def test_shifted_weight_transfer_identity():
    # conjugation by the shifted triangles equals summed row differences of
    # the original conjugation, here with the diagonal value ell + 1
    w = shift_weight(preset("central-factorial"))
    wh = shift_weight(w)
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


def test_truncation_consistency():
    for spec in PRESETS.values():
        full2, full1 = stirling2(spec, 16), stirling1(spec, 16)
        for k in range(1, 17):
            assert full2.leading_submatrix(k) == stirling2(spec, k)
            assert full1.leading_submatrix(k) == stirling1(spec, k)


@pytest.mark.parametrize("name", ["stirling", "u-half-odd", "central-factorial-shifted"])
def test_narrow_second_kind_reads_only_the_weights_of_its_columns(name):
    spec = preset(name)
    for order, width in ((1, 1), (6, 1), (6, 3), (6, 6), (6, 9), (12, 5)):
        read = min(width, order - 1)

        def w(n):
            if n >= read:
                raise IndexError(f"read w({n}) for order {order}, width {width}")
            return spec(n)

        rows = _second_kind(WeightSpec("strict", w), order, width)
        assert rows == [list(row[:width]) for row in stirling2(spec, order).rows]


def test_order_validation():
    with pytest.raises(ValueError):
        stirling2(preset("stirling"), 0)
    with pytest.raises(ValueError):
        stirling1(preset("stirling"), 0)


def test_custom_weight_spec():
    w = WeightSpec("thirds", lambda n: Fraction(n, 3))
    tri = stirling2(w, 4)
    assert tri[2, 1] == Fraction(1, 3)
    assert stirling2(w, 6) @ stirling1(w, 6) == TriMatrix.identity(6)


def fraction_triangles(spec, order):
    """Both kinds by their recurrences, every entry a Fraction."""
    w = [Fraction(spec(k)) for k in range(order)]
    second, first = [[Fraction(1)]], [[Fraction(1)]]
    for n in range(1, order):
        a, b = second[-1] + [0], first[-1] + [0]
        second.append([(a[k - 1] if k else 0) + w[k] * a[k] for k in range(n + 1)])
        first.append([(b[k - 1] if k else 0) - w[n - 1] * b[k] for k in range(n + 1)])
    return second, first


@pytest.mark.parametrize("spec", [
    preset("u-half-odd"),
    preset("v-product-quarter"),
    preset("u-half-odd-shifted"),
    preset("v-product-quarter-shifted"),
    WeightSpec("mixed", lambda n: Fraction(n, 3) - Fraction(1, 2)),
], ids=lambda spec: spec.name)
def test_scaled_int_builds_match_fraction_recurrences(spec):
    second, first = fraction_triangles(spec, 40)
    for build, want in ((stirling2, second), (stirling1, first)):
        got = build(spec, 40).rows
        assert got == tuple(map(tuple, want))
        assert all((type(x) is int) == (x.denominator == 1) for row in got for x in row)
