from fractions import Fraction

import pytest

import golden
from genocchi import numbers, seidel
from genocchi.connect import verify
from genocchi.seidel import VARIANTS, seidel_array
from genocchi.stirling import preset, stirling2

F = Fraction


def test_genocchi_triangle_golden():
    arr = seidel_array("genocchi", rows=10)
    assert arr.rows == golden.SEIDEL_GENOCCHI_10
    assert arr.rows[8] == (0, 17, 34, 48, 56)


def test_ls_array_golden():
    arr = seidel_array("ls-from-T", k=2, rows=9)
    assert arr.rows == golden.SEIDEL_LS_K2_9
    assert arr.rows[6] == (14, 11, 9, 8)


def test_v_array_golden():
    arr = seidel_array("v-from-U", k=1, rows=7)
    assert arr.rows == golden.SEIDEL_V_K1_7
    assert arr.rows[4] == (F(5, 2), 1, F(1, 2))


def test_unknown_variant():
    with pytest.raises(ValueError):
        seidel_array("nope", rows=3)
    assert VARIANTS == ("ls-from-T", "v-from-U", "genocchi")


def test_difference_rule_holds_post_hoc():
    # re-verify the cell rule independently of the construction loop
    for arr in (
        seidel_array("genocchi", rows=15),
        seidel_array("ls-from-T", k=3, rows=15),
        seidel_array("v-from-U", k=2, rows=15),
    ):
        for i in range(1, 15):
            for j in range(1, i // 2 + 1):
                assert arr.rows[i][j] == arr.rows[i][j - 1] - arr.rows[i - 1][j - 1]


def test_diagonals():
    # the settled value h(2n, n) of an array is arr.rows[2 * n][n]
    g = seidel_array("genocchi", rows=13)
    assert g.rows[4][2] == 2
    for n in range(7):
        assert g.rows[2 * n][n] == (-1) ** n * numbers.median_genocchi(n)

    ls = seidel_array("ls-from-T", k=2, rows=9)
    assert ls.rows[6][3] == 8

    v = seidel_array("v-from-U", k=1, rows=7)
    assert v.rows[4][2] == F(1, 2)


def test_ls_diagonal_matches_legendre_column():
    ls_tri = stirling2(preset("legendre-stirling"), 12)
    for k in range(5):
        arr = seidel_array("ls-from-T", k=k, rows=22)
        for n in range(11):
            assert arr.rows[2 * n][n] == ls_tri[n, k]
            # the settled value repeats once on the next row
            assert arr.rows[2 * n + 1][n] == ls_tri[n, k]


def test_v_diagonal_matches_v_column():
    v_tri = stirling2(preset("v-product-quarter"), 11)
    for k in range(4):
        arr = seidel_array("v-from-U", k=k, rows=21)
        for n in range(10):
            assert arr.rows[2 * n][n] == v_tri[n, k]


def test_odd_row_head_is_previous_row_sum():
    for k in range(5):
        arr = seidel_array("ls-from-T", k=k, rows=22)
        for n in range(11):
            assert arr.rows[2 * n + 1][0] == sum(arr.rows[2 * n], F(0))


def test_genocchi_first_column_cross_check():
    arr = seidel_array("genocchi", rows=27)
    for n in range(13):
        assert arr.rows[2 * n + 1][0] == (-1) ** n * numbers.genocchi(n + 1)


def test_seidel_identity_instances():
    # n = 1 by hand: the only term is G(2) = 1; n = 2: G(4) - G(2) = 0
    assert numbers.genocchi(1) == 1
    assert numbers.genocchi(2) - numbers.genocchi(1) == 0
    assert verify("4.17", 1).passed
    report = verify("4.17", 40)
    assert report.passed
    assert report.depth == 40


def test_kaneko_instances():
    # n = 1 by hand: 1*2*(-1/2) + 2*3*(1/6) + 1*4*0 = 0
    total = sum(
        [
            1 * 2 * numbers.bernoulli(1),
            2 * 3 * numbers.bernoulli(2),
            1 * 4 * numbers.bernoulli(3),
        ]
    )
    assert total == 0
    assert verify("4.48", 5).passed
    assert verify("4.48", 40).passed


def test_check_reports_have_ids():
    assert verify("4.17", 6).ident == "4.17"
    assert verify("4.48", 6).ident == "4.48"


def test_bounds_validation():
    with pytest.raises(ValueError):
        seidel_array("genocchi", rows=0)
    with pytest.raises(ValueError):
        seidel_array("ls-from-T", k=-1, rows=3)
    with pytest.raises(ValueError, match="k=5"):
        seidel_array("genocchi", k=5, rows=3)
    assert seidel_array("genocchi", k=0, rows=3) == seidel_array("genocchi", rows=3)
    with pytest.raises(ValueError):
        verify("4.17", 0)


def _array_from_whole_triangle(variant, k, rows):
    """The seeded array with its seed column read from a whole order-(k+2) triangle."""
    top = (rows - 1) // 2
    if variant == "ls-from-T":
        tri = stirling2(preset("central-factorial"), max(top + 2, k + 2))
        seed, factor = (lambda i: tri[i + 1, k + 1]), F(k + 1)
    else:
        tri = stirling2(preset("u-half-odd"), max(top + 1, k + 1))
        seed, factor = (lambda i: tri[i, k]), F(2 * k + 1, 2)
    out = []
    for i in range(rows):
        row = [seed(i // 2) * (factor if i % 2 else 1)]
        for j in range(1, i // 2 + 1):
            row.append(row[j - 1] - out[i - 1][j - 1])
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("variant", ["ls-from-T", "v-from-U"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 50, 400])
def test_seeded_arrays_past_the_seed_column(variant, k):
    for rows in (1, 2, 5, 12, 41, 61):
        arr = seidel_array(variant, k=k, rows=rows)
        if k > (rows - 1) // 2:
            # every even-row seed lies right of the triangle's diagonal
            assert arr.rows == tuple((0,) * (i // 2 + 1) for i in range(rows))
        else:
            assert arr.rows == _array_from_whole_triangle(variant, k, rows)
        assert arr.k == k
        assert all((type(x) is int) == (x.denominator == 1) for row in arr.rows for x in row)


def test_a_seed_column_past_every_seed_builds_no_triangle(monkeypatch):
    def unexpected(*args):
        raise AssertionError(f"built a seed triangle for {args}")

    monkeypatch.setattr(seidel, "_second_kind", unexpected)
    for variant in ("ls-from-T", "v-from-U"):
        assert seidel_array(variant, k=3, rows=6).rows == tuple((0,) * (i // 2 + 1) for i in range(6))
