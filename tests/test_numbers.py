from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

import golden
from fixtures import perturbed
from genocchi import numbers
from genocchi.seidel import seidel_array
from genocchi.trimat import Cache, TriMatrix


def test_bernoulli_values():
    assert numbers.bernoulli(0) == 1
    assert numbers.bernoulli(1) == Fraction(-1, 2)
    assert numbers.bernoulli(3) == 0
    assert numbers.bernoulli(12) == Fraction(-691, 2730)
    assert [numbers.bernoulli(n) for n in range(17)] == [
        Fraction(s) for s in golden.BERNOULLI_17
    ]


def test_bernoulli_odd_indices_vanish():
    for n in range(1, 21):
        assert numbers.bernoulli(2 * n + 1) == 0


def fraction_bernoulli(n):
    """B(0..n) by the recurrence B(m) = -sum_{k<m} C(m+1, k) B(k) / (m+1), all in Fraction."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_bernoulli_int_route_matches_fraction_recurrence(monkeypatch):
    want = fraction_bernoulli(250)
    # from a cold cache, and extended in pieces so the common denominator grows
    for steps in ([250], [1, 2, 7, 60, 61, 250]):
        monkeypatch.setattr(numbers, "_bernoulli", [Fraction(1)])
        for n in steps:
            numbers.bernoulli(n)
        assert numbers._bernoulli == want
        assert all(type(x) is Fraction for x in numbers._bernoulli)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        numbers.bernoulli(-1)


def test_bernoulli_b():
    assert numbers.bernoulli_b(0) == 1
    assert numbers.bernoulli_b(1) == Fraction(1, 2)
    assert numbers.bernoulli_b(4) == Fraction(-1, 30)
    for n in (0, 2, 3, 4, 9, 12):
        assert numbers.bernoulli_b(n) == numbers.bernoulli(n)


def test_genocchi_values():
    assert numbers.genocchi(1) == 1
    assert numbers.genocchi(4) == 17
    assert numbers.genocchi(8) == 929569
    assert [numbers.genocchi(n) for n in range(1, 9)] == golden.GENOCCHI_8


def test_genocchi_returns_int():
    assert all(isinstance(numbers.genocchi(n), int) for n in range(1, 20))


def test_genocchi_signed_values():
    assert numbers.genocchi_signed(1) == 1
    assert numbers.genocchi_signed(5) == 0
    assert numbers.genocchi_signed(6) == -3
    assert [numbers.genocchi_signed(n) for n in range(1, 11)] == golden.GENOCCHI_SIGNED_10


def test_tangent_values():
    assert numbers.tangent(0) == 1
    assert numbers.tangent(3) == 272
    assert numbers.tangent(6) == 22368256
    assert [numbers.tangent(k) for k in range(7)] == golden.TANGENT_7


def test_tangent_genocchi_relation():
    for k in range(20):
        assert numbers.tangent(k) * (2 * k + 2) == 2 ** (2 * k + 1) * numbers.genocchi(k + 1)


def test_median_genocchi_values():
    assert numbers.median_genocchi(0) == 1
    assert numbers.median_genocchi(4) == 56
    assert numbers.median_genocchi(5) == 608
    assert [numbers.median_genocchi(n) for n in range(6)] == golden.MEDIAN_GENOCCHI_6


def test_median_genocchi_matches_full_inverse():
    # the forward substitution reproduces the first column of the inverse
    inv = TriMatrix.from_rule(lambda i, j: comb(2 * i - j, j), 40).inverse()
    for n in range(40):
        value = numbers.median_genocchi(n)
        assert type(value) is int
        assert value == (-1) ** n * inv[n, 0]


def test_median_genocchi_binomial_cross_check():
    # the alternating binomial transform of the medians gives the Genocchi run
    for n in range(13):
        total = sum(
            (-1) ** (n - j) * comb(2 * n + 1 - j, j) * numbers.median_genocchi(j)
            for j in range(n + 1)
        )
        assert total == numbers.genocchi(n + 1)


def test_three_way_genocchi_oracle():
    # Bernoulli route vs the self-seeding difference array vs the signed variant
    depth = 15
    arr = seidel_array("genocchi", rows=2 * depth + 1)
    for n in range(1, depth + 1):
        from_bernoulli = numbers.genocchi(n)
        from_array = (-1) ** (n - 1) * arr.rows[2 * n - 1][0]
        assert from_array == from_bernoulli
        if n >= 1:
            assert abs(numbers.genocchi_signed(2 * n)) == from_bernoulli


# ----------------------------------------------------------------------
# integer-only oracles, independent of the Bernoulli recurrence


def brent_harvey_tangents(n):
    """T[1..n], the tangent numbers T[k] = tan^(2k-1)(0), by Brent and Harvey (2011)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def seidel_median_rows(count):
    """Rows 1..count of the Dumont-Randrianarivony triangle.

    Row 1 is [1].  An even row holds the suffix sums of the row above; an
    odd row holds its prefix sums followed by their total.
    """
    rows = [[1]]
    while len(rows) < count:
        above = rows[-1]
        if len(rows) % 2:  # the next row, len(rows) + 1, is even
            rows.append(list(accumulate(reversed(above)))[::-1])
        else:
            prefix = list(accumulate(above))
            rows.append(prefix + prefix[-1:])
    return rows


def test_brent_harvey_tangents():
    assert brent_harvey_tangents(9) == [numbers.tangent(k) for k in range(9)]
    assert brent_harvey_tangents(5) == [1, 2, 16, 272, 7936]
    # 125 covers every index a 120-row closed-form matrix reads
    for n, t in enumerate(brent_harvey_tangents(125), start=1):
        # G(2n) = n T(n) / 4^(n-1) and B(2n) = (-1)^(n-1) 2n T(n) / (4^n (4^n - 1))
        assert numbers.genocchi(n) * 4 ** (n - 1) == n * t
        assert numbers.bernoulli(2 * n) * 4**n * (4**n - 1) == (-1) ** (n - 1) * 2 * n * t


def test_seidel_median_triangle():
    rows = seidel_median_rows(60)
    assert rows[:5] == [[1], [1], [1, 1], [2, 1], [2, 3, 3]]
    for m in range(1, 31):
        # rows are counted from 1: row 2m starts with the median, row 2m-1 ends with G(2m)
        assert rows[2 * m - 1][0] == numbers.median_genocchi(m)
        assert rows[2 * m - 2][-1] == numbers.genocchi(m)


def test_genocchi_check_runs_as_a_value_enters_the_cache(monkeypatch):
    monkeypatch.setattr(numbers, "_genocchi", [])
    # G_2 would come out as (-1) * 2 * (1 - 4) * 1/5 = 6/5
    monkeypatch.setattr(numbers, "bernoulli", lambda n: Fraction(1, 5))
    with pytest.raises(ArithmeticError):
        numbers.genocchi(1)
    assert numbers._genocchi == []


@pytest.mark.parametrize("index, value, shown", [
    # B(8) + 1/7 adds -C(10, 8) / (7 * 10) = -9/14 to B(9), which must vanish
    (8, Fraction(-1, 30) + Fraction(1, 7), r"bernoulli\(9\) came out as -9/14, expected 0"),
    # B(9) = 1/2 shifts B(10) by -5/2: 5/66 - 5/2 = -80/33 lacks the prime 2
    (9, Fraction(1, 2), r"bernoulli\(10\) came out as -80/33, which fails von Staudt-Clausen"),
])
def test_bernoulli_check_runs_as_a_value_enters_the_cache(monkeypatch, index, value, shown):
    cache = fraction_bernoulli(index)
    cache[index] = value
    monkeypatch.setattr(numbers, "_bernoulli", cache)
    perturbed = list(cache)
    # cached values are served without a check
    assert numbers.bernoulli(index) == value
    with pytest.raises(ArithmeticError, match=rf"^{shown}$"):
        numbers.bernoulli(index + 1)
    assert numbers._bernoulli == perturbed


@pytest.mark.parametrize("change", [
    "edited in place", "popped and appended again", "swapped for a same-length copy",
])
def test_bernoulli_check_sees_a_change_between_extensions(monkeypatch, change):
    # bernoulli keeps its scaled values between extending calls; a cached value
    # changed after one extension must still reach the next value's check
    cache = Cache([Fraction(1)])
    monkeypatch.setattr(numbers, "_bernoulli", cache)
    numbers.bernoulli(8)
    if change == "popped and appended again":
        cache.append(cache.pop() + Fraction(1, 7))
    else:
        if change == "swapped for a same-length copy":
            cache = list(cache)  # a plain list counts no edits, so only its identity differs
            monkeypatch.setattr(numbers, "_bernoulli", cache)
        cache[8] += Fraction(1, 7)
    with pytest.raises(ArithmeticError, match=r"^bernoulli\(9\) came out as -9/14, expected 0$"):
        numbers.bernoulli(9)
    assert len(numbers._bernoulli) == 9


class _StopsBeforeAppend(Cache):
    def append(self, value):
        raise KeyboardInterrupt


def test_bernoulli_regrows_after_an_extension_stopped_before_its_append(monkeypatch):
    # the scaled values are kept just before a value enters the cache, so an
    # extension stopped between the two leaves them one longer than the cache
    cache = Cache([Fraction(1)])
    monkeypatch.setattr(numbers, "_bernoulli", cache)
    numbers.bernoulli(6)
    cache.__class__ = _StopsBeforeAppend
    with pytest.raises(KeyboardInterrupt):
        numbers.bernoulli(7)
    cache.__class__ = Cache
    assert numbers.bernoulli(10) == Fraction(5, 66)
    assert cache == fraction_bernoulli(10)


def test_median_genocchi_cross_check_runs_as_a_value_enters_the_cache(monkeypatch):
    monkeypatch.setattr(numbers, "_medians", [1, 1, 2])
    # every Genocchi number is read one too large (the true G_8 is 17), so the
    # message shows which index was read; cached values are served without a check
    monkeypatch.setattr(numbers, "genocchi", lambda n, g=numbers.genocchi: g(n) + 1)
    assert numbers.median_genocchi(2) == 2
    message = r"^median genocchi cross-check failed at n=3: 17 != 18$"
    with pytest.raises(ArithmeticError, match=message):
        numbers.median_genocchi(3)
    assert numbers._medians == [1, 1, 2]


def test_tangent_check_runs_on_every_call(monkeypatch):
    # T_5 = 2**5 * G_6 / 6, so G_6 = 1 gives 16/3 and G_6 = -3 gives -16
    for g, shown in ((1, "16/3"), (-3, "-16")):
        monkeypatch.setattr(numbers, "genocchi", lambda n, g=g: g)
        with pytest.raises(ArithmeticError, match=rf"^tangent\(2\) came out as {shown},"):
            numbers.tangent(2)


# Each positivity check meets a value of exactly 0: an entry it is computed
# from is zeroed, and the cache that holds the value is cut back so that the
# value is computed again.  A check weakened to < 0 lets the 0 through.


def test_genocchi_positivity_check_rejects_zero():
    numbers.genocchi(2)
    with perturbed(numbers._bernoulli, 4, lambda b: Fraction(0)):
        del numbers._genocchi[1:]
        with pytest.raises(
            ArithmeticError, match=r"^genocchi\(2\) came out as 0, expected a positive integer$"
        ):
            numbers.genocchi(2)


def test_tangent_positivity_check_rejects_zero():
    numbers.genocchi(3)
    with perturbed(numbers._genocchi, 2, lambda g: 0):
        with pytest.raises(
            ArithmeticError, match=r"^tangent\(2\) came out as 0, expected a positive integer$"
        ):
            numbers.tangent(2)


def test_median_genocchi_positivity_check_rejects_zero():
    numbers.median_genocchi(1)
    with perturbed(numbers._medians, 0, lambda m: 0):
        del numbers._medians[1:]
        with pytest.raises(ArithmeticError, match=r"^median genocchi 1 came out as 0$"):
            numbers.median_genocchi(1)


def test_index_validation():
    with pytest.raises(ValueError):
        numbers.genocchi(0)
    with pytest.raises(ValueError):
        numbers.genocchi_signed(0)
    with pytest.raises(ValueError):
        numbers.tangent(-1)
    with pytest.raises(ValueError):
        numbers.median_genocchi(-1)
