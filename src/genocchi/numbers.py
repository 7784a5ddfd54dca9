"""Bernoulli, Genocchi, tangent and median Genocchi numbers.

Each sequence is produced by a primary route and pinned to an independent
one: Bernoulli values must vanish at odd indices above 1 and have the
denominators von Staudt-Clausen gives, Genocchi values must come out
integral and positive, tangent values integral, and median Genocchi values
are read off a matrix inverse and then re-checked against the Genocchi
numbers.  All functions are pure; a cached value is checked once, when it
enters its cache.  tangent has no cache: it is derived from genocchi and
checked on every call, so a changed Genocchi value reaches 2.3, 5.7 and
5.10, which a tangent cache would hide.
genocchi, genocchi_signed, tangent and median_genocchi return ints.
bernoulli and bernoulli_b stay Fractions even when integral: tests pin the
type, and the fixture tangent_matrix_inverse_printed divides one by an int.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import comb, isqrt, lcm, prod
from operator import add, mul

from .trimat import Cache, _scaled

_bernoulli: list[Fraction] = Cache([Fraction(1)])
# (cache, Cache.edits, nums, den, binom) as the last extension of bernoulli
# left them: the cache's values scaled by den, and the Pascal row C(m, k)
# for m = len(nums).
_scaled_bernoulli: tuple = (None,) * 5


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, with B(1) = -1/2.

    Extends the cache by B(m) = -sum_{k<m} C(m+1, k) B(k) / (m+1) in int
    arithmetic: the cached values are scaled to one common denominator,
    which grows by lcm when a new value needs it, the zero terms are
    skipped, and each value is divided back once.  The scaled values and
    the Pascal row are kept between calls, so a cache read one index at a
    time grows in one pass; they are made again from the cache when it is
    another object, has been edited in place (Cache.edits) or has another
    length.  A new value must pass _check_bernoulli before it enters the
    cache.
    """
    global _scaled_bernoulli
    if n < 0:
        raise ValueError("index must be >= 0")
    cache = _bernoulli
    if len(cache) <= n:
        held, edits, nums, den, binom = _scaled_bernoulli
        if held is not cache or edits != Cache.edits or len(nums) != len(cache):
            nums, den = _scaled(cache)
            nums = list(nums)  # _scaled hands all-int values back as given, and nums grows
            binom = [comb(len(nums), k) for k in range(len(nums) + 1)]
        while len(nums) <= n:
            m = len(nums)
            binom = [1, *map(add, binom, binom[1:]), 1]  # C(m+1, k)
            acc = sum(map(mul, compress(binom, nums), filter(None, nums)))
            value = Fraction(-acc, den * (m + 1))
            _check_bernoulli(m, value)
            if den % value.denominator:
                grown = lcm(den, value.denominator)
                nums = [x * (grown // den) for x in nums]
                den = grown
            nums.append(value.numerator * (den // value.denominator))
            # kept before the value enters the cache: stopped between the two,
            # the kept values are one longer than the cache, and are made again
            _scaled_bernoulli = (cache, Cache.edits, nums, den, binom)
            cache.append(value)
    return cache[n]


def _check_bernoulli(m: int, value: Fraction) -> None:
    """Raise unless B(m) obeys von Staudt-Clausen, with B(m) = 0 for odd m > 1.

    B(m) + sum of 1/p over the primes p with (p - 1) | m is an integer for
    m = 1 and every even m, so the denominator of B(m) is the product of
    those primes.
    """
    if m % 2 and m > 1:
        if value:
            raise ArithmeticError(f"bernoulli({m}) came out as {value}, expected 0")
        return
    divisors = {d for i in range(1, isqrt(m) + 1) if m % i == 0 for d in (i, m // i)}
    primes = [d + 1 for d in divisors if _is_prime(d + 1)]
    q = prod(primes)
    s = sum(q // p for p in primes)
    if (value.numerator * q + s * value.denominator) % (value.denominator * q):
        raise ArithmeticError(
            f"bernoulli({m}) came out as {value}, which fails von Staudt-Clausen"
        )


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, isqrt(p) + 1))


def bernoulli_b(n: int) -> Fraction:
    """Bernoulli variant with the sign of the index-1 term flipped to +1/2."""
    if n == 1:
        return Fraction(1, 2)
    return bernoulli(n)


# _genocchi[n - 1] is the Genocchi number with index 2n.
_genocchi: list[int] = Cache()


def genocchi(n: int) -> int:
    """Positive Genocchi number with even index 2n, for n >= 1.

    Derived from the Bernoulli numbers; integrality and positivity are
    consequences, so a violation signals an arithmetic bug and raises.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    while len(_genocchi) < n:
        m = len(_genocchi) + 1
        value = (-1) ** m * 2 * (1 - 4**m) * bernoulli(2 * m)
        if value.denominator != 1 or value <= 0:
            raise ArithmeticError(
                f"genocchi({m}) came out as {value}, expected a positive integer"
            )
        _genocchi.append(value.numerator)
    return _genocchi[n - 1]


def genocchi_signed(n: int) -> int:
    """Signed Genocchi number with index n >= 1.

    The first value is 1, odd indices above 1 vanish, and even indices 2k
    carry the sign (-1)**k.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if n == 1:
        return 1
    if n % 2 == 1:
        return 0
    k = n // 2
    return (-1) ** k * genocchi(k)


def tangent(k: int) -> int:
    """Tangent number with odd index 2k+1, for k >= 0."""
    if k < 0:
        raise ValueError("index must be >= 0")
    num, den = 2 ** (2 * k + 1) * genocchi(k + 1), 2 * k + 2
    value, rest = divmod(num, den)
    if rest or value <= 0:
        raise ArithmeticError(
            f"tangent({k}) came out as {Fraction(num, den)}, expected a positive integer"
        )
    return value


# _medians[n] is the median Genocchi number with index 2n+1.
_medians: list[int] = Cache()


def median_genocchi(n: int) -> int:
    """Median Genocchi number with odd index 2n+1, for n >= 0.

    Computed as (-1)**n times the first-column entry of the inverse of the
    binomial matrix C(2i-j, j) whose rows hold the odd-index Fibonacci
    polynomial coefficients.  That matrix has a unit diagonal, so the
    column x is extended one row at a time by integer forward substitution,
    x_i = [i = 0] - sum_{j < i} C(2i-j, j) x_j, without building or
    inverting the matrix.  Each new value must be positive and must
    reproduce the Genocchi numbers through the alternating binomial sum
    they generate; a violation raises.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    while len(_medians) <= n:
        i = len(_medians)
        x = (1 if i == 0 else 0) - sum(
            comb(2 * i - j, j) * (-1) ** j * m for j, m in enumerate(_medians)
        )
        values = [*_medians, (-1) ** i * x]
        if values[i] <= 0:
            raise ArithmeticError(f"median genocchi {i} came out as {values[i]}")
        check = sum((-1) ** (i - j) * comb(2 * i + 1 - j, j) * m for j, m in enumerate(values))
        if check != genocchi(i + 1):
            raise ArithmeticError(
                f"median genocchi cross-check failed at n={i}: {check} != {genocchi(i + 1)}"
            )
        _medians.append(values[i])
    return _medians[n]
