"""Exact integer kernel: factorization, Kronecker symbols, discriminant helpers.

Everything here works on plain Python ints (arbitrary precision) and
``fractions.Fraction``; no floating point anywhere.  Only ``unpack_fields``
and ``shifted_sum`` know the packed-field format: signs, item sizes, byte order.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import reduce
from itertools import count
from operator import add

# Factoring is deterministic trial division; anything past this bound is
# rejected loudly instead of silently taking forever.
FACTOR_BOUND = 10**12

# Largest |d| whose class number is counted form by form (bqf.class_number):
# the count takes about 1 s at |d| = 10**8 and 3.3 s at 4*10**8 (Python 3.11,
# one core of a 2-vCPU Xeon VM), so about 10 s at this bound.
CLASS_NUMBER_BOUND = 10**9

# Largest X for the per-run tables of verify (X = D0*nmax) and kronecker
# (X = 4*nmax).  On the same machine the class-number table takes 0.04 s at
# X = 10**5, 0.10 s at 2*10**5 and 0.23 s at 5*10**5 (process peak 33 MiB),
# and verify holds two level tables of 8*X bytes at a time, whatever the
# number of levels.  Near the bound, verify 1155 --nmax 432 (7 levels) took
# 2.6-3.1 s and 38 MiB, verify 30030 --nmax 16 (31 levels) 1.4-2.1 s and
# 35 MiB, and kronecker --nmax 125000 2.0 s and 66 MiB.
TABLE_BOUND = 5 * 10**5

# Largest nmax of the Cohen coefficients (qseries.cohen_coefficients).  On
# the same machine the divisor-pair sieve and packed theta sum take 0.002 s
# at nmax = 3000, 0.3 s at 10**5 and 0.7-0.9 s at this bound, where cohen
# peaks at 41 MiB.  They grow as nmax**1.5: sqrt(nmax) big-int adds of
# 2*nmax 64-bit fields.  verify needs nmax <= TABLE_BOUND // 6 = 83333
# for every D0 with a level (D0 >= 6), which is below this bound.
COHEN_BOUND = 2 * 10**5


class InternalCheckError(RuntimeError):
    """An internal cross-check failed: two independent evaluations of the
    same quantity disagree, or a construction broke an invariant it proves."""


# Witnesses making Miller-Rabin deterministic below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 2**64


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n >= _MR_LIMIT:
        raise ValueError("input too large: primality test is deterministic only below 2**64")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n <= FACTOR_BOUND as a sorted list of (prime, exponent)."""
    if n < 1:
        raise ValueError("factor requires n >= 1")
    if n > FACTOR_BOUND:
        raise ValueError(f"input too large: factoring bound is {FACTOR_BOUND}")
    pairs: list[tuple[int, int]] = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
    # trial divisors 6k +/- 1
    d = 5
    while d * d <= m:
        for q in (d, d + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                pairs.append((q, e))
        d += 6
    if m > 1:
        pairs.append((m, 1))
    assert reduce(lambda acc, pe: acc * pe[0] ** pe[1], pairs, 1) == n
    return pairs


def smallest_prime_factors(x: int) -> array:
    """spf[n] = the smallest prime factor of n for 2 <= n <= x (spf[0] = spf[1] = 0)."""
    spf = array("q", bytes(8 * (x + 1)))
    for p in range(2, x + 1):
        if spf[p] == 0:
            for k in range(p, x + 1, p):
                if spf[k] == 0:
                    spf[k] = p
    return spf


def prime_divisors(n: int) -> list[int]:
    """Sorted list of primes dividing n >= 1."""
    return [p for p, _ in factor(n)]


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n >= 1."""
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def sigma(n: int) -> int:
    """Sum of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    total = 1
    for p, e in factor(n):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def sigma_table(x: int) -> list[int]:
    """sigma(m) for 0 <= m <= x, with sigma(0) = 0: one sieve over the
    divisor pairs d*e = m with d <= e, each d <= sqrt(x) adding d + e along
    the strided slice of its multiples from d*d."""
    table = [0] * (x + 1)
    for d in range(1, math.isqrt(x) + 1):
        square = d * d
        table[square] += d
        table[square + d::d] = map(add, table[square + d::d], count(2 * d + 1))
    return table


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n >= 1."""
    if n < 1:
        raise ValueError("is_squarefree requires n >= 1")
    return all(e == 1 for _, e in factor(n))


def _jacobi(a: int, m: int) -> int:
    # Jacobi symbol (a|m) for odd m > 0.
    assert m > 0 and m % 2 == 1
    a %= m
    sign = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                sign = -sign
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            sign = -sign
        a %= m
    return sign if m == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers a and n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # split off the even part of n; (a|2) = 0, 1, -1 for a even / +-1 / +-3 mod 8
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    return sign * _jacobi(a, n)


def is_discriminant(d: int) -> bool:
    """True iff d is a discriminant of a quadratic order (d = 0,1 mod 4)."""
    return d % 4 in (0, 1)


def is_fundamental_discriminant(d: int) -> bool:
    """True iff d is the discriminant of a maximal quadratic order."""
    if d == 1 or not is_discriminant(d):
        return False
    if d % 4 == 1:
        return is_squarefree(abs(d))
    m = d // 4
    return m % 4 in (2, 3) and is_squarefree(abs(m))


def fundamental_decomposition(d: int) -> tuple[int, int]:
    """Write a negative discriminant d as f**2 * d0 with d0 fundamental.

    Returns (d0, f).
    """
    if d >= 0 or not is_discriminant(d):
        raise ValueError(f"not a discriminant: {d}")
    # |d| = s^2 * k with k squarefree
    s = 1
    k = 1
    for p, e in factor(-d):
        s *= p ** (e // 2)
        if e % 2 == 1:
            k *= p
    if (-k) % 4 == 1:
        d0, f = -k, s
    else:
        # s is forced even here because d = 0,1 mod 4
        assert s % 2 == 0
        d0, f = -4 * k, s // 2
    assert f * f * d0 == d and is_fundamental_discriminant(d0)
    return d0, f


def unpack_fields(value: int, length: int, width: int) -> array:
    """The first ``length`` fields of ``width`` bytes of ``value``, least
    significant first, read as offset binary (exact for fields in
    [-2**(8*width - 1), 2**(8*width - 1))), as an array of ``width``-byte
    items.  Raises InternalCheckError if no array typecode has that size.
    """
    typecode = next((code for code in "bhilq" if array(code).itemsize == width), None)
    if typecode is None:
        raise InternalCheckError(f"no array typecode has {width}-byte items")
    mask = (1 << 8 * width * length) - 1
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    # masked before the offset is added: shifted sums run past length fields
    value = ((value & mask) + offset) ^ offset
    del offset  # freed before the fields are made
    fields = array(typecode, (value & mask).to_bytes(width * length, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def shifted_sum(terms: list[tuple[list[int] | array, list[int]]], length: int) -> array:
    """Entry n < length of the sum over (column, shifts) in ``terms`` and s in
    shifts of column[n - s], by Kronecker substitution: each column is the int
    sum of column[i] * 2**(64*i), read as offset binary, and each shift one
    big-int add.  Signed entries are exact; raises InternalCheckError unless
    the largest |entry| times the number of shifts is below 2**63.
    """
    terms_count = sum(len(shifts) for _, shifts in terms)
    if any(max(max(column, default=0), -min(column, default=0)) * terms_count >= 1 << 63
           for column, _ in terms):
        raise InternalCheckError(f"a sum of {terms_count} shifted columns does not fit 64-bit fields")
    total = 0
    for column, shifts in terms:
        packed = array("q", column)
        if sys.byteorder == "big":
            packed.byteswap()
        # XOR with 2**63 in every 64-bit field turns two's complement fields
        # into offset binary
        offset = int.from_bytes((bytes(7) + b"\x80") * len(packed), "little")
        value = (int.from_bytes(packed, "little") ^ offset) - offset
        del packed, offset  # freed before the shifted copies are made
        total += sum(value << 64 * shift for shift in shifts)
    return unpack_fields(total, length, 8)
