"""Exact integer kernel: factorization, Kronecker symbols, discriminant
helpers, and ``theta_rows``, the one kernel that sums rows of a theta series
times a table for the Cohen coefficients and for both relations.

Everything here works on plain Python ints (arbitrary precision) and on
arrays of fixed-size ints; no floating point anywhere.  Only ``pack_fields``
and ``unpack_fields`` know the packed-field format: signs, item sizes, byte
order.
Only ``theta_rows`` moves packed 64-bit fields.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import compress, count, repeat
from operator import add

# Factoring is deterministic trial division; anything past this bound is
# rejected loudly instead of silently taking forever.
FACTOR_BOUND = 10**12

# Largest |d| whose class number is counted form by form (bqf.class_number):
# the count takes about 1 s at |d| = 10**8 and 3.3 s at 4*10**8 (Python 3.11,
# one core of a 2-vCPU Xeon VM), so about 10 s at this bound.
CLASS_NUMBER_BOUND = 10**9

# Largest X for the per-run tables of verify (X = D0*nmax) and kronecker
# (X = 4*nmax).  On the same machine the 12H table that both build
# (bqf.hurwitz_table) takes 0.03-0.04 s at X = 10**5, 0.06 s at 2*10**5 and
# 0.22-0.30 s at 5*10**5 (process peak 30 MiB), and verify holds two level
# tables of 8*X bytes at a time, whatever the number of levels.  Near the
# bound, verify 1155 --nmax 432 (7 levels) took 1.2-1.7 s and 33 MiB, verify
# 30030 --nmax 16 (31 levels) 1.1-1.2 s and 32 MiB, verify 6 --nmax 83333
# (one level, 41,668 rows) 2.6-3.5 s and 48 MiB, and kronecker --nmax 125000
# 1.4-1.6 s and 59 MiB.
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


def primes_up_to(x: int) -> list[int]:
    """The primes p <= x in increasing order, from a sieve of one byte per n."""
    # 0 and 1 are not prime; for x < 2, compress stops at the end of the range
    sieve = bytearray(2) + bytearray([1]) * (x - 1)
    for p in range(2, math.isqrt(x) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, x + 1, p)))
    return list(compress(range(x + 1), sieve))


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
    offset = (_short_sign_bits if length <= 1024 else _sign_bits)(length, width)
    # masked before the offset is added: shifted sums run past length fields
    value = ((value & mask) + offset) ^ offset
    del offset  # freed before the fields are made
    fields = array(typecode, (value & mask).to_bytes(width * length, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def pack_fields(column: list[int] | array) -> int:
    """The int sum of column[i] * 2**(64*i): each entry one signed 64-bit
    field, so that ``unpack_fields(pack_fields(column), len(column), 8)``
    gives the column back, and sums and products of packed columns are
    packed sums and convolutions wherever every field stays in range.
    """
    packed = array("q", column)
    if sys.byteorder == "big":
        packed.byteswap()
    # XOR with 2**63 in every 64-bit field turns two's complement fields
    # into offset binary
    offset = (_short_sign_bits if len(packed) <= 1024 else _sign_bits)(len(packed), 8)
    return (int.from_bytes(packed, "little") ^ offset) - offset


def _sign_bits(length: int, width: int) -> int:
    # 2**(8*width - 1) in each of ``length`` fields of ``width`` bytes
    return int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")


# The row products pack hundreds of short columns of one or two lengths per
# progression, and making their offset took about a third of each pack at 25
# fields; short unpacks share the cache.  A long offset is not kept: it can
# take megabytes.
_short_sign_bits = lru_cache(maxsize=8)(_sign_bits)


# A progression of rows of a binary theta series takes the products when it
# reads more than this many terms per product (per residue class mod the
# step that its shifts can fill).  Timed over all progressions of a verify
# run, best of 15 (Python 3.11.7, 2-vCPU Xeon VM), products against terms:
# the composite D0 <= 30 at nmax 100, 19-49 terms per product, 3.2 against
# 4.9 ms; 210/100 and 1155/100, about 13, 8.1 against 9.7 and 79 against
# 87 ms; 210/60 and 1155/60, about 8, 5.2 against 3.7 and 46 against 33 ms;
# 1155/20, 1190/20 and 30030/16, 2-3, six to seven times slower; 6/2000,
# about 13,000, eleven times faster.  The two cost the same near 12.
PRODUCT_TERMS_PER_RESIDUE = 12


def _direct_rows(table, shifts: list[int], counts: list[int], xs, ks) -> list[int]:
    # Row x is the sum of counts[i] * table[x - shifts[i]] over i < k, one
    # interpreted step per term.
    return [sum(counts[i] * table[x - shifts[i]] for i in range(k)) for x, k in zip(xs, ks)]


def theta_rows(table: list[int] | array, shifts: list[int], counts: list[int],
               xs: range) -> list[int]:
    """Row x of the sum over shifts[i] <= x of counts[i] * table[x - shifts[i]]
    for each x in the nonempty range ``xs``, with ``shifts`` ascending: the
    coefficients x of a theta series (counts[i] points at shifts[i]) times
    the table.

    The path follows from the n shifts <= xs[-1].  At most isqrt(xs[-1]) + 1
    of them, as many as the squares of a unary theta series: packed adds,
    one shifted big-int add per shift.  More, with ks[k] = bisect_right(shifts,
    xs[k]): term by term when sum(ks) <= PRODUCT_TERMS_PER_RESIDUE * min(step,
    n), else one big-int product per residue mod the step (Kronecker
    substitution).  A shift of residue r = (xs[0] - s) mod step reads only
    the column table[r::step], so the packed paths pack each such column
    once (``pack_fields``) and decode every row at once (``unpack_fields``).
    They raise InternalCheckError unless the largest |entry| of the columns
    times the sum of the counts is below 2**63, or if their first or last
    row differs from its term-by-term sum.
    """
    x0, step, last = xs[0], xs.step, xs[-1]
    n = bisect_right(shifts, last)
    unary = n <= math.isqrt(last) + 1
    if not unary:
        ks = list(map(bisect_right, repeat(shifts), xs))
        if sum(ks) <= PRODUCT_TERMS_PER_RESIDUE * min(step, n):
            return _direct_rows(table, shifts, counts, xs, ks)
    shifts, counts = shifts[:n], counts[:n]
    # A shift s of residue r reads table[x0 + step*k - s] = column[k - e],
    # e = (s + r - x0) / step >= -lift: moved up e + lift fields, the column
    # holds row k in field k + lift.
    lift = x0 // step
    residues = [(x0 - s) % step for s in shifts]
    largest, packed = 0, {}
    for r in set(residues):
        column = table[r:last + 1:step]
        largest = max(largest, max(column), -min(column))
        packed[r] = pack_fields(column)
        del column  # a copy of table entries, not held while the rows are summed
    if largest * sum(counts) >= 1 << 63:
        raise InternalCheckError(f"a row sum of {sum(counts)} weighted terms does not fit "
                                 f"64-bit fields")
    if unary:
        # the shifted columns of each count added up, the largest shift
        # first: later big ints reuse its memory (in ascending order cohen
        # --nmax 200000 took 475k page faults, 1 s of system time); then
        # each sum scaled once, with no scaled column held beside it
        sums = {}
        for s, count, r in zip(reversed(shifts), reversed(counts), reversed(residues)):
            sums[count] = sums.get(count, 0) + (packed[r] << 64 * ((s + r - x0) // step + lift))
        del packed
        total = sum(count * sums.pop(count) for count in list(sums))
    else:
        # the weights of residue r, the shifts first, first + step, ..., each
        # in its own field, times the packed column
        weights = array("q", [0]) * (last + 1)
        for s, count in zip(shifts, counts):
            weights[s] = count
        total = 0
        for r, column in packed.items():
            first = (x0 - r) % step
            lifted = pack_fields(weights[first::step]) << 64 * ((first + r - x0) // step + lift)
            total += lifted * column
    rows = unpack_fields(total, len(xs) + lift, 8)
    del rows[:lift]
    # the first and the last row once more, term by term
    ends = [rows[0], rows[-1]]
    direct = _direct_rows(table, shifts, counts, (x0, last), (bisect_right(shifts, x0), n))
    if ends != direct:
        raise InternalCheckError(f"row products disagree with the direct sums at x = {x0} "
                                 f"and {last}: {ends} != {direct}")
    return rows.tolist()
