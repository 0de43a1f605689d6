"""Shimura-curve class-number functions.

For a level (D, N) with D the quaternion discriminant and N the Eichler
level, the CM-point count of a negative discriminant d multiplies the class
number h(d) by local optimal-embedding counts at the primes dividing D*N.
The weighted sum over orders between d and its fundamental part, normalized
by a 2-power and the unit weights, is the class-number function evaluated by
``weighted_class_number``; its value at 0 is minus half the curve volume.
``weighted_class_number`` keeps no state; ``level_tables`` tabulates the
same function for all levels of one D*N, once per run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from . import bqf
from .arith import (
    divisors,
    fundamental_decomposition,
    is_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    prime_divisors,
    smallest_prime_factors,
)


@dataclass(frozen=True)
class ShimuraLevel:
    """Coprime squarefree pair (D, N); D has an even number of prime factors."""

    D: int
    N: int

    def __post_init__(self):
        if self.D < 1 or self.N < 1:
            raise ValueError("D and N must be positive")
        if math.gcd(self.D, self.N) != 1:
            raise ValueError("D and N must be coprime")
        if not (is_squarefree(self.D) and is_squarefree(self.N)):
            raise ValueError("D and N must be squarefree")
        if len(prime_divisors(self.D)) % 2 != 0:
            raise ValueError("D must have an even number of prime factors")

    @property
    def product(self) -> int:
        return self.D * self.N


def local_embedding_count(level: ShimuraLevel, d: int, q: int) -> int:
    """Number of local optimal embeddings of the order of discriminant d at q.

    With d = f**2 * d0 (d0 fundamental): 1 when q does not divide D*N;
    at q | D it is 1 - (d0|q), or 0 when q also divides f; at q | N it is
    1 + (d0|q), or 2 when q also divides f.  The symbol is evaluated at d0
    in every branch (for q not dividing f this agrees with (d|q), and the
    q | f branches are the fixed constants).
    """
    if d >= 0 or not is_discriminant(d):
        raise ValueError(f"not a discriminant: {d}")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if level.product % q != 0:
        return 1
    d0, f = fundamental_decomposition(d)
    if level.D % q == 0:
        return 0 if f % q == 0 else 1 - kronecker(d0, q)
    return 2 if f % q == 0 else 1 + kronecker(d0, q)


def cm_point_count(level: ShimuraLevel, d: int) -> int:
    """Number of CM-points of discriminant d on the curve of the given level."""
    count = bqf.class_number(d)
    for q in prime_divisors(level.product):
        count *= local_embedding_count(level, d, q)
        if count == 0:
            return 0
    return count


def volume_term(level: ShimuraLevel) -> Fraction:
    """Value of the class-number function at 0: -(DN/12) prod over p|D of
    (1 - 1/p) times prod over p|N of (1 + 1/p)."""
    value = Fraction(-level.product, 12)
    for p in prime_divisors(level.D):
        value *= Fraction(p - 1, p)
    for p in prime_divisors(level.N):
        value *= Fraction(p + 1, p)
    return value


def weighted_class_number(level: ShimuraLevel, m: int | Fraction) -> Fraction:
    """The class-number function of the level at a nonnegative rational m.

    Returns the volume term at m = 0, the weighted CM-point count when m is a
    positive integer with -m a discriminant, and 0 otherwise (non-integral m,
    or -m = 2,3 mod 4).  Callers may pass raw rational arguments without
    pre-filtering.
    """
    m = Fraction(m)
    if m < 0:
        raise ValueError("negative argument")
    if m.denominator != 1 or (-m) % 4 in (2, 3):
        return Fraction(0)
    m = int(m)
    if m == 0:
        return volume_term(level)
    d0, f = fundamental_decomposition(-m)
    omega = sum(1 for p in prime_divisors(level.product) if m % p != 0)
    total = Fraction(0)
    for r in divisors(f):
        d = r * r * d0
        total += Fraction(cm_point_count(level, d), bqf.unit_weight_denominator(d))
    return total / 2**omega


def _embedding_counts(key: tuple[int, ...], in_d: list[list[bool]]) -> list[int]:
    # Per level, the product over q | D*N of the local embedding counts of
    # local_embedding_count; key holds (d0|q), or 2 where q divides the
    # conductor of the order.
    counts = []
    for flags in in_d:
        count = 1
        for chi, is_d in zip(key, flags):
            if chi == 2:
                count *= 0 if is_d else 2
            else:
                count *= 1 - chi if is_d else 1 + chi
        counts.append(count)
    return counts


def table_denominator(product: int) -> int:
    """L = 6 * 2**omega(D*N): L times the class-number function of any level
    with this D*N is an integer (unit weights 1/2 and 1/3, and the 2-power)."""
    return 6 << len(prime_divisors(product))


def level_tables(levels: list[ShimuraLevel], class_numbers: array) -> dict[ShimuraLevel, array]:
    """For levels sharing one D*N > 1, the integers L*H_{D,N}(m) for
    0 <= m <= x, with L = table_denominator(D*N) and class_numbers =
    bqf.class_number_table(x).

    One pass over m fills every level: the fundamental decomposition of -m
    (from a smallest-prime-factor sieve), the symbols (d0|q) at the primes
    q | D*N, the 2-power and the h lookups of the orders between -m and d0
    are shared, and only the product of local embedding counts is per level.
    """
    products = {level.product for level in levels}
    if len(products) != 1 or products == {1}:
        raise ValueError("level tables need levels with one common D*N > 1")
    (product,) = products
    x = len(class_numbers) - 1
    primes = prime_divisors(product)
    denominator = table_denominator(product)
    # (d|q) depends on d mod q for odd q and on d mod 8 for q = 2
    moduli = [8 if q == 2 else q for q in primes]
    symbols = [[kronecker(r, q) for r in range(mod)] for q, mod in zip(primes, moduli)]
    in_d = [[level.D % q == 0 for q in primes] for level in levels]
    tables = [array("q", bytes(8 * (x + 1))) for _ in levels]
    for table, level in zip(tables, levels):
        table[0] = int(denominator * volume_term(level))
    spf = smallest_prime_factors(x)
    fmax = math.isqrt(x)
    embedding_counts: dict[tuple[int, ...], list[int]] = {}
    conductor_divisors: list[list[int]] = [[] for _ in range(fmax + 1)]
    for r in range(1, fmax + 1):
        for f in range(r, fmax + 1, r):
            conductor_divisors[f].append(r)
    for m in range(3, x + 1):
        if m % 4 in (1, 2):
            continue
        # m = root**2 * core with core squarefree
        rest, core, root = m, 1, 1
        while rest > 1:
            p = spf[rest]
            rest //= p
            if rest % p == 0:
                rest //= p
                root *= p
            else:
                core *= p
        # -m = f**2 * d0 with d0 = -base fundamental
        base, f = (core, root) if core % 4 == 3 else (4 * core, root // 2)
        chis = tuple(sym[-base % mod] for sym, mod in zip(symbols, moduli))
        totals = [0] * len(levels)
        for r in conductor_divisors[f]:
            k = r * r * base
            # 6 over the unit weight 3, 2 or 1 of the order of discriminant -k
            weight = class_numbers[k] * (2 if k == 3 else 3 if k == 4 else 6)
            # 2 marks a prime dividing the conductor r of the order
            key = chis if r == 1 else tuple(2 if r % q == 0 else chi
                                            for q, chi in zip(primes, chis))
            counts = embedding_counts.get(key)
            if counts is None:
                counts = embedding_counts[key] = _embedding_counts(key, in_d)
            for i, count in enumerate(counts):
                totals[i] += weight * count
        # the function divides by 2 for each q | D*N not dividing m
        shift = sum(1 for q in primes if m % q == 0)
        for table, total in zip(tables, totals):
            table[m] = total << shift
    return dict(zip(levels, tables))
