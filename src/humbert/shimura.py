"""Shimura-curve class-number functions.

For a level (D, N) with D the quaternion discriminant and N the Eichler
level, the CM-point count of a negative discriminant d multiplies the class
number h(d) by local optimal-embedding counts at the primes dividing D*N.
The weighted sum over orders between d and its fundamental part, normalized
by a 2-power and the unit weights, is the class-number function evaluated by
``weighted_class_number``; its value at 0 is minus half the curve volume.
``weighted_class_number`` keeps no state; ``level_tables`` tabulates the
same function, without its 2-power, for the levels of one D*N, one level at
a time.

The tables rest on one identity.  With P = D*N, omega = omega(P) and
L = 6*2**omega, L*H_{D,N}(m) = 2**#{q | P : q | m} * sum over s**2 | m of
c[m/s**2], where c[k] = 6/e(k) * h(-k) * prod over q | P of l_q(k).  Each
l_q(k) is in {0, 1, 2} and depends only on k mod q**2 (k mod 16 for q = 2):
1 - (-k|q) at q | D and 1 + (-k|q) at q | N if q does not divide k; 1 if q
is ramified (q || k, or k = 4, 8 mod 16); 0 at q | D and 2 at q | N if q
divides the conductor (q**2 | k, or k = 0, 12 mod 16).  Where c[k] is
nonzero the product is 2**(omega - #ramified), the same for every level; a
level only decides which residue classes of k are zero.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from itertools import repeat
from operator import add, rshift
from typing import Iterator, NamedTuple

from . import bqf
from .arith import (
    InternalCheckError,
    divisors,
    fundamental_decomposition,
    is_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    prime_divisors,
    primes_up_to,
)


class _ShimuraLevelFields(NamedTuple):
    D: int
    N: int


class ShimuraLevel(_ShimuraLevelFields):
    """Coprime squarefree pair (D, N); D has an even number of prime factors."""

    __slots__ = ()

    def __new__(cls, D: int, N: int):
        if D < 1 or N < 1:
            raise ValueError("D and N must be positive")
        if math.gcd(D, N) != 1:
            raise ValueError("D and N must be coprime")
        if not (is_squarefree(D) and is_squarefree(N)):
            raise ValueError("D and N must be squarefree")
        if len(prime_divisors(D)) % 2 != 0:
            raise ValueError("D must have an even number of prime factors")
        return super().__new__(cls, D, N)

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


def table_denominator(product: int) -> int:
    """L = 6 * 2**omega(D*N): L times the class-number function of any level
    with this D*N is an integer (unit weights 1/2 and 1/3, and the 2-power)."""
    return 6 << len(prime_divisors(product))


def _residue_classes(q: int) -> tuple[list[tuple[int, int]], ...]:
    # The classes (start, step) of k on which the local embedding count at q
    # of the order of discriminant -k is 1 (ramified), 0 at q | D (split, or
    # q divides the conductor) and 0 at q | N (inert): periodic mod 16 for
    # q = 2 and mod q**2 for odd q, with (-k|q) read once per k mod q.
    if q == 2:
        return [(4, 16), (8, 16)], [(7, 8), (0, 16), (12, 16)], [(3, 8)]
    square = q * q
    symbols = [kronecker(-a, q) for a in range(q)]
    return ([(q * t, square) for t in range(1, q)],
            [(a, q) for a in range(1, q) if symbols[a] == 1] + [(0, square)],
            [(a, q) for a in range(1, q) if symbols[a] == -1])


def level_tables(levels: list[ShimuraLevel],
                 class_numbers: array) -> Iterator[tuple[ShimuraLevel, array]]:
    """For levels sharing one D*N > 1, yields (level, table) one level at a
    time, with table[m] = L*H_{D,N}(m) / 2**#{q | D*N : q | m} for
    0 <= m <= x, L = table_denominator(D*N) and class_numbers =
    bqf.class_number_table(x).  The levels are checked at the call.

    Without its 2-power, L*H_{D,N}(m) is the sum over s**2 | m of c[m/s**2]
    (module docstring), and a nonzero c[k] is 6/e(k) h(-k) L/6 halved once
    per ramified q.  table[0] is the volume term times L/2**omega = 6, an
    integer when D*N has an odd prime p (p - 1 or p + 1 is even); otherwise
    the tables raise ``InternalCheckError``.  The values are built once as
    one shared array; each level copies it, zeros its split and conductor
    classes at q | D and inert classes at q | N, and adds the square-divisor
    sum in place.  The caller applies the 2-power: at the arguments
    m = D*N*n - j that verify reads, q | m exactly when q | j.
    """
    products = {level.product for level in levels}
    if len(products) != 1 or products == {1}:
        raise ValueError("level tables need levels with one common D*N > 1")
    (product,) = products
    x = len(class_numbers) - 1
    primes = prime_divisors(product)
    denominator = table_denominator(product)
    classes = {q: _residue_classes(q) for q in primes}
    shared = [h * denominator for h in class_numbers]
    # h(-k) L / e(k), where the unit weight e(k) is 1 except at k = 3 and 4
    shared[3:5] = [h * denominator // bqf.unit_weight_denominator(-k)
                   for k, h in enumerate(class_numbers[3:5], 3)]
    for q in primes:
        for start, step in classes[q][0]:
            shared[start::step] = map(rshift, shared[start::step], repeat(1))
    shared = array("q", shared)
    # c[k] = 0 for k < 3, so only the primes with p**2 <= x/3 add anything
    sieve_primes = primes_up_to(math.isqrt(x // 3))

    def tables() -> Iterator[tuple[ShimuraLevel, array]]:
        for i, level in enumerate(levels, 1):
            # the last level takes the shared array itself
            table = shared[:] if i < len(levels) else shared
            for q in primes:
                _, d_zero, n_zero = classes[q]
                for start, step in d_zero if level.D % q == 0 else n_zero:
                    table[start::step] = array("q", [0]) * len(range(start, x + 1, step))
            # the sum over s**2 | m in place, one prime p at a time: with
            # S = p**2, table[S*j] += table[j] for ascending j, in blocks
            # [S**e, S**(e+1)); a block reads only what the block before it wrote
            for p in sieve_primes:
                square = p * p
                low, high = 0, square
                while low <= x // square:
                    high = min(high, x // square + 1)
                    table[square * low:square * high:square] = array("q", map(
                        add, table[square * low:square * high:square], table[low:high]))
                    low, high = high, high * square
            volume = 6 * volume_term(level)
            if volume.denominator != 1:
                raise InternalCheckError(f"6 times the volume term of {level} is not an integer")
            table[0] = volume.numerator
            yield level, table

    return tables()
