"""Shimura-curve class-number functions.

For a level (D, N) with D the quaternion discriminant and N the Eichler
level, the CM-point count of a negative discriminant d multiplies the class
number h(d) by local optimal-embedding counts at the primes dividing D*N.
The weighted sum over orders between d and its fundamental part, normalized
by a 2-power and the unit weights, is the class-number function evaluated by
``weighted_class_number``; its value at 0 is minus half the curve volume.
"""

from __future__ import annotations

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
)


@dataclass(frozen=True)
class ShimuraLevel:
    """Coprime squarefree pair (D, N); D has an even number of prime factors."""

    D: int
    N: int

    def __post_init__(self):
        import math

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


_CACHE: dict[tuple[int, int, int], Fraction] = {}


def _weighted_class_number_int(level: ShimuraLevel, m: int) -> Fraction:
    key = (level.D, level.N, m)
    value = _CACHE.get(key)
    if value is not None:
        return value
    if m == 0:
        value = volume_term(level)
    elif (-m) % 4 in (2, 3):
        value = Fraction(0)
    else:
        d0, f = fundamental_decomposition(-m)
        omega = sum(1 for p in prime_divisors(level.product) if m % p != 0)
        total = Fraction(0)
        for r in divisors(f):
            d = r * r * d0
            total += Fraction(cm_point_count(level, d), bqf.unit_weight_denominator(d))
        value = total / 2**omega
    _CACHE[key] = value
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
    if m.denominator != 1:
        return Fraction(0)
    return _weighted_class_number_int(level, int(m))
