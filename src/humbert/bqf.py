"""Integral binary quadratic forms: reduction, class numbers, Hurwitz numbers.

Class numbers and Hurwitz numbers come one value at a time, with no state
kept (``class_number``, ``hurwitz``), or as per-run tables
(``class_number_table``, ``hurwitz_table``) built from one count of the
reduced forms of every discriminant up to a bound (``form_count_table``):
h by Moebius inversion over square divisors, one prime at a time, and 12H
directly from the count.  The count adds bytes along strided slices and
moves them into the 32-bit fields of one int (``arith.unpack_fields``)
before any byte could wrap.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from itertools import repeat
from operator import mul, sub
from typing import NamedTuple

from .arith import CLASS_NUMBER_BOUND, TABLE_BOUND, is_discriminant, primes_up_to, unpack_fields


class BQF(NamedTuple):
    """The form a*x**2 + b*x*y + c*y**2."""

    a: int
    b: int
    c: int

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return math.gcd(self.a, math.gcd(self.b, self.c))

    def is_positive_definite(self) -> bool:
        return self.a > 0 and self.disc() < 0

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __repr__(self):
        return f"BQF({self.a}, {self.b}, {self.c})"

    def __str__(self):
        def term(coef, mon):
            return f"{coef}{mon}" if coef >= 0 else f"({coef}){mon}"

        return f"{self.a}x^2 + {term(self.b, 'xy')} + {term(self.c, 'y^2')}"


def _is_reduced(a: int, b: int, c: int) -> bool:
    return (-a < b <= a < c) or (0 <= b <= a == c)


def reduce(q: BQF) -> BQF:
    """The unique SL(2,Z)-reduced representative of a positive definite form."""
    if not q.is_positive_definite():
        raise ValueError("not positive definite")
    a, b, c = q.a, q.b, q.c
    while not _is_reduced(a, b, c):
        if c < a or (c == a and b < 0):
            a, b, c = c, -b, a
        else:
            # translate b into (-a, a]
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
    return BQF(a, b, c)


def gl2_canonical(q: BQF) -> BQF:
    """Reduced representative of the GL(2,Z)-class, normalized to b >= 0."""
    r = reduce(q)
    return r if r.b >= 0 else BQF(r.a, -r.b, r.c)


def reduced_forms(d: int, primitive_only: bool = True) -> list[BQF]:
    """All SL(2,Z)-reduced positive definite forms of discriminant d < 0."""
    if d >= 0 or not is_discriminant(d):
        raise ValueError(f"not a discriminant: {d}")
    forms = []
    amax = math.isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(d % 2, a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            for bb in ((b, -b) if 0 < b < a < c else (b,)):
                q = BQF(a, bb, c)
                if not primitive_only or q.content() == 1:
                    forms.append(q)
    return sorted(forms)


def class_number(d: int) -> int:
    """h(d): number of primitive reduced forms of discriminant d < 0.

    Rejects |d| > arith.CLASS_NUMBER_BOUND, where the count would take more
    than about 10 s.
    """
    if -d > CLASS_NUMBER_BOUND:
        raise ValueError(f"input too large: class numbers are counted up to |d| = {CLASS_NUMBER_BOUND}")
    return len(reduced_forms(d))


def form_count_table(x: int) -> array:
    """The number of reduced forms of discriminant -k, primitive or not, for
    0 <= k <= x as an array indexed by k (0 where -k is not a discriminant,
    and at k = 0): the sum of h(-k/g**2) over g**2 | k.

    One pass over the reduced forms (a, b, c) with 4ac - b**2 <= x (Cohen,
    GTM 138, 5.3, run for all discriminants at once): one strided slice per
    a and pair (b, -b), adding 1 or 2 to one byte per k with
    ``bytes.translate``.  Before a byte could wrap, from a bound on what one
    a can add to it, the bytes move into the 32-bit fields of one int, which
    ``arith.unpack_fields`` reads.  Rejects x > arith.TABLE_BOUND.
    """
    if x < 0:
        raise ValueError("table size must be >= 0")
    if x > TABLE_BOUND:
        raise ValueError(f"input too large: tables are built up to {TABLE_BOUND} entries")
    plus1, plus2 = bytes(range(1, 256)) + b"\0", bytes(range(2, 256)) + b"\0\1"
    plane, fields, total, load = bytearray(x + 1), bytearray(4 * (x + 1)), 0, 0
    for a in range(1, math.isqrt(x // 3) + 1):
        # for fixed (a, b) the discriminants step by 4a as c grows from a, so
        # k gains only from the b with -b**2 = k mod 4a, at most 2 from each
        step = 4 * a
        gain = 2 * max(Counter(map(pow, range(a + 1), repeat(2), repeat(step))).values())
        if load + gain > 255:
            fields[::4] = plane
            total += int.from_bytes(fields, "little")
            plane, load = bytearray(x + 1), 0
        load += gain
        for b in (0, a):
            start = step * a - b * b
            plane[start::step] = plane[start::step].translate(plus1)
        for b in range(1, a):
            # (a, -b, c) is reduced for c > a only, so its progression is
            # that of (a, b, c) without the first term, which has just gained 2
            start = step * a - b * b
            plane[start::step] = plane[start::step].translate(plus2)
            if start <= x:
                plane[start] -= 1
    fields[::4] = plane
    return unpack_fields(total + int.from_bytes(fields, "little"), x + 1, 4)


def class_number_table(x: int) -> array:
    """h(-k) for 0 <= k <= x as an array indexed by k (0 where -k is not a
    discriminant, and at k = 0).

    The form count of -k (``form_count_table``) is the sum of h(-k/g**2)
    over g**2 | k.  With T_p the map that moves entry k to entry p**2*k, the
    class numbers are the product over primes p <= sqrt(x/3) of (1 - T_p)
    applied to the counts: Moebius inversion over the square divisors, one
    slice per prime.  A larger prime would only subtract the counts at k = 1
    and 2, which are 0.  Rejects x > arith.TABLE_BOUND.
    """
    table = form_count_table(x).tolist()
    for p in primes_up_to(math.isqrt(x // 3)):
        square = p * p
        table[square::square] = map(sub, table[square::square], table[1:x // square + 1])
    return array("q", table)


def unit_weight_denominator(d: int) -> int:
    """Half the number of units: 3 for d=-3, 2 for d=-4, else 1."""
    if d == -3:
        return 3
    if d == -4:
        return 2
    return 1


def hurwitz(n: int) -> Fraction:
    """Hurwitz class number H(n).

    H(0) = -1/12; for n > 0 with -n a discriminant, H(n) counts classes of
    positive definite forms of discriminant -n weighted by automorphisms,
    computed as sum over square divisors r**2 | n of h(-n/r**2) / e(-n/r**2);
    H(n) = 0 when -n is 2 or 3 mod 4.  Arguments past
    arith.CLASS_NUMBER_BOUND are rejected by ``class_number``.
    """
    if n < 0:
        raise ValueError("undefined for negative argument")
    if n == 0:
        return Fraction(-1, 12)
    if (-n) % 4 in (2, 3):
        return Fraction(0)
    value = Fraction(0)
    r = 1
    while r * r <= n:
        if n % (r * r) == 0:
            d = -(n // (r * r))
            if d % 4 in (0, 1):
                value += Fraction(class_number(d), unit_weight_denominator(d))
        r += 1
    return value


def hurwitz_table(x: int) -> array:
    """12*H(n) for 0 <= n <= x as an array indexed by n.

    Entry 0 is -1, and entry n > 0 is 12 times the form count of -n
    (``form_count_table``) less 8 at n = 3r**2 and 6 at n = 4r**2, where the
    forms r*(1, 1, 1) and r*(1, 0, 1) weigh 4 and 6 instead of 12.  Rejects
    x > arith.TABLE_BOUND.
    """
    table = array("q", map(mul, form_count_table(x), repeat(12)))
    table[0] = -1
    for r in range(1, math.isqrt(x // 3) + 1):
        table[3 * r * r] -= 8
        if 4 * r * r <= x:
            table[4 * r * r] -= 6
    return table


def represents_only_0_1_mod4(q: BQF) -> bool:
    """True iff every value of the form is 0 or 1 mod 4 (scan of residues mod 4)."""
    return all(q(x, y) % 4 in (0, 1) for x in range(4) for y in range(4))


def represent(q: BQF, m: int) -> tuple[int, int] | None:
    """Some (x, y) with q(x, y) = m, or None; exact enumeration."""
    if not q.is_positive_definite():
        raise ValueError("not positive definite")
    if m < 0:
        return None
    if m == 0:
        return (0, 0)
    a, b, c = q.a, q.b, q.c
    # For fixed x the y-range is bounded by the discriminant of c*y^2+b*x*y+(a*x^2-m)
    xmax = math.isqrt(4 * c * m // (4 * a * c - b * b))
    for x in range(0, xmax + 1):
        for xx in ((x,) if x == 0 else (x, -x)):
            disc_y = b * b * xx * xx - 4 * c * (a * xx * xx - m)
            if disc_y < 0:
                continue
            s = math.isqrt(disc_y)
            if s * s != disc_y:
                continue
            for sign in ((s,) if s == 0 else (s, -s)):
                num = -b * xx + sign
                if num % (2 * c) == 0:
                    return (xx, num // (2 * c))
    return None
