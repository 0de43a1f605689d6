"""Eligible forms for a squarefree D0, genus characters, and the (D, N) split.

A form of discriminant -16*D0 is *eligible* when every integer it represents
is 0 or 1 mod 4.  Such a form is primitive or four times a primitive form of
discriminant -D0 (the latter only when D0 = 3 mod 4).  Its genus characters
at the primes dividing D0 split D0 = D*N, with D the product of the primes
where the character is -1; D is the discriminant of the quaternion algebra
attached to the form and N the level of the Eichler order.  The forms come
from one enumeration of the reduced forms (``bqf.reduced_forms``): each
GL(2,Z)-class is its reduced form with b >= 0, ambiguous exactly when
b = 0, b = a or a = c.

The character at p is read from the coefficients of the primitive form
Q = (a, b, c): (v|p) for odd p and (8|v) for p = 2, with v = a, or v = c
when p divides a (p cannot divide both, Q being primitive).  It is the value
at every represented number prime to 2*D0, since 4a*Q(x, y) =
(2ax + by)^2 - disc*y^2 and p divides disc (32 does when p = 2); see Cox,
*Primes of the Form x^2 + ny^2*, section 3.
"""

from __future__ import annotations

import math
from typing import Literal, NamedTuple

from . import bqf
from .arith import CLASS_NUMBER_BOUND, is_prime, is_squarefree, kronecker, prime_divisors
from .bqf import BQF


class EligibleForm(NamedTuple):
    form: BQF
    d0: int
    kind: Literal["primitive", "four_times_primitive"]
    chars: dict[int, int]
    D: int
    N: int
    ambiguous: bool

    @property
    def character_form(self) -> BQF:
        """The form the genus characters are evaluated on (Q itself or Q/4)."""
        if self.kind == "primitive":
            return self.form
        return BQF(self.form.a // 4, self.form.b // 4, self.form.c // 4)

    def __repr__(self):
        return (
            f"EligibleForm({self.form!r}, D0={self.d0}, kind={self.kind}, "
            f"D={self.D}, N={self.N}, ambiguous={self.ambiguous})"
        )


def genus_character(q: BQF, p: int, d0: int) -> int:
    """Genus character of the class of q at a prime p dividing d0.

    q must be a primitive positive definite form of discriminant -16*d0 or
    -d0.  With v = a, or v = c when p divides a, the character is the
    Legendre symbol (v|p) for odd p and the Kronecker symbol (8|v) for p = 2.
    """
    if not is_prime(p) or d0 % p != 0:
        raise ValueError("character prime must divide D0")
    if not q.is_positive_definite() or q.content() != 1 or q.disc() not in (-16 * d0, -d0):
        raise ValueError(f"{q!r} is not a primitive positive definite form of "
                         f"discriminant -16*D0 or -D0")
    v = q.c if q.a % p == 0 else q.a
    if p == 2:
        return kronecker(8, v)
    return kronecker(v, p)


def eligible_forms(d0: int) -> list[EligibleForm]:
    """All GL(2,Z)-classes of discriminant -16*d0 representing only 0,1 mod 4.

    Each class is decorated with its genus characters at the primes dividing
    d0 (evaluated on Q itself when primitive, on Q' when Q = 4Q'), the split
    d0 = D*N, and the ambiguity flag.  Rejects 16*d0 > arith.CLASS_NUMBER_BOUND
    before any work: the forms are enumerated one by one, as in
    ``bqf.class_number``.
    """
    if 16 * d0 > CLASS_NUMBER_BOUND:
        raise ValueError(f"input too large: forms of discriminant -16*D0 are enumerated up to "
                         f"16*D0 = {CLASS_NUMBER_BOUND}")
    if d0 < 1 or not is_squarefree(d0):
        raise ValueError("D0 must be squarefree")
    primes = prime_divisors(d0)
    out = []
    # reduced_forms lists each GL(2,Z)-class once with b >= 0, in (a, b, c)
    # order, and the mirror (a, -b, c) of a class that is not ambiguous
    for form in bqf.reduced_forms(-16 * d0, primitive_only=False):
        if form.b < 0 or not bqf.represents_only_0_1_mod4(form):
            continue
        content = form.content()
        if content == 1:
            kind: Literal["primitive", "four_times_primitive"] = "primitive"
            char_form = form
        else:
            # content 4 and discriminant -16*d0: the quarter is primitive of discriminant -d0
            assert content == 4 and d0 % 4 == 3, f"unexpected content {content} for {form}"
            kind = "four_times_primitive"
            char_form = BQF(form.a // 4, form.b // 4, form.c // 4)
        chars = {p: genus_character(char_form, p, d0) for p in primes}
        D = math.prod(p for p in primes if chars[p] == -1)
        N = d0 // D
        assert math.gcd(D, N) == 1 and D * N == d0
        assert sum(1 for p in primes if chars[p] == -1) % 2 == 0
        out.append(EligibleForm(form=form, d0=d0, kind=kind, chars=chars, D=D, N=N,
                                ambiguous=form.b in (0, form.a) or form.a == form.c))
    return out


def atkin_lehner_group_order(f: EligibleForm) -> int:
    """Order of the Atkin-Lehner group attached to the form: 4 if ambiguous else 2."""
    return 4 if f.ambiguous else 2
