"""Truncated q-expansions with exact integer coefficients.

A series is stored densely: ``coeffs[k]`` is the coefficient of
``q**(lead + k)``.  The leading exponent ``lead`` is an exact rational with
denominator dividing 24, so eta quotients like eta(4z)**8 / eta(2z)**4 are
first-class values; all public entry points that hand coefficients to the
outside world insist on an integer lead.

The Cohen coefficients a_n are not built from these series:
``cohen_coefficients`` takes them from the divisor sieve of
``arith.sigma_table`` and a packed theta sum of signed entries
(``arith.shifted_sum``); both are shared with ``relations``, and
the q-series product theta**5 - 20*theta*eta(4z)**8/eta(2z)**4 is kept in
the tests as its oracle.  nmax past ``arith.COHEN_BOUND`` is rejected with
ValueError before any work (exit 2 from the CLI).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .arith import COHEN_BOUND, shifted_sum, sigma_table


class _QSeriesFields(NamedTuple):
    lead: Fraction
    coeffs: tuple[int, ...]


class QSeries(_QSeriesFields):
    __slots__ = ()

    def __new__(cls, lead: Fraction, coeffs: tuple[int, ...]):
        if (24 * lead).denominator != 1:
            raise ValueError("leading exponent must have denominator dividing 24")
        if len(coeffs) < 1:
            raise ValueError("series needs at least one stored coefficient")
        return super().__new__(cls, lead, coeffs)

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int | Fraction) -> int:
        """Coefficient of q**n; zero below the leading exponent."""
        k = Fraction(n) - self.lead
        if k.denominator != 1:
            return 0
        k = int(k)
        if k < 0:
            return 0
        if k >= self.prec:
            raise IndexError(f"coefficient of q^{n} is beyond stored precision")
        return self.coeffs[k]

    def __add__(self, other: "QSeries") -> "QSeries":
        return add(self, other)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return sub(self, other)

    def __mul__(self, other: "QSeries") -> "QSeries":
        return mul(self, other)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.prec > 8 else ""
        return f"QSeries(lead={self.lead}, [{shown}{tail}])"


def one(prec: int) -> QSeries:
    """The constant series 1."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    return QSeries(Fraction(0), (1,) + (0,) * (prec - 1))


def theta(prec: int) -> QSeries:
    """Jacobi theta series: sum over all integers n of q**(n*n)."""
    if prec < 1:
        raise ValueError("prec must be >= 1")
    coeffs = [0] * prec
    coeffs[0] = 1
    k = 1
    while k * k < prec:
        coeffs[k * k] = 2
        k += 1
    return QSeries(Fraction(0), tuple(coeffs))


def mul(f: QSeries, g: QSeries) -> QSeries:
    """Cauchy product truncated to the smaller of the two precisions."""
    n = min(f.prec, g.prec)
    fa, ga = f.coeffs, g.coeffs
    out = [0] * n
    for i in range(n):
        ci = fa[i]
        if ci == 0:
            continue
        for j in range(n - i):
            cj = ga[j]
            if cj:
                out[i + j] += ci * cj
    return QSeries(f.lead + g.lead, tuple(out))


def _aligned(f: QSeries, g: QSeries) -> tuple[Fraction, list[int], list[int], int]:
    offset = g.lead - f.lead
    if offset.denominator != 1:
        raise ValueError("incompatible leading exponents")
    off = int(offset)
    lead = min(f.lead, g.lead)
    end = min(f.lead + f.prec, g.lead + g.prec)
    n = int(end - lead)
    if n < 1:
        raise ValueError("series have no overlapping precision window")

    def shifted(s: QSeries) -> list[int]:
        pad = int(s.lead - lead)
        return [0] * pad + list(s.coeffs[: n - pad])

    return lead, shifted(f), shifted(g), n


def add(f: QSeries, g: QSeries) -> QSeries:
    lead, fa, ga, n = _aligned(f, g)
    return QSeries(lead, tuple(fa[k] + ga[k] for k in range(n)))


def sub(f: QSeries, g: QSeries) -> QSeries:
    lead, fa, ga, n = _aligned(f, g)
    return QSeries(lead, tuple(fa[k] - ga[k] for k in range(n)))


def scale(f: QSeries, c: int) -> QSeries:
    return QSeries(f.lead, tuple(c * a for a in f.coeffs))


def inverse(f: QSeries) -> QSeries:
    """Multiplicative inverse; requires leading coefficient +-1."""
    c0 = f.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError("series inversion requires leading coefficient +-1")
    n = f.prec
    inv = [0] * n
    inv[0] = c0
    for k in range(1, n):
        acc = 0
        for i in range(1, k + 1):
            if f.coeffs[i]:
                acc += f.coeffs[i] * inv[k - i]
        inv[k] = -c0 * acc
    return QSeries(-f.lead, tuple(inv))


def power(f: QSeries, k: int) -> QSeries:
    """f**k by binary powering; negative k inverts first."""
    if k < 0:
        return power(inverse(f), -k)
    result = one(f.prec)
    base = f
    while k:
        if k & 1:
            result = mul(result, base)
        base = mul(base, base)
        k >>= 1
    return result


def eta_power(scale_factor: int, exponent: int, prec: int) -> QSeries:
    """q-expansion of eta(scale_factor * z) ** exponent.

    The Euler product prod_{n>=1} (1 - q**(scale_factor*n)) is expanded to
    ``prec`` coefficients and raised to the exponent (exact series inversion
    for negative exponents); the eta prefactor contributes the fractional
    leading exponent scale_factor*exponent/24.
    """
    if scale_factor < 1:
        raise ValueError("scale must be >= 1")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    euler = [0] * prec
    euler[0] = 1
    n = 1
    while scale_factor * n < prec:
        step = scale_factor * n
        # multiply by (1 - q**step), highest coefficient first
        for i in range(prec - 1, step - 1, -1):
            euler[i] -= euler[i - step]
        n += 1
    base = QSeries(Fraction(0), tuple(euler))
    raised = power(base, exponent)
    return QSeries(Fraction(scale_factor * exponent, 24) + raised.lead, raised.coeffs)


def cohen_coefficients(nmax: int) -> list[int]:
    """Coefficients a_0 .. a_nmax of theta**5 - 20*theta*eta(4z)**8/eta(2z)**4.

    Dividing by 120 gives Cohen's weight-5/2 Eisenstein series; the integer
    coefficients are the multipliers in the class-number relations.  With
    Jacobi's r_4(m) = 8 * sum of the d | m with 4 not dividing d, and
    eta(4z)**8/eta(2z)**4 = sum over odd m of sigma(m) q**m, the series is
    theta * g for g(m) = r_4(m) - 20*sigma(m)*[m odd], g(0) = 1: sigma from
    ``arith.sigma_table``, then a_n = g(n) + 2 * sum over x >= 1 of
    g(n - x**2), one signed shifted sum.
    Rejects nmax > arith.COHEN_BOUND before any work.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax > COHEN_BOUND:
        raise ValueError(f"input too large: nmax = {nmax} exceeds the Cohen bound {COHEN_BOUND}")
    g = sigma_table(nmax)
    root = math.isqrt(nmax)
    # sigma, then g in place: -12*sigma(m) at odd m, 8*sigma(m) at m = 2 mod 4
    # and 8*sigma(m) - 32*sigma(m/4) at m = 0 mod 4, done first as it reads sigma
    g[4::4] = [8 * s - 32 * t for s, t in zip(g[4::4], g[1:nmax // 4 + 1])]
    g[2::4] = [8 * s for s in g[2::4]]
    g[1::2] = [-12 * s for s in g[1::2]]
    g[0] = 1
    # Largest shift first: later big ints reuse its memory (in ascending order
    # nmax = 2*10**5 took 475k page faults, 1 s of system time).
    shifted = shifted_sum([(g, [x * x for x in range(root, 0, -1)])], nmax + 1)
    return list(map(operator.add, g, map(operator.add, shifted, shifted)))
