import math
import operator
from fractions import Fraction
from functools import cache
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from humbert.arith import COHEN_BOUND, divisors, factor, kronecker
from humbert.qseries import (
    QSeries,
    add,
    cohen_coefficients,
    eta_power,
    inverse,
    mul,
    one,
    power,
    scale,
    sub,
    theta,
)


def cohen_series(prec):
    """The q-series product theta**5 - 20*theta*eta(4z)**8/eta(2z)**4: the
    oracle for the divisor sieve of ``cohen_coefficients``."""
    th = theta(prec)
    quotient = mul(eta_power(4, 8, prec), eta_power(2, -4, prec))
    assert quotient.lead == 1
    return sub(power(th, 5), scale(mul(th, quotient), 20))


@cache
def cohen_oracle(prec):
    return list(cohen_series(prec).coeffs)


def cohen_slices_oracle(nmax):
    """The same coefficients from two slice updates per d <= nmax for g and
    one full-length slice per x for the theta convolution."""
    g = [0] * (nmax + 1)
    for d in range(1, nmax + 1):
        if d % 4:
            g[d::d] = map(operator.add, g[d::d], repeat(8 * d))
        if d % 2:
            g[d::2 * d] = map(operator.sub, g[d::2 * d], repeat(20 * d))
    g[0] = 1
    coeffs = g[:]
    twice = [2 * v for v in g]
    for x in range(1, math.isqrt(nmax) + 1):
        coeffs[x * x:] = map(operator.add, coeffs[x * x:], twice)
    return coeffs


def euler_product_oracle(scale_factor, prec):
    # naive polynomial expansion of prod (1 - q^(scale*n)), independent of the
    # sparse in-place update used by eta_power
    poly = [1] + [0] * (prec - 1)
    n = 1
    while scale_factor * n < prec:
        step = scale_factor * n
        out = [0] * prec
        for i, c in enumerate(poly):
            if c:
                out[i] += c
                if i + step < prec:
                    out[i + step] -= c
        poly = out
        n += 1
    return poly


def test_theta_examples():
    assert theta(5).coeffs == (1, 2, 0, 0, 2)
    assert theta(1).coeffs == (1,)
    assert theta(10).coeffs[9] == 2
    assert theta(10).lead == 0


def test_eta_first_power():
    e = eta_power(1, 1, 6)
    assert e.lead == Fraction(1, 24)
    assert list(e.coeffs) == euler_product_oracle(1, 6) == [1, -1, -1, 0, 0, 1]


def test_eta_lead_arithmetic():
    quot = mul(eta_power(4, 8, 10), eta_power(2, -4, 10))
    assert quot.lead == 1
    assert eta_power(3, 0, 4).coeffs == (1, 0, 0, 0)
    assert eta_power(3, 0, 4).lead == 0


def test_eta_power_matches_repeated_multiplication():
    base = euler_product_oracle(2, 12)
    sq = [0] * 12
    for i, a in enumerate(base):
        for j, b in enumerate(base):
            if i + j < 12:
                sq[i + j] += a * b
    assert list(eta_power(2, 2, 12).coeffs) == sq


def test_mul_identity_and_geometric():
    f = theta(8)
    assert mul(f, one(8)) == f
    geom = QSeries(Fraction(0), tuple([1] * 8))
    one_minus_q = QSeries(Fraction(0), (1, -1) + (0,) * 6)
    assert mul(one_minus_q, geom).coeffs == (1,) + (0,) * 7


def test_theta_squared_counts_lattice_points():
    prec = 40
    r2 = [0] * prec
    box = math.isqrt(prec) + 1
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if x * x + y * y < prec:
                r2[x * x + y * y] += 1
    assert list(mul(theta(prec), theta(prec)).coeffs) == r2
    assert mul(theta(5), theta(5)).coeffs == (1, 4, 4, 0, 4)


def test_theta_fifth_power_counts_five_squares():
    prec = 51
    r5 = [0] * prec
    box = math.isqrt(prec) + 1
    rng = range(-box, box + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                ab = a * a + b * b + c * c
                if ab >= prec:
                    continue
                for d in rng:
                    abd = ab + d * d
                    if abd >= prec:
                        continue
                    for e in rng:
                        n = abd + e * e
                        if n < prec:
                            r5[n] += 1
    assert list(power(theta(prec), 5).coeffs) == r5


def test_add_sub_require_integer_lead_offset():
    with pytest.raises(ValueError, match="incompatible leading exponents"):
        add(eta_power(1, 1, 5), theta(5))
    f = eta_power(1, 1, 5)
    assert sub(f, f).coeffs == (0,) * 5


def test_add_aligns_on_integer_offset():
    f = QSeries(Fraction(0), (1, 2, 3, 4))
    g = QSeries(Fraction(1), (5, 6, 7, 8))
    assert add(f, g).coeffs == (1, 7, 9, 11)
    assert add(f, g).lead == 0


def test_inverse():
    f = eta_power(1, 4, 10)
    prod = mul(f, inverse(f))
    assert prod.lead == 0
    assert prod.coeffs == (1,) + (0,) * 9
    with pytest.raises(ValueError, match="leading coefficient"):
        inverse(QSeries(Fraction(0), (2, 1, 1)))


small_series = st.builds(
    lambda c: QSeries(Fraction(0), tuple(c)),
    st.lists(st.integers(-9, 9), min_size=6, max_size=6),
)


@settings(max_examples=60)
@given(small_series, small_series)
def test_mul_commutative(f, g):
    assert mul(f, g) == mul(g, f)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_mul_associative_and_scale_distributes(f, g, h):
    assert mul(mul(f, g), h) == mul(f, mul(g, h))
    assert scale(add(f, g), 7) == add(scale(f, 7), scale(g, 7))


def test_cohen_coefficients_displayed_values():
    coeffs = cohen_coefficients(12)
    assert coeffs == [1, -10, 0, 0, -70, -48, 0, 0, -120, -250, 0, 0, -240]
    assert coeffs[2] == coeffs[3] == 0


def test_cohen_support_vanishing_mod4():
    coeffs = cohen_coefficients(500)
    for n, a in enumerate(coeffs):
        if n % 4 in (2, 3):
            assert a == 0, n


def test_cohen_normalization_is_eisenstein_like():
    # dividing by 120 must give constant term 1/120 and q-coefficient -1/12
    coeffs = cohen_coefficients(1)
    assert Fraction(coeffs[1], 120) == Fraction(-1, 12)


def test_cohen_series_lead_is_integer():
    assert cohen_series(6).lead == 0


def test_cohen_sieve_matches_q_series_oracle():
    assert cohen_coefficients(2000) == cohen_oracle(2001)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300))
def test_cohen_sieve_matches_q_series_oracle_at_every_length(nmax):
    assert cohen_coefficients(nmax) == cohen_oracle(301)[: nmax + 1]


# every length up to 300, and the benchmark's cohen family 2990..3010
@pytest.mark.parametrize("nmax", [*range(301), *range(2990, 3011)])
def test_cohen_coefficients_match_slices_oracle(nmax):
    assert cohen_coefficients(nmax) == cohen_slices_oracle(nmax)


def test_cohen_bound():
    with pytest.raises(ValueError, match="input too large"):
        cohen_coefficients(COHEN_BOUND + 1)
    with pytest.raises(ValueError, match="nmax must be >= 0"):
        cohen_coefficients(-1)


def _l_minus_1(D):
    # L(-1, chi_D) = -B_{2,chi}/2, B_{2,chi} = D * sum_{a=1}^{D} chi(a) B_2(a/D)
    # with B_2(x) = x**2 - x + 1/6; L(-1, chi_1) = zeta(-1) = -1/12
    if D == 1:
        return Fraction(-1, 12)
    b2 = D * sum(kronecker(D, a) * (Fraction(a, D) ** 2 - Fraction(a, D) + Fraction(1, 6))
                 for a in range(1, D + 1))
    return -b2 / 2


def _mobius(d):
    exponents = [e for _, e in factor(d)]
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def cohen_closed_formula(n):
    """a_n = 120*H(2, n) by Cohen's formula (Math. Ann. 217, 1975), for n >= 1:
    with n = D*f**2, D = 1 or a fundamental discriminant,
    H(2, n) = L(-1, chi_D) * sum over d | f of mu(d) chi_D(d) d sigma_3(f/d),
    and H(2, n) = 0 for n = 2, 3 mod 4."""
    if n % 4 in (2, 3):
        return 0
    core = math.prod(p for p, e in factor(n) if e % 2)
    D = core if core % 4 == 1 else 4 * core
    f = math.isqrt(n // D)
    assert D * f * f == n
    total = sum(_mobius(d) * kronecker(D, d) * d * sum(e ** 3 for e in divisors(f // d))
                for d in divisors(f))
    return 120 * _l_minus_1(D) * total


# squares, powers of 2 and 3, primes = 1 mod 4, D = 4k with k = 2, 3 mod 4,
# and n = 2, 3 mod 4, up to 10**4
CLOSED_FORMULA_SAMPLES = (201, 256, 1000, 1025, 2023, 2500, 3600, 4096, 4097, 5000,
                          6561, 7001, 7922, 8192, 8281, 9240, 9409, 9801, 9997, 10000)


def test_cohen_sieve_matches_closed_formula():
    coeffs = cohen_coefficients(10**4)
    for n in (*range(1, 201), *CLOSED_FORMULA_SAMPLES):
        assert coeffs[n] == cohen_closed_formula(n), n
