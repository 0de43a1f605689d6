import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from humbert.arith import (
    FACTOR_BOUND,
    InternalCheckError,
    divisors,
    factor,
    fundamental_decomposition,
    is_fundamental_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    prime_divisors,
    shifted_sum,
    sigma,
    sigma_table,
    unpack_fields,
)


def smallest_prime_factor_sieve(limit):
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def test_factor_examples():
    assert factor(1) == []
    assert factor(160) == [(2, 5), (5, 1)]
    # trial-division oracle: 9991 = 97 * 103, both prime by direct division
    assert all(9991 % k for k in range(2, 97))
    assert 9991 == 97 * 103
    assert factor(9991) == [(97, 1), (103, 1)]


def test_factor_bound():
    with pytest.raises(ValueError, match="input too large"):
        factor(FACTOR_BOUND + 1)
    with pytest.raises(ValueError):
        factor(0)


def test_factor_multiplies_back_up_to_1e5():
    spf = smallest_prime_factor_sieve(10**5)
    for n in range(1, 10**5 + 1):
        pairs = factor(n)
        prod = 1
        for p, e in pairs:
            prod *= p**e
        assert prod == n
        # independent oracle via smallest-prime-factor sieve
        m = n
        oracle = {}
        while m > 1:
            p = spf[m]
            oracle[p] = oracle.get(p, 0) + 1
            m //= p
        assert dict(pairs) == oracle


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

    for n in range(0, 5000):
        assert is_prime(n) == trial(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**62 + 1)
    with pytest.raises(ValueError):
        is_prime(2**64)


def brute_legendre(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_kronecker_matches_legendre_for_odd_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for a in range(-50, 51):
            assert kronecker(a, p) == brute_legendre(a, p), (a, p)


def test_kronecker_examples():
    for n in (-7, -2, -1, 1, 2, 3, 10, 97):
        assert kronecker(1, n) == 1
    assert kronecker(-8, 5) == -1  # -8 = 2 mod 5, and 2 is not a square mod 5
    assert kronecker(-3, 2) == -1  # -3 = 5 mod 8
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(5, 0) == 0
    assert kronecker(-4, 2) == 0
    assert kronecker(2, 2) == 0


@given(st.integers(-80, 80), st.integers(1, 60), st.integers(1, 60))
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


@given(st.integers(-80, 80), st.integers(-80, 80), st.integers(1, 120))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_fundamental_decomposition_examples():
    assert fundamental_decomposition(-3) == (-3, 1)
    assert fundamental_decomposition(-12) == (-3, 2)
    # -160 = 4 * -40 and -40/4 = -10 = 2 mod 4, so -40 is fundamental
    assert fundamental_decomposition(-160) == (-40, 2)


def test_fundamental_decomposition_errors():
    for bad in (0, 4, -1, -2, -6, -10):
        if bad % 4 in (0, 1) and bad < 0:
            continue
        with pytest.raises(ValueError, match="not a discriminant"):
            fundamental_decomposition(bad)


def test_fundamental_decomposition_roundtrip():
    for d in range(-4, -10**4 - 1, -1):
        if d % 4 not in (0, 1):
            continue
        d0, f = fundamental_decomposition(d)
        assert f >= 1 and f * f * d0 == d
        assert is_fundamental_discriminant(d0)
        if d0 % 4 == 1:
            assert is_squarefree(-d0)
        else:
            m = d0 // 4
            assert m % 4 in (2, 3) and is_squarefree(-m)


def test_sigma():
    assert sigma(1) == 1
    assert sigma(6) == 12
    assert sigma(100) == sum(d for d in range(1, 101) if 100 % d == 0) == 217


@pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 2000])
def test_sigma_table_matches_sigma(x):
    assert sigma_table(x) == [0] + [sigma(m) for m in range(1, x + 1)]


def test_is_squarefree():
    assert is_squarefree(10)
    assert not is_squarefree(12)
    assert is_squarefree(1)


def test_divisors_and_prime_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert prime_divisors(60) == [2, 3, 5]


def fields_oracle(value, length, width):
    # The fields of value one at a time: each is the residue of what is left
    # in [-2**(8*width - 1), 2**(8*width - 1)), and the rest carries on.
    base, half = 1 << 8 * width, 1 << 8 * width - 1
    fields = []
    for _ in range(length):
        field = (value + half) % base - half
        fields.append(field)
        value = (value - field) >> 8 * width
    return fields


def pack(fields, width, high=0):
    # the int sum of fields[i] * 2**(8*width*i), with high above the fields
    return sum(f << 8 * width * i for i, f in enumerate(fields)) + (high << 8 * width * len(fields))


def signed_fields(width):
    half = 1 << 8 * width - 1
    return st.tuples(st.just(width), st.lists(st.integers(-half, half - 1), max_size=12),
                     st.integers(-2**100, 2**100))


@example((4, [], 0))
@example((4, [-2**31, 2**31 - 1, -1, 0], -1))
@example((8, [-2**63, 2**63 - 1, -1, 0], 2**64 + 5))
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([4, 8]).flatmap(signed_fields))
def test_unpack_fields_round_trip(case):
    # signed fields come back exactly, and the bits past them are masked off
    width, fields, high = case
    value = pack(fields, width, high)
    unpacked = unpack_fields(value, len(fields), width)
    assert unpacked.itemsize == width
    assert list(unpacked) == fields_oracle(value, len(fields), width) == fields


def test_unpack_fields_needs_an_array_type_of_the_width():
    with pytest.raises(InternalCheckError, match="3-byte items"):
        unpack_fields(0, 1, 3)


def test_other_host_byte_order_swaps_field_bytes(monkeypatch):
    # Claiming the other byte order runs the byteswap branch the host skips
    # (the big-endian one on little-endian hosts): the decoder returns every
    # field with its bytes reversed, while shifted_sum swaps when it packs
    # and again when it decodes, so one unshifted column comes back as it is.
    cases = {4: [0x01020304, -2, 2**31 - 1, -2**31, 0],
             8: [0x0102030405060708, -2, 2**63 - 1, -2**63, 0]}
    monkeypatch.setattr(sys, "byteorder", "big" if sys.byteorder == "little" else "little")
    for width, fields in cases.items():
        swapped = [int.from_bytes(f.to_bytes(width, "little", signed=True), "big", signed=True)
                   for f in fields]
        assert list(unpack_fields(pack(fields, width), len(fields), width)) == swapped
    column = [0x0102030405060708, -1, -2**62, 2**63 - 1, 0, 5]
    assert list(shifted_sum([(column, [0])], len(column))) == column
