"""Property tests: the per-run tables against the per-value code they replace
on the verify and kronecker paths.  The per-value code stays in ``src/`` as
the oracle, except the per-row Kronecker loop, the per-m level-table loop,
the per-(a, b) form count, the per-point lattice enumeration and the per-x
theta column slices, which live here."""

import itertools
import math
from array import array
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from humbert.arith import (
    TABLE_BOUND,
    InternalCheckError,
    fundamental_decomposition,
    kronecker,
    prime_divisors,
    sigma,
    theta_rows,
)
from humbert import arith, qseries, relations
from humbert.bqf import (
    BQF,
    class_number,
    class_number_table,
    form_count_table,
    hurwitz,
    hurwitz_table,
)
from humbert.cli import main
from humbert.genus import eligible_forms
from humbert.relations import (
    _theta_class,
    verification_row,
    verify_kronecker,
    verify_relation,
)
from humbert.shimura import (
    ShimuraLevel,
    level_tables,
    table_denominator,
    volume_term,
    weighted_class_number,
)
from test_arith import smallest_prime_factor_sieve, theta_rows_oracle, traced_theta_rows

# squarefree D0 with one to four primes; 15, 35 and 39 have four-times-primitive forms
LEVEL_D0 = (2, 3, 6, 10, 15, 30, 35, 39, 42, 210, 1155)
# (1, 2), the only level of D0 = 2, has 6 times its volume term -3/2, which a
# table without the 2-power cannot hold
TABLE_D0 = LEVEL_D0[1:]
ROW_D0 = (6, 10, 14, 15, 21, 26, 30, 33, 35, 39)
# the D0 with a level in the benchmark's sweep (squarefree D0 <= 30, nmax 100)
SWEEP_D0 = (6, 10, 14, 15, 21, 22, 26, 30)


@cache
def h_table(x):
    return class_number_table(x)


@cache
def h12_table(x):
    return hurwitz_table(x)


@cache
def form_counts(x):
    return form_count_table(x)


@cache
def kronecker_rows(nmax):
    return verify_kronecker(nmax)


def kronecker_oracle(n):
    # one row of the Hurwitz-Kronecker relation, point by point
    xmax = math.isqrt(4 * n)
    lhs = sum(hurwitz(4 * n - x * x) for x in range(-xmax, xmax + 1))
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            dd = n // d
            lhs += min(d, dd) if d == dd else 2 * min(d, dd)
    rhs = Fraction(2 * sigma(n))
    return lhs, rhs, lhs == rhs


def form_counts_oracle(x):
    # form_count_table one strided slice per reduced (a, b): the forms
    # (a, b, c) with c >= a, and c > a where b < 0
    counts = [0] * (x + 1)
    for a in range(1, math.isqrt(x // 3) + 1):
        step = 4 * a
        for b in range(-a + 1, a + 1):
            start = step * (a if b >= 0 else a + 1) - b * b
            counts[start::step] = map(add, counts[start::step], itertools.repeat(1))
    return counts


def form_values_oracle(a, b, c, bound, u_par, v_par, step):
    # The values a*v*v + b*v*u + c*u*u <= bound of a positive definite form
    # over the pairs with u = u_par and v = v_par mod step, point by point.
    values = []
    umax = math.isqrt(4 * a * bound // (4 * a * c - b * b))
    for u in range(-umax + (u_par + umax) % step, umax + 1, step):
        # v-window of a*v^2 + b*u*v + (c*u^2 - bound) <= 0, widened by one
        # for the integer square root; the test on the value settles it
        root = math.isqrt((b * b - 4 * a * c) * u * u + 4 * a * bound)
        vmin = (-b * u - root) // (2 * a) - 1
        for v in range(vmin + (v_par - vmin) % step, (-b * u + root) // (2 * a) + 2, step):
            value = a * v * v + b * v * u + c * u * u
            if value <= bound:
                values.append(value)
    return values


def theta_class_oracle(form, nmax, u_par, v_par):
    # _theta_class over the whole parity class, point by point: every
    # Q(v, u) sorted, and the j with some Q(v, u) = 4j with their counts
    q = form.form
    values = sorted(form_values_oracle(q.a, q.b, q.c, 4 * form.d0 * nmax, u_par, v_par, 2))
    multiplicity = sorted(Counter(value // 4 for value in values if value % 4 == 0).items())
    return values, [j for j, _ in multiplicity], [count for _, count in multiplicity]


def kronecker_theta(hurwitz12):
    # the theta rows that verify_kronecker sums from the table of 12*H(m),
    # m <= 4*nmax: 12*H(4n - x**2) over all x, for 1 <= n <= nmax
    rows = []

    def record(*args):
        rows.append(arith.theta_rows(*args))
        return rows[-1]

    with (mock.patch.object(relations, "hurwitz_table", lambda x: hurwitz12),
          mock.patch.object(relations, "theta_rows", record)):
        verify_kronecker((len(hurwitz12) - 1) // 4)
    (theta,) = rows
    return list(theta)


def kronecker_theta_oracle(hurwitz12, nmax):
    # the theta sum of verify_kronecker one column slice per x >= 1: theta[n]
    # gains 12*H(4n - x**2) for every n >= (x*x + 3)//4
    theta = [0] * (nmax + 1)
    for x in range(1, math.isqrt(4 * nmax) + 1):
        n0 = (x * x + 3) // 4
        theta[n0:] = map(add, theta[n0:], hurwitz12[4 * n0 - x * x:4 * nmax - x * x + 1:4])
    return theta


def kronecker_theta_rows_oracle(table, nmax):
    # x = 0 once and every other x twice, for x and -x
    theta = kronecker_theta_oracle(table, nmax)
    return [table[4 * n] + 2 * theta[n] for n in range(1, nmax + 1)]


def _embedding_counts(key, in_d):
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


def level_tables_oracle(levels, class_numbers):
    # level_tables one m at a time: the fundamental decomposition of -m from
    # the smallest-prime-factor sieve of tests/test_arith.py, the symbols
    # (d0|q), and the sum over the orders between -m and d0 of h times the
    # local embedding counts
    (product,) = {level.product for level in levels}
    x = len(class_numbers) - 1
    primes = prime_divisors(product)
    denominator = table_denominator(product)
    # (d|q) depends on d mod q for odd q and on d mod 8 for q = 2
    moduli = [8 if q == 2 else q for q in primes]
    symbols = [[kronecker(r, q) for r in range(mod)] for q, mod in zip(primes, moduli)]
    in_d = [[level.D % q == 0 for q in primes] for level in levels]
    tables = [[0] * (x + 1) for _ in levels]
    for table, level in zip(tables, levels):
        table[0] = int(denominator * volume_term(level))
    spf = smallest_prime_factor_sieve(x)
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
        for r in range(1, f + 1):
            if f % r:
                continue
            k = r * r * base
            # 6 over the unit weight 3, 2 or 1 of the order of discriminant -k
            weight = class_numbers[k] * (2 if k == 3 else 3 if k == 4 else 6)
            # 2 marks a prime dividing the conductor r of the order
            key = tuple(2 if r % q == 0 else chi for q, chi in zip(primes, chis))
            for i, count in enumerate(_embedding_counts(key, in_d)):
                totals[i] += weight * count
        # the function divides by 2 for each q | D*N not dividing m
        shift = sum(1 for q in primes if m % q == 0)
        for table, total in zip(tables, totals):
            table[m] = total << shift
    return dict(zip(levels, tables))


def d0_levels(d0):
    primes = prime_divisors(d0)
    return [ShimuraLevel(math.prod(ds), d0 // math.prod(ds))
            for k in range(0, len(primes) + 1, 2) for ds in itertools.combinations(primes, k)]


def doubled(level, table):
    # the factor 2**#{q | D*N : q | m} that level_tables leaves to the rows,
    # put back entry by entry; m = 0 gets 2**omega
    primes = prime_divisors(level.product)
    return [value << sum(m % q == 0 for q in primes) for m, value in enumerate(table)]


@cache
def folded_level_tables(d0):
    return dict(level_tables(d0_levels(d0), h_table(20 * d0)))


@cache
def all_level_tables(d0):
    return {level: doubled(level, table) for level, table in folded_level_tables(d0).items()}


@cache
def oracle_level_tables(d0):
    return level_tables_oracle(d0_levels(d0), h_table(20 * d0))


@cache
def report(d0, nmax):
    return verify_relation(d0, nmax)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000))
def test_h_table_matches_class_number(k):
    assert h_table(3000)[k] == (class_number(-k) if k % 4 in (0, 3) else 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000))
def test_form_count_table_matches_class_numbers(k):
    expected = sum(class_number(-(k // (r * r))) for r in range(1, math.isqrt(k) + 1)
                   if k % (r * r) == 0 and (k // (r * r)) % 4 in (0, 3))
    assert form_counts(3000)[k] == expected


# 100000 moves the byte plane into the 32-bit fields five times
@pytest.mark.parametrize("x", [*range(61), 12000, 23100, 100000])
def test_form_count_table_matches_oracle(x):
    assert list(form_count_table(x)) == form_counts_oracle(x)


def test_form_count_fields_cannot_overflow_at_table_bound():
    # A 32-bit field of the count holds a sum of increments of its k, read
    # as a signed field by arith.unpack_fields, so none can overflow while
    # all increments together stay below 2**31: 6.2e7 at the bound, under
    # x*isqrt(x/3)/2 = 1.0e8 (each a adds about x/2).
    x = TABLE_BOUND
    increments = 0
    for a in range(1, math.isqrt(x // 3) + 1):
        step = 4 * a
        for b in range(a + 1):
            start = step * a - b * b
            if start <= x:
                increments += (1 if b in (0, a) else 2) * ((x - start) // step + 1)
    assert increments <= x * math.isqrt(x // 3) // 2 < 2**31


# the first odd and even columns, the squares 1, 4 and 9 that read
# 12*H(0) = -1, and the benchmark's size
@example(1)
@example(2)
@example(3)
@example(4)
@example(9)
@example(3000)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2000))
def test_kronecker_theta_matches_oracle(nmax):
    table = h12_table(max(4 * nmax, 8000))[:4 * nmax + 1]
    assert kronecker_theta(table) == kronecker_theta_rows_oracle(table, nmax)


def test_theta_sum_rejects_entries_a_field_cannot_hold():
    # the 2*xmax + 1 terms of a row, times an entry of absolute value 2**62,
    # would carry out of a 64-bit field or borrow past its sign bit
    nmax = 100
    for m, value in ((40, 2**62), (4 * nmax - 1, 2**62), (40, -2**62)):
        table = h12_table(4 * nmax)[:]
        table[m] = value
        with pytest.raises(InternalCheckError, match="64-bit fields"):
            kronecker_theta(table)
    # negative entries past 12*H(0) are summed exactly, down to the bound
    most = (2**63 - 1) // (2 * math.isqrt(4 * nmax) + 1)
    for m, value in ((7, -1), (40, most), (40, -most)):
        table = h12_table(4 * nmax)[:]
        table[m] = value
        assert kronecker_theta(table) == kronecker_theta_rows_oracle(table, nmax)
    table[40] = -most - 1
    with pytest.raises(InternalCheckError, match="64-bit fields"):
        kronecker_theta(table)


def times_theta(column, nmax):
    # the series column times theta = sum over x of q**(x*x), up to q**nmax
    product = [0] * (nmax + 1)
    for x in range(-math.isqrt(nmax), math.isqrt(nmax) + 1):
        product[x * x:] = map(add, product[x * x:], column[:nmax + 1 - x * x])
    return product


def test_hurwitz_table_matches_three_squares():
    # Gauss: r3(n) = 12*H(4n) - 24*H(n) for n >= 1, with r3(n) the number of
    # (x, y, z) with x**2 + y**2 + z**2 = n, the coefficients of theta**3
    nmax = 20000
    theta = [0] * (nmax + 1)
    for x in range(-math.isqrt(nmax), math.isqrt(nmax) + 1):
        theta[x * x] += 1
    r3 = times_theta(times_theta(theta, nmax), nmax)
    table = h12_table(4 * nmax)
    assert [table[4 * n] - 2 * table[n] for n in range(1, nmax + 1)] == r3[1:]


def test_class_number_table_matches_conductor_formula():
    # Cox, Primes of the Form x**2 + ny**2, Theorem 7.24: with d fundamental,
    # h(f**2 d) = h(d) f / [O_K* : O*] * prod over p | f of (1 - (d|p)/p),
    # at every non-fundamental discriminant down to -21000
    x = 21000
    h = h_table(x)
    checked = 0
    for k in range(3, x + 1):
        if k % 4 in (1, 2):
            continue
        d, f = fundamental_decomposition(-k)
        if f == 1:
            continue
        expected = Fraction(h[-d] * f, 3 if d == -3 else 2 if d == -4 else 1)
        for p in prime_divisors(f):
            expected *= 1 - Fraction(kronecker(d, p), p)
        assert h[k] == expected, k
        checked += 1
    assert checked == 4121


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_class_number_table_at_slice_boundaries(p):
    # the inversion makes one slice from q**2 per prime q with 3*q**2 <= x,
    # so at x = p**2 - 1, p**2 and p**2 + 1 it leaves p out, whose slice at
    # k = p**2 would only take off the zero count at k = 1
    full = h_table(3000)
    for x in (p * p - 1, p * p, p * p + 1):
        assert class_number_table(x) == full[:x + 1], x


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_class_number_table_at_sieve_bound(p):
    # the inversion slices only at primes p with 3*p**2 <= x, so x = 3*p**2 - 1
    # leaves p out and x = 3*p**2 and 3*p**2 + 1 take it in
    full = h_table(3000)
    for x in (3 * p * p - 1, 3 * p * p, 3 * p * p + 1):
        assert class_number_table(x) == full[:x + 1], x


def test_h_table_bounds():
    assert list(class_number_table(0)) == [0]
    with pytest.raises(ValueError, match="too large"):
        class_number_table(TABLE_BOUND + 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TABLE_D0), st.integers(0, 20 * max(TABLE_D0)))
def test_level_tables_match_weighted_class_number(d0, m):
    m %= 20 * d0 + 1
    for level, table in all_level_tables(d0).items():
        assert Fraction(table[m], table_denominator(d0)) == weighted_class_number(level, m)


@pytest.mark.parametrize("d0,x", [*((d0, 20 * d0) for d0 in TABLE_D0), (30030, 30030),
                                  *((d0, x) for d0 in (6, 30, 1155, 30030) for x in range(21))])
def test_level_tables_match_oracle(d0, x):
    # every entry of every level, against the per-m loop; x < 3, x < 4 and x
    # below the periods 16 and 169 of the residue classes are covered
    levels = d0_levels(d0)
    got = {level: doubled(level, table) for level, table in level_tables(levels, h_table(x))}
    assert got == level_tables_oracle(levels, h_table(x))


def test_level_tables_reject_mixed_levels():
    # at the call, before any table is asked for
    with pytest.raises(ValueError, match="common D\\*N"):
        level_tables([ShimuraLevel(6, 1), ShimuraLevel(10, 1)], h_table(60))


def test_level_tables_refuse_inexact_volume_term():
    # a silent shift would put -2 in place of 6 times the volume term -3/2
    with pytest.raises(InternalCheckError, match="volume term"):
        next(level_tables([ShimuraLevel(1, 2)], h_table(40)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TABLE_D0), st.integers(1, 20), st.booleans(), st.data())
def test_folded_rows_match_doubled_tables(d0, n, boundary, data):
    # a row as verify sums it: each count T[j] times 2**#{q | D0 : q | j}
    # against the tables without the 2-power, against the plain sum of
    # T[j]*H(D0*n - j) over the per-m tables; j = x reads the volume term
    x = d0 * n
    primes = prime_divisors(d0)
    terms = data.draw(st.dictionaries(st.integers(0, x), st.integers(1, 50), max_size=12))
    if boundary:
        terms[x] = data.draw(st.integers(1, 50))
    for level, table in folded_level_tables(d0).items():
        folded = sum((t << sum(j % q == 0 for q in primes)) * table[x - j] for j, t in terms.items())
        expected = oracle_level_tables(d0)[level]
        assert folded == sum(t * expected[x - j] for j, t in terms.items())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ROW_D0), st.integers(1, 24))
def test_table_rows_match_lattice_sum(d0, n):
    if n % 4 in (2, 3):
        n += 2
    forms = {f.form: f for f in eligible_forms(d0)}
    rows = [row for row in report(d0, 26).rows if row.n == n]
    assert rows
    for row in rows:
        # the per-row path, with the quarter-form sum for four-times-primitive forms
        oracle = verification_row(forms[row.form], n)
        assert (row.lhs, row.rhs, row.term_count) == (oracle.lhs, oracle.rhs, oracle.term_count)


@pytest.mark.parametrize("d0,nmax", [*((d0, nmax) for d0 in LEVEL_D0 for nmax in (1, 4, 9, 20)),
                                     (30030, 1), (30030, 5)])
def test_theta_class_matches_oracle(d0, nmax):
    # every parity class that verify reads, against the whole class point by
    # point: the shifts and counts, and the term count of every row
    rows = {(row.form, row.n): row for row in report(d0, nmax).rows}
    for form in eligible_forms(d0):
        if form.D == 1:
            continue
        a, c = form.form.a, form.form.c
        for n in range(1, nmax + 1):
            if n % 4 in (2, 3):
                continue
            parity = ((a * n) % 2, (c * n) % 2)
            values, shifts, counts = theta_class_oracle(form, nmax, *parity)
            assert _theta_class(form, nmax, *parity) == (shifts, counts)
            assert rows[form.form, n].term_count == bisect_right(values, 4 * d0 * n)
            if parity == (0, 0):
                # the origin, alone in its class under (v, u) -> (-v, -u)
                assert (shifts[0], counts[0] % 2) == (0, 1)


def progression(d0, n0, k):
    # the rows x = D0*n for n = n0, n0 + 4, ..., k of them
    return range(d0 * n0, d0 * (n0 + 4 * k - 4) + 1, 4 * d0)


def product_sums(table, shifts, counts, xs):
    # the rows by products, which the rule picks for any term count when
    # PRODUCT_TERMS_PER_RESIDUE is 0 and more shifts reach the last row than
    # a unary theta series has
    with mock.patch.object(arith, "PRODUCT_TERMS_PER_RESIDUE", 0):
        sums, path = traced_theta_rows(table, shifts, counts, xs)
    assert path == "products"
    return sums


@example(d0=1, n0=4, k=2, data=None)
@example(d0=1, n0=1, k=3, data=None)
@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.sampled_from((1, 4)), st.integers(1, 12), st.none() | st.data())
def test_product_rows_match_direct_rows(d0, n0, k, data):
    # sparse shifts and counts, a few more up to the last row than the
    # squares, some past it, and most residues mod 4*D0 empty, against a
    # table whose entry 0 is negative
    xs = progression(d0, n0, k)
    last = xs[-1]
    least = math.isqrt(last) + 2
    assume(least <= last + 1)
    if data is None:
        # the origin and the least shifts after it, the origin read at e = -1
        # when n0 = 4
        shifts, counts, table = list(range(least)), [3] * least, array("q", [-7, *range(1, last + 1)])
    else:
        shifts = sorted(data.draw(st.sets(st.integers(0, last), min_size=least,
                                          max_size=min(least + 20, last + 1)))
                        | data.draw(st.sets(st.integers(last + 1, last + 8 * d0), max_size=5)))
        counts = data.draw(st.lists(st.integers(1, 2**20), min_size=len(shifts),
                                    max_size=len(shifts)))
        rng = data.draw(st.randoms(use_true_random=False))
        table = array("q", [-rng.randrange(1, 2**30), *(rng.randrange(2**30) for _ in range(last))])
    assert product_sums(table, shifts, counts, xs) == theta_rows_oracle(table, shifts, counts, xs)


@pytest.mark.parametrize("m,value", [(37, 2**42), (0, -2**42)])
def test_product_rows_reject_entries_a_field_cannot_hold(m, value):
    # +-2**42 times counts that sum to 2**21 reaches a 64-bit field's sign
    # bit, on the products (8 shifts) and on the packed adds (3 shifts)
    table = array("q", [-6, *range(1, 41)])
    table[m] = value
    xs = progression(2, 4, 5)
    for shifts, counts in (([0, 3, 11, 13, 17, 19, 23, 29], [2**20, 2**19, 2**19 - 5, 1, 1, 1, 1, 1]),
                           ([0, 3, 11], [2**20, 2**19, 2**19])):
        with mock.patch.object(arith, "PRODUCT_TERMS_PER_RESIDUE", 0):
            with pytest.raises(InternalCheckError, match="64-bit fields"):
                theta_rows(table, shifts, counts, xs)
            counts[2] -= 1
            sums, path = traced_theta_rows(table, shifts, counts, xs)
        assert path == ("products" if len(shifts) == 8 else "unary")
        assert sums == theta_rows_oracle(table, shifts, counts, xs)


def theta_progressions(d0, nmax, only_form=None):
    # verify_relation's report, and the first x, the path and the shifts of
    # every progression that it summed
    calls = []

    def traced(table, shifts, counts, xs):
        sums, path = traced_theta_rows(table, shifts, counts, xs)
        calls.append((xs[0], path, shifts))
        return sums

    with mock.patch.object(relations, "theta_rows", traced):
        report = verify_relation(d0, nmax, only_form)
    return report, calls


def progression_count(d0, nmax):
    # two progressions n = 1 and n = 0 mod 4 per form of D > 1, or one below nmax 4
    forms = sum(1 for form in eligible_forms(d0) if form.D > 1)
    return forms * (1 + (nmax >= 4))


@pytest.mark.parametrize("d0,nmax", [(1155, 20), (1190, 20), (30030, 16)])
def test_short_progressions_sum_term_by_term(d0, nmax):
    # 2-3 terms per residue class: products would cost six to seven times more
    calls = theta_progressions(d0, nmax)[1]
    assert [path for _, path, _ in calls] == ["direct"] * progression_count(d0, nmax)


@pytest.mark.parametrize("d0,nmax", [*((d0, 100) for d0 in SWEEP_D0), (6, 2000)])
def test_long_progressions_sum_by_products(d0, nmax):
    calls = theta_progressions(d0, nmax)[1]
    assert [path for _, path, _ in calls] == ["products"] * progression_count(d0, nmax)


def test_rule_bounds_the_products_by_the_shifts():
    # 210 shifts under 40 rows at step 1000: at most 210 products, against
    # 8400 terms, though 12 terms for each of the 1000 residues would be more
    table = array("q", [-6, *range(1, 40 * 1000 + 1)])
    shifts, counts = list(range(210)), [1, 2, 3] * 70
    xs = range(1000, 40 * 1000 + 1, 1000)
    sums, path = traced_theta_rows(table, shifts, counts, xs)
    assert path == "products"
    assert sums == theta_rows_oracle(table, shifts, counts, xs)


@cache
def product_rows(d0, nmax):
    # the rows that verify sums by products, one form at a time
    rows = []
    for form in eligible_forms(d0):
        if form.D > 1:
            report, calls = theta_progressions(d0, nmax, form.form)
            starts = [x0 for x0, path, _ in calls if path == "products"]
            rows += [(form, row) for row in report.rows if d0 * (row.n % 4 or 4) in starts]
    return rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((10, 15, 35)), st.integers(0, 10**6))
def test_product_rows_match_lattice_sum(d0, i):
    # past the nmax 26 of test_table_rows_match_lattice_sum
    rows = product_rows(d0, 80)
    form, row = rows[i % len(rows)]
    oracle = verification_row(form, row.n)
    assert (row.lhs, row.rhs, row.term_count) == (oracle.lhs, oracle.rhs, oracle.term_count)


@pytest.mark.parametrize("d0,form", [(15, BQF(8, 4, 8)), (35, BQF(12, 4, 12)),
                                     (39, BQF(8, 4, 20))])
def test_one_class_serves_both_progressions(d0, form, monkeypatch):
    # a and c even: n = 1 and n = 0 mod 4 both read the class u, v even.
    # These forms read few terms per residue, so the rule is moved to send
    # both progressions to the products, and then to the direct sums.
    monkeypatch.setattr(arith, "PRODUCT_TERMS_PER_RESIDUE", 0)
    by_products, calls = theta_progressions(d0, 80, form)
    (first, path, shifts), (second, second_path, second_shifts) = calls
    assert (first, second) == (d0, 4 * d0)
    assert path == second_path == "products"
    assert shifts is second_shifts
    monkeypatch.setattr(arith, "PRODUCT_TERMS_PER_RESIDUE", 10**18)
    by_terms, calls = theta_progressions(d0, 80, form)
    assert by_terms.rows == by_products.rows
    assert [path for _, path, _ in calls] == ["direct", "direct"]


def plant_wrong_last_field(monkeypatch):
    # the last field of every packed sum off by one
    def planted(value, length, width):
        fields = real(value, length, width)
        fields[-1] += 1
        return fields

    real = arith.unpack_fields
    monkeypatch.setattr(arith, "unpack_fields", planted)


def test_wrong_product_field_exits_3(capsys, monkeypatch):
    # a last row off by one in its field: the term-by-term re-sum catches it
    plant_wrong_last_field(monkeypatch)
    code = main(["verify", "--d0", "6", "--nmax", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "error: internal check failed: row products disagree with the direct sums" in captured.err


@pytest.mark.parametrize("command", ["cohen", "kronecker"])
def test_wrong_theta_field_exits_3(capsys, monkeypatch, command):
    # the unary theta rows are re-summed at their ends too
    plant_wrong_last_field(monkeypatch)
    code = main([command, "--nmax", "100"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert "error: internal check failed: row products disagree with the direct sums" in captured.err


def test_unary_theta_series_take_the_packed_adds():
    # cohen and kronecker read as many shifts as the rule allows a unary
    # theta series, isqrt(last) + 1, and take its path
    calls = []

    def traced(table, shifts, counts, xs):
        sums, path = traced_theta_rows(table, shifts, counts, xs)
        calls.append((path, bisect_right(shifts, xs[-1]) - math.isqrt(xs[-1])))
        return sums

    with (mock.patch.object(relations, "theta_rows", traced),
          mock.patch.object(qseries, "theta_rows", traced)):
        verify_kronecker(3000)
        qseries.cohen_coefficients(3000)
    assert calls == [("unary", 1), ("unary", 1)]


def test_four_times_primitive_rows_are_covered():
    for d0 in (15, 35, 39):
        kinds = {f.kind for f in eligible_forms(d0) if f.D > 1}
        assert "four_times_primitive" in kinds


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4000))
def test_hurwitz_table_matches_hurwitz(n):
    assert Fraction(h12_table(4000)[n], 12) == hurwitz(n)


def test_kronecker_rows_match_oracle():
    rows = verify_kronecker(400)
    assert [row.n for row in rows] == list(range(1, 401))
    for row in rows:
        assert (row.lhs, row.rhs, row.match) == kronecker_oracle(row.n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000))
def test_kronecker_rhs_is_twice_sigma(n):
    assert kronecker_rows(3000)[n - 1].rhs == 2 * sigma(n)
