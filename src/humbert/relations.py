"""Exact verification of the class-number relations.

Two identities are verified, both as equalities of reduced rationals:

* the classical Hurwitz-Kronecker relation
  sum over x of H(4n - x**2) + sum over d*d' = n of min(d, d') = 2*sigma(n);

* the Shimura-curve relation attached to an eligible form Q of discriminant
  -16*D0 with quaternion discriminant D > 1: the lattice sum of the weighted
  class-number function over u = a*n, v = c*n mod 2 equals a_n times the
  volume term, with a_n the Cohen-series coefficients.

``verify_relation`` and ``verify_kronecker`` read class numbers from one
table built once per call, the 12H table of ``bqf.hurwitz_table``.
``verify_relation`` reads one table of each level at a time
(``shimura.level_tables``), enumerates half of each form's lattice,
Q(-v, -u) = Q(v, u), once for all n, folds the 2-power that the level
tables leave out into the lattice counts, and reads a_n from one
``cohen_coefficients`` list.  Both relations, like the Cohen coefficients,
are rows of a theta series times a table, summed by the one kernel
``arith.theta_rows``: the binary theta series of a form's lattice for
``verify_relation``, one progression of rows n = n0 mod 4 at a time, and the
squares against the 12H table (12*H(0) = -1 included) for
``verify_kronecker``, which adds its divisor sums as strided slices.  In
the rows of both, built from integer columns, the match is one integer
equality over the one denominator, and a matching row's ``lhs`` and
``rhs`` are one ``Fraction``.
``lattice_sum`` evaluates one row point by point into one total and the
tuple of its nonzero terms, and keeps no state; the tables, built per run,
are the only reuse.  ``verify_relation`` walks the first mismatching row
once with it: that one walk confirms the table row's left-hand side and
term count, and its nonzero terms are the counterexample the report
carries.  A failed cross-check raises ``InternalCheckError``.
``verification_row`` is the tests' point-by-point reference for a whole row.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, filterfalse, repeat
from operator import add, eq, floordiv, lshift, mod, mul
from typing import NamedTuple

from .arith import TABLE_BOUND, InternalCheckError, prime_divisors, sigma_table, theta_rows
from .bqf import BQF, gl2_canonical, hurwitz_table
from .genus import EligibleForm, eligible_forms
from .qseries import cohen_coefficients
from .shimura import (
    ShimuraLevel,
    level_tables,
    table_denominator,
    volume_term,
    weighted_class_number,
)


class LatticeSum(NamedTuple):
    """The left-hand lattice sum of one row, walked point by point."""

    value: Fraction
    points_visited: int
    # (u, v, m, contribution) for every nonzero term; a boundary point
    # (m = 0) contributes the nonzero volume term, so every one is here
    terms: tuple[tuple[int, int, Fraction, Fraction], ...]

    @property
    def boundary_terms(self) -> int:
        """The number of terms with m = 0, on the boundary Q(v, u) = 4*D0*n."""
        return sum(1 for term in self.terms if term[2] == 0)

    @property
    def nonzero_interior_terms(self) -> int:
        return len(self.terms) - self.boundary_terms


class VerificationRow(NamedTuple):
    d0: int
    form: BQF
    D: int
    N: int
    n: int
    lhs: Fraction
    rhs: Fraction
    a_n: int
    match: bool
    term_count: int


class SkippedForm(NamedTuple):
    d0: int
    form: BQF
    D: int
    N: int
    reason: str


class VerificationReport(NamedTuple):
    d0: int
    nmax: int
    rows: list[VerificationRow]
    skipped: list[SkippedForm]
    # the lattice sum of the first mismatching row, walked point by point
    # with its nonzero terms; None when every row matches
    counterexample: LatticeSum | None

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def __repr__(self):
        # leaves out the counterexample, whose terms can run to thousands
        return (f"VerificationReport(d0={self.d0!r}, nmax={self.nmax!r}, "
                f"rows={self.rows!r}, skipped={self.skipped!r})")


class KroneckerRow(NamedTuple):
    n: int
    lhs: Fraction
    rhs: Fraction
    match: bool


def lattice_sum(form: EligibleForm, n: int) -> LatticeSum:
    """Evaluate the left-hand side sum with exact enumeration.

    The sum runs over integer pairs (u, v) with u = a*n, v = c*n mod 2
    (a, c the outer coefficients of the form) and Q(v, u) <= 4*D0*n, each
    term contributing the weighted class number at D0*n - Q(v, u)/4; terms
    with a non-integral or inadmissible argument contribute zero.  Returns
    the sum, the number of points visited and the nonzero terms.
    """
    if form.D == 1:
        raise ValueError("relation requires D > 1")
    if n < 1 or n % 4 in (2, 3):
        raise ValueError("n must be a positive integer congruent to 0 or 1 mod 4")
    a, b, c = form.form
    d0 = form.d0
    level = ShimuraLevel(form.D, form.N)
    bound = 4 * d0 * n

    def qval(v: int, u: int) -> int:
        return a * v * v + b * v * u + c * u * u

    u_par = (a * n) % 2
    v_par = (c * n) % 2
    total = Fraction(0)
    visited = 0
    terms = []
    umax = math.isqrt(a * n)
    for u in range(-umax, umax + 1):
        if u % 2 != u_par:
            continue
        # v-window of a*v^2 + b*u*v + (c*u^2 - bound) <= 0; integer sqrt gives
        # the window up to +-1, the exact test on Q(v, u) settles membership
        disc_v = (b * b - 4 * a * c) * u * u + 4 * a * bound
        root = math.isqrt(disc_v) if disc_v > 0 else 0
        vmin = (-b * u - root) // (2 * a) - 2
        vmax = (-b * u + root) // (2 * a) + 2
        v = vmin + ((v_par - vmin) % 2)
        while v <= vmax:
            value = qval(v, u)
            if value <= bound:
                visited += 1
                m = Fraction(bound - value, 4)
                h = weighted_class_number(level, m)
                if h != 0:
                    total += h
                    terms.append((u, v, m, h))
            v += 2
    return LatticeSum(value=total, points_visited=visited, terms=tuple(terms))


def _rewritten_quarter_sum(form: EligibleForm, n: int) -> Fraction:
    # Independent evaluation for four-times forms: both parities force u, v
    # even, so the sum collapses to all integer pairs against the quarter form.
    qq = form.character_form
    d0 = form.d0
    level = ShimuraLevel(form.D, form.N)
    total = Fraction(0)
    ubox = math.isqrt(4 * qq.c * n) + 1
    vbox = math.isqrt(4 * qq.a * n) + 1
    for u in range(-ubox, ubox + 1):
        for v in range(-vbox, vbox + 1):
            m = d0 * n - 4 * qq(u, v)
            if m >= 0:
                total += weighted_class_number(level, m)
    return total


def verification_row(form: EligibleForm, n: int) -> VerificationRow:
    """One exact comparison of the two sides, with the quarter-form
    cross-check applied where it exists.

    The tests' point-by-point reference for a row of ``verify_relation``,
    which does not call it.  It stays here because the benchmark's tracer
    hooks it; it moves to the tests once the benchmark no longer does
    (ROADMAP item 1)."""
    stats = lattice_sum(form, n)
    lhs = stats.value
    # For four-times-primitive forms the collapsed sum over the quarter form
    # is evaluated independently and must agree.
    if form.kind == "four_times_primitive":
        rewritten = _rewritten_quarter_sum(form, n)
        if rewritten != lhs:
            raise InternalCheckError(
                f"rewritten quarter-form sum disagrees: {rewritten} != {lhs}"
            )
    # one Cohen sieve per row, for a_n and for the right-hand side
    a_n = cohen_coefficients(n)[n]
    rhs = a_n * volume_term(ShimuraLevel(form.D, form.N))
    return VerificationRow(
        d0=form.d0, form=form.form, D=form.D, N=form.N, n=n,
        lhs=lhs, rhs=rhs, a_n=a_n, match=lhs == rhs,
        term_count=stats.points_visited,
    )


def _lattice_values(a: int, b: int, c: int, bound: int, u_par: int, v_par: int,
                    step: int, half: bool) -> list[int]:
    # The values a*v*v + b*v*u + c*u*u <= bound of a positive definite form
    # over the pairs with u = u_par and v = v_par mod step; if half, only over
    # those with u > 0 or u = 0 < v, one of each pair (v, u), (-v, -u).
    disc = 4 * a * c - b * b
    umax = math.isqrt(4 * a * bound // disc)
    ulow = 0 if half else -umax
    values: list[int] = []
    for u in range(ulow + (u_par - ulow) % step, umax + 1, step):
        # the exact v-window: 4a*Q(v, u) = (2av + bu)**2 + disc*u*u
        root = math.isqrt(4 * a * bound - disc * u * u)
        vmin = 1 if half and u == 0 else -((b * u + root) // (2 * a))
        vmin += (v_par - vmin) % step
        width = ((root - b * u) // (2 * a) - vmin) // step
        if width >= 0:
            # the first differences along the row step by 2a*step**2
            first, second = (2 * a * vmin + a * step + b * u) * step, 2 * a * step * step
            values += accumulate(range(first, first + second * width, second),
                                 initial=a * vmin * vmin + b * vmin * u + c * u * u)
    return values


def _theta_class(form: EligibleForm, nmax: int, u_par: int,
                 v_par: int) -> tuple[list[int], list[int]]:
    # One parity class of the form's lattice up to Q(v, u) = 4*D0*nmax, by
    # its half Q(-v, -u) = Q(v, u) without the origin: the j with some
    # Q(v, u) = 4j in increasing order, and the number of points with
    # Q(v, u) = 4j for each of them.
    q = form.form
    multiplicity = Counter(_lattice_values(q.a, q.b, q.c, 4 * form.d0 * nmax, u_par, v_par, 2, True))
    values = sorted(multiplicity)
    # Q(v, u) = 0 mod 4 on every class that verify reads: b = 2b' with
    # ac = b'**2 + 4*D0, so c = 0 mod 4 where u alone is odd, a = 0 mod 4
    # where v alone is odd, and a + b + c = 0 mod 4 where both are
    shifts = list(map(floordiv, values, repeat(4)))
    counts = list(map(mul, map(multiplicity.__getitem__, values), repeat(2)))
    if (u_par, v_par) == (0, 0):
        # the origin, its own image under (v, u) -> (-v, -u)
        shifts.insert(0, 0)
        counts.insert(0, 1)
    if form.kind == "four_times_primitive":
        # Q = 4Q' forces u and v even, so #{Q(v, u) = 4j} = #{Q'(x, y) = j/4},
        # counted here by a separate enumeration of all pairs against Q'.
        qq = form.character_form
        quarter = Counter(_lattice_values(qq.a, qq.b, qq.c, form.d0 * nmax // 4, 0, 0, 1, False))
        if list(zip(shifts, counts)) != sorted((4 * w, count) for w, count in quarter.items()):
            raise InternalCheckError(f"quarter-form multiplicities disagree for {form}")
    return shifts, counts


def verify_relation(d0: int, nmax: int, only_form: BQF | None = None) -> VerificationReport:
    """Verify the relation for every eligible form of the given D0 with D > 1
    and every n <= nmax congruent to 0 or 1 mod 4, or only for the
    GL(2,Z)-class of ``only_form``; exact comparisons, rows by form then n.

    Row n of a form is the coefficient sum over j of T[j]*H_{D,N}(D0*n - j),
    with T[j] the number of lattice points of the row's parity class with
    Q(v, u) = 4j; T depends on n only through that class, so each form's
    lattice is enumerated at most twice.  The level tables lack the factor
    2**#{q | D0 : q | m} at m = D0*n - j, which equals 2**#{q | D0 : q | j},
    so each T[j] is multiplied by it once.  The forms are summed level by
    level, one table held at a time.  The rows n = n0 mod 4 of a form, x =
    D0*n0 + 4*D0*k for n0 = 1 and 4, read one class and are summed as one
    progression by ``arith.theta_rows``.  The first mismatching row is
    walked once by ``lattice_sum``: that walk must agree with the row's lhs
    and term count, or ``InternalCheckError`` is raised, and it is the
    report's ``counterexample``, nonzero terms included.  Rejects D0*nmax >
    arith.TABLE_BOUND before any work.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if d0 * nmax > TABLE_BOUND:
        raise ValueError(f"input too large: D0*nmax = {d0 * nmax} exceeds the table bound {TABLE_BOUND}")
    forms = eligible_forms(d0)
    if only_form is not None:
        canon = gl2_canonical(only_form)
        forms = [f for f in forms if f.form == canon]
        if not forms:
            raise ValueError(f"form ({only_form.a},{only_form.b},{only_form.c}) is not an "
                             f"eligible form of D0 = {d0}")
    by_level: dict[ShimuraLevel, list[EligibleForm]] = {}
    for form in forms:
        if form.D > 1:
            by_level.setdefault(ShimuraLevel(form.D, form.N), []).append(form)
    tables = level_tables(list(by_level), hurwitz_table(d0 * nmax)) if by_level else ()
    cohen = cohen_coefficients(nmax) if by_level else []
    denominator = table_denominator(d0)
    # power[r] = #{q | D0 : q | r}: the table at m = D0*n - j lacks the factor
    # 2**#{q | D0 : q | m}, and q | m exactly when q | j
    power = [0] * d0
    for q in prime_divisors(d0):
        power[::q] = map(add, power[::q], repeat(1))
    form_rows: dict[BQF, list[VerificationRow]] = {}
    for level, table in tables:
        # L times the volume term, for the right-hand side a_n * volume / L
        volume = int(denominator * volume_term(level))
        for form in by_level[level]:
            # per parity class: the shifts j, the folded counts, and points[i],
            # the number of lattice points with j < shifts[i] (the term count)
            classes: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
            numerators = [0] * (nmax + 1)
            term_counts = [0] * (nmax + 1)
            for n0 in (1, 4):
                # the rows n = n0 mod 4, at x = D0*n; they all read one class
                xs = range(d0 * n0, d0 * nmax + 1, 4 * d0)
                if not xs:
                    continue
                parity = ((form.form.a * n0) % 2, (form.form.c * n0) % 2)
                if parity not in classes:
                    shifts, counts = _theta_class(form, nmax, *parity)
                    points = list(accumulate(counts, initial=0))
                    counts = list(map(lshift, counts, map(power.__getitem__,
                                                          map(mod, shifts, repeat(d0)))))
                    classes[parity] = shifts, counts, points
                shifts, counts, points = classes[parity]
                # row x reads the shifts j <= x: the boundary points j = x read
                # table[0], 6 times the volume term, with the weight
                # 2**omega(D0): L times the volume term
                numerators[n0::4] = theta_rows(table, shifts, counts, xs)
                term_counts[n0::4] = map(points.__getitem__,
                                         map(bisect_right, repeat(shifts), xs))
            rows = form_rows[form.form] = []
            for n in range(1, nmax + 1):
                if n % 4 in (2, 3):
                    continue
                numerator = numerators[n]
                # both sides over the one denominator L: the numerators decide
                # the match, and a matching row's lhs is its rhs
                target = cohen[n] * volume
                match = numerator == target
                rhs = Fraction(target, denominator)
                lhs = rhs if match else Fraction(numerator, denominator)
                rows.append(VerificationRow(
                    d0=d0, form=form.form, D=form.D, N=form.N, n=n,
                    lhs=lhs, rhs=rhs, a_n=cohen[n], match=match,
                    term_count=term_counts[n],
                ))
    rows = [row for form in forms if form.D > 1 for row in form_rows[form.form]]
    skipped = [SkippedForm(d0=d0, form=form.form, D=form.D, N=form.N,
                           reason="relation proved only for D > 1 (modular curve needs cusp terms)")
               for form in forms if form.D == 1]
    mismatch = next((row for row in rows if not row.match), None)
    counterexample = None
    if mismatch is not None:
        form = next(f for f in forms if f.form == mismatch.form)
        counterexample = lattice_sum(form, mismatch.n)
        if (counterexample.value, counterexample.points_visited) != (mismatch.lhs, mismatch.term_count):
            raise InternalCheckError(
                f"table row disagrees with the lattice sum at D0={d0} form={mismatch.form} "
                f"n={mismatch.n}: {mismatch.lhs} over {mismatch.term_count} terms, oracle "
                f"{counterexample.value} over {counterexample.points_visited} terms"
            )
    return VerificationReport(d0=d0, nmax=nmax, rows=rows, skipped=skipped,
                              counterexample=counterexample)


def verify_kronecker(nmax: int) -> list[KroneckerRow]:
    """Check the Hurwitz-Kronecker relation for 1 <= n <= nmax, exactly.

    The theta sum over x of 12*H(4n - x**2) is row 4n of theta times the
    table of 12*H(m) for m <= 4*nmax (``bqf.hurwitz_table``, and
    ``arith.theta_rows``).  The sums
    of min(d, n/d) come from a divisor sieve over d <= sqrt(nmax), and
    sigma(n) from ``arith.sigma_table``.  The rows come from these integer
    columns: row n matches when 12 times its left side equals 24*sigma(n),
    and holds one ``Fraction`` 2*sigma(n) as both ``lhs`` and ``rhs`` then;
    a mismatching row's ``lhs`` is its own ``Fraction``.  Rejects 4*nmax >
    arith.TABLE_BOUND before any work.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if 4 * nmax > TABLE_BOUND:
        raise ValueError(f"input too large: 4*nmax = {4 * nmax} exceeds the table bound {TABLE_BOUND}")
    hurwitz12 = hurwitz_table(4 * nmax)
    # 12 times the theta sum at 4n: 12*H(4n - x**2), once for x = 0 and
    # twice for x and -x > 0
    xmax = math.isqrt(4 * nmax)
    theta = theta_rows(hurwitz12, [x * x for x in range(xmax + 1)], [1] + [2] * xmax,
                       range(4, 4 * nmax + 1, 4))
    # min(d, e) over the divisor pairs d*e = n with d <= e
    min_sums = [0] * (nmax + 1)
    for d in range(1, math.isqrt(nmax) + 1):
        square = d * d
        min_sums[square] += d
        min_sums[square + d::d] = map(add, min_sums[square + d::d], repeat(2 * d))
    sigmas = sigma_table(nmax)
    # the rows n >= 1 as columns: 12 times the left side, its exact test
    # against 12 times the right side, and one Fraction 2*sigma(n) per row
    lhs12 = list(map(add, theta, map(mul, min_sums[1:], repeat(12))))
    del theta  # not held while the Fractions are made
    matches = list(map(eq, lhs12, map(mul, sigmas[1:], repeat(24))))
    rhs = list(map(Fraction, map(mul, sigmas[1:], repeat(2))))
    # a matching row's lhs is its rhs; only a mismatch gets its own Fraction
    lhs = rhs.copy()
    for i in filterfalse(matches.__getitem__, range(nmax)):
        lhs[i] = Fraction(lhs12[i], 12)
    return list(map(KroneckerRow._make, zip(range(1, nmax + 1), lhs, rhs, matches)))
