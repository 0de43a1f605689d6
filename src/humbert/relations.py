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
``verify_kronecker``, which adds its divisor sums as strided slices.  Both
keep their rows as those integer columns, one ``KroneckerColumns`` or one
``FormColumns`` per form, in one lazy sequence type, ``Rows``: sized and
indexable like a list, it makes a row, with its ``Fraction`` values, only
when the row is read.  A row's match is one integer equality over the one
denominator, read from the match column, and a matching row's ``lhs`` and
``rhs`` are one ``Fraction``.
``lattice_sum`` evaluates one row point by point into one total and the
tuple of its nonzero terms, and keeps no state; the tables, built per run,
are the only reuse.  ``verify_relation`` walks the first mismatching row
once with it: that one walk confirms the table row's left-hand side and
term count, and its nonzero terms are the counterexample the report
carries.  A failed cross-check raises ``InternalCheckError``.  The
point-by-point reference for a whole row, the lattice sum against a_n times
the volume term, lives in the tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, eq, floordiv, index, lshift, mod, mul
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
    rows: Rows
    skipped: list[SkippedForm]
    # the lattice sum of the first mismatching row, walked point by point
    # with its nonzero terms; None when every row matches
    counterexample: LatticeSum | None

    @property
    def all_match(self) -> bool:
        return self.rows.first_mismatch() is None

    def __repr__(self):
        # leaves out the counterexample, whose terms can run to thousands
        return (f"VerificationReport(d0={self.d0!r}, nmax={self.nmax!r}, "
                f"rows={self.rows!r}, skipped={self.skipped!r})")


class KroneckerRow(NamedTuple):
    n: int
    lhs: Fraction
    rhs: Fraction
    match: bool


class FormColumns:
    """The rows of one ``EligibleForm`` as integer lists over the one
    denominator L: row i is n[i], with lhs numerators[i]/L and rhs
    targets[i]/L, L times a_n[i] times the volume term, its term count and
    its match, a bool."""

    __slots__ = ("form", "denominator", "n", "numerators", "targets", "a_n", "term_counts",
                 "match")

    def __init__(self, form, denominator, n, numerators, targets, a_n, term_counts, match):
        self.form, self.denominator, self.n = form, denominator, n
        self.numerators, self.targets, self.a_n = numerators, targets, a_n
        self.term_counts, self.match = term_counts, match

    def row(self, i: int) -> VerificationRow:
        form, match = self.form, self.match[i]
        rhs = Fraction(self.targets[i], self.denominator)
        lhs = rhs if match else Fraction(self.numerators[i], self.denominator)
        return VerificationRow(d0=form.d0, form=form.form, D=form.D, N=form.N, n=self.n[i],
                               lhs=lhs, rhs=rhs, a_n=self.a_n[i], match=match,
                               term_count=self.term_counts[i])


class KroneckerColumns:
    """The rows n = i + 1 of the Hurwitz-Kronecker relation as integer
    lists: 12 times the left side, the right side 2*sigma(n), and the
    match, a bool, 12*lhs = 12*rhs."""

    __slots__ = ("lhs12", "rhs", "match")

    def __init__(self, lhs12, rhs, match):
        self.lhs12, self.rhs, self.match = lhs12, rhs, match

    def row(self, i: int) -> KroneckerRow:
        match = self.match[i]
        rhs = Fraction(self.rhs[i])
        return KroneckerRow(i + 1, rhs if match else Fraction(self.lhs12[i], 12), rhs, match)


class Rows:
    """The rows of a relation, kept as the integer columns of its blocks
    (``FormColumns`` or ``KroneckerColumns``), one block after another.

    Sized and indexable like a list, negative indices included; a row and
    its ``Fraction`` values are made only when the row is read.  Two
    sequences are equal when their rows are."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum(len(block.match) for block in self.blocks)

    def __getitem__(self, i: int):
        i = index(i)
        if i < 0:
            i += len(self)
        if i >= 0:
            for block in self.blocks:
                if i < len(block.match):
                    return block.row(i)
                i -= len(block.match)
        raise IndexError("row index out of range")

    def __iter__(self):
        for block in self.blocks:
            yield from map(block.row, range(len(block.match)))

    def __eq__(self, other):
        if not isinstance(other, Rows):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))

    def first_mismatch(self):
        """The first row that does not match, found in the match columns;
        None when every row matches."""
        for block in self.blocks:
            if False in block.match:
                return block.row(block.match.index(False))
        return None


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


def verification_row(form: EligibleForm, n: int) -> VerificationRow:
    """Not part of the library; raises NotImplementedError.

    The name stays only as the hook point of the ``relations.rows`` and
    ``relations.row_*_s`` metrics of bench/tracer.py, until ROADMAP item 1
    drops them.  The point-by-point row is the tests' oracle,
    ``verification_row`` in tests/test_relations.py."""
    raise NotImplementedError("relations.verification_row is not part of the library: the "
                              "point-by-point row is the oracle in tests/test_relations.py")


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
    progression by ``arith.theta_rows``.  The report's rows are ``Rows``
    over one ``FormColumns`` per form.  The first mismatching row, found in
    the match columns, is walked once by ``lattice_sum``: that walk must
    agree with the row's lhs and term count, or ``InternalCheckError`` is
    raised, and it is the report's ``counterexample``, nonzero terms
    included.  Rejects D0*nmax >
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
    # the rows' n, 1, 4, 5, 8, ...: n = 1 mod 4 at the even and n = 0 mod 4
    # at the odd positions of every column
    ns = [n for n in range(1, nmax + 1) if n % 4 in (0, 1)]
    a_n = list(map(cohen_coefficients(nmax).__getitem__, ns)) if by_level else []
    denominator = table_denominator(d0)
    # power[r] = #{q | D0 : q | r}: the table at m = D0*n - j lacks the factor
    # 2**#{q | D0 : q | m}, and q | m exactly when q | j
    power = [0] * d0
    for q in prime_divisors(d0):
        power[::q] = map(add, power[::q], repeat(1))
    blocks: dict[BQF, FormColumns] = {}
    for level, table in tables:
        # L times the volume term, for the right-hand side a_n * volume / L
        volume = int(denominator * volume_term(level))
        targets = list(map(mul, a_n, repeat(volume)))
        for form in by_level[level]:
            # per parity class: the shifts j, the folded counts, and points[i],
            # the number of lattice points with j < shifts[i] (the term count)
            classes: dict[tuple[int, int], tuple[list[int], list[int], list[int]]] = {}
            numerators = [0] * len(ns)
            term_counts = [0] * len(ns)
            for start, n0 in enumerate((1, 4)):
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
                numerators[start::2] = theta_rows(table, shifts, counts, xs)
                term_counts[start::2] = map(points.__getitem__,
                                            map(bisect_right, repeat(shifts), xs))
            # both sides over the one denominator L: the numerators decide
            # the match
            blocks[form.form] = FormColumns(form, denominator, ns, numerators, targets, a_n,
                                            term_counts, list(map(eq, numerators, targets)))
    rows = Rows(blocks[form.form] for form in forms if form.D > 1)
    skipped = [SkippedForm(d0=d0, form=form.form, D=form.D, N=form.N,
                           reason="relation proved only for D > 1 (modular curve needs cusp terms)")
               for form in forms if form.D == 1]
    mismatch = rows.first_mismatch()
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


def verify_kronecker(nmax: int) -> Rows:
    """Check the Hurwitz-Kronecker relation for 1 <= n <= nmax, exactly.

    The theta sum over x of 12*H(4n - x**2) is row 4n of theta times the
    table of 12*H(m) for m <= 4*nmax (``bqf.hurwitz_table``, and
    ``arith.theta_rows``).  The sums
    of min(d, n/d) come from a divisor sieve over d <= sqrt(nmax), and
    sigma(n) from ``arith.sigma_table``.  The rows stay these integer
    columns, one ``KroneckerColumns`` in ``Rows``: row n matches when 12
    times its left side equals 24*sigma(n), and when read holds one
    ``Fraction`` 2*sigma(n) as both ``lhs`` and ``rhs`` then; a mismatching
    row's ``lhs`` is its own ``Fraction``.  Rejects 4*nmax >
    arith.TABLE_BOUND before any work.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if 4 * nmax > TABLE_BOUND:
        raise ValueError(f"input too large: 4*nmax = {4 * nmax} exceeds the table bound {TABLE_BOUND}")
    # 12 times the theta sum at 4n: 12*H(4n - x**2), once for x = 0 and
    # twice for x and -x > 0; the table is dropped once it is read
    xmax = math.isqrt(4 * nmax)
    theta = theta_rows(hurwitz_table(4 * nmax), [x * x for x in range(xmax + 1)],
                       [1] + [2] * xmax, range(4, 4 * nmax + 1, 4))
    # min(d, e) over the divisor pairs d*e = n with d <= e
    min_sums = [0] * (nmax + 1)
    for d in range(1, math.isqrt(nmax) + 1):
        square = d * d
        min_sums[square] += d
        min_sums[square + d::d] = map(add, min_sums[square + d::d], repeat(2 * d))
    # the rows n >= 1 as columns: 12 times the left side, the right side
    # 2*sigma(n), and the exact test 12*lhs = 24*sigma(n); each input column
    # is dropped once it is read, and sigma is doubled in place a block at a
    # time, so the sums and their doubles are never all held at once
    lhs12 = list(map(add, theta, map(mul, islice(min_sums, 1, None), repeat(12))))
    del theta, min_sums
    rhs = sigma_table(nmax)
    for start in range(1, nmax + 1, 4096):
        block = slice(start, start + 4096)
        rhs[block] = map(mul, rhs[block], repeat(2))
    del rhs[0]
    return Rows([KroneckerColumns(lhs12, rhs, list(map(eq, lhs12, map(mul, rhs, repeat(12)))))])
