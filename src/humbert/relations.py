"""Exact verification of the class-number relations.

Two identities are verified, both as equalities of reduced rationals:

* the classical Hurwitz-Kronecker relation
  sum over x of H(4n - x**2) + sum over d*d' = n of min(d, d') = 2*sigma(n);

* the Shimura-curve relation attached to an eligible form Q of discriminant
  -16*D0 with quaternion discriminant D > 1: the lattice sum of the weighted
  class-number function over u = a*n, v = c*n mod 2 equals a_n times the
  volume term, with a_n the Cohen-series coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import sigma
from .bqf import BQF, gl2_canonical, hurwitz
from .genus import EligibleForm, eligible_forms
from .qseries import cohen_coefficients
from .shimura import ShimuraLevel, volume_term, weighted_class_number


@dataclass(frozen=True)
class LatticeSum:
    """Breakdown of the left-hand lattice sum."""

    value: Fraction
    interior_sum: Fraction
    boundary_sum: Fraction
    nonzero_interior_terms: int
    boundary_terms: int
    points_visited: int
    terms: tuple[tuple[int, int, Fraction, Fraction], ...] = ()
    # terms: (u, v, m, contribution) for every nonzero term, when collected


@dataclass(frozen=True)
class VerificationRow:
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


@dataclass(frozen=True)
class SkippedForm:
    d0: int
    form: BQF
    D: int
    N: int
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    d0: int
    nmax: int
    rows: list[VerificationRow]
    skipped: list[SkippedForm]

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)


@dataclass(frozen=True)
class KroneckerRow:
    n: int
    lhs: Fraction
    rhs: Fraction
    match: bool


def _validate(form: EligibleForm, n: int) -> None:
    if form.D == 1:
        raise ValueError("relation requires D > 1")
    if n < 1 or n % 4 in (2, 3):
        raise ValueError("n must be a positive integer congruent to 0 or 1 mod 4")


def lattice_sum(form: EligibleForm, n: int, collect_terms: bool = False,
                swap_arguments: bool = False, extra_margin: int = 0) -> LatticeSum:
    """Evaluate the left-hand side sum with exact enumeration.

    The sum runs over integer pairs (u, v) with u = a*n, v = c*n mod 2
    (a, c the outer coefficients of the form) and Q(v, u) <= 4*D0*n, each
    term contributing the weighted class number at D0*n - Q(v, u)/4; terms
    with a non-integral or inadmissible argument contribute zero.

    ``swap_arguments`` evaluates the mathematically identical relabelling
    with the roles of the two arguments (and their parities) exchanged,
    as a convention cross-check.  ``extra_margin`` widens the enumeration
    box; it must never change the value.
    """
    _validate(form, n)
    q = form.form
    a, b, c = (q.c, q.b, q.a) if swap_arguments else (q.a, q.b, q.c)
    d0 = form.d0
    level = ShimuraLevel(form.D, form.N)
    bound = 4 * d0 * n

    def qval(v: int, u: int) -> int:
        return a * v * v + b * v * u + c * u * u

    u_par = (a * n) % 2
    v_par = (c * n) % 2
    interior = Fraction(0)
    boundary = Fraction(0)
    nonzero_interior = 0
    boundary_count = 0
    visited = 0
    terms = []
    umax = math.isqrt(a * n) + extra_margin
    for u in range(-umax, umax + 1):
        if u % 2 != u_par:
            continue
        # v-window of a*v^2 + b*u*v + (c*u^2 - bound) <= 0; integer sqrt gives
        # the window up to +-1, the exact test on Q(v, u) settles membership
        disc_v = (b * b - 4 * a * c) * u * u + 4 * a * bound
        root = math.isqrt(disc_v) if disc_v > 0 else 0
        vmin = (-b * u - root) // (2 * a) - 2 - extra_margin
        vmax = (-b * u + root) // (2 * a) + 2 + extra_margin
        v = vmin + ((v_par - vmin) % 2)
        while v <= vmax:
            value = qval(v, u)
            if value <= bound:
                visited += 1
                m = Fraction(bound - value, 4)
                h = weighted_class_number(level, m)
                if value == bound:
                    boundary += h
                    boundary_count += 1
                    if collect_terms:
                        terms.append((u, v, m, h))
                elif h != 0:
                    interior += h
                    nonzero_interior += 1
                    if collect_terms:
                        terms.append((u, v, m, h))
            v += 2
    return LatticeSum(
        value=interior + boundary,
        interior_sum=interior,
        boundary_sum=boundary,
        nonzero_interior_terms=nonzero_interior,
        boundary_terms=boundary_count,
        points_visited=visited,
        terms=tuple(terms),
    )


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


def _checked_lattice_sum(form: EligibleForm, n: int) -> LatticeSum:
    # For four-times-primitive forms the collapsed sum over the quarter form
    # is evaluated independently and must agree.
    result = lattice_sum(form, n)
    if form.kind == "four_times_primitive":
        rewritten = _rewritten_quarter_sum(form, n)
        if rewritten != result.value:
            raise RuntimeError(
                f"rewritten quarter-form sum disagrees: {rewritten} != {result.value}"
            )
    return result


def relation_lhs(form: EligibleForm, n: int) -> Fraction:
    """Left-hand side of the class-number relation for an eligible form,
    with the quarter-form cross-check applied where it exists."""
    return _checked_lattice_sum(form, n).value


_COHEN_CACHE: list[int] = []


def cohen_coefficient(n: int) -> int:
    """Coefficient a_n of the Cohen series, with a growing module-level cache."""
    global _COHEN_CACHE
    if n >= len(_COHEN_CACHE):
        _COHEN_CACHE = cohen_coefficients(max(n, 2 * len(_COHEN_CACHE), 16))
    return _COHEN_CACHE[n]


def relation_rhs(form: EligibleForm, n: int) -> Fraction:
    """Right-hand side: a_n times the volume term of the level."""
    _validate(form, n)
    return cohen_coefficient(n) * volume_term(ShimuraLevel(form.D, form.N))


def verification_row(form: EligibleForm, n: int) -> VerificationRow:
    """One exact comparison of the two sides, with the quarter-form
    cross-check applied where it exists."""
    stats = _checked_lattice_sum(form, n)
    lhs = stats.value
    a_n = cohen_coefficient(n)
    rhs = relation_rhs(form, n)
    return VerificationRow(
        d0=form.d0, form=form.form, D=form.D, N=form.N, n=n,
        lhs=lhs, rhs=rhs, a_n=a_n, match=lhs == rhs,
        term_count=stats.points_visited,
    )


def skip_record(form: EligibleForm) -> SkippedForm:
    return SkippedForm(
        d0=form.d0, form=form.form, D=form.D, N=form.N,
        reason="relation proved only for D > 1 (modular curve needs cusp terms)",
    )


def admissible_n(nmax: int) -> list[int]:
    return [n for n in range(1, nmax + 1) if n % 4 in (0, 1)]


def verify_relation(d0: int, nmax: int, only_form: BQF | None = None) -> VerificationReport:
    """Verify the relation for every eligible form of the given D0 with D > 1
    and every n <= nmax congruent to 0 or 1 mod 4, or only for the
    GL(2,Z)-class of ``only_form``; exact comparisons, rows by form then n."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    forms = eligible_forms(d0)
    if only_form is not None:
        canon = gl2_canonical(only_form)
        forms = [f for f in forms if f.form == canon]
    rows: list[VerificationRow] = []
    skipped: list[SkippedForm] = []
    for form in forms:
        if form.D == 1:
            skipped.append(skip_record(form))
            continue
        for n in admissible_n(nmax):
            rows.append(verification_row(form, n))
    return VerificationReport(d0=d0, nmax=nmax, rows=rows, skipped=skipped)


def verify_kronecker(nmax: int) -> list[KroneckerRow]:
    """Check the Hurwitz-Kronecker relation for 1 <= n <= nmax, exactly."""
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    rows = []
    for n in range(1, nmax + 1):
        lhs = Fraction(0)
        xmax = math.isqrt(4 * n)
        for x in range(-xmax, xmax + 1):
            lhs += hurwitz(4 * n - x * x)
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                dd = n // d
                lhs += min(d, dd) if d == dd else 2 * min(d, dd)
        rhs = Fraction(2 * sigma(n))
        rows.append(KroneckerRow(n=n, lhs=lhs, rhs=rhs, match=lhs == rhs))
    return rows
