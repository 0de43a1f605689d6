import math
from fractions import Fraction

import pytest

from humbert.bqf import BQF, hurwitz
from humbert.genus import eligible_forms
from humbert.qseries import cohen_coefficients
from humbert.relations import (
    VerificationRow,
    lattice_sum,
    verify_kronecker,
    verify_relation,
)
from humbert.shimura import ShimuraLevel, volume_term, weighted_class_number


def rewritten_quarter_sum(form, n):
    # Independent evaluation for four-times forms: both parities force u, v
    # even, so the sum collapses to all integer pairs against the quarter form.
    qq = form.character_form
    level = ShimuraLevel(form.D, form.N)
    total = Fraction(0)
    ubox = math.isqrt(4 * qq.c * n) + 1
    vbox = math.isqrt(4 * qq.a * n) + 1
    for u in range(-ubox, ubox + 1):
        for v in range(-vbox, vbox + 1):
            m = form.d0 * n - 4 * qq(u, v)
            if m >= 0:
                total += weighted_class_number(level, m)
    return total


def verification_row(form, n):
    """One row of ``verify_relation`` point by point: the lattice sum, checked
    against the quarter-form sum where the form is four times primitive, and
    a_n times the volume term.  The reference the table rows are tested on."""
    stats = lattice_sum(form, n)
    lhs = stats.value
    if form.kind == "four_times_primitive":
        rewritten = rewritten_quarter_sum(form, n)
        assert rewritten == lhs, f"rewritten quarter-form sum disagrees: {rewritten} != {lhs}"
    # one Cohen sieve per row, for a_n and for the right-hand side
    a_n = cohen_coefficients(n)[n]
    rhs = a_n * volume_term(ShimuraLevel(form.D, form.N))
    return VerificationRow(
        d0=form.d0, form=form.form, D=form.D, N=form.N, n=n,
        lhs=lhs, rhs=rhs, a_n=a_n, match=lhs == rhs,
        term_count=stats.points_visited,
    )


def form_of(d0, triple):
    return next(f for f in eligible_forms(d0) if f.form == BQF(*triple))


F10 = form_of(10, (5, 0, 8))


def test_worked_instance():
    # hand evaluation: (u,v) = (+-1, 0) give 2 * H(8) = 2 and (+-1, +-2) give
    # 4 * H(3) = 4/3, so the sum is 10/3; the right side is (-10) * (-1/3)
    stats = lattice_sum(F10, 1)
    assert stats.value == Fraction(10, 3)
    assert stats.nonzero_interior_terms == 6
    assert stats.boundary_terms == 0
    row = verification_row(F10, 1)
    assert row.lhs == row.rhs == Fraction(10, 3)
    contributions = sorted(stats.terms)
    assert [(u, v, m, h) for u, v, m, h in contributions] == [
        (-1, -2, 3, Fraction(1, 3)),
        (-1, 0, 8, Fraction(1)),
        (-1, 2, 3, Fraction(1, 3)),
        (1, -2, 3, Fraction(1, 3)),
        (1, 0, 8, Fraction(1)),
        (1, 2, 3, Fraction(1, 3)),
    ]


def test_rhs_examples():
    assert verification_row(F10, 1).rhs == Fraction(10, 3)
    assert verification_row(F10, 4).rhs == -70 * volume_term(ShimuraLevel(10, 1))
    # a_2 = 0, but n = 2 is outside the admissible congruence classes
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        verification_row(F10, 2)


def test_validation_errors():
    d1_form = form_of(10, (1, 0, 40))
    with pytest.raises(ValueError, match="D > 1"):
        verification_row(d1_form, 1)
    with pytest.raises(ValueError, match="0 or 1 mod 4"):
        verification_row(F10, 3)
    with pytest.raises(ValueError):
        verification_row(F10, 0)


def test_boundary_terms_instance():
    # D0=10, n=5: 5v^2 + 8u^2 = 200 at (u, v) = (+-5, 0), u odd: two boundary
    # points, each contributing the volume term
    stats = lattice_sum(F10, 5)
    assert stats.boundary_terms == 2
    boundary_sum = sum(h for u, v, m, h in stats.terms if m == 0)
    assert boundary_sum == 2 * volume_term(ShimuraLevel(10, 1))
    assert sum(h for u, v, m, h in stats.terms) == stats.value
    assert stats.value == verification_row(F10, 5).rhs


def test_every_nonzero_term_has_admissible_argument():
    for n in (1, 4, 5, 8):
        stats = lattice_sum(F10, n)
        for u, v, m, h in stats.terms:
            assert h != 0
            assert m.denominator == 1 and m >= 0
            assert m == 0 or (-m) % 4 in (0, 1)


def test_boundary_terms_are_the_m_zero_terms():
    # every boundary point, Q(v, u) = 4*D0*n, contributes the nonzero volume
    # term, so the walk keeps each of them among its nonzero terms
    for d0 in (10, 15, 35):
        for form in eligible_forms(d0):
            if form.D == 1:
                continue
            a, b, c = form.form
            volume = volume_term(ShimuraLevel(form.D, form.N))
            for n in range(1, 25):
                if n % 4 in (2, 3):
                    continue
                stats = lattice_sum(form, n)
                assert stats.boundary_terms + stats.nonzero_interior_terms == len(stats.terms)
                assert all(h == volume for u, v, m, h in stats.terms if m == 0)
                # the boundary points of the row's parity class, by a box count
                umax, vmax = math.isqrt(a * n), math.isqrt(c * n)
                on_boundary = sum(
                    1 for u in range(-umax, umax + 1) for v in range(-vmax, vmax + 1)
                    if (u - a * n) % 2 == 0 and (v - c * n) % 2 == 0
                    and a * v * v + b * v * u + c * u * u == 4 * d0 * n)
                assert stats.boundary_terms == on_boundary, (d0, form.form, n)


def box_sum(form, n):
    # The lattice sum over every point of a box at least twice the ellipse
    # Q(v, u) <= 4*D0*n in each direction (|u| <= sqrt(a*n), |v| <= sqrt(c*n)),
    # keeping the parity classes u = a*n, v = c*n mod 2: (value, points).
    a, b, c = form.form
    bound = 4 * form.d0 * n
    level = ShimuraLevel(form.D, form.N)
    ubox, vbox = 2 * math.isqrt(a * n) + 2, 2 * math.isqrt(c * n) + 2
    value, points = Fraction(0), 0
    for u in range(-ubox, ubox + 1):
        for v in range(-vbox, vbox + 1):
            q = a * v * v + b * v * u + c * u * u
            if (u - a * n) % 2 == 0 and (v - c * n) % 2 == 0 and q <= bound:
                value += weighted_class_number(level, Fraction(bound - q, 4))
                points += 1
    return value, points


def test_doubling_the_box_does_not_change_the_sum():
    for f in (F10, form_of(26, (5, 2, 21)), form_of(15, (8, 4, 8))):
        for n in (1, 4, 9, 12):
            stats = lattice_sum(f, n)
            assert (stats.value, stats.points_visited) == box_sum(f, n), (f.form, n)


def test_swap_arguments_relabelling_agrees():
    # exchanging the two arguments together with their parities is a pure
    # relabelling of the sum; checked on an asymmetric form
    f26 = form_of(26, (5, 2, 21))
    swapped = f26._replace(form=BQF(21, 2, 5))
    for n in (1, 4, 5):
        assert lattice_sum(f26, n).value == lattice_sum(swapped, n).value
    assert lattice_sum(f26, 1).value == verification_row(f26, 1).rhs


def test_quarter_form_rewritten_sum():
    f15 = form_of(15, (8, 4, 8))
    # verification_row runs the rewritten-sum cross-check internally
    for n in (1, 4, 5):
        row = verification_row(f15, n)
        assert row.lhs == row.rhs


def test_verify_relation_d0_10():
    report = verify_relation(10, 20)
    assert report.all_match
    assert [s.form for s in report.skipped] == [BQF(1, 0, 40)]
    assert "D > 1" in report.skipped[0].reason
    ns = sorted({r.n for r in report.rows})
    assert ns == [1, 4, 5, 8, 9, 12, 13, 16, 17, 20]
    for row in report.rows:
        assert row.lhs == row.rhs
        assert row.a_n == cohen_coefficients(20)[row.n]
        assert row.term_count > 0


def test_verify_relation_d0_6_has_nontrivial_form():
    # 5x^2 + 2xy + 5y^2 = (x+y)^2 mod 4 is eligible with D = 6
    report = verify_relation(6, 13)
    assert {r.form for r in report.rows} == {BQF(5, 2, 5)}
    assert report.all_match
    row1 = next(r for r in report.rows if r.n == 1)
    assert row1.lhs == row1.rhs == Fraction(5, 3)


def test_verify_relation_rejects_bad_input():
    with pytest.raises(ValueError, match="squarefree"):
        verify_relation(12, 10)
    with pytest.raises(ValueError):
        verify_relation(10, 0)


def test_verify_relation_is_deterministic():
    assert verify_relation(15, 9) == verify_relation(15, 9)


def test_kronecker_relation_n1_decomposition():
    # H(4) + 2 H(3) + 2 H(0) = 1/2 + 2/3 - 1/6 = 1, plus min(1,1) = 1, equals 2
    assert hurwitz(4) + 2 * hurwitz(3) + 2 * hurwitz(0) == 1
    rows = verify_kronecker(6)
    assert rows[0].lhs == rows[0].rhs == 2
    assert rows[5].rhs == 24
    assert all(r.match for r in rows)


def test_kronecker_relation_medium_range():
    assert all(r.match for r in verify_kronecker(300))


def test_weighted_class_number_reduces_to_hurwitz_in_rows():
    # the n = 1 row of D0 = 6 decomposes through the weighted counts
    level = ShimuraLevel(6, 1)
    assert weighted_class_number(level, 3) == Fraction(1, 3)
    assert weighted_class_number(level, 4) == Fraction(1, 2)
    assert 2 * Fraction(1, 3) + 2 * Fraction(1, 2) == Fraction(5, 3)
