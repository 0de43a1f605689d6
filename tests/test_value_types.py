"""The value types are immutable named tuples: fields cannot be set, the
hashable ones serve as dict keys, forms sort by (a, b, c), and the checked
constructors reject bad input."""

from fractions import Fraction
from functools import cache

import pytest

from humbert.bqf import BQF
from humbert.genus import eligible_forms
from humbert.qseries import QSeries
from humbert.relations import verify_relation
from humbert.shimura import ShimuraLevel


@cache
def report():
    # built by the first test that asks for it, so that a broken table fails
    # those tests instead of the collection of this module
    return verify_relation(10, 8)


# (builder of a value, one of its fields); the test builds the value
FIELD_CASES = [
    (lambda: BQF(1, 0, 1), "a"),
    (lambda: ShimuraLevel(6, 5), "N"),
    (lambda: eligible_forms(10)[0], "D"),
    (lambda: report().rows[0], "lhs"),
]


@pytest.mark.parametrize("build, field", FIELD_CASES,
                         ids=[f"value{i}-{field}" for i, (_, field) in enumerate(FIELD_CASES)])
def test_fields_cannot_be_set(build, field):
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_forms_and_levels_are_dict_keys():
    assert {BQF(5, 0, 8): 1}[BQF(5, 0, 8)] == 1
    assert hash(BQF(5, 0, 8)) == hash(BQF(5, 0, 8))
    assert BQF(5, 0, 8) != BQF(5, 0, 9)
    assert {ShimuraLevel(6, 5): "x"}[ShimuraLevel(6, 5)] == "x"
    assert len({ShimuraLevel(6, 5), ShimuraLevel(6, 5), ShimuraLevel(6, 1)}) == 2


def test_forms_sort_by_coefficients():
    forms = [BQF(5, 2, 17), BQF(4, 4, 11), BQF(5, -2, 17), BQF(1, 0, 40), BQF(4, 4, 9)]
    assert sorted(forms) == [BQF(1, 0, 40), BQF(4, 4, 9), BQF(4, 4, 11),
                             BQF(5, -2, 17), BQF(5, 2, 17)]
    assert BQF(2, 9, 9) < BQF(3, -9, -9)


def test_qseries_constructor_checks():
    with pytest.raises(ValueError, match="denominator dividing 24"):
        QSeries(Fraction(1, 5), (1,))
    with pytest.raises(ValueError, match="at least one stored coefficient"):
        QSeries(Fraction(0), ())
    assert QSeries(Fraction(1, 24), (1, 2)).coefficient(Fraction(25, 24)) == 2


def test_report_repr_leaves_out_the_class_number_table():
    text = repr(report())
    assert text.startswith("VerificationReport(d0=10, nmax=8, rows=[VerificationRow(d0=10, ")
    assert ", skipped=[SkippedForm(d0=10, form=BQF(1, 0, 40), D=1, N=10, " in text
    assert text.endswith(")])")
    assert "class_numbers" not in text and "array" not in text
    assert len(report().class_numbers) > 1
