import itertools
import math
from typing import Iterator

import pytest

from humbert.arith import CLASS_NUMBER_BOUND, is_squarefree, kronecker, prime_divisors
from humbert.bqf import BQF, gl2_canonical, reduce, reduced_forms, represents_only_0_1_mod4
from humbert.genus import atkin_lehner_group_order, eligible_forms, genus_character

SQUAREFREE_50 = [n for n in range(1, 51) if is_squarefree(n)]

# A primitive positive definite form represents a value coprime to any fixed
# modulus well inside this search radius; running past it signals misuse.
SPIRAL_SEARCH_BOUND = 200
# squarefree D0 up to this bound give 42,579 (form, p) pairs for the oracle comparison
ORACLE_D0_MAX = 1000


def _spiral() -> Iterator[tuple[int, int]]:
    # Rings of constant sup-norm r, each starting at (r, 0) and walking
    # counterclockwise; deterministic order for reproducible searches.
    yield (0, 0)
    r = 1
    while True:
        for y in range(0, r + 1):
            yield (r, y)
        for x in range(r - 1, -r - 1, -1):
            yield (x, r)
        for y in range(r - 1, -r - 1, -1):
            yield (-r, y)
        for x in range(-r + 1, r + 1):
            yield (x, -r)
        for y in range(-r + 1, 0):
            yield (r, y)
        r += 1


def coprime_values(q: BQF, m: int) -> Iterator[tuple[int, int, int]]:
    """Yield (x, y, q(x,y)) with gcd(q(x,y), 2m) = 1 over the spiral to SPIRAL_SEARCH_BOUND."""
    for x, y in _spiral():
        if max(abs(x), abs(y)) > SPIRAL_SEARCH_BOUND:
            return
        value = q(x, y)
        if value > 0 and math.gcd(value, 2 * m) == 1:
            yield (x, y, value)


def find_coprime_value(q: BQF, m: int) -> tuple[int, int, int]:
    """Smallest-height (x, y) with q(x, y) positive and coprime to 2m."""
    if not q.is_positive_definite():
        raise ValueError("not positive definite")
    for hit in coprime_values(q, m):
        return hit
    raise ValueError("no coprime representation found within search bound")


def spiral_character(q: BQF, p: int, d0: int) -> int:
    """The genus character at p, evaluated on the first represented value coprime to 2*d0."""
    _, _, a = find_coprime_value(q, d0)
    return kronecker(8, a) if p == 2 else kronecker(a, p)


def is_ambiguous_oracle(q: BQF) -> bool:
    """True iff the form is SL(2,Z)-equivalent to its mirror image."""
    return reduce(q) == reduce(BQF(q.a, -q.b, q.c))


def gl2_classes_oracle(forms: list[BQF]) -> list[BQF]:
    """The GL(2,Z)-classes among SL(2,Z)-reduced forms: gl2_canonical of each, sorted."""
    return sorted({gl2_canonical(q) for q in forms})


def chi_minus4(q: BQF, d0: int) -> int:
    """The character a -> (-4|a) on values coprime to 2*d0."""
    _, _, a = find_coprime_value(q, d0)
    return kronecker(-4, a)


def test_find_coprime_value_examples():
    assert find_coprime_value(BQF(5, 0, 8), 10) == (1, 1, 13)
    assert find_coprime_value(BQF(1, 0, 40), 10) == (1, 0, 1)
    assert find_coprime_value(BQF(1, 1, 1), 3) == (1, 0, 1)


def test_find_coprime_value_exhausts_on_misuse():
    # content 2: every represented value is even, never coprime to 2m
    with pytest.raises(ValueError, match="no coprime representation"):
        find_coprime_value(BQF(2, 0, 2), 10)


NOT_ADMITTED = "not a primitive positive definite form of discriminant -16[*]D0 or -D0"


def test_genus_character_examples():
    assert genus_character(BQF(5, 0, 8), 5, 10) == -1   # (13|5) = (3|5) = -1
    assert genus_character(BQF(5, 0, 8), 2, 10) == -1   # 13 = 5 mod 8
    assert genus_character(BQF(1, 0, 40), 5, 10) == 1
    with pytest.raises(ValueError):
        genus_character(BQF(5, 0, 8), 3, 10)  # 3 does not divide 10
    with pytest.raises(ValueError, match="character prime"):
        genus_character(BQF(1, 0, 40), 0, 10)  # not a prime, and no modulus
    # content 2, discriminant -160: every represented value is even
    with pytest.raises(ValueError, match=NOT_ADMITTED):
        genus_character(BQF(2, 0, 20), 5, 10)
    # indefinite (discriminant 160) and negative definite
    with pytest.raises(ValueError, match=NOT_ADMITTED):
        genus_character(BQF(1, 0, -40), 5, 10)
    with pytest.raises(ValueError, match=NOT_ADMITTED):
        genus_character(BQF(-1, 0, -40), 5, 10)
    # primitive and positive definite, but of discriminant -4*10 = -40
    with pytest.raises(ValueError, match=NOT_ADMITTED):
        genus_character(BQF(1, 0, 10), 5, 10)


def test_genus_character_matches_spiral_oracle():
    # every primitive reduced form of discriminant -16*D0, and -D0 when
    # D0 = 3 mod 4, at every prime p | D0
    pairs = 0
    for d0 in range(1, ORACLE_D0_MAX + 1):
        if not is_squarefree(d0):
            continue
        discs = (-16 * d0, -d0) if d0 % 4 == 3 else (-16 * d0,)
        for disc in discs:
            for q in reduced_forms(disc, primitive_only=True):
                for p in prime_divisors(d0):
                    assert genus_character(q, p, d0) == spiral_character(q, p, d0), (d0, q, p)
                    pairs += 1
    assert pairs == 42579


def test_eligible_forms_30030_match_spiral_oracle():
    d0 = 30030
    for f in eligible_forms(d0):
        q = f.character_form
        assert f.chars == {p: spiral_character(q, p, d0) for p in prime_divisors(d0)}, f


def test_character_well_defined_across_represented_values():
    for d0 in (6, 10, 15, 21, 26, 30):
        for f in eligible_forms(d0):
            q = f.character_form
            values = [a for _, _, a in itertools.islice(coprime_values(q, d0), 10)]
            assert len(values) == 10
            for p in prime_divisors(d0):
                symbols = {
                    kronecker(8, a) if p == 2 else kronecker(a, p) for a in values
                }
                assert symbols == {f.chars[p]}, (d0, f.form, p)


def test_eligible_forms_d0_10():
    forms = eligible_forms(10)
    assert [(f.form, f.D, f.N) for f in forms] == [
        (BQF(1, 0, 40), 1, 10),
        (BQF(5, 0, 8), 10, 1),
    ]
    assert all(f.kind == "primitive" for f in forms)


def test_eligible_forms_d0_6():
    # two classes: the principal one and 5x^2+2xy+5y^2 = (x+y)^2 mod 4,
    # which carries characters -1 at both 2 and 3
    forms = eligible_forms(6)
    assert [(f.form, f.D, f.N) for f in forms] == [
        (BQF(1, 0, 24), 1, 6),
        (BQF(5, 2, 5), 6, 1),
    ]


def test_eligible_forms_d0_15_includes_quarter_forms():
    forms = eligible_forms(15)
    by_form = {f.form: f for f in forms}
    assert BQF(8, 4, 8) in by_form
    f = by_form[BQF(8, 4, 8)]
    assert f.kind == "four_times_primitive"
    assert f.character_form == BQF(2, 1, 2)
    assert (f.D, f.N) == (15, 1)
    assert by_form[BQF(5, 0, 12)].kind == "primitive"
    assert (by_form[BQF(5, 0, 12)].D, by_form[BQF(5, 0, 12)].N) == (15, 1)


def test_quarter_forms_only_for_3_mod_4():
    for d0 in (1, 2, 5, 6, 10, 13, 21, 26, 33):
        assert all(f.kind == "primitive" for f in eligible_forms(d0))
    for d0 in (3, 7, 11, 15, 19, 23):
        quarters = [f for f in eligible_forms(d0) if f.kind == "four_times_primitive"]
        assert quarters, d0
        for f in quarters:
            assert f.form.content() == 4
            assert f.character_form.disc() == -d0


def test_eligible_forms_rejects_non_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        eligible_forms(12)


def test_eligible_forms_size_bound():
    # 16*D0 = CLASS_NUMBER_BOUND passes the size check and fails the next
    # one (62500000 = 2**5 * 5**8); one more is rejected before any work
    with pytest.raises(ValueError, match="squarefree"):
        eligible_forms(CLASS_NUMBER_BOUND // 16)
    with pytest.raises(ValueError, match="input too large"):
        eligible_forms(CLASS_NUMBER_BOUND // 16 + 1)


def test_eligible_forms_match_gl2_oracle():
    # the passing reduced forms merged by gl2_canonical, in sorted order, with
    # the ambiguity flag from reducing the mirror form
    squarefree = [d0 for d0 in range(1, 501) if is_squarefree(d0)]
    for d0 in squarefree:
        passing = [q for q in reduced_forms(-16 * d0, primitive_only=False)
                   if represents_only_0_1_mod4(q)]
        expected = [(q, is_ambiguous_oracle(q)) for q in gl2_classes_oracle(passing)]
        assert [(f.form, f.ambiguous) for f in eligible_forms(d0)] == expected, d0


def test_even_number_of_minus_one_characters():
    for d0 in SQUAREFREE_50:
        for f in eligible_forms(d0):
            minus = [p for p in f.chars if f.chars[p] == -1]
            assert len(minus) % 2 == 0
            assert f.D * f.N == d0
            assert math.gcd(f.D, f.N) == 1


def test_character_product_relation_all_primitive_forms():
    # single relation among the genus characters, for every primitive class
    # of discriminant -16*D0 (not only the eligible ones)
    for d0 in SQUAREFREE_50:
        odd_part = d0 // 2 if d0 % 2 == 0 else d0
        for q in reduced_forms(-16 * d0, primitive_only=True):
            prod = 1
            for p in prime_divisors(d0):
                prod *= genus_character(q, p, d0)
            if odd_part % 4 == 3:
                assert prod == 1, (d0, q)
            else:
                assert chi_minus4(q, d0) * prod == 1, (d0, q)


def test_residue_test_equals_chi_minus4():
    for d0 in SQUAREFREE_50:
        for q in reduced_forms(-16 * d0, primitive_only=True):
            assert represents_only_0_1_mod4(q) == (chi_minus4(q, d0) == 1), (d0, q)


def test_atkin_lehner_group_order():
    forms10 = {f.form: f for f in eligible_forms(10)}
    assert atkin_lehner_group_order(forms10[BQF(5, 0, 8)]) == 4
    assert atkin_lehner_group_order(forms10[BQF(1, 0, 40)]) == 4
    forms21 = {f.form: f for f in eligible_forms(21)}
    f = forms21[BQF(5, 2, 17)]
    assert not f.ambiguous
    assert atkin_lehner_group_order(f) == 2
