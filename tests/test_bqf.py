import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from humbert.bqf import (
    BQF,
    class_number,
    gl2_canonical,
    hurwitz,
    reduce,
    reduced_forms,
    represent,
    represents_only_0_1_mod4,
    unit_weight_denominator,
)
from humbert.genus import eligible_forms


def test_disc_examples():
    assert BQF(1, 0, 40).disc() == -160
    assert BQF(5, 0, 8).disc() == -160
    assert BQF(1, 1, 1).disc() == -3


def test_reduce_examples():
    assert reduce(BQF(1, 2, 2)) == BQF(1, 0, 1)
    assert reduce(BQF(1, 0, 1)) == BQF(1, 0, 1)
    assert reduce(BQF(2, 2, 3)) == BQF(2, 2, 3)
    with pytest.raises(ValueError, match="not positive definite"):
        reduce(BQF(1, 5, 1))
    with pytest.raises(ValueError, match="not positive definite"):
        reduce(BQF(-1, 0, -1))


def sl2_orbit_sample(q, steps, seed):
    # apply a pseudo-random word in the generators S, T to the form
    import random

    rng = random.Random(seed)
    a, b, c = q.a, q.b, q.c
    for _ in range(steps):
        if rng.random() < 0.5:
            a, b, c = c, -b, a                      # (x,y) -> (-y,x)
        else:
            k = rng.randint(-3, 3)                  # (x,y) -> (x+ky, y)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
    return BQF(a, b, c)


@settings(max_examples=80)
@given(
    st.integers(1, 12),
    st.integers(-12, 12),
    st.integers(1, 12),
    st.integers(0, 10**6),
)
def test_reduce_is_sl2_invariant_and_idempotent(a, b, c, seed):
    q = BQF(a, b, c)
    if not q.is_positive_definite():
        return
    r = reduce(q)
    assert r.disc() == q.disc()
    assert r.content() == q.content()
    assert reduce(r) == r
    assert reduce(sl2_orbit_sample(q, 6, seed)) == r


def test_reduced_forms_examples():
    assert reduced_forms(-3) == [BQF(1, 1, 1)]
    assert reduced_forms(-4) == [BQF(1, 0, 1)]
    forms160 = reduced_forms(-160)
    assert len(forms160) == 4
    assert set(forms160) == {BQF(1, 0, 40), BQF(4, 4, 11), BQF(5, 0, 8), BQF(7, 6, 7)}
    with pytest.raises(ValueError, match="not a discriminant"):
        reduced_forms(-5)
    with pytest.raises(ValueError, match="not a discriminant"):
        reduced_forms(4)


def triple_scan_class_number(d):
    # independent oracle: scan all (a, b, c) triples over the full b-range,
    # checking integrality and the reduction inequalities directly
    count = 0
    for a in range(1, math.isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (c == a or -b == a):
                continue
            if math.gcd(a, math.gcd(b, c)) == 1:
                count += 1
    return count


def test_class_number_against_triple_scan():
    for d in range(-3, -10**4 - 1, -1):
        if d % 4 not in (0, 1):
            continue
        assert class_number(d) == triple_scan_class_number(d), d


def test_class_number_small_values():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-8) == 1
    assert class_number(-160) == 4


def hurwitz_direct_count(n):
    # direct weighted count over all reduced forms (any content)
    if n == 0:
        return Fraction(-1, 12)
    if (-n) % 4 in (2, 3):
        return Fraction(0)
    total = Fraction(0)
    for q in reduced_forms(-n, primitive_only=False):
        k = q.content()
        base = BQF(q.a // k, q.b // k, q.c // k)
        total += Fraction(1, unit_weight_denominator(base.disc()))
    return total


def test_hurwitz_examples_and_direct_count():
    assert hurwitz(0) == Fraction(-1, 12)
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(4) == Fraction(1, 2)
    assert hurwitz(2) == 0
    with pytest.raises(ValueError, match="undefined"):
        hurwitz(-1)
    for n in range(0, 501):
        assert hurwitz(n) == hurwitz_direct_count(n), n


def test_represents_only_0_1_mod4():
    assert represents_only_0_1_mod4(BQF(5, 0, 8))
    assert not represents_only_0_1_mod4(BQF(3, 0, 8))   # represents 3
    assert not represents_only_0_1_mod4(BQF(4, 4, 7))   # represents 7


def test_eligible_content_is_1_or_4():
    # forms of discriminant -16*D0 passing the residue test are primitive or 4Q'
    for d0 in (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 30, 33):
        for q in reduced_forms(-16 * d0, primitive_only=False):
            if represents_only_0_1_mod4(q):
                assert q.content() in (1, 4), (d0, q)


def is_mirror_fixed(q: BQF) -> bool:
    """True iff the form is SL(2,Z)-equivalent to its mirror image (ambiguous)."""
    return reduce(q) == reduce(BQF(q.a, -q.b, q.c))


def test_gl2_classes():
    assert {gl2_canonical(q) for q in (BQF(4, 4, 11), BQF(4, -4, 11))} == {BQF(4, 4, 11)}
    assert gl2_canonical(BQF(1, 0, 40)) == BQF(1, 0, 40)
    # disc -160: every reduced class is fixed by the mirror map, so the
    # GL2 count equals the SL2 count (frozen from the triple-scan oracle)
    prims = reduced_forms(-160)
    assert all(is_mirror_fixed(q) for q in prims)
    assert len({gl2_canonical(q) for q in prims}) == len(prims) == 4
    # the eligible forms of D0 = 10 (disc -160) are all ambiguous
    assert [(f.form, f.ambiguous) for f in eligible_forms(10)] == [
        (BQF(1, 0, 40), True), (BQF(5, 0, 8), True)]


def test_gl2_merges_non_ambiguous_pairs():
    forms = reduced_forms(-336)
    pair = [q for q in forms if q.a == 5]
    assert pair == [BQF(5, -2, 17), BQF(5, 2, 17)]
    assert {gl2_canonical(q) for q in pair} == {BQF(5, 2, 17)}
    assert not is_mirror_fixed(BQF(5, 2, 17))
    # D0 = 21 (disc -336): the pair is one eligible class, flagged not ambiguous
    eligible = {f.form: f.ambiguous for f in eligible_forms(21)}
    assert eligible[BQF(5, 2, 17)] is False and BQF(5, -2, 17) not in eligible


def test_gl2_canonical_has_nonnegative_b():
    assert gl2_canonical(BQF(5, -2, 17)) == BQF(5, 2, 17)
    assert gl2_canonical(BQF(4, -4, 11)) == BQF(4, 4, 11)


def test_represent():
    assert represent(BQF(5, 0, 8), 13) in {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert represent(BQF(5, 0, 8), 7) is None
    assert represent(BQF(1, 0, 1), 25) is not None
    assert represent(BQF(2, 1, 2), 17) is not None   # (1, -3)
    q = BQF(2, 1, 2)
    x, y = represent(q, 17)
    assert q(x, y) == 17


def test_hurwitz_kronecker_smoke():
    # global consistency of hurwitz: the classical relation at small scale
    # (the full nmax=1000 run lives in the acceptance suite)
    from humbert.relations import verify_kronecker

    assert all(r.match for r in verify_kronecker(200))
