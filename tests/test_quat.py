import dataclasses
import random
from fractions import Fraction

import mpmath as mp
import pytest

from humbert import quat
from humbert.arith import InternalCheckError
from humbert.bqf import BQF, gl2_canonical
from humbert.cli import main
from humbert.genus import eligible_forms
from humbert.quat import (
    OrderBasis,
    Quaternion,
    SingularRelation,
    base_singular_relations,
    basis_elements,
    bordered_gram,
    build_order,
    cm_singular_gram,
    coordinates_in_basis,
    det,
    order_form,
    order_parameters,
    period_matrix,
    period_matrix_check,
    reduced_discriminant,
    trace_zero_basis,
)

ACCEPTANCE_D0 = (10, 15, 21, 26, 33)


def all_orders():
    orders = []
    for d0 in ACCEPTANCE_D0:
        for f in eligible_forms(d0):
            if f.D > 1:
                orders.append(build_order(f))
    return orders


ORDERS = all_orders()


def rand_quaternion(rng, dn, p):
    return Quaternion.of(
        dn, p,
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
    )


def test_generator_relations():
    one, i_, j_, k_ = basis_elements(10, 13)
    assert i_ * i_ == Quaternion.of(10, 13, w=-10)
    assert j_ * j_ == Quaternion.of(10, 13, w=13)
    assert i_ * j_ == k_
    assert j_ * i_ == -k_
    assert k_ * k_ == Quaternion.of(10, 13, w=10 * 13)
    assert i_.norm() == 10 and j_.norm() == -13 and k_.norm() == -130


def test_norm_multiplicative_and_trace_identities():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_quaternion(rng, 10, 13)
        b = rand_quaternion(rng, 10, 13)
        assert (a * b).norm() == a.norm() * b.norm()
        assert a * a.conjugate() == Quaternion.of(10, 13, w=a.norm())
        assert (a + a.conjugate()) == Quaternion.of(10, 13, w=a.trace())
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert (a * b).trace() == (b * a).trace()


def test_mixed_algebra_rejected():
    a = Quaternion.of(10, 13, w=1)
    b = Quaternion.of(15, 17, w=1)
    with pytest.raises(ValueError, match="different quaternion algebras"):
        a * b


def test_order_parameters_worked_example():
    f = [f for f in eligible_forms(10) if f.D == 10][0]
    p, s, t = order_parameters(f)
    assert p == 13
    assert s % 2 == 0
    assert p * t - s**2 * 10 == 1


def test_order_parameters_case2():
    f = [f for f in eligible_forms(15) if f.kind == "four_times_primitive" and f.D > 1][0]
    p, s, t = order_parameters(f)
    assert p % 2 == 1
    assert s % 2 == 1
    assert (s**2 * 15 + 1) % (4 * p) == 0
    assert 4 * p * t - s**2 * 15 == 1


def test_case1_basis_invariants():
    ob = next(o for o in ORDERS if o.kind == "primitive")
    e1, e2, e3, e4 = ob.e
    assert e1 == Quaternion.of(ob.dn, ob.p, w=1)
    assert e2.trace() == 1
    assert e2.norm() == Fraction(1 - ob.p, 4)
    # closure gives integer coordinates for arbitrary products
    coords = coordinates_in_basis(ob, e3 * e4)
    assert all(c.denominator == 1 for c in coords)


def test_orders_close_and_have_reduced_discriminant_dn():
    for ob in ORDERS:
        assert reduced_discriminant(ob) == ob.dn
        for a in ob.e:
            for b in ob.e:
                coords = coordinates_in_basis(ob, a * b)
                assert all(c.denominator == 1 for c in coords), (ob.source.form, a, b)


# D0 = 10 has a primitive form with D > 1, D0 = 15 also the four-times form (8, 4, 8)
CHECK_FORMS = [f for d0 in (10, 15) for f in eligible_forms(d0) if f.D > 1]


def form_id(f):
    return f"{f.d0}-{f.form.a},{f.form.b},{f.form.c}"


def test_check_forms_cover_both_kinds():
    assert {f.kind for f in CHECK_FORMS} == {"primitive", "four_times_primitive"}


@pytest.mark.parametrize("form", CHECK_FORMS, ids=form_id)
def test_coordinates_reject_a_singular_basis(form):
    ob = build_order(form)
    e1, e2, e3, e4 = ob.e
    with pytest.raises(InternalCheckError, match="singular basis"):
        coordinates_in_basis(dataclasses.replace(ob, e=(e1, e1, e3, e4)), e2)


def shifted_parameters(monkeypatch):
    # s + 2 keeps the parity of s but breaks s**2*DN + 1 = 0 mod p (or 4p)
    real = quat.order_parameters

    def shifted(form):
        p, s, t = real(form)
        return p, s + 2, t

    monkeypatch.setattr(quat, "order_parameters", shifted)


@pytest.mark.parametrize("form", CHECK_FORMS, ids=form_id)
def test_build_order_rejects_an_order_not_closed(form, monkeypatch):
    shifted_parameters(monkeypatch)
    with pytest.raises(InternalCheckError, match="not closed under multiplication"):
        build_order(form)


def test_selfcheck_exits_3_when_the_order_is_not_closed(capsys, monkeypatch):
    shifted_parameters(monkeypatch)
    assert main(["selfcheck", "--d0", "10"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "internal check failed" in err[0]


def test_order_form_explicit_and_gl2_class():
    for ob in ORDERS:
        q = order_form(ob)
        dn, p, s, t = ob.dn, ob.p, ob.s, ob.t
        if ob.kind == "primitive":
            assert q == BQF(p, 4 * s * dn, 4 * t * dn)
        else:
            assert q == BQF(4 * p, 4 * s * dn, 4 * t * dn)
        assert q.disc() == -16 * dn
        assert gl2_canonical(q) == ob.source.form


def test_base_singular_relations_discs_and_gram():
    for ob in ORDERS:
        l1, l2 = base_singular_relations(ob)
        q = order_form(ob)
        dn, p, s, t = ob.dn, ob.p, ob.s, ob.t
        if ob.kind == "primitive":
            assert l1.disc() == p
        else:
            assert l1.disc() == 4 * p
        assert l2.disc() == 4 * t * dn
        assert l1.inner(l2) == 2 * s * dn
        # Gram of (l1, l2) is the Gram matrix of the order form
        assert [[l1.disc(), l1.inner(l2)], [l1.inner(l2), l2.disc()]] == \
            [[q.a, q.b // 2], [q.b // 2, q.c]]


def test_congruence_of_inner_products():
    rng = random.Random(3)
    for ob in ORDERS[:3]:
        l1, l2 = base_singular_relations(ob)
        for _ in range(50):
            m1 = SingularRelation(tuple(rng.randint(-5, 5) for _ in range(5)))
            m2 = SingularRelation(tuple(rng.randint(-5, 5) for _ in range(5)))
            assert (m1.inner(m2) ** 2 - m1.disc() * m2.disc()) % 4 == 0
        assert (l1.inner(l2) ** 2 - l1.disc() * l2.disc()) % 4 == 0


def test_bordered_gram_determinant_identity():
    # det = 4*DN*n - Q(v,-u) as polynomials: checked on a grid large enough
    # to determine a quadratic in (u, v) plus a linear term in n
    for ob in ORDERS:
        q = order_form(ob)
        for n in (1, 2, 7):
            for u in range(-3, 4):
                for v in range(-3, 4):
                    m = bordered_gram(ob, n, u, v)
                    assert det(m) == 4 * ob.dn * n - q(v, -u)
        assert det(bordered_gram(ob, 1, 0, 0)) == 4 * ob.dn
    with pytest.raises(ValueError):
        bordered_gram(ORDERS[0], 0, 0, 0)


def test_q_of_v_minus_u_symmetric_when_b_zero():
    q = BQF(5, 0, 8)
    for u in range(-3, 4):
        for v in range(-3, 4):
            assert q(v, -u) == q(v, u)


def test_period_matrix_check_random_samples():
    rng = random.Random(20240901)
    for ob in ORDERS:
        for _ in range(20):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0))
            check = period_matrix_check(ob, z)
            assert check.ok, (ob.source.form, z, check.max_residual)
            assert check.max_residual < 1e-9


def test_period_matrix_rejects_lower_half_plane():
    with pytest.raises(ValueError, match="upper half-plane"):
        period_matrix_check(ORDERS[0], 0.5 - 1.0j)
    with pytest.raises(ValueError, match="upper half-plane"):
        period_matrix_check(ORDERS[0], 1.0)


def test_case2_tau1_minus_p_tau3():
    ob = next(o for o in ORDERS if o.kind == "four_times_primitive")
    with mp.workdps(40):
        t1, t2, t3 = period_matrix(ob, 1j)
        expected = Fraction(1 + ob.s * ob.dn, 2)
        assert abs(t1 - ob.p * t3 - mp.mpf(expected.numerator) / expected.denominator) < 1e-30


def embed(q: Quaternion, sqrtp):
    # 2x2 image of the algebra: I -> [[0,-1],[dn,0]], J -> [[sqrt p, 0],[0,-sqrt p]]
    w, x, y, z = (mp.mpf(v.numerator) / v.denominator for v in q.coords())
    return [
        [w + y * sqrtp, -x + z * sqrtp],
        [x * q.dn + z * q.dn * sqrtp, w - y * sqrtp],
    ]


def test_embedding_is_an_algebra_map_and_norm_is_det():
    rng = random.Random(11)
    with mp.workdps(40):
        sqrtp = mp.sqrt(13)
        for _ in range(20):
            a = rand_quaternion(rng, 10, 13)
            b = rand_quaternion(rng, 10, 13)
            ma, mb, mab = embed(a, sqrtp), embed(b, sqrtp), embed(a * b, sqrtp)
            prod = [
                [ma[0][0] * mb[0][1 - 1] + ma[0][1] * mb[1][0], ma[0][0] * mb[0][1] + ma[0][1] * mb[1][1]],
                [ma[1][0] * mb[0][0] + ma[1][1] * mb[1][0], ma[1][0] * mb[0][1] + ma[1][1] * mb[1][1]],
            ]
            for i in range(2):
                for j in range(2):
                    assert abs(prod[i][j] - mab[i][j]) < 1e-25
            det = ma[0][0] * ma[1][1] - ma[0][1] * ma[1][0]
            nrm = a.norm()
            assert abs(det - mp.mpf(nrm.numerator) / nrm.denominator) < 1e-25


def symplectic_basis(ob: OrderBasis):
    e1, e2, e3, e4 = ob.e
    if ob.kind == "primitive":
        half = Fraction(ob.p - 1, 2)
        a1 = e3 - half * e4
        a2 = -Fraction(ob.s * ob.dn) * e1 - e4
        return (a1, a2, e1, e2)
    return (e2, -Fraction(1) * e4, e1, e3)


def test_symplectic_basis_pairing():
    # tr(mu^-1 * a_i * conj(a_j)) must be the standard symplectic matrix, exactly
    for ob in ORDERS:
        alphas = symplectic_basis(ob)
        mu_inv = Quaternion.of(ob.dn, ob.p, x=Fraction(-1, ob.dn))  # I^-1
        pairing = [
            [(mu_inv * a * b.conjugate()).trace() for b in alphas] for a in alphas
        ]
        expected = [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
        assert pairing == [[Fraction(v) for v in row] for row in expected], ob.source.form


def test_period_matrix_matches_symplectic_basis_construction():
    # independent oracle: columns phi(a_i) v_z assembled into (T1 | T2),
    # tau = T2^-1 T1 entrywise equals the closed formula
    rng = random.Random(5)
    with mp.workdps(40):
        for ob in ORDERS:
            sqrtp = mp.sqrt(ob.p)
            for _ in range(3):
                z = mp.mpc(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
                cols = []
                for alpha in symplectic_basis(ob):
                    m = embed(alpha, sqrtp)
                    cols.append([m[0][0] * z + m[0][1], m[1][0] * z + m[1][1]])
                t1m = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
                t2m = [[cols[2][0], cols[3][0]], [cols[2][1], cols[3][1]]]
                det = t2m[0][0] * t2m[1][1] - t2m[0][1] * t2m[1][0]
                inv = [[t2m[1][1] / det, -t2m[0][1] / det], [-t2m[1][0] / det, t2m[0][0] / det]]
                tau = [
                    [inv[0][0] * t1m[0][0] + inv[0][1] * t1m[1][0],
                     inv[0][0] * t1m[0][1] + inv[0][1] * t1m[1][1]],
                    [inv[1][0] * t1m[0][0] + inv[1][1] * t1m[1][0],
                     inv[1][0] * t1m[0][1] + inv[1][1] * t1m[1][1]],
                ]
                assert abs(tau[0][1] - tau[1][0]) < 1e-25
                f1, f2, f3 = period_matrix(ob, z)
                assert abs(tau[0][0] - f1) < 1e-25
                assert abs(tau[0][1] - f2) < 1e-25
                assert abs(tau[1][1] - f3) < 1e-25


def test_trace_zero_basis():
    for ob in ORDERS:
        for beta in trace_zero_basis(ob):
            assert beta.trace() == 0
            coords = coordinates_in_basis(ob, beta)
            assert all(c.denominator == 1 for c in coords)
        b1, _, _ = trace_zero_basis(ob)
        assert b1 == Quaternion.of(ob.dn, ob.p, y=1)  # J in both cases


def test_cm_gram_determinant_is_norm():
    rng = random.Random(17)
    for ob in ORDERS:
        b1v, b2v, b3v = trace_zero_basis(ob)
        top = [[r[0], r[1]] for r in cm_singular_gram(ob, 0, 0, 0)[:2]]
        l1, l2 = base_singular_relations(ob)
        assert top == [[l1.disc(), l1.inner(l2)], [l1.inner(l2), l2.disc()]]
        for _ in range(100):
            if ob.kind == "primitive":
                b1, b2, b3 = rng.randint(-9, 9), 2 * rng.randint(-4, 4), 2 * rng.randint(-4, 4)
            else:
                b1, b2, b3 = 2 * rng.randint(-4, 4), rng.randint(-9, 9), 2 * rng.randint(-4, 4)
            gram = cm_singular_gram(ob, b1, b2, b3)
            elt = b1 * b1v + b2 * b2v + b3 * b3v
            assert det(gram) == 4 * elt.norm(), (ob.source.form, b1, b2, b3)


def test_cm_gram_parity_validation_and_zero():
    ob1 = next(o for o in ORDERS if o.kind == "primitive")
    with pytest.raises(ValueError, match="invalid embedding coordinates"):
        cm_singular_gram(ob1, 0, 1, 0)
    ob2 = next(o for o in ORDERS if o.kind == "four_times_primitive")
    with pytest.raises(ValueError, match="invalid embedding coordinates"):
        cm_singular_gram(ob2, 1, 0, 0)
    assert det(cm_singular_gram(ob1, 0, 0, 0)) == 0


def test_singular_relation_disc():
    l = SingularRelation((1, 2, 3, 4, 5))
    assert l.disc() == 4 - 4 * (3 + 20)
    with pytest.raises(ValueError):
        SingularRelation((1, 2, 3))
