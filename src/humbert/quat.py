"""Rational quaternion algebras, explicit Eichler orders, singular relations.

The algebra attached to an eligible form has generators I, J with
I*I = -DN, J*J = p, IJ = -JI, for a prime p represented by the form (or by
its quarter when the form is four times a primitive one).  The explicit
order bases, the rank-2 quadratic form on the orthogonal complement of I,
the singular relations cut out by the order, and the period matrices of the
associated abelian surfaces are all constructed here.  Coordinates over an
order basis are solved by Cramer's rule with the cofactor ``det``;
``build_order`` checks closure under multiplication through them.
Everything is exact rational arithmetic except ``period_matrix_check``,
which evaluates the closed-form period matrix in high-precision floating
complex arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Literal

from . import bqf
from .arith import InternalCheckError, is_prime
from .bqf import BQF
from .genus import EligibleForm

if TYPE_CHECKING:
    import random

    import mpmath as mp

# Searching represented primes past this bound signals a misconfigured form.
PRIME_SEARCH_BOUND = 100_000

PERIOD_TOL = 1e-9
_PERIOD_DPS = 40


@dataclass(frozen=True)
class Quaternion:
    """Element w + x*I + y*J + z*IJ of the algebra with I*I=-dn, J*J=p."""

    dn: int
    p: int
    w: Fraction
    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, dn: int, p: int, w=0, x=0, y=0, z=0) -> "Quaternion":
        return cls(dn, p, Fraction(w), Fraction(x), Fraction(y), Fraction(z))

    def _check(self, other: "Quaternion") -> None:
        if (self.dn, self.p) != (other.dn, other.p):
            raise ValueError("operands live in different quaternion algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(self.dn, self.p, self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(self.dn, self.p, self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.dn, self.p, -self.w, -self.x, -self.y, -self.z)

    def __rmul__(self, c) -> "Quaternion":
        c = Fraction(c)
        return Quaternion(self.dn, self.p, c * self.w, c * self.x, c * self.y, c * self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        dn, p = self.dn, self.p
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        # I*I = -dn, J*J = p, (IJ)*(IJ) = dn*p, IJ = -JI
        return Quaternion(
            dn, p,
            w1 * w2 - dn * x1 * x2 + p * y1 * y2 + dn * p * z1 * z2,
            w1 * x2 + x1 * w2 - p * y1 * z2 + p * z1 * y2,
            w1 * y2 + y1 * w2 - dn * x1 * z2 + dn * z1 * x2,
            w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.dn, self.p, self.w, -self.x, -self.y, -self.z)

    def trace(self) -> Fraction:
        return 2 * self.w

    def norm(self) -> Fraction:
        return (self.w * self.w + self.dn * self.x * self.x
                - self.p * self.y * self.y - self.dn * self.p * self.z * self.z)

    def disc(self) -> Fraction:
        """Discriminant of the element: trace**2 - 4*norm."""
        t = self.trace()
        return t * t - 4 * self.norm()

    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.w, self.x, self.y, self.z)

    def __repr__(self):
        return f"Quaternion(dn={self.dn}, p={self.p}; {self.w} + {self.x} I + {self.y} J + {self.z} IJ)"


def basis_elements(dn: int, p: int) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
    """(1, I, J, IJ) of the algebra with parameters (-dn, p)."""
    return (
        Quaternion.of(dn, p, w=1),
        Quaternion.of(dn, p, x=1),
        Quaternion.of(dn, p, y=1),
        Quaternion.of(dn, p, z=1),
    )


@dataclass(frozen=True)
class SingularRelation:
    """Integer quintuple (c1..c5) imposing
    c1*t1 + c2*t2 + c3*t3 + c4*(t2**2 - t1*t3) + c5 = 0 on a period matrix."""

    c: tuple[int, int, int, int, int]

    def __post_init__(self):
        if len(self.c) != 5 or any(not isinstance(v, int) for v in self.c):
            raise ValueError("singular relation needs five integers")

    def disc(self) -> int:
        c1, c2, c3, c4, c5 = self.c
        return c2 * c2 - 4 * (c1 * c3 + c4 * c5)

    def __add__(self, other: "SingularRelation") -> "SingularRelation":
        return SingularRelation(tuple(a + b for a, b in zip(self.c, other.c)))

    def inner(self, other: "SingularRelation") -> int:
        """Bilinear form of the discriminant: ((self+other).disc - both discs)/2.

        This polarization matches the Gram matrices of the singular-relation
        lattices; it is always an integer.
        """
        num = (self + other).disc() - self.disc() - other.disc()
        assert num % 2 == 0
        return num // 2

    def evaluate(self, t1, t2, t3):
        c1, c2, c3, c4, c5 = self.c
        return c1 * t1 + c2 * t2 + c3 * t3 + c4 * (t2 * t2 - t1 * t3) + c5

    def __repr__(self):
        return f"SingularRelation{self.c}"


@dataclass(frozen=True)
class OrderBasis:
    """Explicit basis (e1..e4) of an Eichler order of level N in the algebra
    of discriminant D attached to an eligible form, with the parameters
    (p, s, t) of ``order_parameters``; ``kind`` is the source form's."""

    source: EligibleForm
    kind: Literal["primitive", "four_times_primitive"]
    p: int
    s: int
    t: int
    e: tuple[Quaternion, Quaternion, Quaternion, Quaternion]

    @property
    def dn(self) -> int:
        return self.source.D * self.source.N


def order_parameters(form: EligibleForm) -> tuple[int, int, int]:
    """Smallest represented prime p (coprime to 2DN) and matching (s, t).

    Primitive case: p is represented by the form itself, s is the smallest
    even s >= 0 with s**2*DN + 1 = 0 mod p, and p*t - s**2*DN = 1.
    Four-times case: p is represented by the quarter form, s is the smallest
    odd s > 0 with s**2*DN + 1 = 0 mod 4p, and 4*p*t - s**2*DN = 1.
    """
    dn = form.D * form.N
    q = form.character_form
    p = None
    candidate = 2
    while candidate <= PRIME_SEARCH_BOUND:
        if is_prime(candidate) and (2 * dn) % candidate != 0:
            if bqf.represent(q, candidate) is not None:
                p = candidate
                break
        candidate += 1
    if p is None:
        raise ValueError("no represented prime found below search bound")
    if form.kind == "primitive":
        assert p % 4 == 1
        for s in range(0, 2 * p, 2):
            if (s * s * dn + 1) % p == 0:
                return p, s, (s * s * dn + 1) // p
    else:
        for s in range(1, 4 * p, 2):
            if (s * s * dn + 1) % (4 * p) == 0:
                return p, s, (s * s * dn + 1) // (4 * p)
    raise InternalCheckError("inconsistent parameters: no admissible s below 4p")


def det(m):
    """Exact determinant of a square matrix by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j in range(len(m)):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def coordinates_in_basis(ob: OrderBasis, q: Quaternion) -> tuple[Fraction, ...]:
    """Coordinates of q over the order basis, exact by Cramer's rule: the
    j-th is det of the basis rows with row j replaced by q, over det of the
    basis rows."""
    rows = [e.coords() for e in ob.e]
    volume = det(rows)
    if volume == 0:
        raise InternalCheckError("order construction inconsistent: singular basis")
    return tuple(Fraction(det(rows[:j] + [q.coords()] + rows[j + 1:]), volume) for j in range(4))


def build_order(form: EligibleForm) -> OrderBasis:
    """Construct the explicit Eichler order basis for an eligible form.

    Closure under multiplication (every product of basis elements has integer
    coordinates over the basis) is verified before returning.
    """
    p, s, t = order_parameters(form)
    dn = form.D * form.N
    one, i_, j_, k_ = basis_elements(dn, p)
    if form.kind == "primitive":
        e = (
            one,
            Fraction(1, 2) * (one + j_),
            Fraction(1, 2) * (i_ + k_),
            Fraction(1, p) * (Fraction(s * dn) * j_ + k_),
        )
    else:
        e = (
            one,
            Fraction(1, 2) * (one + i_),
            j_,
            Fraction(1, 2 * p) * (Fraction(s * dn) * j_ + k_),
        )
    ob = OrderBasis(source=form, kind=form.kind, p=p, s=s, t=t, e=e)
    for a in e:
        for b in e:
            if any(coord.denominator != 1 for coord in coordinates_in_basis(ob, a * b)):
                raise InternalCheckError("order construction inconsistent: not closed under multiplication")
    return ob


def reduced_discriminant(ob: OrderBasis) -> int:
    """Square root of |det(tr(e_i * conj(e_j)))|; equals D*N for an Eichler order."""
    t = [[(a * b.conjugate()).trace() for b in ob.e] for a in ob.e]
    d = det(t)
    assert d.denominator == 1
    root = math.isqrt(abs(int(d)))
    assert root * root == abs(int(d))
    return root


def order_form(ob: OrderBasis) -> BQF:
    """The discriminant form disc(alpha*x + beta*y) on the rank-2 complement.

    Computed symbolically from traces and norms; GL(2,Z)-equivalent to the
    source form.
    """
    # basis of the rank-2 lattice (orthogonal complement of I in the order, mod Z)
    alpha, beta = (ob.e[1] if ob.kind == "primitive" else ob.e[2]), ob.e[3]
    a = alpha.disc()
    c = beta.disc()
    b = (alpha + beta).disc() - a - c
    assert a.denominator == c.denominator == b.denominator == 1
    return BQF(int(a), int(b), int(c))


def base_singular_relations(ob: OrderBasis) -> tuple[SingularRelation, SingularRelation]:
    """The two singular relations satisfied by every period matrix of the curve."""
    dn, p, s, t = ob.dn, ob.p, ob.s, ob.t
    if ob.kind == "primitive":
        if (1 - p) % 4 != 0:
            raise ValueError("inconsistent parameters: p must be 1 mod 4")
        l1 = SingularRelation((1, 1, (1 - p) // 4, 0, 0))
        l2 = SingularRelation((0, 2 * s * dn, 0, 1, dn * (s * s * dn - t)))
    else:
        if (1 + s * dn) % 2 != 0:
            raise ValueError("inconsistent parameters: s*DN must be odd")
        l1 = SingularRelation((1, 0, -p, 0, -(1 + s * dn) // 2))
        l2 = SingularRelation((0, 0, (1 - s * dn) // 2, 1, -t * dn))
    return l1, l2


def bordered_gram(ob: OrderBasis, n: int, u: int, v: int) -> list[list[int]]:
    """Gram matrix of (l1, l2) bordered by (u, v) and corner n.

    Its determinant is 4*DN*n - Q(v, -u) for the order form Q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    l1, l2 = base_singular_relations(ob)
    a = l1.disc()
    b = l1.inner(l2)
    c = l2.disc()
    return [[a, b, u], [b, c, v], [u, v, n]]


def trace_zero_basis(ob: OrderBasis) -> tuple[Quaternion, Quaternion, Quaternion]:
    """Basis (b1, b2, b3) of the trace-zero elements of the order."""
    one = ob.e[0]
    two_e2_minus_one = ob.e[1] + ob.e[1] - one
    if ob.kind == "primitive":
        return (two_e2_minus_one, ob.e[2], ob.e[3])   # J, (I+IJ)/2, (sDN J + IJ)/p
    return (ob.e[2], two_e2_minus_one, ob.e[3])       # J, I, (sDN J + IJ)/2p


def cm_singular_gram(ob: OrderBasis, b1: int, b2: int, b3: int) -> list[list[Fraction]]:
    """Gram matrix of the singular-relation lattice of a CM-point whose
    trace-zero coordinates are (b1, b2, b3).

    Parity constraints: b2, b3 even in the primitive case; b1, b3 even in the
    four-times case.  The determinant equals 4 * nr(b1*B1 + b2*B2 + b3*B3)
    for the trace-zero basis (B1, B2, B3).
    """
    dn, p, s, t = ob.dn, ob.p, ob.s, ob.t
    if ob.kind == "primitive":
        if b2 % 2 or b3 % 2:
            raise ValueError("invalid embedding coordinates: b2, b3 must be even")
        row3 = [-b2 * p // 2 - b3, 2 * b1 - b2 * s * dn, Fraction(b2 * b2, 4)]
        top = [[p, 2 * s * dn], [2 * s * dn, 4 * t * dn]]
    else:
        if b1 % 2 or b3 % 2:
            raise ValueError("invalid embedding coordinates: b1, b3 must be even")
        row3 = [-b3, b1, Fraction(b2 * b2)]
        top = [[4 * p, 2 * s * dn], [2 * s * dn, 4 * t * dn]]
    return [
        [Fraction(top[0][0]), Fraction(top[0][1]), Fraction(row3[0])],
        [Fraction(top[1][0]), Fraction(top[1][1]), Fraction(row3[1])],
        [Fraction(row3[0]), Fraction(row3[1]), Fraction(row3[2])],
    ]


@dataclass(frozen=True)
class PeriodCheck:
    ok: bool
    max_residual: float


def period_matrix(ob: OrderBasis, z) -> tuple[mp.mpc, mp.mpc, mp.mpc]:
    """Entries (t1, t2, t3) of the normalized period matrix at a point z in
    the upper half-plane, from the closed formulas for each order kind."""
    import mpmath as mp  # only the period checks need it; kept off the import path

    dn, p, s = ob.dn, ob.p, ob.s
    zz = mp.mpc(z)
    if mp.im(zz) <= 0:
        raise ValueError("z must lie in the upper half-plane")
    sp = mp.sqrt(p)
    if ob.kind == "primitive":
        eps = (1 + sp) / 2
        epsb = (1 - sp) / 2
        pref = 1 / (p * zz)
        t1 = pref * (-epsb**2 + mp.mpf((p - 1) * s * dn) / 2 * zz + dn * eps**2 * zz**2)
        t2 = pref * (epsb - (p - 1) * s * dn * zz - dn * eps * zz**2)
        t3 = pref * (-1 - 2 * s * dn * zz + dn * zz**2)
    else:
        pref = 1 / (4 * zz)
        t1 = pref * (dn * zz**2 + 2 * zz - 1)
        t2 = pref * (-(dn * zz**2 + 1) / sp)
        t3 = pref * (dn * zz**2 - 2 * s * dn * zz - 1) / p
    return t1, t2, t3


def period_matrix_check(ob: OrderBasis, z) -> PeriodCheck:
    """Check that the period matrix at z satisfies both base singular
    relations within PERIOD_TOL and that its imaginary part is positive definite."""
    import mpmath as mp

    with mp.workdps(_PERIOD_DPS):
        t1, t2, t3 = period_matrix(ob, z)
        l1, l2 = base_singular_relations(ob)
        residuals = [abs(l.evaluate(t1, t2, t3)) for l in (l1, l2)]
        im11, im12, im22 = mp.im(t1), mp.im(t2), mp.im(t3)
        tr = im11 + im22
        dt = im11 * im22 - im12 * im12
        lam_min = (tr - mp.sqrt(tr * tr - 4 * dt)) / 2
        max_residual = float(max(residuals))
        ok = max_residual < PERIOD_TOL and lam_min > -PERIOD_TOL
    return PeriodCheck(ok=ok, max_residual=max_residual)


def check_order(form: EligibleForm, rng: random.Random) -> tuple[list[str], float]:
    """Check the order of an eligible form; return the problems found and the
    largest period residual.

    Checks closure (in ``build_order``), reduced discriminant D*N, the order
    form GL(2,Z)-equivalent to the source, the bordered Gram determinant
    4*DN*n - Q(v, -u) for n in (1, 2, 3, 5) and |u|, |v| <= 3, the base
    singular relations of the period matrix at 20 points z drawn from rng,
    and the CM-point Gram determinant 4*nr(b) at 20 trace-zero coordinates
    b drawn from rng.
    """
    ob = build_order(form)
    problems = []
    if reduced_discriminant(ob) != ob.dn:
        problems.append("reduced discriminant != D*N")
    q = order_form(ob)
    if bqf.gl2_canonical(q) != form.form:
        problems.append("order form not GL2-equivalent to source")
    for n in (1, 2, 3, 5):
        for u in range(-3, 4):
            for v in range(-3, 4):
                if det(bordered_gram(ob, n, u, v)) != 4 * ob.dn * n - q(v, -u):
                    problems.append(f"det identity fails at (n,u,v)=({n},{u},{v})")
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.2, 2.0))
        check = period_matrix_check(ob, z)
        worst = max(worst, check.max_residual)
        if not check.ok:
            problems.append(f"period residual {check.max_residual:.3e} at z={z}")
            break
    bb1, bb2, bb3 = trace_zero_basis(ob)
    for _ in range(20):
        # the parity constraints of cm_singular_gram
        if ob.kind == "primitive":
            b1, b2, b3 = rng.randrange(-6, 7), 2 * rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)
        else:
            b1, b2, b3 = 2 * rng.randrange(-3, 4), rng.randrange(-6, 7), 2 * rng.randrange(-3, 4)
        elt = b1 * bb1 + b2 * bb2 + b3 * bb3
        if det(cm_singular_gram(ob, b1, b2, b3)) != 4 * elt.norm():
            problems.append(f"cm gram determinant mismatch at b=({b1},{b2},{b3})")
            break
    return problems, worst
