"""The Cohen coefficients a_n, by a divisor sieve and the theta-row kernel.

``cohen_coefficients`` gives the coefficients of the weight-5/2 combination
theta**5 - 20*theta*eta(4z)**8/eta(2z)**4 from the divisor sieve of
``arith.sigma_table`` and the theta-row kernel ``arith.theta_rows``, both
shared with ``relations``.  No series is multiplied: the q-series algebra
that builds the same product term by term lives in the tests as the
oracle.  nmax past ``arith.COHEN_BOUND`` is rejected with ValueError before
any work (exit 2 from the CLI).
"""

from __future__ import annotations

import math

from .arith import COHEN_BOUND, sigma_table, theta_rows


def mul(f, g):
    """Not part of the library; raises NotImplementedError.

    The name stays only as the hook point of the ``qseries.mul.*`` metrics of
    bench/tracer.py, until ROADMAP item 1 drops them.  The series product is
    the tests' oracle, ``mul`` in tests/test_qseries.py."""
    raise NotImplementedError("qseries.mul is not part of the library: the q-series "
                              "algebra is the oracle in tests/test_qseries.py")


def cohen_coefficients(nmax: int) -> list[int]:
    """Coefficients a_0 .. a_nmax of theta**5 - 20*theta*eta(4z)**8/eta(2z)**4.

    Dividing by 120 gives Cohen's weight-5/2 Eisenstein series; the integer
    coefficients are the multipliers in the class-number relations.  With
    Jacobi's r_4(m) = 8 * sum of the d | m with 4 not dividing d, and
    eta(4z)**8/eta(2z)**4 = sum over odd m of sigma(m) q**m, the series is
    theta * g for g(m) = r_4(m) - 20*sigma(m)*[m odd], g(0) = 1: sigma from
    ``arith.sigma_table``, then a_n = g(n) + 2 * sum over x >= 1 of
    g(n - x**2), the rows of theta times g (``arith.theta_rows``).
    Rejects nmax > arith.COHEN_BOUND before any work.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if nmax > COHEN_BOUND:
        raise ValueError(f"input too large: nmax = {nmax} exceeds the Cohen bound {COHEN_BOUND}")
    g = sigma_table(nmax)
    root = math.isqrt(nmax)
    # sigma, then g in place: -12*sigma(m) at odd m, 8*sigma(m) at m = 2 mod 4
    # and 8*sigma(m) - 32*sigma(m/4) at m = 0 mod 4, done first as it reads sigma
    g[4::4] = [8 * s - 32 * t for s, t in zip(g[4::4], g[1:nmax // 4 + 1])]
    g[2::4] = [8 * s for s in g[2::4]]
    g[1::2] = [-12 * s for s in g[1::2]]
    g[0] = 1
    return theta_rows(g, [x * x for x in range(root + 1)], [1] + [2] * root,
                      range(nmax + 1))
