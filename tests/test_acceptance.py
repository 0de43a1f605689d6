"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them).  All
comparisons of rational quantities are exact.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from humbert import bqf, quat, relations
from humbert.arith import is_squarefree
from humbert.bqf import hurwitz
from humbert.genus import eligible_forms
from humbert.qseries import cohen_coefficients
from humbert.shimura import ShimuraLevel, weighted_class_number

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_cohen_coefficients():
    t0 = time.monotonic()
    coeffs = cohen_coefficients(12)
    elapsed = time.monotonic() - t0
    expected = [1, -10, 0, 0, -70, -48, 0, 0, -120, -250, 0, 0, -240]
    ok = coeffs == expected and elapsed < 1.0
    report(1, ok, f"cohen_coefficients(12) == {expected} in {elapsed:.3f}s")


def test_acceptance_2_hurwitz_kronecker_relation():
    t0 = time.monotonic()
    rows = relations.verify_kronecker(1000)
    elapsed = time.monotonic() - t0
    ok = len(rows) == 1000 and all(r.match for r in rows) and elapsed < 30.0
    report(2, ok, f"Hurwitz-Kronecker relation exact for n = 1..1000 in {elapsed:.1f}s")


def test_acceptance_3_relation_sweep():
    t0 = time.monotonic()
    rows = 0
    failures = []
    for d0 in range(1, 31):
        if not is_squarefree(d0):
            continue
        rep = relations.verify_relation(d0, 100)
        rows += len(rep.rows)
        failures += [r for r in rep.rows if not r.match]
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 600.0
    report(3, ok, f"relation exact for all {rows} rows over squarefree D0 <= 30, "
                  f"n <= 100, in {elapsed:.1f}s")


def test_acceptance_4_worked_instance():
    form = next(f for f in eligible_forms(10) if f.form == bqf.BQF(5, 0, 8))
    stats = relations.lattice_sum(form, 1)
    rhs = relations.verification_row(form, 1).rhs
    ok = (stats.value == rhs == Fraction(10, 3)
          and stats.nonzero_interior_terms == 6
          and stats.boundary_terms == 0)
    report(4, ok, f"D0=10, 5x^2+8y^2, n=1: lhs = rhs = {stats.value}, "
                  f"{stats.nonzero_interior_terms} interior terms, "
                  f"{stats.boundary_terms} boundary terms")


def test_acceptance_5_quaternion_order_suite():
    rng = random.Random(20240901)
    checked = 0
    worst = 0.0
    for d0 in (10, 15, 21, 26, 33):
        for form in eligible_forms(d0):
            if form.D == 1:
                continue
            problems, residual = quat.check_order(form, rng)
            assert not problems, (form, problems)
            worst = max(worst, residual)
            checked += 1
    ok = checked >= 6 and worst < 1e-9
    report(5, ok, f"order suite over D0 in (10,15,21,26,33): {checked} forms, "
                  f"max period residual {worst:.2e}")


def test_acceptance_6_specialization_to_hurwitz():
    level = ShimuraLevel(1, 1)
    bad = [m for m in range(0, 501) if weighted_class_number(level, m) != hurwitz(m)]
    report(6, not bad, "weighted class number at (D,N)=(1,1) equals H(m) for 0 <= m <= 500")


def _run_cli(*argv, env_extra=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("HUMBERT_CACHE", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "humbert", *argv],
        capture_output=True, env=env,
    )
    return proc.returncode, proc.stdout


def test_acceptance_7_determinism(tmp_path):
    args = ("verify", "--d0", "10", "--nmax", "100", "--jobs", "8")
    rc1, out1 = _run_cli(*args)
    rc2, out2 = _run_cli(*args)
    cache = tmp_path / "cache.txt"
    rc3, out3 = _run_cli(*args, "--cache", str(cache))
    rc4, out4 = _run_cli(*args, "--cache", str(cache))   # the first left nothing to read
    ok = (rc1 == rc2 == rc3 == rc4 == 0
          and out1 == out2 == out3 == out4
          and len(out1) > 0)
    report(7, ok, "two verify runs with --jobs 8 byte-identical, with and without cache")
