"""Golden-output test: stdout and exit status of fixed CLI invocations.

Every case runs ``humbert.cli.main`` in-process and compares its stdout byte
for byte with ``tests/golden/<name>.out``; the exit status is part of the
case.  The ``cohen`` and ``kronecker`` outputs of the benchmark (nmax
2990 .. 3010) and its ``verify`` outputs (the sweep and wide families) are
compared by sha256 with ``bench/reference.json``, which is only read here;
two larger ``verify`` runs, one larger ``kronecker`` run, one larger
``cohen --format json`` run and the ``forms --format json`` runs of every
squarefree D0 <= 1000 are pinned by sha256 in this file.
Refactors of the CLI or of the layers below it must keep these files
unchanged.  To record them afresh (only when an output change is intended):

    python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BENCH_REFERENCE = ROOT / "bench" / "reference.json"
FORMATS = ("text", "json", "csv")


def _case(name, argv, code=0):
    return pytest.param(argv, code, id=name)


CASES = [
    *(_case(f"{name}-{fmt}", [*argv, "--format", fmt])
      for name, argv in (
          ("cohen", ["cohen", "--nmax", "12"]),
          ("hurwitz", ["hurwitz", "12"]),
          ("classnum", ["classnum", "-160"]),
          ("forms", ["forms", "--d0", "30"]),
          ("hdn", ["hdn", "10", "1", "8"]),
          ("verify", ["verify", "--d0", "15", "--nmax", "20"]),
          ("kronecker", ["kronecker", "--nmax", "40"]),
          ("verify-d0-1", ["verify", "--d0", "1", "--nmax", "5"]),
      )
      for fmt in FORMATS),
    _case("verify-form-json",
          ["verify", "--d0", "15", "--nmax", "9", "--form", "8,4,8", "--format", "json"]),
    _case("verify-jobs-json",
          ["verify", "--d0", "15", "--nmax", "20", "--format", "json", "--jobs", "8"]),
    _case("selfcheck", ["selfcheck", "--d0", "10"]),
    # the default D0 list (10, 15, 21, 33), with the four-times form (8,4,8) of D0 = 15
    _case("selfcheck-full", ["selfcheck"]),
    _case("verify-non-squarefree", ["verify", "--d0", "12", "--nmax", "4"], code=2),
]


def run_cli(argv):
    from humbert.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv,code", CASES)
def test_golden_output(request, argv, code):
    expected = (GOLDEN_DIR / f"{request.node.callspec.id}.out").read_bytes()
    got, out = run_cli(argv)
    assert (got, out.encode()) == (code, expected)


@cache
def bench_reference():
    return json.loads(BENCH_REFERENCE.read_text())["outputs"]


def _check_bench_reference(argv):
    expected = bench_reference()[" ".join(argv)]
    code, out = run_cli(argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (expected["exit"], expected["sha256"])


@pytest.mark.parametrize("nmax", range(2990, 3011))
def test_cohen_matches_bench_reference(nmax):
    # the large outputs of the benchmark's cohen workload, by stdout sha256
    _check_bench_reference(["cohen", "--nmax", str(nmax)])


@pytest.mark.parametrize("nmax", range(2990, 3011))
def test_kronecker_matches_bench_reference(nmax):
    # the outputs of the benchmark's kronecker workload, by stdout sha256
    _check_bench_reference(["kronecker", "--nmax", str(nmax)])


@pytest.mark.parametrize("key", sorted(k for k in bench_reference() if k.startswith("verify ")))
def test_verify_matches_bench_reference(key):
    # the verify outputs of the benchmark's sweep and wide workloads, run
    # without the cache file, by stdout sha256
    _check_bench_reference(key.split())


# stdout sha256 of verify inputs that neither the golden files nor the
# benchmark cover, recorded with the per-m level-table loop that
# tests/test_tables.py keeps as level_tables_oracle
VERIFY_PINS = {
    # 31 levels, q = 2 .. 13
    "verify --d0 30030 --nmax 4": "e89eff6804a891afe5def68eca8a0ebc6b6393c5c6a903489d7cfefc1ef72c79",
    # one level at a large argument range
    "verify --d0 6 --nmax 2000": "8f781326f2a173e7243d2b579fda57cb7df1ad9221769eaf52e0be6d764ef0ec",
}


@pytest.mark.parametrize("key", sorted(VERIFY_PINS))
def test_verify_matches_pinned_digest(key):
    code, out = run_cli(key.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, VERIFY_PINS[key])


# stdout sha256 recorded with the per-x theta column slices and the
# per-(a, b) form count that tests/test_tables.py keeps as oracles, and with
# the json document built whole by json.dumps
OTHER_PINS = {
    "kronecker --nmax 20000": "b296b8486a31476d68c4ee40b437eca59ad23d57c2863726e4b972cb0d2dcce4",
    "cohen --nmax 5000 --format json":
        "f0bb450633705c64fc1a6b0074fa8aa35e7a913d0ec651a34b9165ab5b48ac40",
}


@pytest.mark.parametrize("key", sorted(OTHER_PINS))
def test_output_matches_pinned_digest(key):
    code, out = run_cli(key.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, OTHER_PINS[key])


# sha256 of the concatenated stdout of forms --d0 D0 --format json over the
# squarefree D0 <= 1000 in ascending order, recorded with the eligible forms
# merged by bqf.gl2_canonical and flagged by reducing each mirror form
FORMS_JSON_SHA256 = "2367e0cd7d5cffe5baccc7c4fab16a228d90ad7d30000f9831303bdc675137ca"


def test_forms_json_matches_pinned_digest():
    from humbert.arith import is_squarefree

    digest = hashlib.sha256()
    for d0 in filter(is_squarefree, range(1, 1001)):
        code, out = run_cli(["forms", "--d0", str(d0), "--format", "json"])
        assert code == 0, d0
        digest.update(out.encode())
    assert digest.hexdigest() == FORMS_JSON_SHA256


# Per-layer metrics that bench/run.py and bench/child.py add around the tracer.
HARNESS_METRICS = {"cli.cache_bytes", "cli.stdout_bytes", "trace.overhead_s"}

TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
from humbert import cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
for argv in json.loads(sys.argv[3]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(tracer.report()))
"""


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the tracer report")


def test_tracer_reports_every_per_layer_metric(tmp_path):
    # The benchmark's traced run keeps a per-layer metric only while the
    # function it hooks exists undecorated; deleting or wrapping one (a memo
    # decorator, say) drops the metric from the report.
    calls = [["verify", "--d0", "10", "--nmax", "8", "--cache", str(tmp_path / "cache.txt")],
             ["kronecker", "--nmax", "20"],
             ["cohen", "--nmax", "12"]]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "bench"), json.dumps(calls)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    declared = {metric["name"] for metric in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert sorted(declared - HARNESS_METRICS - set(report)) == []
    for name, value in report.items():
        assert type(value) in (int, float) and math.isfinite(value), (name, value)


TRACED_WALK = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from humbert import relations
from humbert.bqf import BQF
from humbert.genus import eligible_forms
from tracer import Tracer
tracer = Tracer()
tracer.install()
for d0, form, n in json.loads(sys.argv[3]):
    relations.lattice_sum(next(f for f in eligible_forms(d0) if f.form == BQF(*form)), n)
print(json.dumps({"report": tracer.report(), "broken": sorted(tracer.broken)}))
"""


def test_tracer_reads_a_lattice_walk(tmp_path):
    # No benchmark workload walks a lattice, so this is the one check that
    # the tracer's hook still fits what relations.lattice_sum returns:
    # (5,0,8) of D0 = 10 at n = 5 visits 26 points with 22 nonzero terms,
    # the four-times form (8,4,8) of D0 = 15 at n = 9 visits 59, all nonzero.
    walks = [[10, [5, 0, 8], 5], [15, [8, 4, 8], 9]]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_WALK, str(ROOT / "src"), str(ROOT / "bench"), json.dumps(walks)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert "relations.lattice_sum" not in result["broken"]
    assert result["report"]["relations.points_visited"] == 85
    assert result["report"]["relations.useful_term_ratio"] == 81 / 85


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        argv, code = case.values
        got, out = run_cli(argv)
        assert got == code, f"{case.id}: exit {got}, expected {code}"
        (GOLDEN_DIR / f"{case.id}.out").write_bytes(out.encode())


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record()
