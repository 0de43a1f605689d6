"""Benchmark of the humbert CLI: one workload, one seed, a fixed time budget.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Every repetition runs the workload's CLI invocations in a fresh interpreter
(``child.py``), so module-level memos start empty as they do for a CLI user.
Repetitions run one after another, at least three, and no new one starts
when it would be expected to end after ``--seconds``.  Each invocation's
exit status and stdout sha256 are checked against ``reference.json``,
recorded from the seed code by ``record.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (CLI invocations; failed/attempted is the fail
ratio) and ``metrics``: with ``--trace 0`` the end-to-end metrics, medians
over the repetitions with times in reference seconds (``speed.py``), and
with ``--trace 1`` the per-layer medians from traced repetitions.  The line
before it records the inputs, the machine and every sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

from workloads import CACHE, WORKLOADS, call_key

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
REFERENCE = os.path.join(BENCH, "reference.json")

MIN_REPS = 3
SETUP_PROBES = 9
# A run must end within 180 s: no repetition starts after this many seconds,
# and a repetition still running at the limit is killed and counted as failed.
START_LIMIT_S = 120
KILL_LIMIT_S = 165


class Rep(NamedTuple):
    """The outcome of one child process; ``record`` is None when it failed."""

    record: dict | None
    peak_rss_mb: float
    log: str


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def spawn(calls: list[list[str]], trace: bool, work: str, timeout_s: float) -> Rep:
    """Run child.py once and collect its JSON line and its peak RSS."""
    out_path, err_path = os.path.join(work, "child.out"), os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, CHILD, str(start_ns), "1" if trace else "0",
                                 json.dumps(calls)], stdout=out, stderr=err, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        log = fh.read()
    record = None
    if proc.returncode == 0 and lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if record is None:
        log += f"\nchild exited with status {proc.returncode}"
    return Rep(record, rusage.ru_maxrss / 1024, log)


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def check(rep: Rep, keys: list[str], references: dict) -> int:
    """Number of the repetition's invocations whose status or stdout differ
    from the reference; every invocation fails when the child failed."""
    outputs = rep.record["outputs"] if rep.record else []
    if len(outputs) != len(keys):
        return len(keys)
    failed = 0
    for key, (status, digest, _) in zip(keys, outputs):
        ref = references[key]
        if status != ref["exit"] or digest != ref["sha256"]:
            failed += 1
    return failed


def median_metrics(samples: list[dict]) -> dict:
    names = set.intersection(*(set(s) for s in samples)) if samples else set()
    return {name: statistics.median(s[name] for s in samples) for name in sorted(names)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.monotonic()
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the work directory removed.
    signal.signal(signal.SIGTERM, _terminate)

    if not os.path.isfile(os.path.join(ROOT, "src", "humbert", "cli.py")):
        print(f"error: no humbert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        references = json.load(fh)["outputs"]
    template = WORKLOADS[args.workload].inputs(args.seed)
    keys = [call_key(argv) for argv in template]
    missing = [key for key in keys if key not in references]
    if missing:
        print(f"error: no reference output for {missing}", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        cache = os.path.join(work, "classnum.cache")
        calls = [[cache if a == CACHE else a for a in argv] for argv in template]

        def repetition(trace: bool) -> Rep:
            if os.path.exists(cache):
                os.unlink(cache)
            rep = spawn(calls, trace, work, KILL_LIMIT_S - (time.monotonic() - begin))
            if rep.record and trace:
                rep.record["layers"]["cli.cache_bytes"] = (
                    os.path.getsize(cache) if os.path.exists(cache) else 0)
            return rep

        probes = []  # children that only import humbert.cli
        if not args.trace:
            spawn([], False, work, 60)  # warm-up: writes the bytecode caches
            for _ in range(SETUP_PROBES):
                probe = spawn([], False, work, 60)
                if probe.record:
                    probes.append(probe.record)

        plain, traced = [], []
        attempted = failed = 0
        start = time.monotonic()
        rounds = []  # seconds taken by each round of repetitions
        while True:
            began = time.monotonic()
            for trace in (False, True) if args.trace else (False,):
                rep = repetition(trace)
                attempted += len(keys)
                bad = check(rep, keys, references)
                failed += bad
                if bad:
                    sys.stderr.write(rep.log)
                if rep.record:
                    (traced if trace else plain).append(rep)
            now = time.monotonic()
            rounds.append(now - began)
            # Stop before a round that would end past the budget, so that a
            # run lasts about --seconds whatever the length of a repetition.
            upcoming = statistics.median(rounds)
            full = len(plain) >= MIN_REPS and now - start + upcoming > args.seconds
            if full or now - begin + max(rounds) > START_LIMIT_S or failed == attempted:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r.record for r in plain]
    # Reference seconds (speed.py) are the end-to-end times; the wall-clock
    # times are recorded with them as raw_*.
    samples = {
        "wall_s": [r["wall_ref_s"] for r in records if "wall_ref_s" in r],
        "setup_s": [r["setup_ref_s"] for r in probes + records if "setup_ref_s" in r],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
        "raw_wall_s": [r["wall_s"] for r in records],
        "raw_setup_s": [r["setup_s"] for r in probes + records],
    }
    if args.trace:
        layers = median_metrics([r.record["layers"] for r in traced])
        # Everything but a time is a count or a ratio of counts and must repeat.
        counts = [name for name in layers if not name.endswith("_s")]
        if any(r.record["layers"][n] != layers[n] for r in traced for n in counts):
            print("warning: counts differ between traced repetitions", file=sys.stderr)
        if plain and traced:
            layers["trace.overhead_s"] = (min(r.record["wall_s"] for r in traced)
                                          - min(samples["raw_wall_s"]))
        values = layers
    else:
        values = {name: statistics.median(samples[name])
                  for name in ("wall_s", "setup_s", "peak_rss_mb") if samples[name]}
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "inputs": keys,
        "machine": machine(), "repetitions": len(plain), "traced_repetitions": len(traced),
        "fail_ratio": failed / attempted,
        "medians": {name: statistics.median(v) for name, v in samples.items() if v},
        "samples": samples,
    }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
