"""Record reference.json: the exit status and stdout sha256 of every CLI
invocation that any seed of any workload can make.

Usage (from the root of a checkout, on the code the references come from):

    python3 bench/record.py

Each invocation runs alone in a fresh interpreter, so a reference never
depends on memos or on a cache file filled by earlier calls; the benchmark
makes the same calls in sequence and must reproduce these outputs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys
import tempfile

from run import REFERENCE, ROOT, spawn
from workloads import CACHE, WORKLOADS, call_key


def main() -> int:
    outputs = {}
    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        cache = os.path.join(work, "classnum.cache")
        for workload in WORKLOADS.values():
            for argv in workload.family:
                if os.path.exists(cache):
                    os.unlink(cache)
                rep = spawn([[cache if a == CACHE else a for a in argv]], False, work, 600)
                if rep.record is None:
                    print(rep.log, file=sys.stderr)
                    return 1
                status, digest, size = rep.record["outputs"][0]
                outputs[call_key(argv)] = {"exit": status, "sha256": digest, "bytes": size}
                print(f"{call_key(argv)}: exit {status}, {size} bytes", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"python": platform.python_version(), "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
