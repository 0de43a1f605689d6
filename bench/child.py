"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py START_NS TRACE CALLS_JSON

START_NS is the CLOCK_MONOTONIC time in nanoseconds at which run.py started
this process, TRACE is 1 for a traced repetition and 0 otherwise, and
CALLS_JSON is the list of argv lists to run.  The child
imports ``humbert.cli`` from the checkout's ``src`` directory, calls
``cli.main(argv)`` for each argv in order with stdout captured, and prints
one JSON line: the set-up and wall times, and the exit status, sha256 and
size of each call's stdout, plus the per-layer report when traced.

Untraced, a ``speed.SpeedProbe`` samples the CPU speed from before the
import of humbert to the last call's return, and each time is also given in reference seconds (``*_ref_s``).  Traced
repetitions run without it, so that its samples add to no layer.
"""

import os
import sys
import time

from speed import SpeedProbe


def main(probe: SpeedProbe | None) -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from humbert import cli

    imported = time.perf_counter()
    began = int(sys.argv[1]) / 1e9
    setup_s = imported - began

    # Imported after humbert so that setup_s covers only interpreter start-up
    # and the import of humbert.cli.
    import hashlib
    import io
    import json
    import traceback

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: humbert was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if probe is None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    captured = []
    stdout = sys.stdout
    start = time.perf_counter()
    for argv in json.loads(sys.argv[3]):
        sys.stdout = buffer = io.StringIO()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            status = "raised"
            traceback.print_exc()
        finally:
            sys.stdout = stdout
        captured.append((status, buffer.getvalue().encode()))
    end = time.perf_counter()
    wall_s = end - start
    if probe is not None:
        probe.stop()

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "outputs": [[0 if status is None else status, hashlib.sha256(out).hexdigest(), len(out)]
                    for status, out in captured],
    }
    if probe is not None:
        for name, elapsed, begin, finish in (("setup", setup_s, began, imported),
                                             ("wall", wall_s, start, end)):
            measured = probe.reference_s(elapsed, begin, finish)
            if measured is not None:
                result[name + "_s"], result[name + "_ref_s"] = measured
    if tracer is not None:
        result["layers"] = tracer.report()
        result["layers"]["cli.stdout_bytes"] = sum(len(out) for _, out in captured)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[2] == "1":
        sys.exit(main(None))
    speed = SpeedProbe()
    speed.start()
    sys.exit(main(speed))
