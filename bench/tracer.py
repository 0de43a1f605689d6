"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install`` replaces every public function of the measured humbert
modules (the layers) with a wrapper, at every module that binds it: a name
imported with ``from .bqf import hurwitz`` is wrapped in the importing module
as well as in ``bqf``.  Calls between layers go through those bindings, so
each one opens a span.  A layer's self time is its span time minus the time
of the spans of other layers opened inside it; time in the standard library
(``fractions``, ``math``) counts toward the layer that called it.  A call
within one layer only counts, unless its function is listed in ``FRAMED``.

Nothing private is touched: no memo dict is read or cleared, because every
repetition runs in a fresh interpreter.  A metric whose function no longer
exists, or whose hook no longer fits the function's arguments or result,
is left out of the report instead of failing.  The tracer is not
thread-safe; the benchmark runs the CLI with one thread.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "humbert"

# quat is not measured: only the selfcheck command reaches it.
LAYERS = ("cli", "relations", "shimura", "bqf", "genus", "arith", "qseries")

# Functions whose every call is timed on its own, so that per-call durations
# are recorded.
INCLUSIVE = ("relations.verification_row", "cli.load_cache", "cli.save_cache")

# Functions that always open a span, so that a callee can see them as its
# caller (a reduced_forms call made by class_number is a class-number miss).
FRAMED = INCLUSIVE + ("bqf.class_number",)

# Count metrics of single functions: metric name -> wrapped function.
FUNCTION_CALLS = {
    "shimura.wcn.calls": "shimura.weighted_class_number",
    "shimura.cm_point_count.calls": "shimura.cm_point_count",
    "bqf.class_number.calls": "bqf.class_number",
    "bqf.reduced_forms.calls": "bqf.reduced_forms",
    "bqf.hurwitz.calls": "bqf.hurwitz",
    "arith.factor.calls": "arith.factor",
    "qseries.mul.calls": "qseries.mul",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.stack: list[list] = []  # open spans: [layer, function, child seconds]
        self.present: set[str] = set()
        self.broken: set[str] = set()  # functions whose hook raised
        self.points_visited = 0
        self.useful_terms = 0
        self.class_numbers_computed = 0
        self.factor_arguments: set[int] = set()
        self.kernel_ops = 0

    # -- hooks on single functions -------------------------------------------

    def _before_reduced_forms(self, args, kwargs) -> None:
        if self.stack and self.stack[-1][1] == "bqf.class_number":
            self.class_numbers_computed += 1

    def _before_factor(self, args, kwargs) -> None:
        self.factor_arguments.add(args[0] if args else kwargs["n"])

    def _before_mul(self, args, kwargs) -> None:
        # The Cauchy product of two series truncated to n terms runs the inner
        # loop n*(n+1)/2 times; this count is computed from the arguments.
        n = min(len(s.coeffs) for s in args[:2])
        self.kernel_ops += n * (n + 1) // 2

    def _after_lattice_sum(self, result) -> None:
        self.points_visited += result.points_visited
        self.useful_terms += result.nonzero_interior_terms + result.boundary_terms

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        before = {
            "bqf.reduced_forms": self._before_reduced_forms,
            "arith.factor": self._before_factor,
            "qseries.mul": self._before_mul,
        }
        after = {"relations.lattice_sum": self._after_lattice_sum}
        wrappers: dict[types.FunctionType, types.FunctionType] = {}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if package != PACKAGE or layer not in LAYERS or value.__name__.startswith("_"):
                    continue
                if value not in wrappers:
                    name = f"{layer}.{value.__name__}"
                    self.present.add(name)
                    wrappers[value] = self._wrap(value, layer, name,
                                                 before.get(name), after.get(name))
                setattr(module, attr, wrappers[value])

    def _wrap(self, fn, layer, name, before, after):
        calls, stack, self_s = self.calls, self.stack, self.self_s
        framed = name in FRAMED
        durations = self.durations[name] if name in INCLUSIVE else None
        clock = time.perf_counter

        def hook(function, *hook_args):
            try:
                function(*hook_args)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self.broken.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None and name not in self.broken:
                hook(before, args, kwargs)
            if not framed and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                span = [layer, name, 0.0]
                stack.append(span)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[layer] += elapsed - span[2]
                    if stack:
                        stack[-1][2] += elapsed
                    if durations is not None:
                        durations.append(elapsed)
            if after is not None and name not in self.broken:
                hook(after, result)
            return result

        return wrapper

    # -- report ----------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics; those whose functions are absent are left out.

        A layer that is never called reports zero calls and zero seconds.
        """
        metrics: dict[str, float] = {}

        def usable(*functions):
            return all(f in self.present and f not in self.broken for f in functions)

        def ratio(metric, numerator, denominator, *functions):
            # With no attempts nothing was wasted: the ratio reads 1.
            if usable(*functions):
                metrics[metric] = numerator / denominator if denominator else 1.0

        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self.self_s[layer]
            metrics[f"{layer}.calls"] = sum(
                count for name, count in self.calls.items() if name.startswith(layer + "."))
        for metric, function in FUNCTION_CALLS.items():
            if function in self.present:
                metrics[metric] = self.calls[function]
        if usable("relations.verification_row"):
            rows = self.durations["relations.verification_row"]
            metrics["relations.rows"] = len(rows)
            metrics["relations.row_p50_s"] = statistics.median(rows) if rows else 0.0
            metrics["relations.row_max_s"] = max(rows, default=0.0)
        if usable("relations.lattice_sum"):
            metrics["relations.points_visited"] = self.points_visited
            ratio("relations.useful_term_ratio", self.useful_terms, self.points_visited,
                  "relations.lattice_sum")
        computed = self.class_numbers_computed
        ratio("bqf.class_number.hit_ratio", self.calls["bqf.class_number"] - computed,
              self.calls["bqf.class_number"], "bqf.class_number", "bqf.reduced_forms")
        ratio("arith.factor.distinct_ratio", len(self.factor_arguments),
              self.calls["arith.factor"], "arith.factor")
        if usable("qseries.mul"):
            metrics["qseries.kernel_ops"] = self.kernel_ops
        for function, metric in (("cli.load_cache", "cli.cache_load_s"),
                                 ("cli.save_cache", "cli.cache_save_s")):
            if usable(function):
                metrics[metric] = sum(self.durations[function], 0.0)
        return metrics
