"""Outside-in tracing of restime: wrap public functions, record spans, derive self time.

A Tracer replaces each named function with a wrapper in every restime
module namespace that holds it, so a caller that bound the function by name
(`from .taylor import generate_expression`) is traced as well as one that
looks it up on the module.  Classes are traced through their `__init__`.
`uninstall` puts every original object back.

Spans are kept in memory as [name, start_ns, end_ns, parent, hidden_ns].
A span's self time is its duration minus its children's durations and
minus `hidden_ns`, the time the tracer itself spent counting inside it.
Tracing assumes one thread; run threaded code with the tracer uninstalled.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable

# span name -> (module defining it, attribute path); the span's layer is its prefix
TRACED = {
    "cli": ("restime.cli", "main"),
    "trace.parse_traces": ("restime.trace", "parse_traces"),
    "trace.filter_transient_escapes": ("restime.trace", "filter_transient_escapes"),
    "trace.extract_residences": ("restime.trace", "extract_residences"),
    "trace.collect_sample": ("restime.trace", "collect_sample"),
    "trace.write_steps_csv": ("restime.trace", "write_steps_csv"),
    "trace.read_steps_csv": ("restime.trace", "read_steps_csv"),
    "core.ResidenceSample": ("restime.core", "ResidenceSample.__init__"),
    "core.format_rational": ("restime.core", "format_rational"),
    "moments.sample_moments": ("restime.moments", "sample_moments"),
    "moments.exact_moments": ("restime.moments", "exact_moments"),
    "taylor.generate_expression": ("restime.taylor", "generate_expression"),
    "taylor.evaluate_expression": ("restime.taylor", "evaluate_expression"),
    "taylor.evaluate_expression_batch": ("restime.taylor", "evaluate_expression_batch"),
    "estimators.build_report": ("restime.estimators", "build_report"),
    "estimators.var_mrt_ratio": ("restime.estimators", "var_mrt_ratio"),
    "estimators.var_mrt_taylor": ("restime.estimators", "var_mrt_taylor"),
    "estimators.var_mean_residence": ("restime.estimators", "var_mean_residence"),
    "mc.replicate_stream": ("restime.mc", "replicate_stream"),
    "mc.run_experiment": ("restime.mc", "run_experiment"),
    "mc.exact_variance_small": ("restime.mc", "exact_variance_small"),
}


def _runs(bits) -> int:
    """Number of maximal 1-runs in a 0/1 sequence."""
    if not bits:
        return 0
    return bytes(bits).count(b"\x00\x01") + (bits[0] == 1)


def _count_parse(counts, args, kwargs, result):
    counts["trace.traces"] += len(result)
    counts["trace.bits"] += sum(len(t.bits) for t in result)


def _count_filter(counts, args, kwargs, result):
    # every bridged gap joins two runs into one
    counts["trace.bridged_gaps"] += _runs(args[0].bits) - _runs(result.bits)


def _count_extract(counts, args, kwargs, result):
    trace, policy = args[0], args[1] if len(args) > 1 else kwargs["policy"]
    counts["trace.residences"] += len(result)
    if policy.boundary == "drop":
        counts["trace.censored_runs"] += _runs(trace.bits) - len(result)


def _count_generate(counts, args, kwargs, result):
    # the highest order generated in a job names its expression
    if result.order >= counts["taylor.order"]:
        counts["taylor.order"] = result.order
        counts["taylor.terms"] = len(result.terms)


COUNTERS: dict[str, Callable] = {
    "trace.parse_traces": _count_parse,
    "trace.filter_transient_escapes": _count_filter,
    "trace.extract_residences": _count_extract,
    "taylor.generate_expression": _count_generate,
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder that can be installed over, and removed from, restime."""

    def __init__(
        self,
        traced: dict[str, tuple[str, str]] = TRACED,
        counters: dict[str, Callable] = COUNTERS,
        clock: Callable[[], int] = time.perf_counter_ns,
        package: str = "restime",
    ):
        self.traced = traced
        self.counters = counters
        self.clock = clock
        self.package = package
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = self.counters.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            idx = len(self.spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            self.spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
                if stack:
                    self.spans[stack[-1]][4] += clock() - span[2]
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of each traced object inside the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        modules = [m for n, m in sorted(sys.modules.items()) if n == pkg or n.startswith(pkg + ".")]
        for name, (module, path) in self.traced.items():
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[list]) -> dict[str, tuple[int, int]]:
    """Per span name: (summed self time in ns, number of calls)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, hidden in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for i, (name, start, end, parent, hidden) in enumerate(spans):
        acc = out[name]
        acc[0] += end - start - child_ns[i] - hidden
        acc[1] += 1
    return {name: (ns, calls) for name, (ns, calls) in out.items()}
