"""Traced run of one workload job, in a fresh interpreter.

Usage: python3 perfbench/child.py REQUEST.json RESULT.json

The request names the job's argv, the measuring budget in seconds and,
for `mc` jobs, the argv of the same job with two threads.  The child runs
the job once traced while restime is cold (the series cache is empty),
then alternates untraced and traced warm calls until the budget is spent.
The result holds every timing, per-call span self times and counters, and
the SHA-256 of every output; the cold output is left in the work directory
for the parent's oracle.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import harness
import spans
from workloads import sha256


def _job(res: harness.Result) -> dict:
    return {"seconds": res.seconds, "failure": res.failure(), "sha256": sha256(res.stdout)}


def _traced_call(tracer: spans.Tracer, cli, argv: list[str], out: Path) -> dict:
    tracer.reset()
    with tracer:
        # looked up after install, so the call itself is the root span
        res = harness.warm_call(cli.main, argv, out)
    counts = dict(tracer.counts)
    order = counts.pop("taylor.order", 0)
    return {
        **_job(res),
        "self": {name: list(v) for name, v in spans.self_times(tracer.spans).items()},
        "counts": counts,
        "order": order,
    }


def run(request: dict) -> dict:
    harness.import_restime()
    from restime import cli, taylor

    work = Path(request["work"])
    argv = request["argv"]
    out = work / "traced.out"
    tracer = spans.Tracer()
    cold = _traced_call(tracer, cli, argv, work / "traced_cold.out")
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < request["min_repeats"] or time.perf_counter() - start < request["seconds"]:
        untraced.append(_job(harness.warm_call(cli.main, argv, out)))
        traced.append(_traced_call(tracer, cli, argv, out))
    order = cold["order"]
    raw_terms = sum(len(b) for b in taylor.expression_blocks(order).values()) if order else 0
    threads = {}
    if request["threads_argv"]:
        # run_experiment alone is wrapped, so pool threads record no spans
        only = spans.Tracer({"mc.run_experiment": spans.TRACED["mc.run_experiment"]})
        for label, job_argv in (("threads1", argv), ("threads2", request["threads_argv"])):
            only.reset()
            with only:
                res = harness.warm_call(cli.main, job_argv, out)
            ((_, start_ns, end_ns, _, _),) = only.spans
            threads[label] = {**_job(res), "seconds": (end_ns - start_ns) / 1e9}
    result = {
        "cold": cold,
        "untraced": untraced,
        "traced": traced,
        "raw_terms": raw_terms,
        "threads": threads,
        "gen_expr": _job(harness.warm_call(cli.main, harness.GEN_EXPR_ARGV, out)),
    }
    if request["reference_argv"]:
        result["reference"] = _job(harness.warm_call(cli.main, request["reference_argv"], work / "reference.out"))
    return result


if __name__ == "__main__":
    request_path, result_path = sys.argv[1:3]
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    Path(result_path).write_text(json.dumps(run(request)), encoding="utf-8")
