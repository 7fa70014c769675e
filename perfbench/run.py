"""Benchmark of the restime command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload is one `restime` CLI job on inputs made from --seed (see
workloads.py).  The load is closed-loop with one client: one job at a time.

--trace 0 times the job with no tracing, interleaved round by round until
--seconds have passed.  Printed, with quartiles and sample counts:
  setup_wall_s  a fresh interpreter running `import restime` (numpy included)
  cold_s        the job in a fresh process, spawn to exit, stdout to a file
  warm_s        the same argv through restime.cli.main in this process,
                after one untimed warm-up call
  peak_rss_mb   ru_maxrss of the cold process
This runs on a shared 2-core machine whose speed drifts by up to 2x over
minutes, which moves a run's median wall time by 15-40%.  So each round
also times harness.calibrate(), a fixed mix of Python and numpy work, both
in a fresh interpreter (around the setup and cold calls) and in this process
(around the warm calls).  The gated metrics are peak_rss_mb and costs
relative to the calibration measured in the same round:
  setup_s       setup_wall_s / fresh calibration * NOMINAL_FRESH_CALIBRATION_S
  cold_cal      cold_s / fresh calibration
  warm_cal      warm_s / in-process calibration
Every output is checked outside the timed region.  A job fails on a nonzero
exit, a traceback, a failed oracle, or output that differs from the first
run's; failed/attempted is the error fraction.

--trace 1 runs the job in a fresh interpreter (child.py) with restime's
public functions wrapped from outside (spans.py): once cold, then warm calls
alternating untraced and traced.  It reports each span's self time, the
counters listed in PER_LAYER, the tracing overhead, and for `mc` the
run_experiment time with one and with two threads.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give sample counts, quartiles and provenance.
Without restime sources under src/ the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import spans
from workloads import EXPECTED, WORKLOADS, Job, sha256

END_TO_END = {"setup_s": "s", "cold_cal": "fresh_cal", "warm_cal": "cal", "peak_rss_mb": "MB"}
# printed with sample counts but not gated: raw wall times drift with the shared machine
UNGATED = {"setup_wall_s": "s", "cold_s": "s", "warm_s": "s", "calibration_s": "s", "fresh_calibration_s": "s"}
# typical fresh calibration on the 2-vCPU 2.1 GHz Xeon this was tuned on; setup_s is
# the import time scaled to the machine speed at which a fresh calibration takes this long
NOMINAL_FRESH_CALIBRATION_S = 0.2
SELF_TIMES = [f"{name}.self_s" for name in spans.TRACED]
CALLS = ["core.format_rational.calls", "taylor.generate_expression.calls", "mc.replicate_stream.calls"]
COUNTS = [
    "trace.bits", "trace.traces", "trace.residences", "trace.censored_runs",
    "trace.bridged_gaps", "taylor.terms", "taylor.raw_terms",
]
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS + COUNTS},
    "bench.trace_overhead_frac": "frac",
    "mc.run_experiment.threads1_s": "s",
    "mc.run_experiment.threads2_s": "s",
}
# counters that must repeat exactly in every traced call; these, taylor.raw_terms and the
# other counts a workload's generator knows (Job.known_counts) must also equal that value
EXACT_COUNTS = ["taylor.terms", "mc.replicate_stream.calls", "trace.residences", "trace.censored_runs"]
MIN_ROUNDS = 3
SETUP_PER_ROUND = 2
MIN_TRACED = 2
WARM_SHARE = 0.25
CALIBRATIONS = 3
CHILD_TIMEOUT_S = 150


class Ledger:
    """Jobs attempted, and the reason each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


class OutputJudge:
    """Runs a job's oracle and requires every output to equal the first one."""

    def __init__(self, job: Job, ledger: Ledger):
        self.job = job
        self.ledger = ledger
        self.first: str | None = None

    def __call__(self, what: str, res: harness.Result) -> None:
        failure = res.failure() or self.job.check(res.stdout)
        digest = sha256(res.stdout)
        if failure is None and self.first is not None and digest != self.first:
            failure = "output differs from the first run's"
        self.first = self.first or digest
        self.ledger.record(what, failure)


def _check_gen_expr(ledger: Ledger, failure: str | None, digest: str) -> str:
    if failure is None and digest != EXPECTED["stdout_sha256"]["gen_expr_order8_json"]:
        failure = "gen-expr --order 8 output hash differs from the recorded one"
    ledger.record("gen-expr", failure)
    return digest


def measure_untraced(job: Job, seconds: float, ledger: Ledger, work: Path):
    # one core for this process and every child, so calibration and jobs share its speed
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    main = harness.import_restime().cli.main
    judge = OutputJudge(job, ledger)
    judge("warm-up", harness.warm_call(main, job.argv, work / "warm.out"))
    samples: dict[str, list[float]] = {name: [] for name in {**END_TO_END, **UNGATED}}
    start = time.perf_counter()
    rounds = 0
    round_s = 0.0
    with harness.Spawner() as spawner:
        # a round starts only if it can end within the budget, once MIN_ROUNDS are done
        while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s <= seconds:
            rounds += 1
            round_start = time.perf_counter()
            fresh = [spawner.calibrate(work / "calibrate.out").seconds]
            setup = []
            for _ in range(SETUP_PER_ROUND):
                res = spawner.setup_call(work / "setup.out")
                ledger.record("setup", res.failure())
                setup.append(res.seconds)
            res = spawner.cold_call(job.argv, work / "cold.out")
            judge("cold", res)
            fresh.append(spawner.calibrate(work / "calibrate.out").seconds)
            unit = statistics.median(fresh)
            samples["fresh_calibration_s"] += fresh
            samples["setup_wall_s"] += setup
            samples["setup_s"] += [s / unit * NOMINAL_FRESH_CALIBRATION_S for s in setup]
            samples["cold_s"].append(res.seconds)
            samples["cold_cal"].append(res.seconds / unit)
            samples["peak_rss_mb"].append(res.maxrss_mb)
            # warm calls fill a share of the cold call's time, so both spread over the run
            warm: list[float] = []
            cal: list[float] = []
            while sum(warm) == 0.0 or sum(warm) < WARM_SHARE * res.seconds:
                cal += [harness.calibrate() for _ in range(CALIBRATIONS)]
                warm_res = harness.warm_call(main, job.argv, work / "warm.out")
                judge("warm", warm_res)
                warm.append(warm_res.seconds)
            cal += [harness.calibrate() for _ in range(CALIBRATIONS)]
            samples["warm_s"] += warm
            samples["warm_cal"] += [w / statistics.median(cal) for w in warm]
            samples["calibration_s"] += cal
            round_s = time.perf_counter() - round_start
    if job.reference_argv:
        res = harness.warm_call(main, job.reference_argv, work / "reference.out")
        ledger.record("reference", res.failure() or job.reference_check(res.stdout))
    res = harness.warm_call(main, harness.GEN_EXPR_ARGV, work / "gen_expr.out")
    digest = _check_gen_expr(ledger, res.failure(), sha256(res.stdout))
    stats = {name: harness.summary(values) for name, values in samples.items()}
    return stats, {"gen_expr_order8_json_sha256": digest}


def _call_counts(call: dict) -> dict[str, int]:
    counts = {name: call["counts"].get(name, 0) for name in COUNTS if name != "taylor.raw_terms"}
    for name in CALLS:
        counts[name] = call["self"].get(name.removesuffix(".calls"), [0, 0])[1]
    return counts


def _split(self_ns: dict) -> str:
    """The five largest span self times, as shares of all traced time."""
    total = sum(ns for ns, _ in self_ns.values()) or 1
    ranked = sorted(self_ns.items(), key=lambda kv: -kv[1][0])[:5]
    return ", ".join(f"{name} {ns / total:.1%}" for name, (ns, _) in ranked)


def measure_traced(job: Job, seconds: float, ledger: Ledger, work: Path):
    threads_argv = None
    if job.argv[0] == "mc":
        threads_argv = list(job.argv)
        threads_argv[threads_argv.index("--threads") + 1] = "2"
    request = {
        "work": str(work), "argv": job.argv, "seconds": seconds, "min_repeats": MIN_TRACED,
        "threads_argv": threads_argv, "reference_argv": job.reference_argv,
    }
    (work / "request.json").write_text(json.dumps(request), encoding="utf-8")
    cmd = [sys.executable, str(harness.HERE / "child.py"), str(work / "request.json"), str(work / "result.json")]
    try:
        proc = subprocess.run(cmd, env=harness.child_env(), cwd=harness.ROOT, timeout=CHILD_TIMEOUT_S,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        ledger.record("traced child", f"no result within {CHILD_TIMEOUT_S} s")
        return {}, {}
    if proc.returncode != 0:
        ledger.record("traced child", f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return {}, {}
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    cold = result["cold"]
    ledger.record("traced cold", cold["failure"] or job.check((work / "traced_cold.out").read_bytes()))
    repeats = [("untraced warm", c) for c in result["untraced"]] + [("traced warm", c) for c in result["traced"]]
    repeats += [(f"mc --threads {label[-1]}", c) for label, c in result["threads"].items()]
    for what, call in repeats:
        if call["failure"] is None and call["sha256"] != cold["sha256"]:
            call["failure"] = "output differs from the cold run's"
        ledger.record(what, call["failure"])
    if "reference" in result:
        ref = result["reference"]
        ledger.record("reference", ref["failure"] or job.reference_check((work / "reference.out").read_bytes()))
    digest = _check_gen_expr(ledger, result["gen_expr"]["failure"], result["gen_expr"]["sha256"])

    counts = _call_counts(cold)
    counts["taylor.raw_terms"] = result["raw_terms"]
    for i, call in enumerate(result["traced"], start=1):
        differ = [k for k in EXACT_COUNTS if _call_counts(call)[k] != counts[k]]
        ledger.record(f"counters of traced call {i}", f"{differ} differ from the cold call's" if differ else None)
    wrong = {k: (counts.get(k, 0), v) for k, v in job.known_counts.items() if counts.get(k, 0) != v}
    ledger.record("counters", f"measured vs known {wrong}" if wrong else None)

    traced = result["traced"]
    stats = {f"{name}.self_s": harness.summary([c["self"].get(name, [0, 0])[0] / 1e9 for c in traced])
             for name in spans.TRACED}
    # generation is cached after the first call, so its cost shows only cold
    stats["taylor.generate_expression.self_s"] = harness.summary(
        [cold["self"].get("taylor.generate_expression", [0, 0])[0] / 1e9])
    stats.update({name: harness.summary([value]) for name, value in counts.items()})
    untraced_s = harness.summary([c["seconds"] for c in result["untraced"]])["median"]
    traced_s = harness.summary([c["seconds"] for c in traced])["median"]
    stats["bench.trace_overhead_frac"] = harness.summary([traced_s / untraced_s - 1.0])
    for label in ("threads1", "threads2"):
        stats[f"mc.run_experiment.{label}_s"] = harness.summary([result["threads"].get(label, {}).get("seconds", 0.0)])
    info = {
        "gen_expr_order8_json_sha256": digest,
        "cold split": _split(cold["self"]),
        "warm split": _split(traced[len(traced) // 2]["self"]),
    }
    return stats, info


def provenance(seed: int, workload: str) -> dict:
    import numpy

    commit = None
    if (harness.ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=harness.ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = sorted((harness.SRC / "restime").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = harness.WORK / name
    work.mkdir(parents=True, exist_ok=True)
    job = WORKLOADS[name](seed, work)
    ledger = Ledger()
    measure = measure_traced if trace else measure_untraced
    stats, info = measure(job, seconds, ledger, work)
    units = PER_LAYER if trace else END_TO_END
    shown = PER_LAYER if trace else {**END_TO_END, **UNGATED}
    empty = harness.summary([0.0])

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"  {'metric':<42}{'median':>14}{'q1':>14}{'q3':>14}{'n':>6}  unit")
    for metric, unit in shown.items():
        s = stats.get(metric, empty)
        print(f"  {metric:<42}{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}{s['n']:>6}  {unit}")
    failed, attempted = len(ledger.failures), ledger.attempted
    print(f"  {'error_frac':<42}{failed / attempted:>14.6g}{'':>28}{attempted:>6}  jobs ({failed} failed)")
    for key in ("cold split", "warm split"):
        if key in info:
            print(f"  {key}: {info[key]}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    prov = provenance(seed, name)
    prov["gen_expr_order8_json_sha256"] = info.get("gen_expr_order8_json_sha256")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": not ledger.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": stats.get(m, empty)["median"], "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the restime CLI on seeded workloads.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.import_restime()
    except (harness.MissingSource, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
