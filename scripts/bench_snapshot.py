"""Record one point of the benchmark trajectory as BENCH_<n>.json.

Usage (from the root of a checkout):

    python3 scripts/bench_snapshot.py N

Runs `perfbench/run.py --workload all` twice with seed 11 and 24 s per
workload (BENCHMARK.json's run length), at --trace 0 (end-to-end metrics)
and at --trace 1 (per-layer spans and counters). For each run and
workload it keeps the `provenance` line and the final JSON result line,
and writes them to BENCH_<N>.json at the checkout root.

It refuses a checkout whose `src/` holds a `__pycache__` directory: a
stale bytecode cache makes setup faster and peak RSS lower than a fresh
checkout reads, so run it in a clean copy (`git archive` or `git clone`).
It also refuses to overwrite an existing BENCH_<N>.json. Both refusals
come before any perfbench run.

The snapshot records the name of the checkout's directory (`checkout`):
peak RSS moves with it, so compare snapshots taken in directories whose
names have equal length.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = "provenance "
# fixed, so that successive BENCH files compare like with like
SEED = 11
SECONDS = 24.0


def run_all(trace: int) -> dict:
    """One `--workload all` run, keyed by workload name."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    runs: dict[str, dict] = {}
    prov = None
    for line in proc.stdout.splitlines():
        if line.startswith(PROVENANCE):
            prov = json.loads(line[len(PROVENANCE):])
        elif line.startswith("{"):
            if prov is None:
                raise SystemExit("error: perfbench printed a result before its provenance")
            runs[prov["workload"]] = {"provenance": prov, "result": json.loads(line)}
            prov = None
    return runs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Write BENCH_<n>.json from two perfbench runs.")
    ap.add_argument("n", type=int, help="index of the snapshot file")
    args = ap.parse_args(argv)
    if args.n < 0:
        ap.error(f"n must be >= 0, got {args.n}")
    cache = next((ROOT / "src").rglob("__pycache__"), None)
    if cache is not None:
        raise SystemExit(f"error: {cache} exists; snapshot a checkout without bytecode caches")
    out = ROOT / f"BENCH_{args.n}.json"
    if out.exists():
        raise SystemExit(f"error: {out} exists; pick an unused snapshot index")
    snapshot = {
        "checkout": ROOT.name,
        "seed": SEED,
        "seconds": SECONDS,
        "trace0": run_all(0),
        "trace1": run_all(1),
    }
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
