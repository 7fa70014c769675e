"""Seeded inputs, CLI argv and output oracles for the four benchmark workloads.

Each workload is one `restime` CLI job.  Its inputs are made here from the
benchmark seed and written into the work directory; restime sees only those
files (and `--seed` for `mc`).  Every oracle takes the job's stdout bytes
and returns None when the output is right, or a one-line reason when not.
The oracles never call restime: they recompute the expected answer from
what the generator planted, or compare against recorded hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# ingest: 40 traces x ~50k bits, presence runs geom(mean 40), absences geom(mean 8)
INGEST_TRACES = 40
INGEST_BITS_PER_TRACE = 50_000
INGEST_PRESENCE_MEAN = 40
INGEST_ABSENCE_MEAN = 8
INGEST_K = 5
# estimate: 200k residences from geom(p=1/20)
ESTIMATE_N = 200_000
ESTIMATE_P = 1 / 20
ESTIMATE_DT = 0.1
# replicates: the mc job; its outputs are bit-identical for a given --seed
REPLICATE_SIZES = (30, 158)
REPLICATE_REPS = 10_000
REPLICATE_DEFAULT_SEED = 0
SERIES_ORDER = 8


@dataclass
class Job:
    """One workload instance: the argv restime runs, and what it must print."""

    name: str
    argv: list[str]
    check: Callable[[bytes], str | None]
    # counters the generator knows; the traced run must reproduce them exactly
    known_counts: dict[str, int]
    # a job with a recorded stdout hash, run untimed when argv itself has none
    reference_argv: list[str] | None = None
    reference_check: Callable[[bytes], str | None] | None = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _geometric(rng: np.random.Generator, mean: float, size: int) -> np.ndarray:
    return rng.geometric(1.0 / mean, size=size).astype(np.int64)


# ---------------------------------------------------------------- ingest


def ingest_runs(seed: int) -> list[np.ndarray]:
    """Alternating run lengths per trace: presence, absence, ..., presence.

    Every trace starts and ends inside a presence run, so each has censored
    boundary runs, and its length is the first odd run count whose total
    reaches INGEST_BITS_PER_TRACE.
    """
    rng = np.random.default_rng([seed, 1])
    per_trace = []
    # expected run pair is 48 bits; draw generously, then cut
    pairs = INGEST_BITS_PER_TRACE // (INGEST_PRESENCE_MEAN + INGEST_ABSENCE_MEAN) * 2 + 64
    for _ in range(INGEST_TRACES):
        while True:
            runs = np.empty(2 * pairs + 1, dtype=np.int64)
            runs[0::2] = _geometric(rng, INGEST_PRESENCE_MEAN, pairs + 1)
            runs[1::2] = _geometric(rng, INGEST_ABSENCE_MEAN, pairs)
            total = np.cumsum(runs)
            # first presence run (even index) whose end reaches the target
            hits = np.nonzero(total[0::2] >= INGEST_BITS_PER_TRACE)[0]
            if len(hits):
                per_trace.append(runs[: 2 * hits[0] + 1])
                break
    return per_trace


def planted_residences(runs: np.ndarray, k: int) -> tuple[list[int], int, int]:
    """Residences, censored-run count and bridged-gap count for one trace.

    Works on the run list, not on bits: absences shorter than k between two
    presences merge them; the first and last merged runs touch the trace
    ends and are censored.
    """
    merged = [int(runs[0])]
    bridged = 0
    for i in range(1, len(runs), 2):
        gap, stay = int(runs[i]), int(runs[i + 1])
        if gap < k:
            merged[-1] += gap + stay
            bridged += 1
        else:
            merged.append(stay)
    censored = min(len(merged), 2)
    return merged[1:-1], censored, bridged


def _trace_line(runs: np.ndarray) -> bytes:
    bits = np.zeros(int(runs.sum()), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(runs)[:-1]))
    for s, r in zip(starts[0::2], runs[0::2]):
        bits[s : s + r] = 1
    out = np.full(2 * len(bits), ord(" "), dtype=np.uint8)
    out[0::2] = bits + ord("0")
    out[-1] = ord("\n")
    return out.tobytes()


def _steps_csv(steps) -> bytes:
    return ("steps\n" + "".join(f"{int(x)}\n" for x in steps)).encode()


def ingest_job(seed: int, work: Path) -> Job:
    all_runs = ingest_runs(seed)
    path = work / "traces.txt"
    with open(path, "wb") as fh:
        for runs in all_runs:
            fh.write(_trace_line(runs))
    residences: list[int] = []
    censored = bridged = 0
    for runs in all_runs:
        res, c, b = planted_residences(runs, INGEST_K)
        residences.extend(res)
        censored += c
        bridged += b
    expected = _steps_csv(residences)

    def check(stdout: bytes) -> str | None:
        if stdout == expected:
            return None
        return f"extract output differs from the {len(residences)} planted residences"

    counts = {
        "trace.traces": INGEST_TRACES,
        "trace.bits": int(sum(int(r.sum()) for r in all_runs)),
        "trace.residences": len(residences),
        "trace.censored_runs": censored,
        "trace.bridged_gaps": bridged,
    }
    argv = ["extract", "--input", str(path), "--k", str(INGEST_K)]
    return Job("ingest", argv, check, counts)


# -------------------------------------------------------------- estimate


def estimate_steps(seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 2])
    return rng.geometric(ESTIMATE_P, size=ESTIMATE_N).astype(np.int64)


def exact_report_values(steps) -> dict[str, Fraction]:
    """mrt, mRT and the delta-method ratio variance in exact rationals.

    With S1 = sum x and S2 = sum x^2 the ratio estimator reduces to
    sum (S1 x^2 - S2 x)^2 / (4 S1^4), so integers carry it to one division.
    """
    xs = [int(x) for x in steps]
    n = len(xs)
    s1 = sum(xs)
    s2 = sum(x * x for x in xs)
    ratio_num = sum((s1 * x * x - s2 * x) ** 2 for x in xs)
    return {
        "mrt_steps": Fraction(1, 2) + Fraction(s2, 2 * s1),
        "mRT_steps": Fraction(s1, n),
        "ratio": Fraction(ratio_num, 4 * s1**4),
    }


def _close(got, want: Fraction, rel: float) -> bool:
    return isinstance(got, float) and math.isfinite(got) and abs(Fraction(got) - want) <= rel * abs(want)


def estimate_job(seed: int, work: Path) -> Job:
    steps = estimate_steps(seed)
    path = work / "residences.csv"
    path.write_bytes(_steps_csv(steps))
    want = exact_report_values(steps)
    label = f"taylor{SERIES_ORDER}"

    def check(stdout: bytes) -> str | None:
        try:
            rep = json.loads(stdout)
            got = {
                "n": rep["n"],
                "mrt_steps": rep["mrt_steps"],
                "mRT_steps": rep["mRT_steps"],
                "ratio": rep["mrt_var_steps"]["ratio"],
                "series": rep["mrt_var_steps"][label],
                "mrt_time": rep["mrt_time"],
            }
        except (ValueError, KeyError, TypeError) as exc:
            return f"estimate report unreadable: {exc}"
        if got["n"] != ESTIMATE_N:
            return f"n is {got['n']}, not {ESTIMATE_N}"
        for key in ("mrt_steps", "mRT_steps", "ratio"):
            if not _close(got[key], want[key], 1e-9):
                return f"{key} {got[key]!r} differs from exact {float(want[key])!r}"
        if not _close(got["mrt_time"], want["mrt_steps"] * Fraction(ESTIMATE_DT), 1e-9):
            return "mrt_time is not mrt_steps * dt"
        # at N = 200k the order-8 series and the delta method agree to O(1/N)
        if not _close(got["series"], want["ratio"], 1e-3):
            return f"{label} variance {got['series']!r} far from ratio {float(want['ratio'])!r}"
        return None

    argv = [
        "estimate", "--rts", str(path), "--method", "both",
        "--order", str(SERIES_ORDER), "--dt", str(ESTIMATE_DT),
    ]
    return Job("estimate", argv, check, dict(EXPECTED["series_order8"]))


# ------------------------------------------------------------ replicates


def mc_argv(seed: int) -> list[str]:
    return [
        "mc", "--dist", "geom:p=1/20", "--n", ",".join(map(str, REPLICATE_SIZES)),
        "--reps", str(REPLICATE_REPS), "--seed", str(seed), "--threads", "1",
    ]


def _check_mc_table(stdout: bytes) -> str | None:
    """Shape and sanity of an mc table, for seeds with no recorded hash."""
    try:
        lines = stdout.decode().splitlines()
        if len(lines) != 1 + len(REPLICATE_SIZES):
            return f"mc printed {len(lines)} lines"
        header = lines[0].split(",")
        for size, line in zip(REPLICATE_SIZES, lines[1:]):
            cells = line.split(",")
            if len(cells) != len(header) or int(cells[0]) != size:
                return f"mc row for N={size} malformed"
            if not all(math.isfinite(v) and v > 0 for v in map(float, cells[1:])):
                return f"mc row for N={size} has a non-positive or non-finite value"
    except ValueError as exc:
        return f"mc table unreadable: {exc}"
    return None


def replicates_job(seed: int, work: Path) -> Job:
    recorded = EXPECTED["stdout_sha256"]["replicates"]

    def check(stdout: bytes) -> str | None:
        if seed == REPLICATE_DEFAULT_SEED:
            return None if sha256(stdout) == recorded else "mc stdout hash differs from the recorded one"
        return _check_mc_table(stdout)

    def check_reference(stdout: bytes) -> str | None:
        if sha256(stdout) != recorded:
            return f"mc --seed {REPLICATE_DEFAULT_SEED} stdout hash differs from the recorded one"
        return None

    counts = {"mc.replicate_stream.calls": REPLICATE_REPS * len(REPLICATE_SIZES)}
    counts.update(EXPECTED["series_order8"])
    job = Job("replicates", mc_argv(seed), check, counts)
    if seed != REPLICATE_DEFAULT_SEED:
        job.reference_argv, job.reference_check = mc_argv(REPLICATE_DEFAULT_SEED), check_reference
    return job


# ------------------------------------------------------------- reference


def reference_job(seed: int, work: Path) -> Job:
    recorded = EXPECTED["stdout_sha256"]["reference"]

    def check(stdout: bytes) -> str | None:
        return None if sha256(stdout) == recorded else "exact stdout hash differs from the recorded one"

    argv = ["exact", "--dist", "uniform:a=1,b=40", "--n", "5", "--orders", "1..8"]
    return Job("reference", argv, check, dict(EXPECTED["series_order8"]))


WORKLOADS = {
    "ingest": ingest_job,
    "estimate": estimate_job,
    "replicates": replicates_job,
    "reference": reference_job,
}
