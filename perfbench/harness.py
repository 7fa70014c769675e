"""How the benchmark starts and times restime: fresh processes and in-process calls.

restime is always taken from `src/` of the checkout this file sits in, both
in the benchmark's own process and in every child it starts.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# its stdout identifies the series expression every estimator evaluates
GEN_EXPR_ARGV = ["gen-expr", "--order", "8", "--format", "json"]
# a cold job takes seconds; one still running after this is killed and fails
JOB_TIMEOUT_S = 60


class MissingSource(RuntimeError):
    """The checkout holds no restime sources to benchmark."""


def import_restime():
    """Import restime from the checkout's src/, never from anywhere else."""
    if not (SRC / "restime" / "__init__.py").is_file():
        raise MissingSource(f"no restime package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import restime
    import restime.cli

    if Path(restime.__file__).resolve().parent != SRC / "restime":
        raise MissingSource(f"restime was imported from {restime.__file__}, not {SRC}")
    return restime


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Result:
    """One job run: wall seconds, exit code, output bytes and any error text."""

    seconds: float
    returncode: int | None
    stdout: bytes
    stderr: str
    maxrss_mb: float = 0.0

    def failure(self) -> str | None:
        if self.returncode != 0:
            return f"exit code {self.returncode}: {self.stderr.strip()[-300:]}"
        if "Traceback" in self.stderr:
            return "traceback on stderr"
        return None


class Spawner:
    """A small process (spawner.py) that starts cold jobs and times them, spawn to exit."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT, text=True,
        )

    def run(self, cmd: list[str], out_path: Path) -> Result:
        err_path = out_path.with_suffix(".err")
        request = {"cmd": cmd, "out": str(out_path), "err": str(err_path), "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Result(
            seconds=reply["seconds"],
            returncode=reply["returncode"],
            stdout=out_path.read_bytes(),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            maxrss_mb=reply["maxrss_kb"] / 1024.0,  # Linux reports KiB
        )

    def cold_call(self, argv: list[str], out_path: Path) -> Result:
        return self.run([sys.executable, "-m", "restime.cli", *argv], out_path)

    def setup_call(self, out_path: Path) -> Result:
        return self.run([sys.executable, "-c", "import restime"], out_path)

    def calibrate(self, out_path: Path) -> Result:
        """The calibration mix in a fresh interpreter, which pays start-up and fresh memory as cold jobs do."""
        code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import harness; harness.calibrate()"
        return self.run([sys.executable, "-c", code], out_path)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def warm_call(main, argv: list[str], out_path: Path) -> Result:
    """Call restime.cli.main in this process with stdout sent to out_path."""
    err = io.StringIO()
    with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a traceback is a failed job, recorded and reported
            code = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return Result(seconds=seconds, returncode=code, stdout=out_path.read_bytes(), stderr=err.getvalue())


def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count of a list of measurements."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def calibrate() -> float:
    """Seconds this machine takes now for a fixed mix of dict, Fraction and numpy work.

    The mix resembles what restime does (tuple-keyed tables, exact rationals,
    array passes) and never changes, so a job's time divided by it is its cost
    in calibration units, which moves far less than wall time when a shared
    machine slows down.
    """
    # a collection would scan whatever the process holds, such as restime's caches
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[(i * 7919) % 100_003, i] = i
        acc = Fraction(0)
        for i in range(1, 800):
            acc += Fraction(1, i * i + 1)
        a = np.arange(300_000, dtype=np.float64)
        float((a * a).sum())
        return time.perf_counter() - start
    finally:
        gc.enable()
