"""What a fresh process loads: numpy only for the commands that work on arrays.

`restime.core` hands every module a lazily loaded numpy, so `import restime`,
`exact`, `gen-expr`, `--help` and usage errors finish with no numpy
submodule imported, while the array commands load numpy before reading
their input and print their golden bytes.  Each case runs in a new
interpreter, since the test process has numpy loaded already; a module that
imports numpy eagerly fails the not-loaded cases.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_golden import CASES, _steps_csv, _traces

SRC = Path(__file__).resolve().parents[1] / "src"
ARRAY_COMMANDS = {"extract", "estimate", "mc", "autocorr"}
# runs the CLI as `python -m restime.cli` does, then reports on stderr's last
# line whether any numpy submodule (numpy._core among them) was imported
PROBE = """
import runpy, sys
try:
    runpy.run_module("restime.cli", run_name="__main__", alter_sys=True)
finally:
    print("numpy loaded:", any(m.startswith("numpy.") for m in sys.modules), file=sys.stderr)
"""


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def _cli(argv: list[str]) -> tuple[subprocess.CompletedProcess, bool]:
    """The finished process and whether it loaded numpy."""
    proc = _run(["-c", PROBE, *argv])
    *_, last = proc.stderr.decode().splitlines()
    assert last in ("numpy loaded: True", "numpy loaded: False")
    return proc, last == "numpy loaded: True"


@pytest.mark.parametrize("argv, code", [
    (["exact", "--dist", "uniform:a=1,b=40", "--n", "5", "--orders", "1..8"], 0),
    (["gen-expr", "--order", "8", "--format", "json"], 0),
    (["--help"], 0),
    (["estimate", "--help"], 0),
    (["mc", "--dist", "geom:p=1/2"], 2),
    (["estimate", "--rts", "steps.csv", "--method", "nope"], 2),
], ids=["exact", "gen-expr", "help", "estimate-help", "mc-usage", "estimate-usage"])
def test_pure_python_paths_never_load_numpy(argv, code):
    proc, loaded = _cli(argv)
    assert proc.returncode == code
    assert not loaded


@pytest.mark.parametrize("name", sorted(CASES))
def test_cold_process_prints_the_golden_bytes(name, tmp_path):
    traces = tmp_path / "traces.txt"
    traces.write_text(_traces())
    steps = tmp_path / "steps.csv"
    steps.write_text(_steps_csv())
    large = tmp_path / "large.csv"
    large.write_text("steps\n67108864\n67108864\n3\n5\n")
    argv, digest = CASES[name]
    proc, loaded = _cli([a.format(traces=traces, steps=steps, large=large) for a in argv])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert loaded == (argv[0] in ARRAY_COMMANDS)


def test_import_restime_loads_no_numpy_and_numpy_still_imports():
    code = (
        "import sys, restime\n"
        "assert not any(m.startswith('numpy.') for m in sys.modules)\n"
        "import numpy\n"
        "from numpy import float64\n"
        "assert restime.core.np is numpy\n"
        "assert float64(numpy.arange(4).sum()) == 6.0\n"
        "print(numpy.__version__)\n"
    )
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == sys.modules["numpy"].__version__


def test_a_loaded_numpy_is_used_as_it_is():
    code = "import numpy, restime\nassert restime.core.np is numpy\n"
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr.decode()


def test_missing_numpy_is_the_error_an_eager_import_raises():
    # numpy's own sys.path entry is dropped, so neither import can find it
    hide = (
        "import importlib.util, os, sys\n"
        "home = os.path.dirname(os.path.dirname(importlib.util.find_spec('numpy').origin))\n"
        "sys.path[:] = [p for p in sys.path if os.path.abspath(p or '.') != home]\n"
    )
    numpy_err = _run(["-c", hide + "import numpy"]).stderr.decode().splitlines()[-1]
    assert numpy_err == "ModuleNotFoundError: No module named 'numpy'"
    proc = _run(["-c", hide + "import restime"])
    assert proc.returncode == 1
    assert proc.stderr.decode().splitlines()[-1] == numpy_err
