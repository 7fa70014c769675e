"""The study scripts print their description and refuse bad flag values cleanly.

No test starts a real run: mc_grid.py defaults to 100k replicates.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import restime

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(restime.__file__).resolve().parent.parent)

# script -> (first words of its docstring, one bad flag value, its error line)
CASES = {
    "exact_table.py": (
        "Rebuild the exact-moment variance table",
        ["--digits", "0"],
        "error: --digits must be within 1..4300, got 0",
    ),
    "mc_grid.py": (
        "Monte Carlo cross-check of the variance estimators",
        ["--sizes", "0"],
        "error: sizes must be a nonempty list of positive integers",
    ),
    "small_sample_bias.py": (
        "How fast does the plug-in bias",
        ["--dist", "geom:p=2"],
        "error: bad distribution spec 'geom:p=2': geometric parameter p must satisfy 0 < p < 1",
    ),
}


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("script", sorted(CASES))
def test_help_prints_the_description(script):
    done = _run(script, "--help")
    assert done.returncode == 0
    assert " ".join(done.stdout.split()).count(CASES[script][0]) == 1


@pytest.mark.parametrize("script", sorted(CASES))
def test_bad_value_is_one_error_line(script):
    _, argv, line = CASES[script]
    done = _run(script, *argv)
    assert done.returncode == 2
    assert done.stderr.splitlines() == [line]
    assert done.stdout == ""
