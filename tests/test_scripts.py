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


@pytest.mark.parametrize("script", ["mc_grid.py", "small_sample_bias.py"])
def test_seed_out_of_range_is_one_error_line(script):
    # ExperimentConfig's own check, before any replicate is drawn
    done = _run(script, "--seed=-1")
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: seed must be an integer in 0..2**128-1, got -1"]
    assert done.stdout == ""


def test_exact_table_prints_the_exact_subcommand_column():
    done = _run("exact_table.py", "--digits", "6")
    assert done.returncode == 0
    blocks = done.stdout.split("\n\n")
    block = next(b for b in blocks if b.startswith("uniform:a=93,b=100  N=10\n"))
    table = [line.split() for line in block.splitlines()[1:]]
    cli = subprocess.run(
        [sys.executable, "-m", "restime.cli", "exact", "--dist", "uniform:a=93,b=100", "--n", "10",
         "--digits", "6"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=60,
    )
    assert cli.returncode == 0
    assert table == [line.split(",") for line in cli.stdout.splitlines()[1:]]
    assert [label for label, _ in table] == ["ratio"] + [f"taylor{m}" for m in range(1, 9)] + ["exact"]
