"""The study scripts print their description, refuse bad flag values cleanly,
and mc_grid.py prints the replicate study's table.

The one real run is mc_grid.py at 50 replicates of one cell (its default is
100k replicates), and bench_snapshot.py is only run where it must refuse
before any perfbench run.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import restime
from restime import DistributionSpec, ExperimentConfig, run_experiment

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = str(Path(restime.__file__).resolve().parent.parent)

# script -> (first words of its docstring, [(one bad flag value, its error line), ...])
CASES = {
    "exact_table.py": (
        "Rebuild the exact-moment variance table",
        [(["--digits", "0"], "error: --digits must be within 1..4300, got 0")],
    ),
    "mc_grid.py": (
        "Monte Carlo cross-check of the variance estimators",
        [
            (["--sizes", "0"], "error: sizes must be a nonempty list of positive integers"),
            (["--dist", "geom:p=2"],
             "error: bad distribution spec 'geom:p=2': geometric parameter p must satisfy 0 < p < 1"),
        ],
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
    for argv, line in CASES[script][1]:
        done = _run(script, *argv)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [line]
        assert done.stdout == ""


@pytest.mark.parametrize("script", ["mc_grid.py"])
def test_seed_out_of_range_is_one_error_line(script):
    # ExperimentConfig's own check, before any replicate is drawn
    done = _run(script, "--seed=-1")
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["error: seed must be an integer in 0..2**128-1, got -1"]
    assert done.stdout == ""


def test_mc_grid_prints_one_row_per_cell():
    done = _run("mc_grid.py", "--dist", "uniform:a=2,b=9", "--sizes", "5", "--replicates", "50")
    assert done.returncode == 0 and done.stderr == ""
    header, row = done.stdout.splitlines()
    assert header.split() == ["dist", "N", "reference", "ratio", "dev", "taylor1", "dev",
                              "taylor3", "dev", "taylor8", "dev", "S8(exact)", "z"]
    dist, n, ref, ratio, taylor1, taylor3, taylor8, z = row.split()
    # fewer labels draw the same replicates, so the reference and these columns hold
    cfg = ExperimentConfig(dist=DistributionSpec.uniform(2, 9), sizes=(5,), replicates=50, seed=0,
                           estimators=("ratio", "taylor8"))
    (want,) = run_experiment(cfg)
    assert (dist, n, ref) == ("uniform:a=2,b=9", "5", f"{want.reference_var:.6g}")
    devs = [f"{(want.means[k] - want.reference_var) / want.reference_var:+.2%}"
            for k in ("ratio", "taylor8")]
    assert [ratio, taylor8] == devs
    assert taylor1.endswith("%") and taylor3.endswith("%") and math.isfinite(float(z))


def test_exact_table_prints_the_exact_subcommand_column():
    done = _run("exact_table.py", "--digits", "6")
    assert done.returncode == 0
    assert done.stderr.splitlines() == [
        "note: exact row omitted: exact enumeration needs a finite support (uniform only)"
    ] * 2 + ["note: exact row omitted: enumeration work exceeded the tractability guard"]
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


def _snapshot_in(tree: Path) -> subprocess.CompletedProcess:
    """Run a copy of bench_snapshot.py for BENCH_7.json in a tree with no
    perfbench, so that any run it started would fail."""
    (tree / "scripts").mkdir()
    (tree / "scripts" / "bench_snapshot.py").write_bytes((SCRIPTS / "bench_snapshot.py").read_bytes())
    (tree / "src" / "restime").mkdir(parents=True, exist_ok=True)
    return subprocess.run(
        [sys.executable, str(tree / "scripts" / "bench_snapshot.py"), "7"],
        capture_output=True, text=True, timeout=60,
    )


def test_bench_snapshot_refuses_a_bytecode_cache(tmp_path):
    cache = tmp_path / "src" / "restime" / "__pycache__"
    cache.mkdir(parents=True)
    done = _snapshot_in(tmp_path)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        f"error: {cache.resolve()} exists; snapshot a checkout without bytecode caches"
    ]
    assert done.stdout == "" and not (tmp_path / "BENCH_7.json").exists()


def test_bench_snapshot_refuses_to_overwrite_a_snapshot(tmp_path):
    old = tmp_path / "BENCH_7.json"
    old.write_text("{}\n")
    done = _snapshot_in(tmp_path)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [f"error: {old.resolve()} exists; pick an unused snapshot index"]
    assert done.stdout == "" and old.read_text() == "{}\n"
