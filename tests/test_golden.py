"""Golden bytes: the stdout of every subcommand on small fixed inputs.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
with a digest recorded before the float kernels, the estimator-label
grammar and the per-trace loop were consolidated.  A refactor that claims
to keep the numbers must keep these digests.  Inputs come from a seeded
random.Random, whose random() and getrandbits() streams are reproducible
across Python versions.
"""

import hashlib
import random

import pytest

from restime.cli import main


def _traces() -> str:
    """Six 0/1 traces of 400 steps from a two-state chain with sticky states."""
    rng = random.Random(2024)
    lines = []
    for _ in range(6):
        state, bits = 0, []
        for _ in range(400):
            if rng.random() < (0.15 if state else 0.25):
                state = 1 - state
            bits.append(str(state))
        lines.append(" ".join(bits))
    return "\n".join(lines) + "\n"


def _steps_csv() -> str:
    """300 heavy-tailed residence steps under a 'steps' header."""
    rng = random.Random(7)
    steps = [1 + rng.getrandbits(4) * rng.getrandbits(3) for _ in range(300)]
    return "steps\n" + "".join(f"{x}\n" for x in steps)


CASES = {
    "extract": (
        ["extract", "--input", "{traces}", "--k", "3"],
        "3eb23e97695d4a9dbc9603b92ab57ec66d44fe5f35fd5d7722e47ef591428daa",
    ),
    "estimate": (
        ["estimate", "--rts", "{steps}", "--dt", "0.1", "--method", "both", "--order", "8"],
        "0cf02e51c1e69d17fa0af244c9970154aa671ac7f73643156c1671599b4965e6",
    ),
    "exact": (
        ["exact", "--dist", "uniform:a=1,b=6", "--n", "4", "--orders", "1..8"],
        "d95e07a9a3b8efc523ad9d47a55f88c1f64e457f6a12f5d88f754860873cafd5",
    ),
    "mc-seed3": (
        ["mc", "--dist", "geom:p=1/4", "--n", "10,40", "--reps", "200", "--seed", "3"],
        "30865bc6529938a929b7617ccb736b94bf617150ddff8dd0d9a481f6c79130ea",
    ),
    "mc-seed11": (
        ["mc", "--dist", "uniform:a=2,b=9", "--n", "7", "--reps", "150", "--seed", "11",
         "--order", "5"],
        "60ca041c37739aa3a1dd6716818832d8fee3395f9f12c2468ca8b1a235de9e81",
    ),
    "autocorr": (
        ["autocorr", "--input", "{traces}", "--k", "2", "--max-lag", "3"],
        "d348c73a0093b8ecc729b4c3fef656b046bde08397ebedf2bf4d897d22bdf2c9",
    ),
    "gen-expr": (
        ["gen-expr", "--order", "8"],
        "95df400d3eaaf00640781f8491363abd858fec2d9615359be0b131fc8e6ae646",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_digest(name, tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    traces.write_text(_traces())
    steps = tmp_path / "steps.csv"
    steps.write_text(_steps_csv())
    argv, digest = CASES[name]
    argv = [a.format(traces=traces, steps=steps) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
