"""Golden bytes: the stdout of every subcommand on small fixed inputs.

Each case runs the CLI in-process and compares the SHA-256 of its stdout
with a digest recorded before the float kernels, the estimator-label
grammar and the per-trace loop were consolidated.  A second set pins the
series evaluator at every order 1..8 as float scalar (the float of each
exact sample estimate, since var_mrt_taylor returns a Fraction), float
batch and exact rational, and a third the float row kernels row_moments and
ratio_variance_rows.  A refactor that claims to keep the numbers must keep these
digests.  The estimate and float-scalar digests were re-pinned once, when
each estimate number became its exact value rounded once, and the autocorr
digests when each lag sum stopped depending on the BLAS thread count; every
moved value was checked against exact rationals.  Inputs come from a seeded
random.Random, whose random() and getrandbits() streams are reproducible
across Python versions.
"""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from restime.cli import main
from restime.core import DistributionSpec, ResidenceSample
from restime.estimators import ratio_variance_rows, var_mrt_taylor
from restime.moments import exact_moments, row_moments
from restime.taylor import evaluate_expression, evaluate_expression_batch, generate_expression


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


def _steps() -> list[int]:
    """300 heavy-tailed residence steps."""
    rng = random.Random(7)
    return [1 + rng.getrandbits(4) * rng.getrandbits(3) for _ in range(300)]


def _steps_csv() -> str:
    """The _steps sample under a 'steps' header."""
    return "steps\n" + "".join(f"{x}\n" for x in _steps())


CASES = {
    "extract": (
        ["extract", "--input", "{traces}", "--k", "3"],
        "3eb23e97695d4a9dbc9603b92ab57ec66d44fe5f35fd5d7722e47ef591428daa",
    ),
    # recorded before the run scans in trace.py became byte primitives:
    # the include policy with k from --tstar/--dt (k = 4), and a window wider
    # than any trace
    "extract-include": (
        ["extract", "--input", "{traces}", "--boundary", "include", "--tstar", "0.4",
         "--dt", "0.1"],
        "0141fc4c1976710d924afdddf48276111b3edb67aacc52a48b2154b21f22f784",
    ),
    "extract-wide-k": (
        ["extract", "--input", "{traces}", "--k", "1000000000000"],
        "dd8cbc503ca2fd9d16ef682345a783eed5a44490c986e4d293d1c1c329281090",
    ),
    "estimate": (
        ["estimate", "--rts", "{steps}", "--dt", "0.1", "--method", "both", "--order", "8"],
        "14ef389cd1ad8069271908d073a572528dc3b5d89e1e1dcfa4419b59355aaed9",
    ),
    # a sample whose n*max^2 reaches 2^53, where float sums of the steps would
    # no longer be exact
    "estimate-large": (
        ["estimate", "--rts", "{large}", "--method", "taylor", "--order", "1", "--dt", "0.1"],
        "c4e78038f8eb91e11d4af300bafb6a639f639781607513f4cbd7be94db073c45",
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
        "0caefff167ccd9353d8b62a73ae2a9f47e9460f739895c96f1a958c2c519f2e8",
    ),
    # recorded while OccupancyTrace still stored a tuple of ints: the include
    # policy with k from --tstar/--dt (k = 3)
    "autocorr-include": (
        ["autocorr", "--input", "{traces}", "--boundary", "include", "--tstar", "0.3",
         "--dt", "0.1", "--max-lag", "3"],
        "a0d0e97e0902aee07c14e61a72568f62d16404618223521610e64dbd529a13a9",
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
    large = tmp_path / "large.csv"
    large.write_text("steps\n67108864\n67108864\n3\n5\n")
    argv, digest = CASES[name]
    argv = [a.format(traces=traces, steps=steps, large=large) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the trace file in spellings that str.split() reads as the same tokens.
# Tabs, doubled spaces and the mixed one send every line, and a missing final
# newline the last line, through the translate path rather than the check of
# canonical "0 "/"1 " pairs; the CLI reads with universal newlines, so each
# "\r\n" reaches the parser as "\n"
RESPELLINGS = {
    "tabs": lambda text: text.replace(" ", "\t"),
    "double-spaces": lambda text: text.replace(" ", "  "),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no-final-newline": lambda text: text.rstrip("\n"),
    "mixed": lambda text: "\r\n".join(
        line.replace(" ", "\t" if i % 2 else "  ") for i, line in enumerate(text.splitlines())
    ),
}


@pytest.mark.parametrize("spelling", sorted(RESPELLINGS))
@pytest.mark.parametrize("name", ["extract", "extract-include", "extract-wide-k"])
def test_respelled_traces_give_the_same_digest(name, spelling, tmp_path, capsys):
    traces = tmp_path / "traces.txt"
    # newline="" writes "\r\n" as it stands
    traces.write_text(RESPELLINGS[spelling](_traces()), newline="")
    argv, digest = CASES[name]
    assert main([a.format(traces=traces) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _moment_rows():
    """Mean and central moments 2..16 of 64 seeded samples of 30, one row each.

    The moments are computed in plain Python floats, so the arrays do not
    depend on any numpy reduction.
    """
    rng = random.Random(11)
    means, central = [], {m: [] for m in range(2, 17)}
    for _ in range(64):
        scale = rng.getrandbits(5)
        xs = [1 + rng.getrandbits(3) * scale + rng.getrandbits(2) for _ in range(30)]
        mean = sum(xs) / 30
        means.append(mean)
        for m in central:
            central[m].append(sum((x - mean) ** m for x in xs) / 30)
    return np.array(means), {m: np.array(v) for m, v in central.items()}


def _float_scalar() -> bytes:
    sample = ResidenceSample(steps=tuple(_steps()))
    return ",".join(float(var_mrt_taylor(sample, m)).hex() for m in range(1, 9)).encode()


def _float_batch() -> bytes:
    mean, central = _moment_rows()
    return b"".join(
        evaluate_expression_batch(generate_expression(m), mean, central, 30).tobytes()
        for m in range(1, 9)
    )


def _exact() -> bytes:
    mom = exact_moments(DistributionSpec.geometric(Fraction(1, 20)), 16)
    return ",".join(
        str(evaluate_expression(generate_expression(m), mom, 30)) for m in range(1, 9)
    ).encode()


# the series evaluator at orders 1..8 in each regime, recorded before the
# exact, float and batch loops were merged into one
EVALUATOR_CASES = {
    "float-scalar": (
        _float_scalar,
        "38fd3f4d430991848fa17e41d906d3ef680159ec102567c30914c91363a8fbb5",
    ),
    "float-batch": (
        _float_batch,
        "53f2e38c8e90ecf47d1bd7aed45c0a59fbff5c740259cfabf0e09570556f81ef",
    ),
    "exact": (
        _exact,
        "493b9e7988ad0e6a04e2ddd46887cb56bfd1e170b134bdaf2ae2ec737c60053e",
    ),
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_CASES))
def test_evaluator_digest(name):
    produce, digest = EVALUATOR_CASES[name]
    assert hashlib.sha256(produce()).hexdigest() == digest


def _draw_rows(rows: int, cols: int, seed: int) -> np.ndarray:
    """A rows x cols float64 array of heavy-tailed integer steps."""
    rng = random.Random(seed)
    steps = [1 + rng.getrandbits(6) * rng.getrandbits(3) for _ in range(rows * cols)]
    return np.array(steps, dtype=np.float64).reshape(rows, cols)


# a full mc chunk at N=30, a short one at N=158, and one estimate-sized row
KERNEL_ROWS = ((4096, 30, 1), (64, 158, 2), (1, 200_000, 3))


def _row_moments() -> bytes:
    out = []
    for shape in KERNEL_ROWS:
        x = _draw_rows(*shape)
        mean, central = row_moments(x, x.sum(axis=1), 16)
        out += [mean.tobytes(), *(central[m].tobytes() for m in range(2, 17))]
    return b"".join(out)


def _ratio_rows() -> bytes:
    out = []
    for shape in KERNEL_ROWS:
        x = _draw_rows(*shape)
        x2 = x * x
        n = x.shape[1]
        out.append(ratio_variance_rows(x, x2, x.sum(axis=1) / n, x2.sum(axis=1) / n).tobytes())
    return b"".join(out)


# the float row kernels that mc and estimate share, recorded before they
# reused their temporaries in place
KERNEL_CASES = {
    "row-moments": (
        _row_moments,
        "801d658b957e286038a4fe295d8af74cd42f076d9eadc3219039f8d948317808",
    ),
    "ratio-rows": (
        _ratio_rows,
        "1e384f3a1fe644ea57b585e88eb2dd071301a1b75c45e466245876aaef65a59a",
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_digest(name):
    produce, digest = KERNEL_CASES[name]
    assert hashlib.sha256(produce()).hexdigest() == digest
