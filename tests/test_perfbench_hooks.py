"""perfbench's tracer still finds, counts through and restores every hook it wraps.

perfbench/spans.py is loaded by path, as the benchmark loads it, and its
Tracer is installed over the package.  A small extract and an order-2
gen-expr then run through cli.main, and each counter that the benchmark
reads is checked against a value computed here with the plain scans of
tests/oracles.py; an order-2 estimate must record the spans and the term
count that the benchmark's estimate job reads.  A move or rename in the
package that breaks a traced path fails here rather than in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import restime.cli  # noqa: F401  (imports every package module, as a benchmark run does)
from restime import taylor

from .oracles import gap_fill_reference, runs_reference

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TRACES = ["0 1 1 0 1 0 0 1 1 1 0", "1 1 0 0 0 1 0 1", "", "0 0 0", "1 0 1 1 0 1 0"]
K = 2


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every global of every package module, keyed by (module name, name)."""
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "restime" or name.startswith("restime.")
        for key, value in vars(module).items()
    }


def test_tracer_resolves_counts_and_restores(tmp_path, capsys):
    spans = _load_spans()
    hooks = {name: spans._resolve(module, path) for name, (module, path) in spans.TRACED.items()}
    originals = {name: getattr(*owner_attr) for name, owner_attr in hooks.items()}
    before = _bindings()
    source = tmp_path / "traces.txt"
    source.write_text("\n".join(TRACES) + "\n", encoding="utf-8")

    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, owner_attr in hooks.items():
            hook = getattr(*owner_attr)
            assert hook is not originals[name] and hook.__wrapped__ is originals[name], name
        cli = sys.modules["restime.cli"]  # its main looked up after install, as perfbench does
        assert cli.main(["extract", "--input", str(source), "--k", str(K)]) == 0
        extracted = capsys.readouterr().out
        assert cli.main(["gen-expr", "--order", "2", "--format", "json"]) == 0
        expression = json.loads(capsys.readouterr().out)
    finally:
        tracer.uninstall()

    assert all(getattr(*owner_attr) is originals[name] for name, owner_attr in hooks.items())
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())

    bits = [tuple(map(int, line.split())) for line in TRACES if line.split()]
    filled = [gap_fill_reference(b, K) for b in bits]
    kept = [x for f in filled for x in runs_reference(f, "drop")]
    assert extracted == "steps\n" + "".join(f"{x}\n" for x in kept)
    assert dict(tracer.counts) == {
        "trace.traces": len(bits),
        "trace.bits": sum(map(len, bits)),
        "trace.residences": len(kept),
        "trace.censored_runs": sum(len(runs_reference(f, "include")) for f in filled) - len(kept),
        "trace.bridged_gaps": sum(len(runs_reference(b, "include")) for b in bits)
        - sum(len(runs_reference(f, "include")) for f in filled),
        "taylor.order": 2,
        "taylor.terms": len(expression["terms"]),
    }
    recorded = {span[0] for span in tracer.spans}
    assert {"cli", "trace.parse_traces", "trace.filter_transient_escapes",
            "trace.extract_residences", "trace.collect_sample", "trace.write_steps_csv",
            "core.ResidenceSample", "taylor.generate_expression"} <= recorded
    # perfbench/child.py counts raw terms through this call
    blocks = taylor.expression_blocks(2)
    assert set(blocks) == {(1, 1), (1, 2), (2, 1), (2, 2)} and all(blocks.values())


def test_traced_estimate_records_its_layers_and_term_count(tmp_path, capsys):
    source = tmp_path / "steps.csv"
    source.write_text("steps\n3\n1\n4\n1\n5\n9\n2\n6\n")
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        cli = sys.modules["restime.cli"]
        argv = ["estimate", "--rts", str(source), "--method", "both", "--order", "2", "--dt", "0.1"]
        assert cli.main(argv) == 0
        assert set(json.loads(capsys.readouterr().out)["mrt_var_steps"]) == {"ratio", "taylor2"}
    finally:
        tracer.uninstall()
    assert tracer.counts["taylor.terms"] == len(taylor.generate_expression(2).terms)
    recorded = {span[0] for span in tracer.spans}
    assert {"estimators.build_report", "estimators.var_mrt_taylor", "estimators.var_mrt_ratio",
            "estimators.var_mean_residence", "moments.sample_moments",
            "taylor.generate_expression", "taylor.evaluate_expression"} <= recorded
