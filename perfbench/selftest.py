"""Self-tests of the benchmark harness (not of restime).

Usage: python3 perfbench/selftest.py

Checks the self-time arithmetic on nested fake calls, that inputs depend
only on the seed, that each oracle accepts restime's real output and
rejects it with one byte corrupted, that the tracer puts back every
object it replaced, and that the spawner reports exit codes and memory.
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

import harness
import spans
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _fake_package(clock: FakeClock) -> dict[str, types.ModuleType]:
    """fakepkg.inner costs 5, fakepkg.outer 1 + inner + 2 + inner + 3, also bound by name in fakepkg.user."""
    inner_mod = types.ModuleType("fakepkg.inner_mod")

    def inner():
        clock.now += 5

    inner_mod.inner = inner
    user = types.ModuleType("fakepkg.user")
    user.inner = inner

    def outer():
        clock.now += 1
        user.inner()
        clock.now += 2
        user.inner()
        clock.now += 3

    user.outer = outer
    return {"fakepkg": types.ModuleType("fakepkg"), "fakepkg.inner_mod": inner_mod, "fakepkg.user": user}


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.modules = _fake_package(self.clock)
        sys.modules.update(self.modules)
        self.addCleanup(lambda: [sys.modules.pop(name) for name in self.modules])

    def tracer(self, counters=None):
        traced = {"fake.outer": ("fakepkg.user", "outer"), "fake.inner": ("fakepkg.inner_mod", "inner")}
        return spans.Tracer(traced, counters or {}, self.clock, package="fakepkg")

    def test_nested_calls(self):
        tracer = self.tracer()
        with tracer:
            self.modules["fakepkg.user"].outer()
        times = spans.self_times(tracer.spans)
        self.assertEqual(times["fake.outer"], (6, 1))
        self.assertEqual(times["fake.inner"], (10, 2))

    def test_counting_time_is_not_charged_to_the_caller(self):
        def slow_counter(counts, args, kwargs, result):
            counts["inner.calls"] += 1
            self.clock.now += 100

        tracer = self.tracer({"fake.inner": slow_counter})
        with tracer:
            self.modules["fakepkg.user"].outer()
        self.assertEqual(spans.self_times(tracer.spans)["fake.outer"], (6, 1))
        self.assertEqual(tracer.counts["inner.calls"], 2)

    def test_self_times_of_recorded_spans(self):
        # root 0..100 with children 10..40 and 50..60; the first has a child 20..25
        recorded = [["a", 0, 100, -1, 0], ["b", 10, 40, 0, 0], ["c", 20, 25, 1, 0], ["b", 50, 60, 0, 7]]
        self.assertEqual(spans.self_times(recorded), {"a": (60, 1), "b": (25 + 3, 2), "c": (5, 1)})


class RestoreTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        restime = harness.import_restime()
        from restime import cli, core, estimators, mc, moments, taylor, trace

        modules = [restime, cli, core, estimators, mc, moments, taylor, trace]
        before = [dict(vars(m)) for m in modules]
        init = core.ResidenceSample.__init__
        tracer = spans.Tracer()
        with tracer:
            self.assertIsNot(estimators.generate_expression, taylor.generate_expression.__wrapped__)
            self.assertIs(estimators.generate_expression, taylor.generate_expression)
            self.assertIsNot(cli.format_rational, core.format_rational.__wrapped__)
            self.assertIsNot(core.ResidenceSample.__init__, init)
        for mod, saved in zip(modules, before):
            for key, value in saved.items():
                self.assertIs(vars(mod)[key], value, f"{mod.__name__}.{key}")
        self.assertIs(core.ResidenceSample.__init__, init)


class GeneratorTest(unittest.TestCase):
    def test_inputs_depend_only_on_the_seed(self):
        with tempfile.TemporaryDirectory(dir=_work()) as a, tempfile.TemporaryDirectory(dir=_work()) as b:
            for name in ("ingest", "estimate"):
                files = []
                for seed, where in ((3, a), (3, b), (4, a)):
                    job = workloads.WORKLOADS[name](seed, Path(where))
                    files.append(Path(job.argv[2]).read_bytes())
                self.assertEqual(files[0], files[1], name)
                self.assertNotEqual(files[0], files[2], name)

    def test_planted_residences_bridge_and_censor(self):
        # runs: stay 3, gap 2 (bridged at k=3), stay 4, gap 5, stay 6, gap 1, stay 2
        runs = [3, 2, 4, 5, 6, 1, 2]
        self.assertEqual(workloads.planted_residences(runs, 3), ([], 2, 2))
        self.assertEqual(workloads.planted_residences(runs, 1), ([4, 6], 2, 0))


def _work() -> Path:
    harness.WORK.mkdir(parents=True, exist_ok=True)
    return harness.WORK


class SpawnerTest(unittest.TestCase):
    def test_reports_output_exit_code_and_memory(self):
        with harness.Spawner() as spawner, tempfile.TemporaryDirectory(dir=_work()) as tmp:
            ok = spawner.run([sys.executable, "-c", "print('hi')"], Path(tmp) / "ok.out")
            bad = spawner.run([sys.executable, "-c", "raise SystemExit(3)"], Path(tmp) / "bad.out")
        self.assertEqual((ok.stdout, ok.failure()), (b"hi\n", None))
        self.assertGreater(ok.maxrss_mb, 1)
        self.assertIn("exit code 3", bad.failure())


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = harness.import_restime().cli
        cls.tmp = tempfile.TemporaryDirectory(dir=_work())
        cls.work = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def real_output(self, job) -> bytes:
        res = harness.warm_call(self.cli.main, job.argv, self.work / f"{job.name}.out")
        self.assertIsNone(res.failure())
        self.assertIsNone(job.check(res.stdout), job.name)
        return res.stdout

    def assert_rejects_corruption(self, job, out: bytes, positions) -> None:
        for pos in positions:
            bad = bytearray(out)
            bad[pos] = ord("7") if bad[pos] != ord("7") else ord("3")
            self.assertIsNotNone(job.check(bytes(bad)), f"{job.name} accepted a change at byte {pos}")

    def test_exact_match_oracles(self):
        for name in ("ingest", "reference"):
            job = workloads.WORKLOADS[name](0, self.work)
            out = self.real_output(job)
            self.assert_rejects_corruption(job, out, range(0, len(out), max(1, len(out) // 50)))

    def test_replicates_oracle_at_the_recorded_seed(self):
        job = workloads.WORKLOADS["replicates"](workloads.REPLICATE_DEFAULT_SEED, self.work)
        out = self.real_output(job)
        self.assert_rejects_corruption(job, out, range(0, len(out), 7))

    def test_estimate_oracle(self):
        job = workloads.WORKLOADS["estimate"](0, self.work)
        out = self.real_output(job)
        text = out.decode()
        report = json.loads(text)
        # the leading digit of every value the oracle recomputes
        for value in (report["mrt_steps"], report["mRT_steps"], report["mrt_var_steps"]["ratio"],
                      report["mrt_var_steps"]["taylor8"], report["mrt_time"], report["n"]):
            pos = text.index(repr(value))
            pos += 2 if repr(value).startswith("0.") else 0
            self.assert_rejects_corruption(job, out, [pos])


if __name__ == "__main__":
    unittest.main()
