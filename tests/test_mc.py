import hashlib
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restime import mc, taylor
from restime.core import DistributionSpec, DomainError, format_rational
from restime.mc import (
    ExperimentConfig,
    exact_variance_small,
    replicate_stream,
    run_experiment,
    sample,
)
from restime.moments import exact_moments
from restime.taylor import evaluate_expression, generate_expression

from .oracles import enumeration_variance, multiset_enumeration_variance, per_row_draws

GEOM_HALF = DistributionSpec.geometric(Fraction(1, 2))


class TestSampling:
    def test_degenerate_support(self):
        s = sample(DistributionSpec.uniform(5, 5), 40, replicate_stream(0, 0))
        assert s.steps == (5,) * 40

    def test_repeatable(self):
        a = sample(GEOM_HALF, 100, replicate_stream(9, 4))
        b = sample(GEOM_HALF, 100, replicate_stream(9, 4))
        assert a.steps == b.steps

    def test_streams_differ_by_index(self):
        a = sample(GEOM_HALF, 100, replicate_stream(9, 0))
        b = sample(GEOM_HALF, 100, replicate_stream(9, 1))
        assert a.steps != b.steps

    def test_geometric_mean_matches(self):
        p = Fraction(3, 10)
        x = sample(DistributionSpec.geometric(p), 1_000_000, replicate_stream(5, 0)).floats
        se = math.sqrt(float((1 - p) / p**2) / 1_000_000)
        assert abs(x.mean() - float(1 / p)) <= 5 * se

    def test_geometric_support_starts_at_one(self):
        x = sample(DistributionSpec.geometric(Fraction(9, 10)), 10_000, replicate_stream(2, 0)).floats
        assert x.min() >= 1.0
        assert x == pytest.approx(np.round(x))

    def test_uniform_hits_both_ends(self):
        x = sample(DistributionSpec.uniform(3, 6), 5_000, replicate_stream(2, 1)).floats
        assert set(np.unique(x)) == {3.0, 4.0, 5.0, 6.0}

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample(GEOM_HALF, 0, replicate_stream(0, 0))

    def test_uniform_up_to_2_53_is_drawn_exactly(self):
        s = sample(DistributionSpec.uniform(2**53 - 2, 2**53), 200, replicate_stream(0, 0))
        assert set(s.steps) == {2**53 - 2, 2**53 - 1, 2**53}

    @pytest.mark.parametrize(
        "a, b", [(2**53 - 1, 2**53 + 1), (2**60 - 3, 2**60 - 1), (1, 2**63), (2**64, 2**70)]
    )
    def test_uniform_past_2_53_is_refused(self, a, b):
        # float64 rows would round the draws, and numpy refuses b >= 2**63
        dist = DistributionSpec.uniform(a, b)
        with pytest.raises(DomainError, match=rf"exact only up to 2\*\*53, got b={b}$"):
            sample(dist, 5, replicate_stream(0, 0))
        with pytest.raises(DomainError, match=r"2\*\*53"):
            ExperimentConfig(dist=dist, sizes=(3,), replicates=4, seed=0)

    @pytest.mark.parametrize("dist", [GEOM_HALF, DistributionSpec.uniform(3, 6)])
    def test_sample_holds_the_raw_draws(self, dist):
        x = per_row_draws(dist, 1000, replicate_stream(7, 2))
        s = sample(dist, 1000, replicate_stream(7, 2))
        assert s.steps == tuple(int(v) for v in x)
        assert all(type(v) is int for v in s.steps)
        assert s.floats.tobytes() == x.tobytes()

    @pytest.mark.parametrize("e", [310, 400])
    def test_draws_past_float64_are_one_domain_error(self, e):
        # p = 10**-400 is 0.0 as a float, p = 10**-310 is subnormal; a numpy
        # RuntimeWarning fails any test here, so this also checks that none is raised
        dist = DistributionSpec.geometric(Fraction(1, 10**e))
        with pytest.raises(DomainError, match=rf"^a draw from geom:p=1/1(0{{{e}}}) overflows float64$"):
            sample(dist, 3, replicate_stream(0, 0))

    def test_draws_past_int64_stay_exact(self):
        p = Fraction(1, 10**20)
        x = per_row_draws(DistributionSpec.geometric(p), 50, replicate_stream(1, 0))
        assert x.max() >= 2.0**63
        s = sample(DistributionSpec.geometric(p), 50, replicate_stream(1, 0))
        assert s.steps == tuple(int(v) for v in x)


def _ints(rng):
    # a power-of-two range rejects no 32-bit word, so a stale buffered half shows
    return rng.integers(0, 2**20, size=5)


def _floats(rng):
    return rng.random(9)


def _dice(rng):
    return rng.integers(1, 101, size=9)


class TestReplicateStream:
    @pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
    @pytest.mark.parametrize("index", [0, 1, 2**40])
    def test_reposition_equals_fresh_jumped_generator(self, seed, index):
        built = replicate_stream(seed, index)
        fresh = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        assert np.array_equal(_floats(built), _floats(fresh))
        rng = replicate_stream(7, 3)
        # leave a buffered 64-bit word and a buffered 32-bit half behind
        rng.random(3)
        rng.integers(0, 2**20, size=3)
        state = rng.bit_generator.state
        assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
        for draws in ((_ints, _floats, _dice), (_floats, _dice, _ints)):
            assert replicate_stream(seed, index, rng) is rng
            fresh = np.random.Generator(np.random.Philox(key=seed).jumped(index))
            for draw in draws:
                assert np.array_equal(draw(rng), draw(fresh))

    def test_template_takes_each_seed(self):
        # each call rewrites both key words, so a stale word from the last seed shows
        rng = None
        for seed, index in ((2**128 - 1, 5), (3, 5), (2**64, 0), (2**128 - 1, 2**40)):
            rng = replicate_stream(seed, index, rng)
            fresh = np.random.Generator(np.random.Philox(key=seed).jumped(index))
            assert np.array_equal(_floats(rng), _floats(fresh))


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig(dist=GEOM_HALF, sizes=(), replicates=10, seed=0)
        with pytest.raises(DomainError):
            ExperimentConfig(dist=GEOM_HALF, sizes=(10,), replicates=1, seed=0)
        with pytest.raises(DomainError):
            ExperimentConfig(
                dist=GEOM_HALF, sizes=(10,), replicates=10, seed=0, estimators=("median",)
            )

    def test_taylor_labels(self):
        cfg = ExperimentConfig(
            dist=GEOM_HALF, sizes=(10,), replicates=10, seed=0, estimators=("taylor3",)
        )
        assert cfg.estimators == ("taylor3",)

    @pytest.mark.parametrize("label", ["taylor0", "taylor9", "taylor12"])
    def test_labels_share_the_report_grammar(self, label):
        # the same labels build_report rejects
        with pytest.raises(DomainError):
            ExperimentConfig(
                dist=GEOM_HALF, sizes=(10,), replicates=10, seed=0, estimators=(label,)
            )


def _record_batches(monkeypatch) -> list:
    """Log (order, N, rows) of every series batch evaluation from now on."""
    calls = []
    batch = taylor.evaluate_expression_batch

    def spy(expr, mean, central, n):
        calls.append((expr.order, n, mean.size))
        return batch(expr, mean, central, n)

    monkeypatch.setattr(taylor, "evaluate_expression_batch", spy)
    return calls


class TestRunExperiment:
    def test_minimal_run(self):
        cfg = ExperimentConfig(dist=GEOM_HALF, sizes=(5,), replicates=2, seed=1)
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].reference_var >= 0
        assert set(rows[0].means) == {"ratio", "taylor8"}

    def test_rerun_is_bit_identical(self):
        cfg = ExperimentConfig(dist=GEOM_HALF, sizes=(25,), replicates=400, seed=8)
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_reference_matches_exact_enumeration(self):
        d = DistributionSpec.uniform(93, 100)
        exact = float(exact_variance_small(d, 10))
        cfg = ExperimentConfig(
            dist=d, sizes=(10,), replicates=200_000, seed=2, estimators=("ratio",)
        )
        row = run_experiment(cfg)[0]
        assert abs(row.reference_var - exact) <= 5 * row.reference_var_se

    def test_reference_matches_series_value_at_large_n(self):
        d = DistributionSpec.uniform(1, 100)
        cfg = ExperimentConfig(
            dist=d, sizes=(10_000,), replicates=20_000, seed=1, estimators=("ratio",)
        )
        row = run_experiment(cfg)[0]
        series = float(evaluate_expression(generate_expression(8), exact_moments(d, 16), 10_000))
        assert abs(row.reference_var / series - 1) < 0.05

    def test_one_evaluation_per_size_and_series(self, monkeypatch):
        calls = _record_batches(monkeypatch)
        cfg = ExperimentConfig(
            dist=DistributionSpec.geometric(Fraction(1, 20)),
            sizes=(30, 158),
            replicates=10_000,
            seed=0,
            estimators=("ratio", "taylor2", "taylor8"),
        )
        run_experiment(cfg)
        assert calls == [(2, 30, 10_000), (8, 30, 10_000), (2, 158, 10_000), (8, 158, 10_000)]

    @pytest.mark.parametrize("n, reps, order", [(158, 3000, 8), (5, 20_000, 8), (30, 5000, 2), (20_000, 20, 1)])
    def test_peak_bytes_predicts_the_traced_peak(self, n, reps, order):
        cfg = ExperimentConfig(dist=GEOM_HALF, sizes=(n,), replicates=reps, seed=3,
                               estimators=("ratio", f"taylor{order}"))
        run_experiment(cfg)  # the expression and its prepared form are kept from here on
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        predicted = mc._layout(n, reps, 2, 2 * order)[2]
        assert 0.6 * predicted < peak < 1.05 * predicted

    def test_memory_limit_is_checked_per_size_before_any_work(self, monkeypatch):
        cfg = ExperimentConfig(dist=GEOM_HALF, sizes=(5, 40), replicates=50, seed=1)
        need = mc._layout(40, 50, 2, 16)[2]
        assert need > mc._layout(5, 50, 2, 16)[2]
        monkeypatch.setattr(mc, "_MEMORY_LIMIT", need)
        assert len(run_experiment(cfg)) == 2
        monkeypatch.setattr(mc, "_MEMORY_LIMIT", need - 1)
        monkeypatch.setattr(mc, "replicate_stream", None)  # N=5 drawing first would fail
        with pytest.raises(DomainError, match="^N=40 with 50 replicates needs about"):
            run_experiment(cfg)

    @pytest.mark.parametrize("e, labels, what", [
        (20, ("ratio", "taylor8"), "estimator taylor8"),
        (300, ("ratio", "taylor8"), "the residual-time statistic"),
        (80, ("taylor1",), "the replicate summary"),
    ], ids=["estimate", "statistic", "summary"])
    def test_overflow_is_one_domain_error(self, e, labels, what):
        # a numpy RuntimeWarning fails any test here, so this also checks that none is raised
        cfg = ExperimentConfig(dist=DistributionSpec.geometric(Fraction(1, 10**e)), sizes=(3,),
                               replicates=4, seed=0, estimators=labels)
        with pytest.raises(DomainError, match=f"^N=3: {what} overflows float64$"):
            run_experiment(cfg)


ENGINE_DISTS = [
    DistributionSpec.geometric(Fraction(1, 20)),
    GEOM_HALF,
    DistributionSpec.geometric(Fraction(9, 10)),
    DistributionSpec.uniform(1, 100),
    DistributionSpec.uniform(5, 5),
    # a power-of-two width rejects no 32-bit word
    DistributionSpec.uniform(93, 100),
]


class TestEngineMatchesReference:
    """run_experiment rows equal, bit for bit, those of a fresh Generator per replicate."""

    @staticmethod
    def _per_replicate_engine(cfg, monkeypatch):
        """run_experiment with a fresh jumped Generator and a finished row per replicate."""
        calls = []

        def fresh_stream(seed, index, rng=None):
            calls.append(index)
            return np.random.Generator(np.random.Philox(key=seed).jumped(index))

        def fill_row(dist, row, rng):
            row[:] = per_row_draws(dist, row.size, rng)

        monkeypatch.setattr(mc, "replicate_stream", fresh_stream)
        monkeypatch.setattr(mc, "_fill_row", fill_row)
        monkeypatch.setattr(mc, "_finish_rows", lambda dist, x: x)
        rows = run_experiment(cfg)
        # one stream per replicate, in order, or rows would share draws unseen
        assert calls == list(range(cfg.replicates)) * len(cfg.sizes)
        return rows

    @pytest.mark.parametrize("seed", [0, 11, 2**100 + 7])
    @pytest.mark.parametrize("dist", ENGINE_DISTS, ids=str)
    def test_grid(self, dist, seed, monkeypatch):
        cfg = ExperimentConfig(dist=dist, sizes=(1, 2, 30, 158), replicates=300, seed=seed)
        rows = run_experiment(cfg)
        # repr tells floats apart bit for bit, -0.0 from 0.0 included
        assert repr(rows) == repr(self._per_replicate_engine(cfg, monkeypatch))

    def test_multi_chunk(self, monkeypatch):
        # with a 2,000,000-draw budget N=1000 takes chunks of 2000 rows, so
        # 4500 replicates span three
        monkeypatch.setattr(mc, "CHUNK_DRAWS", 2_000_000)
        cfg = ExperimentConfig(
            dist=DistributionSpec.geometric(Fraction(1, 20)),
            sizes=(1000,),
            replicates=4500,
            seed=11,
        )
        rows = run_experiment(cfg)
        assert repr(rows) == repr(self._per_replicate_engine(cfg, monkeypatch))

    @pytest.mark.parametrize(
        "draws, block, evaluated",
        [
            # a block rounds down to whole chunks, and holds at least one;
            # with a 2,000,000-draw budget N=30 takes chunks of 4096 rows,
            # N=1000 chunks of 2000
            (2_000_000, 1000, [4096, 404, 2000, 2000, 500]),
            (2_000_000, 4000, [4096, 404, 4000, 500]),
            # with the default 65,536 N=30 takes chunks of 2184 rows and
            # N=1000 chunks of 65, so a 1000-row block holds 15 of them
            (65_536, 1000, [2184, 2184, 132, 975, 975, 975, 975, 600]),
        ],
        ids=["block1000", "block4000", "draws65536-block1000"],
    )
    def test_multi_block(self, draws, block, evaluated, monkeypatch):
        cfg = ExperimentConfig(
            dist=DistributionSpec.geometric(Fraction(1, 20)),
            sizes=(30, 1000),
            replicates=4500,
            seed=11,
            estimators=("ratio", "taylor8"),
        )
        monkeypatch.setattr(mc, "CHUNK_DRAWS", draws)
        monkeypatch.setattr(mc, "EVAL_BLOCK", block)
        calls = _record_batches(monkeypatch)
        rows = run_experiment(cfg)
        assert [size for _, _, size in calls] == evaluated
        # the per-replicate engine runs with the default block, one per size
        monkeypatch.undo()
        assert repr(rows) == repr(self._per_replicate_engine(cfg, monkeypatch))

    def test_rows_do_not_depend_on_the_draw_budget(self, monkeypatch):
        cfg = ExperimentConfig(
            dist=DistributionSpec.geometric(Fraction(1, 20)),
            sizes=(30, 158),
            replicates=3000,
            seed=11,
            estimators=("ratio", "taylor8"),
        )
        outputs = []
        # chunks at N=30 and N=158: 3000 and 3000 rows, 2184 and 414, 33 and 16
        for draws in (2_000_000, 65_536, 1000):
            monkeypatch.setattr(mc, "CHUNK_DRAWS", draws)
            outputs.append(repr(run_experiment(cfg)))
        assert outputs[0] == outputs[1] == outputs[2]


class TestExactVariance:
    def test_single_draw_two_outcomes(self):
        assert exact_variance_small(DistributionSpec.uniform(1, 2), 1) == Fraction(1, 16)

    def test_degenerate_support_is_zero(self):
        for n in (1, 3, 10):
            assert exact_variance_small(DistributionSpec.uniform(4, 4), n) == 0

    def test_matches_full_enumeration(self):
        for a, b, n in ((1, 3, 2), (1, 3, 4), (2, 5, 3), (1, 4, 4)):
            got = exact_variance_small(DistributionSpec.uniform(a, b), n)
            want = enumeration_variance(a, b, n)
            assert got == want
            assert multiset_enumeration_variance(a, b, n) == want

    def test_geometric_not_enumerable(self):
        with pytest.raises(DomainError):
            exact_variance_small(GEOM_HALF, 3)

    def test_work_guard(self):
        # predicted work 4.3e6 is over the bound: refused, not computed
        with pytest.raises(DomainError, match="exceeded the tractability guard"):
            exact_variance_small(DistributionSpec.uniform(1, 100), 30)

    def test_refusal_does_no_work(self):
        # the work of this input is astronomical; only an up-front check ends it in time
        start = time.perf_counter()
        with pytest.raises(DomainError, match="exceeded the tractability guard"):
            exact_variance_small(DistributionSpec.uniform(1, 10**6), 50)
        assert time.perf_counter() - start < 0.5

    @given(
        # a up to 10^12 and widths up to 10 vary the packed field width from 1 to 29 bytes
        st.integers(min_value=1, max_value=10**12),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_multiset_enumeration(self, a, width, n):
        got = exact_variance_small(DistributionSpec.uniform(a, a + width), n)
        assert got == multiset_enumeration_variance(a, a + width, n)

    def test_largest_accepted_class_keeps_its_value(self):
        # uniform 1..50 at N=40 (predicted work 1,913,000, just under the guard), as
        # computed by the triple recurrence over S that the packed products replaced
        v = exact_variance_small(DistributionSpec.uniform(1, 50), 40)
        digest = hashlib.sha256(f"{v.numerator}/{v.denominator}".encode()).hexdigest()
        assert digest == "d7cfbf242726592e8e0f4895c98130ed587fe792e3db145a7a15df5aecaa515c"
        assert format_rational(v, 20) == "0.95891475157278695800"

    def test_rejects_zero_draws(self):
        with pytest.raises(DomainError):
            exact_variance_small(DistributionSpec.uniform(1, 2), 0)
