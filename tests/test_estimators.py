import json
import math
import re
import time
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restime import mc
from restime.core import DistributionSpec, DomainError, MomentVector, ResidenceSample
from restime.estimators import (
    build_report,
    mean_residence_steps,
    mean_residual_steps,
    ratio_variance_from_moments,
    rt_autocorrelation,
    var_mean_residence,
    var_mrt_ratio,
    var_mrt_taylor,
)
from restime.moments import exact_moments, sample_moments
from restime.taylor import evaluate_expression, generate_expression

from .oracles import (
    autocorr_direct,
    first_overflow,
    format_fixed,
    inspection_identity_rhs,
    ratio_from_sums,
    raw_from_central,
    report_mismatches,
    report_reference,
    statistic,
)

samples = st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=60)


class TestPointEstimates:
    def test_all_ones(self):
        assert mean_residual_steps(ResidenceSample(steps=(1, 1, 1))) == 1

    @pytest.mark.parametrize("x", [1, 2, 7, 1000])
    def test_single_residence(self, x):
        got = mean_residual_steps(ResidenceSample(steps=(x,)))
        assert got == Fraction(1, 2) + Fraction(x, 2)

    def test_small_sample(self):
        assert mean_residual_steps(ResidenceSample(steps=(1, 2, 3))) == Fraction(5, 3)

    def test_residence_mean_and_variance(self):
        s = ResidenceSample(steps=(2, 2, 2))
        assert mean_residence_steps(s) == 2
        assert var_mean_residence(s) == 0

    def test_two_point_variance(self):
        s = ResidenceSample(steps=(1, 3))
        assert mean_residence_steps(s) == 2
        assert var_mean_residence(s) == 1

    def test_one_two_three_variance(self):
        assert var_mean_residence(ResidenceSample(steps=(1, 2, 3))) == Fraction(1, 3)

    def test_variance_needs_two(self):
        with pytest.raises(DomainError):
            var_mean_residence(ResidenceSample(steps=(5,)))

    @pytest.mark.parametrize(
        "steps",
        [
            (1, 2, 3),
            (67108863, 67108863),  # n*max^2 just under 2^53: sums from the float array
            (67108864, 67108864),  # exactly 2^53 and above: Python-int sums
            (10**8, 10**8),
            (3, 5, 10**20),
            (10, 69057710105581731),  # float sums would move the mean by one ulp
        ],
    )
    def test_float_means_use_exact_integer_sums(self, steps):
        s = ResidenceSample(steps=steps)
        s1, s2 = sum(steps), sum(x * x for x in steps)
        assert float(mean_residual_steps(s)) == 0.5 + s2 / (2.0 * s1)
        assert float(mean_residence_steps(s)) == s1 / len(steps)


@given(samples)
@settings(max_examples=80)
def test_residual_mean_matches_definition_and_exceeds_one(steps):
    s = ResidenceSample(steps=tuple(steps))
    assert mean_residual_steps(s) == statistic(steps)
    assert mean_residual_steps(s) >= 1
    assert math.isclose(mean_residual_steps(s), float(statistic(steps)), rel_tol=1e-13)


# int64 arrays of steps up to 2^63 - 1, and tuples with one step past int64
# (up to 10^40), which a sample holds as an object array of Python ints
_int64_samples = st.lists(st.integers(min_value=1, max_value=2**63 - 1), min_size=1, max_size=40)
_wide_samples = st.builds(
    lambda xs, big: (*xs, big),
    st.lists(st.integers(min_value=1, max_value=10**40), max_size=39),
    st.integers(min_value=2**63, max_value=10**40),
)


@given(st.one_of(_int64_samples.map(lambda xs: np.array(xs, dtype=np.int64)), _wide_samples))
@settings(max_examples=120)
@example(np.array([1], dtype=np.int64))
@example(np.array([2**63 - 1, 1], dtype=np.int64))
@example((1, 10**40))
def test_point_estimates_and_mean_variance_match_definitions(steps):
    """mRT, its variance and mrT equal their exact Fraction definitions,
    whatever the steps' size and dtype."""
    s = ResidenceSample(steps=steps)
    assert s.array.dtype == (np.int64 if isinstance(steps, np.ndarray) else object)
    xs = [int(x) for x in steps]
    n, total = len(xs), sum(xs)
    m = Fraction(total, n)
    assert mean_residence_steps(s) == m
    assert mean_residual_steps(s) == Fraction(1, 2) + Fraction(sum(x * x for x in xs), 2 * total)
    if n < 2:
        with pytest.raises(DomainError, match="at least two residences"):
            var_mean_residence(s)
    else:
        assert var_mean_residence(s) == sum((x - m) ** 2 for x in xs) / (n * (n - 1))


@given(samples, st.randoms())
@settings(max_examples=50)
def test_permutation_invariance(steps, rng):
    shuffled = list(steps)
    rng.shuffle(shuffled)
    a, b = ResidenceSample(steps=tuple(steps)), ResidenceSample(steps=tuple(shuffled))
    assert mean_residual_steps(a) == mean_residual_steps(b)
    assert var_mrt_ratio(a) == var_mrt_ratio(b)
    if len(steps) >= 2:
        assert var_mean_residence(a) == var_mean_residence(b)


class TestRatioVariance:
    def test_constant_sample_vanishes(self):
        assert var_mrt_ratio(ResidenceSample(steps=(4, 4, 4))) == 0

    def test_matches_moment_polynomial_form(self):
        s = ResidenceSample(steps=(3, 1, 4, 1, 5, 9, 2, 6))
        mom = sample_moments(s)
        assert var_mrt_ratio(s) == ratio_variance_from_moments(mom, s.n)

    def test_narrow_uniform_reference_value(self):
        from restime.core import format_rational

        mom = exact_moments(DistributionSpec.uniform(93, 100), 4)
        v = ratio_variance_from_moments(mom, 10)
        assert format_rational(v, 16) == "0.1311584285189072"

    def test_geometric_reference_value(self):
        mom = exact_moments(DistributionSpec.geometric(Fraction(1, 20)), 4)
        assert format_fixed(ratio_variance_from_moments(mom, 30), 2) == "24.70"

    @given(st.lists(st.integers(min_value=1, max_value=10**30), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_exact_matches_the_integer_sum_oracle(self, steps):
        assert var_mrt_ratio(ResidenceSample(steps=tuple(steps))) == ratio_from_sums(steps)

    @pytest.mark.parametrize("dist", [
        DistributionSpec.geometric(Fraction(1, 20)),
        DistributionSpec.geometric(Fraction(2, 7)),
        DistributionSpec.uniform(1, 40),
        DistributionSpec.uniform(93, 100),
    ])
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_central_form_equals_the_raw_moment_bracket(self, dist, n):
        mom = exact_moments(dist, 4)
        m1, m2, m3, m4 = (raw_from_central(mom.central, mom.mean)[j] for j in (1, 2, 3, 4))
        bracket = m4 - 2 * m2 * m3 / m1 + m2**3 / m1**2
        assert ratio_variance_from_moments(mom, n) == bracket / (4 * n * m1 * m1)

    def test_float_order_two_alone_is_refused(self):
        mom = MomentVector(mean=2.0, central={2: 1.0})
        with pytest.raises(DomainError, match=r"central orders \[3, 4\] missing"):
            ratio_variance_from_moments(mom, 5)

    def test_int_valued_moments_are_evaluated_exactly(self):
        # int moments once took the float path, as only a Fraction mean was exact
        mom = MomentVector(mean=3, central={2: 1, 3: 0, 4: 1})
        assert ratio_variance_from_moments(mom, 7) == Fraction(16, 567)
        assert evaluate_expression(generate_expression(2), mom, 7) == Fraction(151, 4116)


class TestTaylorVariance:
    def test_constant_sample_vanishes(self):
        s = ResidenceSample(steps=(6, 6, 6, 6))
        for order in range(1, 9):
            assert var_mrt_taylor(s, order) == 0

    def test_order_one_closed_form(self):
        s = ResidenceSample(steps=(2, 9, 4, 4, 7))
        mom = sample_moments(s)
        assert var_mrt_taylor(s, 1) == mom.central[2] / (4 * s.n)

    def test_order_bounds(self):
        s = ResidenceSample(steps=(1, 2))
        with pytest.raises(DomainError):
            var_mrt_taylor(s, 0)
        with pytest.raises(DomainError):
            var_mrt_taylor(s, 9)

    def test_mean_tracks_reference_at_moderate_size(self):
        # the plug-in moments bias the order-8 estimator low in this regime
        # (measured about -7% of the reference), so the check allows 10%
        cfg = mc.ExperimentConfig(
            dist=DistributionSpec.geometric(Fraction(1, 10)),
            sizes=(158,),
            replicates=100_000,
            seed=0,
            estimators=("taylor8",),
        )
        row = mc.run_experiment(cfg)[0]
        assert abs(row.means["taylor8"] / row.reference_var - 1) < 0.10


@given(samples)
@settings(max_examples=40, deadline=None)
def test_variance_estimators_nonnegative_on_samples(steps):
    s = ResidenceSample(steps=tuple(steps))
    assert var_mrt_ratio(s) >= 0
    assert var_mrt_taylor(s, 2) >= 0


class TestIdentity:
    def test_small_sample_float(self):
        s = ResidenceSample(steps=(1, 2, 3))
        assert abs(mean_residual_steps(s) - inspection_identity_rhs(s.steps)) < 1e-15

    def test_single_value_exact(self):
        rhs = inspection_identity_rhs((5,), exact=True)
        assert abs(mean_residual_steps(ResidenceSample(steps=(5,))) - rhs) == 0

    @given(samples)
    @settings(max_examples=60)
    def test_exact_identity_everywhere(self, steps):
        s = ResidenceSample(steps=tuple(steps))
        rhs = inspection_identity_rhs(s.steps, exact=True)
        assert abs(mean_residual_steps(s) - rhs) == 0


class TestAutocorrelation:
    def test_alternating_is_strongly_negative(self):
        rows = rt_autocorrelation([[1, 2] * 10], max_lag=1)
        lag, mean_r, sd_r = rows[1]
        assert mean_r < -0.9
        assert sd_r == 0.0

    def test_lag_zero_is_one(self):
        rows = rt_autocorrelation([[4, 1, 3, 2], [2, 5, 2, 5]], max_lag=0)
        assert rows == [(0, 1.0, 0.0)]

    def test_matches_direct_definition(self):
        rts = [5, 2, 9, 4, 4, 7, 1]
        rows = rt_autocorrelation([rts], max_lag=3)
        expected = autocorr_direct(rts, 3)
        for (lag, mean_r, _), want in zip(rows, expected):
            assert math.isclose(mean_r, float(want), rel_tol=1e-12)

    def test_short_traces_do_not_contribute(self):
        with pytest.warns(UserWarning, match=r"^1 trace\(s\) with fewer than max_lag\+2"):
            rows = rt_autocorrelation([[1, 2], [3, 1, 4, 1, 5]], max_lag=2)
        # only the second trace is long enough, so spread columns are zero
        assert all(sd == 0.0 for _, _, sd in rows)

    def test_constant_trace_warns_and_is_excluded(self):
        with pytest.warns(UserWarning, match="constant"):
            rows = rt_autocorrelation([[3, 3, 3, 3], [1, 5, 2, 4]], max_lag=1)
        assert len(rows) == 2

    def test_all_excluded_is_an_error(self):
        with pytest.raises(DomainError), pytest.warns(UserWarning, match="1 trace"):
            rt_autocorrelation([[1, 2]], max_lag=3)

    def test_memory_is_bounded_by_the_input(self):
        # no trace is long enough, so nothing may be sized by max_lag alone
        tracemalloc.start()
        try:
            with pytest.raises(DomainError), pytest.warns(UserWarning, match="1 trace"):
                rt_autocorrelation([[1, 2, 3]], 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_iid_traces_have_no_lag_one_signal(self):
        dist = DistributionSpec.geometric(Fraction(1, 2))
        traces = [
            list(mc.sample(dist, 60, mc.replicate_stream(4, i)).steps)
            for i in range(300)
        ]
        _, mean_r, sd_r = rt_autocorrelation(traces, max_lag=1)[1]
        assert abs(mean_r) <= 5 * sd_r / math.sqrt(300)


class TestReport:
    def test_unit_conversion(self):
        rep = build_report(ResidenceSample(steps=(1, 2, 3)), dt=0.1)
        assert math.isclose(rep.mrt_time, (5 / 3) * 0.1, rel_tol=1e-15)
        assert math.isclose(rep.mRT_time, 0.2, rel_tol=1e-15)
        for label in rep.methods:
            assert math.isclose(
                rep.mrt_var_time[label], rep.mrt_var_steps[label] * 0.01, rel_tol=1e-15
            )

    def test_no_dt_means_no_time_fields(self):
        rep = build_report(ResidenceSample(steps=(1, 2, 3)))
        assert rep.mrt_time is None
        assert rep.mrt_var_time is None
        assert rep.mRT_sd_time is None

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError, match="dt must be positive"):
            build_report(ResidenceSample(steps=(2, 3)), dt=0.0)
        for dt in (math.inf, np.float64("inf")):
            with pytest.raises(DomainError, match="^dt must be positive and finite, got inf$"):
                build_report(ResidenceSample(steps=(3, 5, 9)), dt=dt)

    def test_sd_squares_back_to_variance(self):
        rep = build_report(ResidenceSample(steps=(3, 1, 4, 1, 5, 9)), dt=0.1)
        for label in rep.methods:
            assert math.isclose(
                rep.mrt_sd_steps[label] ** 2, rep.mrt_var_steps[label], rel_tol=1e-15
            )
        assert math.isclose(rep.mRT_sd_steps**2, rep.mRT_var_steps, rel_tol=1e-15)

    def test_method_selection(self):
        rep = build_report(ResidenceSample(steps=(2, 5, 3)), methods=("taylor2",))
        assert set(rep.mrt_var_steps) == {"taylor2"}

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            build_report(ResidenceSample(steps=(2, 5, 3)), methods=("midpoint",))

    @pytest.mark.parametrize("label", ["taylor0", "taylor9", "taylor12", "taylor", "taylor08"])
    def test_rejects_series_labels_outside_one_to_eight(self, label):
        with pytest.raises(DomainError):
            build_report(ResidenceSample(steps=(2, 5, 3)), methods=(label,))

    def test_int64_sample_builds_no_tuple_of_ints(self):
        s = ResidenceSample(steps=np.array([3, 1, 4, 1, 5, 9], dtype=np.int64))
        rep = build_report(s, dt=0.1, methods=("ratio", "taylor8"))
        assert "steps" not in vars(s)
        assert rep == build_report(ResidenceSample(steps=(3, 1, 4, 1, 5, 9)), dt=0.1,
                                   methods=("ratio", "taylor8"))

    def test_each_power_sum_is_taken_once_per_sample(self):
        """A ratio and order-8 report takes the power sums of orders 1..16
        once each: one pass over the distinct values per order."""

        class Counted(np.ndarray):
            passes = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Counted.passes += 1
                inputs = [x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        steps = (3, 1, 4, 1, 5, 9, 2, 6)
        s = ResidenceSample(steps=steps)
        values, counts = s.histogram
        vars(s)["histogram"] = values.view(Counted), counts
        rep = build_report(s, dt=0.1, methods=("ratio", "taylor8"))
        assert Counted.passes == 16
        assert rep == build_report(ResidenceSample(steps=steps), dt=0.1, methods=("ratio", "taylor8"))

    def test_json_payload_is_complete(self):
        rep = build_report(ResidenceSample(steps=(2, 5, 3)), dt=0.2)
        payload = json.loads(rep.to_json())
        assert payload["n"] == 3
        assert set(payload["mrt_var_steps"]) == {"ratio", "taylor8"}

    @given(
        st.lists(st.one_of(st.integers(min_value=1, max_value=60),
                           st.integers(min_value=1, max_value=10**160)), min_size=2, max_size=8),
        st.lists(st.sampled_from(["ratio", *(f"taylor{m}" for m in range(1, 9))]),
                 min_size=1, max_size=2, unique=True),
        st.one_of(st.none(), st.floats(min_value=1e-300, max_value=1e300)),
    )
    @example([3, 5, 10**20], ["ratio", "taylor8"], None)
    @example([3, 5, 10**154], ["ratio", "taylor8"], 0.1)
    @example([3, 5, 9], ["ratio"], 1e200)
    @example([1, 1, 57718], ["ratio", "taylor8"], None)
    @settings(max_examples=40, deadline=None)
    def test_every_number_is_its_exact_value_rounded_once(self, steps, methods, dt):
        # the oracle sums over the steps themselves, not over the histogram
        series = {m: None if m == "ratio" else generate_expression(int(m[6:])) for m in methods}
        want = report_reference(steps, series, dt)
        overflow = first_overflow(want)
        if overflow is not None:
            with pytest.raises(DomainError, match=f"^{re.escape(overflow)} = inf is not finite"):
                build_report(ResidenceSample(steps=steps), dt=dt, methods=tuple(methods))
            return
        rep = build_report(ResidenceSample(steps=steps), dt=dt, methods=tuple(methods))
        assert report_mismatches(asdict(rep), want) == []

    def test_wide_support_takes_a_bounded_time(self):
        # the exact sums grow with the distinct values: about 181k of them in
        # 200k steps took 0.3 s on a 2-core machine; the bound leaves room for a loaded one
        steps = np.random.default_rng(0).integers(1, 10**6 + 1, size=200_000)
        generate_expression(8)
        s = ResidenceSample(steps=steps)
        start = time.perf_counter()
        build_report(s, dt=0.1, methods=("ratio", "taylor8"))
        assert time.perf_counter() - start < 10.0
        assert len(s.histogram[0]) > 180_000
