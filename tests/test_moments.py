import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from restime import mc
from restime.core import DistributionSpec, DomainError, ResidenceSample
from restime.moments import central_from_raw, exact_moments, sample_moments

from .oracles import central_moments_direct, geometric_raw_interval, raw_from_central


class TestSampleMoments:
    def test_constant_sample(self):
        m = sample_moments(ResidenceSample(steps=(2, 2, 2)))
        assert m.mean == 2
        assert raw_from_central(m.central, m.mean)[2] == 4
        assert all(v == 0 for v in m.central.values())

    def test_two_point(self):
        m = sample_moments(ResidenceSample(steps=(1, 3)), max_central_order=3)
        assert m.mean == 2
        assert m.central[2] == 1
        assert m.central[3] == 0
        assert raw_from_central(m.central, m.mean)[2] == 5

    def test_one_two_three(self):
        m = sample_moments(ResidenceSample(steps=(1, 2, 3)))
        raw = raw_from_central(m.central, m.mean)
        assert raw[1] == 2
        assert raw[2] == Fraction(14, 3)
        assert m.central[2] == Fraction(2, 3)

    def test_rejects_low_order(self):
        with pytest.raises(DomainError):
            sample_moments(ResidenceSample(steps=(1, 2)), max_central_order=1)

    def test_huge_steps_give_exact_moments(self):
        # no central moment overflows: each is a Fraction from integer power sums
        steps = (3, 5, 10**80)
        m = sample_moments(ResidenceSample(steps=steps), max_central_order=8)
        assert m.central == central_moments_direct(steps, 8)
        assert m.central[8] > 0


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
       st.integers(min_value=2, max_value=10))
@settings(max_examples=60)
def test_exact_sample_moments_match_definition(steps, order):
    s = ResidenceSample(steps=tuple(steps))
    m = sample_moments(s, max_central_order=order)
    assert m.central == central_moments_direct(steps, order)
    assert m.central.get(2, 0) >= 0


@given(st.lists(st.integers(min_value=1, max_value=10**30), min_size=1, max_size=12),
       st.lists(st.integers(min_value=0, max_value=16), min_size=1, max_size=5))
@settings(max_examples=40)
def test_power_sums_kept_on_a_sample_match_fresh_ones(steps, tops):
    """Whatever orders were taken before, each call returns the power sums
    0..top of the steps."""
    s = ResidenceSample(steps=tuple(steps))
    for top in tops:
        assert s._power_sums(top) == tuple(sum(x**j for x in steps) for j in range(top + 1))


def test_power_sums_racing_on_one_sample_agree():
    """Two threads taking interleaved orders on one sample each get the sums
    0..top, and the sums kept on the sample stay right for a later call."""
    rng = np.random.default_rng(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the loop over orders
    try:
        for _ in range(4):
            steps = rng.integers(1, 10**6, size=5_000)
            want = ResidenceSample(steps=steps)._power_sums(16)
            s = ResidenceSample(steps=steps)
            start = threading.Barrier(2)
            got = []

            def take(tops):
                start.wait()
                got.extend((top, s._power_sums(top)) for top in tops)

            threads = [threading.Thread(target=take, args=(tops,)) for tops in ((2, 5, 9, 16), (3, 7, 12, 16))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(got) == 8
            assert all(sums == want[: top + 1] for top, sums in got)
            assert s._power_sums(16) == want
    finally:
        sys.setswitchinterval(interval)


@given(st.lists(st.integers(min_value=1, max_value=10**30), min_size=1, max_size=12),
       st.integers(min_value=2, max_value=16))
@settings(max_examples=40)
def test_exact_sample_moments_match_definition_on_large_steps(steps, order):
    # the binomial transform of raw power sums stays exact however large the steps
    m = sample_moments(ResidenceSample(steps=tuple(steps)), max_central_order=order)
    assert m.central == central_moments_direct(steps, order)
    raw = raw_from_central(m.central, m.mean)
    assert raw == {j: Fraction(sum(x**j for x in steps), len(steps)) for j in range(1, order + 1)}
    assert m.mean == raw[1]


class TestExactMoments:
    def test_uniform_closed_forms(self):
        m = exact_moments(DistributionSpec.uniform(1, 100))
        assert m.mean == Fraction(101, 2)
        assert m.central[2] == Fraction(100**2 - 1, 12)

    def test_geometric_closed_forms(self):
        m = exact_moments(DistributionSpec.geometric(Fraction(1, 2)))
        assert m.mean == 2
        assert m.central[2] == 2
        assert raw_from_central(m.central, m.mean)[2] == 6

    def test_narrow_uniform_variance(self):
        # an 8-wide block has variance 63/12, so the order-1 estimate at
        # N=10 is 5.25/40 = 0.13125
        m = exact_moments(DistributionSpec.uniform(93, 100))
        assert m.central[2] == Fraction(63, 12)
        assert m.central[2] / 40 == Fraction(13125, 100000)

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            exact_moments(DistributionSpec.uniform(1, 3), max_central_order=1)
        with pytest.raises(DomainError):
            exact_moments(DistributionSpec.uniform(1, 3), max_central_order=17)

    @pytest.mark.parametrize("p,terms", [(Fraction(1, 2), 400), (Fraction(1, 20), 4000)])
    def test_geometric_raw_by_partial_summation(self, p, terms):
        # summation with a rigorous tail bound brackets every raw moment
        m = exact_moments(DistributionSpec.geometric(p), max_central_order=16)
        raw = raw_from_central(m.central, m.mean)
        for order in (1, 2, 3, 4, 8):
            lo, hi = geometric_raw_interval(p, order, terms)
            assert lo <= raw[order] <= hi

    def test_degenerate_uniform(self):
        m = exact_moments(DistributionSpec.uniform(7, 7), max_central_order=6)
        assert m.mean == 7
        assert all(v == 0 for v in m.central.values())

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=300))
    @example(1, 0)
    @example(1, 1)
    @settings(max_examples=60)
    def test_uniform_closed_form_matches_summation(self, a, width):
        # the telescoped power sums give the direct sums over the support
        b = a + width
        want = sample_moments(ResidenceSample(steps=range(a, b + 1)), 16)
        assert exact_moments(DistributionSpec.uniform(a, b), max_central_order=16) == want

    def test_wide_uniform_costs_no_time_per_support_point(self):
        # summing over the 10**12 support points would take hours
        start = time.perf_counter()
        m = exact_moments(DistributionSpec.uniform(1, 10**12), max_central_order=16)
        assert time.perf_counter() - start < 0.25
        assert m.mean == Fraction(10**12 + 1, 2)
        assert m.central[2] == Fraction(10**24 - 1, 12)


class TestTransforms:
    def test_round_trip_exact(self):
        m = exact_moments(DistributionSpec.geometric(Fraction(2, 7)), max_central_order=10)
        raw = raw_from_central(m.central, m.mean)
        central = central_from_raw(raw)
        for order, v in m.central.items():
            assert central[order] == v

    @given(
        st.builds(Fraction, st.integers(min_value=-10**6, max_value=10**6),
                  st.integers(min_value=1, max_value=10**4)),
        st.lists(st.builds(Fraction, st.integers(min_value=-10**200, max_value=10**200),
                           st.integers(min_value=1, max_value=10**30)), min_size=1, max_size=15),
    )
    @settings(max_examples=60)
    def test_round_trip_on_random_exact_moments(self, mean, central):
        # any mean, integer or not, and central moments far from one common scale
        central = {m: v for m, v in enumerate(central, start=2)}
        central[2] = abs(central[2])
        back = central_from_raw(raw_from_central(central, mean))
        assert back == central
        assert all(type(v) is Fraction for v in back.values())

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=2, max_size=15))
    @settings(max_examples=40)
    def test_round_trip_on_samples(self, steps):
        m = sample_moments(ResidenceSample(steps=tuple(steps)), max_central_order=6)
        raw = raw_from_central(m.central, m.mean)
        back = central_from_raw(raw)
        assert all(back[k] == m.central[k] for k in m.central)
        # the transform recovers every raw power mean of the sample
        assert all(raw[j] == Fraction(sum(x**j for x in steps), len(steps)) for j in range(1, 7))


def test_empirical_moments_match_exact():
    """A large fixed-seed sample agrees with exact moments to within noise."""
    specs = [
        DistributionSpec.geometric(Fraction(1, 2)),
        DistributionSpec.geometric(Fraction(1, 20)),
        DistributionSpec.uniform(1, 100),
    ]
    draws = 1_000_000
    for dist in specs:
        m = exact_moments(dist, max_central_order=8)
        raw_hi = raw_from_central(m.central, m.mean)
        x = mc.sample(dist, draws, mc.replicate_stream(3, 0)).array.astype(np.float64)
        for j in (1, 2, 3, 4):
            se = math.sqrt(float(raw_hi[2 * j] - raw_hi[j] ** 2) / draws)
            assert abs(float(np.mean(x**j)) - float(raw_hi[j])) <= 5 * se
        d = x - x.mean()
        for order in (2, 3, 4):
            se = math.sqrt(float(m.central[2 * order] - m.central[order] ** 2) / draws)
            assert abs(float(np.mean(d**order)) - float(m.central[order])) <= 5 * se
