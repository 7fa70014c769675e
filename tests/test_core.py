import copy
import dataclasses
import json
import math
import pickle
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from restime.core import (
    DistributionSpec,
    DomainError,
    MomentVector,
    ParseError,
    ResidenceSample,
    format_rational,
)
from restime.estimators import EstimateReport, ratio_variance_from_moments
from restime.mc import ExperimentConfig
from restime.taylor import Term, VarianceExpression
from restime.trace import FilterConfig, OccupancyTrace

from .oracles import format_fixed, normalize_expression


class TestResidenceSample:
    def test_basic(self):
        s = ResidenceSample(steps=(1, 2, 3))
        assert s.n == 3

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            ResidenceSample(steps=())

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_rejects_bad_steps(self, bad):
        with pytest.raises(DomainError):
            ResidenceSample(steps=(1, bad))

    @pytest.mark.parametrize(
        "steps, message",
        [
            ((), "sample must contain at least one residence"),
            ((3, 2.5, 0), "residence durations must be integers >= 1, got 2.5"),
            ((1, "3"), "residence durations must be integers >= 1, got '3'"),
            ((4, 0, 2.5), "residence durations must be integers >= 1, got 0"),
            ((2, -7), "residence durations must be integers >= 1, got -7"),
            ((1, None), "residence durations must be integers >= 1, got None"),
            ((1, float("nan")), "residence durations must be integers >= 1, got nan"),
            ((2.5,), "residence durations must be integers >= 1, got 2.5"),
            ((0,), "residence durations must be integers >= 1, got 0"),
        ],
    )
    def test_validation_names_first_bad_value(self, steps, message):
        with pytest.raises(DomainError) as info:
            ResidenceSample(steps=steps)
        assert str(info.value) == message

    def test_integral_floats_and_bools_become_ints(self):
        s = ResidenceSample(steps=[2.0, True, 5])
        assert s.steps == (2, 1, 5)
        assert all(type(x) is int for x in s.steps)

    @pytest.mark.parametrize(
        "steps, want",
        [
            ((True,), (1,)),
            ((np.int64(3),), (3,)),
            ((10**30,), (10**30,)),
            ((Fraction(3),), (3,)),
            ((Decimal("2"),), (2,)),
            ((np.uint64(5),), (5,)),
            ((2.0**70,), (2**70,)),
        ],
        ids=["bool", "numpy-int", "beyond-int64", "fraction", "decimal", "numpy-uint64",
             "float-2**70"],
    )
    def test_accepts_what_is_an_integer(self, steps, want):
        s = ResidenceSample(steps=steps)
        assert s.steps == want
        assert all(type(x) is int for x in s.steps)

    def test_array_is_one_read_only_array(self):
        s = ResidenceSample(steps=[3, 1, 2**60 + 1])
        a = s.array
        assert a is s.array
        assert a.dtype == np.int64
        assert a.tolist() == [3, 1, 2**60 + 1]
        assert not a.flags.writeable
        assert s == ResidenceSample(steps=(3, 1, 2**60 + 1))

    @pytest.mark.parametrize("steps", [(3, 1, 2**60 + 1, 3, 3), (5, 10**30, 5, 2)],
                             ids=["int64", "past-int64"])
    def test_histogram_counts_each_distinct_step_once(self, steps):
        s = ResidenceSample(steps=steps)
        assert "histogram" not in vars(s)
        values, counts = s.histogram
        assert s.histogram is s.histogram
        assert dict(zip(values.tolist(), counts.tolist())) == Counter(steps)
        assert values.tolist() == sorted(set(steps))
        for a in (values, counts):
            assert a.dtype == object and not a.flags.writeable
            assert all(type(v) is int for v in a)


class TestResidenceSampleFromInt64:
    STEPS = (3, 1, 4, 2**53 + 1, 10**18)

    def test_equals_the_tuple_built_sample(self):
        arr = np.array(self.STEPS, dtype=np.int64)
        s, want = ResidenceSample(steps=arr), ResidenceSample(steps=self.STEPS)
        assert s == want and hash(s) == hash(want)
        assert s.steps == self.STEPS
        assert all(type(x) is int for x in s.steps)

    def test_array_is_the_tuple_steps_and_owned(self):
        arr = np.array(self.STEPS, dtype=np.int64)
        s = ResidenceSample(steps=arr)
        a = s.array
        assert a.dtype == np.int64
        assert a.tolist() == list(self.STEPS)
        assert not a.flags.writeable
        assert not np.shares_memory(a, arr)
        arr[0] = 99
        assert s.array[0] == 3 and s.steps[0] == 3

    @pytest.mark.parametrize(
        "steps, message",
        [
            ((4, 0, 2), "residence durations must be integers >= 1, got 0"),
            ((2, -7), "residence durations must be integers >= 1, got -7"),
            ((), "sample must contain at least one residence"),
        ],
    )
    def test_errors_match_the_tuple_built_sample(self, steps, message):
        for given in (steps, np.array(steps, dtype=np.int64)):
            with pytest.raises(DomainError) as info:
                ResidenceSample(steps=given)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "arr",
        [np.array([[1, 2]], dtype=np.int64), np.array([1, 2], dtype=np.int32),
         np.array([1.0, 2.0]), np.array([1, 2], dtype=object), np.array([True, True])],
        ids=["2-d", "int32", "float", "object", "bool"],
    )
    def test_other_arrays_take_the_general_path(self, arr):
        # as a tuple of the same elements: same steps or same error, histogram on first use
        try:
            want = ResidenceSample(steps=tuple(arr))
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                ResidenceSample(steps=arr)
            assert str(info.value) == str(exc)
            return
        s = ResidenceSample(steps=arr)
        assert s == want
        assert "histogram" not in vars(s)

    @pytest.mark.parametrize("steps", [(3, 1, 4), (7,), (1, 2**63 - 1), (2, 2**63, 10**30)],
                             ids=["small", "one", "int64-max", "past-int64"])
    def test_every_container_gives_one_sample(self, steps):
        dtype = np.int64 if max(steps) < 2**63 else object
        built = [ResidenceSample(steps=given) for given in
                 (steps, list(steps), np.array(steps, dtype=dtype), np.array(steps, dtype=object))]
        for s in built:
            assert s == built[0] and hash(s) == hash(built[0]) and repr(s) == repr(built[0])
            assert s.array.dtype == dtype and not s.array.flags.writeable
        assert repr(built[0]) == f"ResidenceSample(steps={steps!r})"
        assert built[0] != ResidenceSample(steps=(*steps[:-1], steps[-1] + 1))
        assert built[0] != ResidenceSample(steps=steps + (1,)) and built[0] != steps

    def test_steps_tuple_is_built_on_first_use(self):
        s = ResidenceSample(steps=np.array(self.STEPS, dtype=np.int64))
        assert s.n == len(self.STEPS) and "steps" not in vars(s)
        assert s.steps is s.steps

    @pytest.mark.parametrize("given", [tuple, list], ids=["tuple", "list"])
    def test_sequence_built_sample_stores_its_steps_once(self, given):
        s = ResidenceSample(steps=given(self.STEPS))
        assert "steps" not in vars(s) and s.array.dtype == np.int64
        want = ResidenceSample(steps=np.array(self.STEPS, dtype=np.int64))
        assert s == want and hash(s) == hash(want) and repr(s) == repr(want)
        assert vars(s)["steps"] == self.STEPS

    def test_sample_is_frozen(self):
        s = ResidenceSample(steps=(1, 2))
        # cached entries exist, so deleting them must still fail
        assert s.steps == (1, 2) and len(s.histogram[0]) == 2
        for name in ("array", "steps", "histogram", "n", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
                setattr(s, name, (3,))
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
                delattr(s, name)
        assert s.steps == (1, 2) and s.array.tolist() == [1, 2]


class TestOccupancyTrace:
    def test_len(self):
        assert len(OccupancyTrace(bits=(0, 1, 1, 0))) == 4

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            OccupancyTrace(bits=(0, 2))

    def test_empty_allowed(self):
        assert len(OccupancyTrace(bits=())) == 0

    @pytest.mark.parametrize(
        "bits",
        [
            (0.5, 1.9, 1),
            "0110",
            ("x",),
            ([1],),
            pytest.param(b"\x00\x02", id="bytes-0x02"),
            pytest.param(b"0110", id="bytes-ascii"),
        ],
    )
    def test_rejects_what_int_would_coerce(self, bits):
        with pytest.raises(DomainError, match="trace elements must be 0 or 1"):
            OccupancyTrace(bits=bits)

    def test_accepts_values_equal_to_0_or_1(self):
        t = OccupancyTrace(bits=[True, 1.0, 0.0, False, 1])
        assert tuple(t.bits) == (1, 1, 0, 0, 1)
        assert type(t.bits) is bytes
        assert all(type(b) is int for b in t.bits)
        assert OccupancyTrace(bits=b"\x01\x00") == OccupancyTrace(bits=(1, 0))

    @pytest.mark.parametrize(
        "bits",
        [
            b"\x01\x00\x00\x01",
            bytearray(b"\x01\x00\x00\x01"),
            np.array([1, 0, 0, 1], dtype=np.uint8),
            [True, False, False, True],
        ],
        ids=["bytes", "bytearray", "uint8-array", "bools"],
    )
    def test_every_iterable_of_0_and_1_equals_the_tuple_built_trace(self, bits):
        t = OccupancyTrace(bits=bits)
        assert t == OccupancyTrace(bits=(1, 0, 0, 1))
        assert type(t.bits) is bytes and t.bits == b"\x01\x00\x00\x01"


class TestMomentVector:
    def test_rejects_low_central_order(self):
        with pytest.raises(DomainError):
            MomentVector(mean=1.0, central={1: 0.0})

    def test_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            MomentVector(mean=1.0, central={2: -0.5})

    def test_holds_the_mean_and_central_moments_only(self):
        assert [f.name for f in dataclasses.fields(MomentVector)] == ["mean", "central"]
        with pytest.raises(TypeError):
            MomentVector(mean=Fraction(2), central={}, raw={1: Fraction(2)})

    def test_values_are_held_as_exact_fractions(self):
        mom = MomentVector(mean=3, central={2: 0.1, 3: Fraction(1, 3), 4: np.int64(2)})
        assert mom == MomentVector(mean=Fraction(3), central={2: Fraction(0.1), 3: Fraction(1, 3),
                                                              4: Fraction(2)})
        assert all(type(v) is Fraction for v in (mom.mean, *mom.central.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            mom.mean = Fraction(2)

    def test_central_moments_are_read_only(self):
        """The checks of construction hold for the vector's life: no central
        moment can be set, added or removed afterwards."""
        mom = MomentVector(mean=2, central={2: 1, 3: 0, 4: 1})
        for key, value in ((3, float("nan")), (2, -5), (6, 1)):
            with pytest.raises(TypeError):
                mom.central[key] = value
        with pytest.raises(TypeError):
            del mom.central[4]
        # with a = 2 - 1/2, the bracket is 1 + 0 + (9/4) * 1 - 1, over 4 * 7 * 2^2
        assert ratio_variance_from_moments(mom, 7) == Fraction(9, 448)
        assert dict(mom.central) == {2: 1, 3: 0, 4: 1}
        assert mom == MomentVector(mean=Fraction(2), central={2: 1, 3: 0, 4: 1})
        assert mom != MomentVector(mean=Fraction(2), central={2: 1, 3: 0, 4: 2})

    def test_pickle_and_copy_keep_the_vector_read_only(self):
        mom = MomentVector(mean=Fraction(3, 2), central={2: Fraction(1, 4), 3: 0, 4: Fraction(1, 16)})
        for twin in (pickle.loads(pickle.dumps(mom)), copy.copy(mom), copy.deepcopy(mom)):
            assert twin == mom and twin.central is not mom.central
            with pytest.raises(TypeError):
                twin.central[3] = 1

    @pytest.mark.parametrize("mean", [0, -1, Fraction(-1, 2), 0.0, -2.5])
    def test_rejects_a_mean_that_is_not_positive(self, mean):
        with pytest.raises(DomainError, match=f"^mean must be positive, got {re.escape(repr(mean))}$"):
            MomentVector(mean=mean, central={2: 1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                     "1/2", "2", None, Decimal("1.5"), 1j, [1]])
    @pytest.mark.parametrize("where", ["mean", "central"])
    def test_rejects_a_value_that_is_not_a_finite_number(self, bad, where):
        mean, central = (bad, {2: 1}) if where == "mean" else (2, {2: 1, 3: bad})
        message = f"^moments must be ints, Fractions or finite floats, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            MomentVector(mean=mean, central=central)


class TestDistributionSpec:
    def test_parse_geometric(self):
        d = DistributionSpec.parse("geom:p=1/20")
        assert d.kind == "geom"
        assert d.p == Fraction(1, 20)

    def test_parse_uniform(self):
        d = DistributionSpec.parse("uniform:a=93,b=100")
        assert (d.a, d.b) == (93, 100)

    def test_str_round_trip(self):
        for text in ("geom:p=1/2", "geom:p=3/10", "uniform:a=1,b=100"):
            assert str(DistributionSpec.parse(text)) == text

    @pytest.mark.parametrize(
        "bad",
        [
            "normal:mu=0",
            "geom:p=0",
            "geom:p=1",
            "geom:p=5/4",
            "geom:q=1/2",
            "uniform:a=5,b=3",
            "uniform:a=0,b=3",
            "uniform:a=1",
            "uniform:a=x,b=3",
            "geom:p=1/0",
            "",
            "geom:p=1/2,p=1/3",
            "uniform:a=1,b=40,a=1",
            "uniform:a=1,b=40,c=3",
            "geom:p=1/2,a=3",
            "geom:p",
            "uniform:a=1,b",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            DistributionSpec.parse(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("geom:p=1/2,p=1/3", "repeated field 'p'"),
            ("uniform:a=1,b=40,c=3", "unknown field 'c'"),
            ("geom:p=1/2,a=3", "unknown field 'a'"),
            ("geom:p", "no '=' after field 'p'"),
            ("uniform:a=1", "missing field 'b'"),
            ("geom:", "missing field 'p'"),
            # a value takes ASCII digits only: no '_', sign, space or other digits
            ("uniform:a=1,b=1_000", "bad value '1_000' for field 'b'"),
            ("uniform:a=+1,b= 3", "bad value '+1' for field 'a'"),
            ("uniform:a=1,b=\u0663", "bad value '\u0663' for field 'b'"),
            ("uniform:a=-1,b=3", "bad value '-1' for field 'a'"),
            ("geom:p=0.5", "bad value '0.5' for field 'p'"),
            ("geom:p=1/2/3", "bad value '1/2/3' for field 'p'"),
            ("geom:p=1/\u0663", "bad value '1/\u0663' for field 'p'"),
            ("geom:p= 1/2", "bad value ' 1/2' for field 'p'"),
            # and no leading zero, which str() would not print back
            ("uniform:a=01,b=3", "bad value '01' for field 'a'"),
            ("geom:p=01/020", "bad value '01/020' for field 'p'"),
            ("geom:p=01/20", "bad value '01/20' for field 'p'"),
            ("geom:p=1/020", "bad value '1/020' for field 'p'"),
            ("geom:p=1/0", "bad value '1/0' for field 'p'"),
            ("geom:p=", "bad value '' for field 'p'"),
            ("geom:,p=1/2,", "empty field at position 1"),
            ("uniform:a=1,,b=3", "empty field at position 2"),
            ("geom:p=1/2,", "empty field at position 2"),
        ],
    )
    def test_parse_names_the_bad_field(self, bad, message):
        with pytest.raises(ParseError) as info:
            DistributionSpec.parse(bad)
        assert str(info.value) == f"bad distribution spec {bad!r}: {message}"

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            DistributionSpec.geometric(Fraction(0))
        with pytest.raises(DomainError):
            DistributionSpec.uniform(4, 2)


def _config(sizes=(5,), replicates=10):
    return ExperimentConfig(dist=DistributionSpec.uniform(1, 3), sizes=sizes,
                            replicates=replicates, seed=0)


@pytest.mark.parametrize("build, named", [
    # each used to pass as another value (a=1, N=2) or to end in a TypeError or OverflowError
    (lambda: DistributionSpec.uniform(1.5, 3), "got a=1.5, b=3"),
    (lambda: _config(sizes=(2.5,)), "sample size must be an integer, got 2.5"),
    (lambda: _config(replicates=2.5), "replicates >= 2, got 2.5"),
    (lambda: FilterConfig(k=math.inf), "filter window k must be an integer >= 1, got inf"),
    (lambda: FilterConfig(k=math.nan), "got nan"),
], ids=["uniform-a", "mc-size", "mc-replicates", "filter-inf", "filter-nan"])
def test_non_integer_parameter_is_a_domain_error_naming_it(build, named):
    with pytest.raises(DomainError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("seed", [2.5, -1, 2**128, "3", None, math.nan],
                         ids=["fraction", "negative", "past-128-bits", "str", "none", "nan"])
def test_seed_outside_philox_keys_is_a_domain_error_naming_it(seed):
    # each used to end in a TypeError or in numpy's ValueError about the key
    message = f"seed must be an integer in 0..2**128-1, got {seed!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        ExperimentConfig(dist=DistributionSpec.uniform(1, 3), sizes=(5,), replicates=10, seed=seed)


def test_integral_parameters_still_become_ints():
    assert DistributionSpec.uniform(1.0, 3.0) == DistributionSpec.uniform(1, 3)
    cfg = _config(sizes=(5.0, np.int64(7)), replicates=np.int64(10))
    assert (cfg.sizes, cfg.replicates) == ((5, 7), 10)
    assert all(type(v) is int for v in (*cfg.sizes, cfg.replicates))
    assert FilterConfig(k=4.0).k == 4
    cfg = ExperimentConfig(dist=DistributionSpec.uniform(1, 3), sizes=(5,), replicates=10,
                           seed=np.uint64(2**64 - 1))
    assert cfg.seed == 2**64 - 1 and type(cfg.seed) is int


class TestTermText:
    def test_plain_term(self):
        t = Term(coef=Fraction(1, 4), n_exponent=1, mu_exponent=0, moment_powers=((2, 1),))
        assert t.text() == "1/4 * N^-1 * mu2"

    def test_term_with_mean_power_and_square(self):
        t = Term(coef=Fraction(-1, 4), n_exponent=1, mu_exponent=-2, moment_powers=((2, 2),))
        assert t.text() == "-1/4 * N^-1 * mu^-2 * mu2^2"

    def test_dict_round_trip(self):
        t = Term(coef=Fraction(3, 8), n_exponent=2, mu_exponent=-1, moment_powers=((2, 1), (3, 1)))
        assert json.loads(json.dumps(t.to_dict())) == {
            "coef": "3/8",
            "n_exponent": 2,
            "mu_exponent": -1,
            "moment_powers": {"2": 1, "3": 1},
        }


def _term(coef, e, g, powers):
    return Term(coef=Fraction(coef), n_exponent=e, mu_exponent=g, moment_powers=powers)


class TestNormalizeExpression:
    def test_merges_and_sorts(self):
        expr = VarianceExpression(
            order=2,
            terms=(
                _term("1/3", 2, 0, ((2, 1),)),
                _term("1/4", 1, 0, ((2, 1),)),
                _term("1/6", 2, 0, ((2, 1),)),
            ),
        )
        out = normalize_expression(expr)
        assert [t.text() for t in out.terms] == ["1/4 * N^-1 * mu2", "1/2 * N^-2 * mu2"]

    def test_drops_cancelled_terms(self):
        expr = VarianceExpression(
            order=1,
            terms=(_term(1, 1, 0, ((2, 1),)), _term(-1, 1, 0, ((2, 1),))),
        )
        assert normalize_expression(expr).terms == ()

    def test_rejects_growth_in_n(self):
        with pytest.raises(DomainError):
            normalize_expression(
                VarianceExpression(order=1, terms=(_term(1, 0, 0, ((2, 1),)),))
            )

    def test_rejects_moment_budget_violation(self):
        # order 1 allows total moment weight 2, a mu4 term exceeds it
        with pytest.raises(DomainError):
            normalize_expression(
                VarianceExpression(order=1, terms=(_term(1, 1, 0, ((4, 1),)),))
            )

    def test_json_round_trip(self):
        expr = normalize_expression(
            VarianceExpression(order=2, terms=(_term("1/4", 1, 0, ((2, 1),)),))
        )
        expected = {
            "order": 2,
            "terms": [
                {"coef": "1/4", "n_exponent": 1, "mu_exponent": 0, "moment_powers": {"2": 1}}
            ],
        }
        assert expr.to_dict() == expected
        assert json.loads(expr.to_json()) == expected


@given(
    st.lists(
        st.tuples(
            st.fractions(),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=-4, max_value=0),
            st.sampled_from([((2, 1),), ((2, 2),), ((3, 1),), ((2, 1), (3, 1))]),
        ),
        max_size=12,
    )
)
def test_normalize_idempotent(raw):
    expr = VarianceExpression(
        order=4, terms=tuple(_term(c, e, g, p) for c, e, g, p in raw)
    )
    once = normalize_expression(expr)
    assert normalize_expression(once) == once


class TestFormatting:
    def test_sixteen_digit_value(self):
        v = Fraction("0.1311922958733283")
        assert format_rational(v, 16) == "0.1311922958733283"

    def test_significant_digits(self):
        assert format_rational(Fraction(1, 3), 5) == "0.33333"
        assert format_rational(Fraction(2, 3), 5) == "0.66667"
        assert format_rational(Fraction(247, 10), 4) == "24.70"

    def test_half_even(self):
        assert format_rational(Fraction(25, 1000), 1) == "0.02"
        assert format_rational(Fraction(35, 1000), 1) == "0.04"

    def test_carry_into_new_decade(self):
        assert format_rational(Fraction(999, 1000), 2) == "1.0"
        assert format_rational(Fraction(9999, 10), 3) == "1000"

    def test_negative_and_zero(self):
        assert format_rational(Fraction(-1, 8), 3) == "-0.125"
        assert format_rational(Fraction(0), 4) == "0.000"

    def test_large_integer_scale(self):
        assert format_rational(Fraction(12345, 1), 3) == "12300"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
    def test_non_finite_float_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match=r"^cannot format .*: not a finite number$"):
            format_rational(value, 16)

    def test_fixed_decimals(self):
        assert format_fixed(Fraction(317, 100), 2) == "3.17"
        assert format_fixed(Fraction(741, 1000), 8) == "0.74100000"
        assert format_fixed(Fraction(5, 2), 0) == "2"
        assert format_fixed(Fraction(7, 2), 0) == "4"
        assert format_fixed(Fraction(-741, 1000), 3) == "-0.741"

    def test_accepts_floats(self):
        assert format_fixed(0.5, 2) == "0.50"

    @given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6)),
           st.integers(min_value=1, max_value=18))
    def test_rounding_error_bounded(self, v, digits):
        # the printed value never deviates by more than one unit in the last place
        parsed = Fraction(format_rational(v, digits))
        assert abs(parsed - v) / v <= Fraction(1, 10 ** (digits - 1))

    @given(
        st.one_of(
            # signed rationals from about 1e-440 to 1e440
            st.tuples(
                st.builds(lambda a, b, j: Fraction(a, b) * Fraction(10) ** j,
                          st.integers(-10**40, 10**40), st.integers(1, 10**40),
                          st.integers(-400, 400)),
                st.integers(1, 40),
            ),
            # exact ties (2k+1)/2 * 10^j, rounded at the place of the half
            st.builds(lambda k, j, sign: (sign * Fraction(2 * k + 1, 2) * Fraction(10) ** j,
                                          len(str(k))),
                      st.integers(1, 10**30), st.integers(-300, 300), st.sampled_from([1, -1])),
        )
    )
    @settings(max_examples=400)
    def test_half_even_to_significant_digits(self, case):
        v, digits = case
        out = format_rational(v, digits)
        if v == 0:
            assert out == ("0." + "0" * (digits - 1) if digits > 1 else "0")
            return
        mag = abs(v)
        e = len(str(mag.numerator)) - len(str(mag.denominator))  # floor(log10) or one above
        if Fraction(10) ** e > mag:
            e -= 1
        ulp = Fraction(10) ** (e - digits + 1)
        # exactly `digits` significant digits; an integer output pads with zeros
        sig = out.lstrip("-").replace(".", "").lstrip("0")
        if "." in out:
            assert len(sig) == digits
        else:
            assert len(sig) >= digits and set(sig[digits:]) <= {"0"}
        # within half a unit in the input's last place, and a tie goes to even
        q = Fraction(out) / ulp
        assert q.denominator == 1
        assert abs(Fraction(out) - v) <= ulp / 2
        if (v / ulp).denominator == 2:
            assert q.numerator % 2 == 0
        assert out.startswith("-") == (v < 0)

    def test_prints_past_the_int_string_limit(self):
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            third = format_rational(Fraction(1, 3), 4300)
            big = format_rational(Fraction(10**5000 + 1, 7), 4300)
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert third == "0." + "3" * 4300
        # 10^5000/7 = 142857 repeated: the 4301st digit, 5 (then 7...), rounds 1428 up
        assert big == "142857" * 716 + "1429" + "0" * 700


class TestEstimateReport:
    def test_json_round_trip(self):
        rep = EstimateReport(
            n=3,
            dt=0.1,
            methods=("ratio",),
            mrt_steps=1.5,
            mrt_var_steps={"ratio": 0.25},
            mrt_sd_steps={"ratio": 0.5},
            mRT_steps=2.0,
            mRT_var_steps=0.3,
            mRT_sd_steps=0.5477,
            mrt_time=0.15,
            mrt_var_time={"ratio": 0.0025},
            mrt_sd_time={"ratio": 0.05},
            mRT_time=0.2,
            mRT_var_time=0.003,
            mRT_sd_time=0.05477,
        )
        back = json.loads(rep.to_json())
        assert EstimateReport(**{**back, "methods": tuple(back["methods"])}) == rep
