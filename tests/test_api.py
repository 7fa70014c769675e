import inspect
import re
from fractions import Fraction

import numpy as np
import pytest

import restime
from restime.taylor import expression_blocks

# the public surface; growing or shrinking it should be a visible decision
PUBLIC = {
    "DistributionSpec", "DomainError", "EstimateReport", "ExperimentConfig",
    "ExperimentRow", "ExtractionPolicy", "FilterConfig", "MomentVector",
    "OccupancyTrace", "ParseError", "ResidenceSample", "Term", "VarianceExpression",
    "__version__", "build_report", "central_from_raw", "collect_sample",
    "evaluate_expression", "exact_moments", "exact_variance_small",
    "extract_residences", "filter_transient_escapes", "format_rational",
    "generate_expression", "mean_residence_steps", "mean_residual_steps",
    "parse_traces", "ratio_variance_from_moments",
    "read_steps_csv", "rt_autocorrelation", "run_experiment",
    "sample", "sample_moments", "var_mean_residence", "var_mrt_ratio", "var_mrt_taylor",
    "write_steps_csv",
}


def test_public_names():
    assert set(restime.__all__) == PUBLIC
    assert all(hasattr(restime, name) for name in PUBLIC)


def test_no_public_function_has_an_exact_parameter():
    # every moment and estimate is exact, so no function offers a float mode
    functions = [name for name in PUBLIC if inspect.isfunction(getattr(restime, name))]
    assert "var_mrt_taylor" in functions and "sample_moments" in functions
    assert [name for name in functions
            if "exact" in inspect.signature(getattr(restime, name)).parameters] == []

# each record type lives in the one module that builds it; the shared ones in core
HOMES = {
    "OccupancyTrace": "restime.trace",
    "Term": "restime.taylor",
    "VarianceExpression": "restime.taylor",
    "EstimateReport": "restime.estimators",
    "DistributionSpec": "restime.core",
    "DomainError": "restime.core",
    "MomentVector": "restime.core",
    "ParseError": "restime.core",
    "ResidenceSample": "restime.core",
    "ExperimentConfig": "restime.mc",
    "ExperimentRow": "restime.mc",
    "ExtractionPolicy": "restime.trace",
    "FilterConfig": "restime.trace",
}


def test_each_public_class_has_its_home():
    classes = {name for name in PUBLIC if isinstance(getattr(restime, name), type)}
    assert classes == set(HOMES)
    assert {name: getattr(restime, name).__module__ for name in classes} == HOMES


# refusals of public calls that no other test reaches: (call, its DomainError message)
REFUSALS = {
    "unknown-kind": (lambda: restime.DistributionSpec(kind="beta"),
                     "unknown distribution kind 'beta'"),
    "zero-digits": (lambda: restime.format_rational(Fraction(1, 3), 0), "digits must be >= 1"),
    "ratio-n-zero": (lambda: restime.ratio_variance_from_moments(
        restime.MomentVector(mean=2.0, central={2: 1.0, 3: 0.0, 4: 3.0}), 0), "N must be >= 1"),
    "negative-lag": (lambda: restime.rt_autocorrelation([np.array([1, 2, 3])], -1),
                     "max_lag must be >= 0"),
    "order-zero-blocks": (lambda: expression_blocks(0), "order must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(restime.DomainError, match=f"^{re.escape(message)}$"):
        call()
