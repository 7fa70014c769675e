import restime

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
