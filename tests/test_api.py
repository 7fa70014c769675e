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
