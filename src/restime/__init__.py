"""Residence-time statistics from discrete traces.

Estimates the mean residual time of a two-state residence process and the
uncertainty of that estimate, from either raw 0/1 traces or extracted
residence-step samples.  Variance estimates come from a ratio approximation
and from truncated series expansions evaluated on sample moments; exact
rational references are available for small finite-support cases.
"""

from .core import (
    DistributionSpec,
    DomainError,
    MomentVector,
    ParseError,
    ResidenceSample,
    format_rational,
)
from .estimators import (
    EstimateReport,
    build_report,
    mean_residence_steps,
    mean_residual_steps,
    ratio_variance_from_moments,
    rt_autocorrelation,
    var_mean_residence,
    var_mrt_ratio,
    var_mrt_taylor,
)
from .mc import ExperimentConfig, ExperimentRow, exact_variance_small, run_experiment, sample
from .moments import central_from_raw, exact_moments, sample_moments
from .taylor import Term, VarianceExpression, evaluate_expression, generate_expression
from .trace import (
    ExtractionPolicy,
    FilterConfig,
    OccupancyTrace,
    collect_sample,
    extract_residences,
    filter_transient_escapes,
    parse_traces,
    read_steps_csv,
    write_steps_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DistributionSpec",
    "DomainError",
    "EstimateReport",
    "ExperimentConfig",
    "ExperimentRow",
    "ExtractionPolicy",
    "FilterConfig",
    "MomentVector",
    "OccupancyTrace",
    "ParseError",
    "ResidenceSample",
    "Term",
    "VarianceExpression",
    "__version__",
    "build_report",
    "central_from_raw",
    "collect_sample",
    "evaluate_expression",
    "exact_moments",
    "exact_variance_small",
    "extract_residences",
    "filter_transient_escapes",
    "format_rational",
    "generate_expression",
    "mean_residence_steps",
    "mean_residual_steps",
    "parse_traces",
    "ratio_variance_from_moments",
    "read_steps_csv",
    "rt_autocorrelation",
    "run_experiment",
    "sample",
    "sample_moments",
    "var_mean_residence",
    "var_mrt_ratio",
    "var_mrt_taylor",
    "write_steps_csv",
]
