"""rankreg: rank regressions with asymptotically valid standard errors.

Estimates OLS coefficients for regressions in which the outcome and/or a
regressor has been transformed into a rank (rank-rank, rank-rank by
subpopulation, level-rank, rank-level), and provides standard errors that
account for the estimation noise in the ranks themselves.  The classical
homoskedastic and Eicker-White formulas ignore that noise and can be badly
off in either direction; they are included for comparison, along with a
nonparametric bootstrap and a copula simulation lab that quantifies the
distortion.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapPlan,
    bootstrap_ci,
    bootstrap_distribution,
    bootstrap_report,
    bootstrap_se,
)
from .copulas import (
    CopulaModel,
    CoverageRow,
    VarianceTriple,
    calibrate_parameter,
    coverage_experiment,
    gaussian,
    independence,
    quadratic,
    reflection,
    reflection_closed_forms,
    sample_copula,
    student_t1,
    true_rank_correlation,
    variance_curve,
    variance_triple_mc,
)
from .errors import (
    AssumptionViolationError,
    BootstrapDiagnosticError,
    CalibrationError,
    DegenerateInputError,
    InvalidInputError,
    RankRegressionError,
    SingularDesignError,
)
from .estimators import (
    Dataset,
    FitResult,
    expected_rank_at,
    fit_level_rank,
    fit_rank_level,
    fit_rank_rank,
    fit_rank_rank_by_group,
    fit_spec,
    ols,
)
from .inference import (
    InferenceReport,
    InfluenceRows,
    confidence_interval,
    ew_covariance,
    hom_covariance,
    influence_rows,
    linear_combo_inference,
    normal_quantile,
    omega_sweep,
    plugin_covariance,
    plugin_slope_variance,
)
from .ranks import (
    centered_rank_moment,
    comparison_kernel,
    ecdf,
    ecdf_left,
    rank_transform,
    slope_decomposition,
    spearman,
    tie_count,
)

__all__ = [
    "__version__",
    # ranks
    "ecdf", "ecdf_left", "comparison_kernel", "rank_transform", "spearman",
    "centered_rank_moment", "slope_decomposition", "tie_count",
    # estimators
    "Dataset", "FitResult", "ols", "fit_rank_rank", "fit_rank_rank_by_group",
    "fit_level_rank", "fit_rank_level", "fit_spec", "expected_rank_at",
    # inference
    "InfluenceRows", "InferenceReport", "influence_rows", "plugin_covariance",
    "plugin_slope_variance", "hom_covariance", "ew_covariance",
    "confidence_interval", "linear_combo_inference", "normal_quantile",
    "omega_sweep",
    # bootstrap
    "BootstrapPlan", "bootstrap_distribution", "bootstrap_ci", "bootstrap_se",
    "bootstrap_report",
    # copulas
    "CopulaModel", "VarianceTriple", "CoverageRow", "gaussian", "student_t1",
    "quadratic", "reflection", "independence", "sample_copula",
    "reflection_closed_forms", "variance_triple_mc", "variance_curve",
    "calibrate_parameter", "true_rank_correlation", "coverage_experiment",
    # errors
    "RankRegressionError", "InvalidInputError", "DegenerateInputError",
    "SingularDesignError", "AssumptionViolationError", "CalibrationError",
    "BootstrapDiagnosticError",
]
