"""Unsupervised temporal drift detection for seasonal time series.

The pipeline deseasonalizes two windows of one series (differencing to
stationarity, then a stagewise categorical-embedding fit of the calendar
structure) and compares a scale- and shift-invariant z-statistic of the
residuals; a large change means the data distribution drifted.
"""

from .drift import (
    DEFAULT_THRESHOLD,
    DriftReport,
    UtddResult,
    WindowFit,
    compute_zscore,
    detect,
    load_report,
    run_utdd,
    save_report,
)
from .embeddings import (
    DEFAULT_FEATURE_ORDER,
    BoostedModel,
    EmbeddingModel,
    boosted_fit,
    boosted_predict,
    fit_embedding,
    load_model,
    save_model,
)
from .errors import CsvFormatError, DegenerateInputError, InvalidArgumentError, UtddError
from .series import (
    FEATURE_KINDS,
    FeatureSpec,
    TimeSeries,
    diff,
    extract_feature,
    read_series_csv,
    write_series_csv,
)
from .simulate import (
    DriftInjection,
    SeasonalComponentConfig,
    SimConfig,
    TrendConfig,
    load_sim_config,
    simulate_series,
)
from .stationarity import AdfResult, NdiffsResult, adf_test, ndiffs

__version__ = "0.1.0"

__all__ = [
    "AdfResult",
    "BoostedModel",
    "CsvFormatError",
    "DEFAULT_FEATURE_ORDER",
    "DEFAULT_THRESHOLD",
    "DegenerateInputError",
    "DriftInjection",
    "DriftReport",
    "EmbeddingModel",
    "FEATURE_KINDS",
    "FeatureSpec",
    "InvalidArgumentError",
    "NdiffsResult",
    "SeasonalComponentConfig",
    "SimConfig",
    "TimeSeries",
    "TrendConfig",
    "UtddError",
    "UtddResult",
    "WindowFit",
    "adf_test",
    "boosted_fit",
    "boosted_predict",
    "compute_zscore",
    "detect",
    "diff",
    "extract_feature",
    "fit_embedding",
    "load_model",
    "load_report",
    "load_sim_config",
    "ndiffs",
    "read_series_csv",
    "run_utdd",
    "save_model",
    "save_report",
    "simulate_series",
    "write_series_csv",
    "__version__",
]
