"""Unsupervised temporal drift detection for seasonal time series.

The pipeline deseasonalizes two windows of one series (differencing to
stationarity, then a stagewise categorical-embedding fit of the calendar
structure) and compares a scale- and shift-invariant z-statistic of the
residuals; a large change means the data distribution drifted.

Each exported name is imported from its module on first access (PEP 562), so
``import utdd`` loads no numpy and a command imports only what it calls.
"""

import importlib

__version__ = "0.1.0"

# Exported names by the module that defines them.
_EXPORTS = {
    "drift": ("UtddResult", "WindowFit", "compute_zscore", "run_utdd"),
    "embeddings": (
        "BoostedModel", "EmbeddingModel", "boosted_fit", "boosted_predict", "fit_embedding",
        "load_model", "save_model",
    ),
    "errors": ("CsvFormatError", "DegenerateInputError", "InvalidArgumentError", "UtddError"),
    "series": (
        "FEATURE_KINDS", "FeatureSpec", "TimeSeries", "diff", "extract_feature",
        "read_series_csv", "write_series_csv",
    ),
    "simulate": (
        "DriftInjection", "SeasonalComponentConfig", "SimConfig", "TrendConfig",
        "load_sim_config", "simulate_series",
    ),
    "stationarity": ("AdfResult", "NdiffsResult", "adf_test", "ndiffs"),
    "verdict": (
        "DEFAULT_FEATURE_ORDER", "DEFAULT_THRESHOLD", "DriftReport", "detect", "load_report",
        "save_report",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
