"""Two-window drift detection: difference, deseasonalize, score residual z-statistics.

The pipeline estimates the differencing order on the reference window, applies
it to both windows, fits a boosted embedding model per window, and summarizes
each deseasonalized residual with a single self-normalized statistic.  Drift
is declared when the two statistics differ by at least the threshold.

The window statistic is mean absolute deviation divided by population
standard deviation (scale- and shift-invariant, ~0.798 for Gaussian noise).
It is deliberately isolated in :func:`compute_zscore` so it can be swapped
without touching the pipeline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, diff, is_flat, write_json, write_timestamp_table
from .embeddings import BoostedModel, boosted_fit, boosted_predict
from .stationarity import ndiffs

__all__ = [
    "DEFAULT_THRESHOLD",
    "REPORT_FORMAT_VERSION",
    "DriftReport",
    "WindowFit",
    "UtddResult",
    "compute_zscore",
    "detect",
    "run_utdd",
    "report_to_dict",
    "report_from_dict",
    "save_report",
    "load_report",
    "write_residual_csv",
    "write_fit_csv",
]

# Smallest round value below the delta this detector is meant to flag.
DEFAULT_THRESHOLD = 0.1

REPORT_FORMAT_VERSION = 2

# JSON types accepted per DriftReport annotation, compared exactly: bool is an int.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass(frozen=True)
class DriftReport:
    """The differencing order, both window statistics and the verdict.

    ``delta`` is exactly ``|z_curr - z_ref|`` and ``drifted`` is true exactly
    when ``delta >= threshold``.  The field order is the order in which the
    report is stored and printed.
    """

    k_diffs: int
    z_ref: float
    z_curr: float
    delta: float
    threshold: float
    drifted: bool


@dataclass(frozen=True)
class WindowFit:
    """Per-window intermediates: the differenced grid, fit, and residual."""

    grid: TimeSeries
    seasonal: np.ndarray
    residual: np.ndarray
    model: BoostedModel


@dataclass(frozen=True)
class UtddResult:
    """Full pipeline output: the report plus both window fits."""

    report: DriftReport
    reference: WindowFit
    current: WindowFit

    @property
    def k_diffs(self) -> int:
        """Differencing order of both windows (``report.k_diffs``)."""
        return self.report.k_diffs


def compute_zscore(residual: Sequence[float]) -> float:
    """Self-normalized window statistic: mean(|r - mean(r)|) / std(r).

    Uses the population standard deviation.  Invariant under shifting and
    (nonzero) scaling of the residual; a residual with no variance has no
    defined statistic and raises :class:`DegenerateInputError`.
    """
    r = np.asarray(residual, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise InvalidArgumentError("z-statistic needs at least two residual values")
    if is_flat(r):
        raise DegenerateInputError("residual has zero variance")
    return float(np.abs(r - r.mean()).mean() / r.std())


def detect(z_ref: float, z_curr: float, threshold: float) -> bool:
    """Drift verdict: ``|z_curr - z_ref| >= threshold`` (threshold must be positive)."""
    if not threshold > 0:
        raise InvalidArgumentError("threshold must be positive")
    return abs(z_curr - z_ref) >= threshold


def run_utdd(
    reference: TimeSeries,
    current: TimeSeries,
    features: Sequence,
    *,
    epsilon: Optional[float] = None,
    max_diff: int = 4,
    threshold: float = DEFAULT_THRESHOLD,
    reuse_model: bool = False,
) -> UtddResult:
    """Run the drift pipeline and keep the per-window intermediates.

    The differencing order is estimated once, on the reference window, and
    reused for the current window so the two statistics stay comparable.  By
    default each window gets its own boosted fit; with ``reuse_model`` the
    reference model also deseasonalizes the current window, which is the more
    conventional drift-detection design.  A window whose residual has no
    variance raises :class:`DegenerateInputError` from :func:`compute_zscore`.
    """
    k = ndiffs(reference, max_diff=max_diff).k

    model_ref = boosted_fit(reference, features, epsilon=epsilon, k_diffs=k)
    model_cur = model_ref if reuse_model else boosted_fit(current, features, epsilon=epsilon, k_diffs=k)

    grid_ref = diff(reference, k)
    grid_cur = diff(current, k)
    seasonal_ref = boosted_predict(model_ref, grid_ref)
    seasonal_cur = boosted_predict(model_cur, grid_cur)
    residual_ref = grid_ref.values - seasonal_ref
    residual_cur = grid_cur.values - seasonal_cur

    z_ref = compute_zscore(residual_ref)
    z_curr = compute_zscore(residual_cur)
    report = DriftReport(
        k_diffs=k,
        z_ref=z_ref,
        z_curr=z_curr,
        delta=abs(z_curr - z_ref),
        threshold=float(threshold),
        drifted=detect(z_ref, z_curr, threshold),
    )
    return UtddResult(
        report=report,
        reference=WindowFit(grid_ref, seasonal_ref, residual_ref, model_ref),
        current=WindowFit(grid_cur, seasonal_cur, residual_cur, model_cur),
    )


def report_to_dict(report: DriftReport) -> dict:
    """The stored form of a report: its format version, then every field."""
    return {"version": REPORT_FORMAT_VERSION, **asdict(report)}


def report_from_dict(doc) -> DriftReport:
    """Rebuild a report from :func:`report_to_dict` output, refusing anything else."""
    if not isinstance(doc, dict):
        raise InvalidArgumentError("report must be a JSON object")
    version = doc.get("version")
    if version != REPORT_FORMAT_VERSION:
        raise InvalidArgumentError(
            f"unsupported report format version {version!r}; "
            f"run utdd detect again to write a version {REPORT_FORMAT_VERSION} report"
        )
    values = {}
    for field in fields(DriftReport):
        if field.name not in doc:
            raise InvalidArgumentError(f"report is missing {field.name!r}")
        value = doc[field.name]
        if type(value) not in _JSON_TYPES[field.type] or value != value:
            raise InvalidArgumentError(
                f"report {field.name!r} must be a JSON {field.type}, got {value!r}"
            )
        values[field.name] = float(value) if field.type == "float" else value
    return DriftReport(**values)


def save_report(report: DriftReport, path) -> None:
    write_json(path, report_to_dict(report))


def load_report(path) -> DriftReport:
    with open(path, "r") as fh:
        return report_from_dict(json.load(fh))


def write_residual_csv(fit: WindowFit, path) -> None:
    """Plot-ready ``timestamp,residual`` rows for one window."""
    write_timestamp_table(path, ["residual"], fit.grid.epoch_us(), [fit.residual])


def write_fit_csv(fit: WindowFit, path) -> None:
    """Plot-ready ``timestamp,observed,seasonal,residual`` rows for one window."""
    write_timestamp_table(
        path,
        ["observed", "seasonal", "residual"],
        fit.grid.epoch_us(),
        [fit.grid.values, fit.seasonal, fit.residual],
    )
