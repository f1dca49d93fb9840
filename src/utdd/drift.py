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
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, diff, write_timestamp_table
from .embeddings import BoostedModel, boosted_fit, boosted_predict
from .stationarity import ndiffs

__all__ = [
    "DEFAULT_THRESHOLD",
    "DriftReport",
    "WindowFit",
    "UtddResult",
    "compute_zscore",
    "detect",
    "utdd",
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

_ZERO_STD_RTOL = 1e-12


@dataclass(frozen=True)
class DriftReport:
    """Reference and current window statistics plus the verdict.

    ``delta`` is exactly ``|z_curr - z_ref|`` and ``drifted`` is true exactly
    when ``delta >= threshold``.  ``residual_curr`` keeps the current window's
    deseasonalized residual for plotting.
    """

    z_ref: float
    z_curr: float
    delta: float
    threshold: float
    drifted: bool
    residual_curr: np.ndarray


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
    k_diffs: int
    reference: WindowFit
    current: WindowFit


def compute_zscore(residual: Sequence[float]) -> float:
    """Self-normalized window statistic: mean(|r - mean(r)|) / std(r).

    Uses the population standard deviation.  Invariant under shifting and
    (nonzero) scaling of the residual; a residual with no variance has no
    defined statistic and raises :class:`DegenerateInputError`.
    """
    r = np.asarray(residual, dtype=np.float64)
    if r.ndim != 1 or r.size < 2:
        raise InvalidArgumentError("z-statistic needs at least two residual values")
    mean = float(r.mean())
    std = float(r.std())
    if std < _ZERO_STD_RTOL * (1.0 + abs(mean)):
        raise DegenerateInputError("residual has zero variance")
    return float(np.abs(r - mean).mean() / std)


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
    conventional drift-detection design.
    """
    if not threshold > 0:
        raise InvalidArgumentError("threshold must be positive")
    k = ndiffs(reference, max_diff=max_diff).k

    model_ref = boosted_fit(reference, features, epsilon=epsilon, k_diffs=k)
    model_cur = model_ref if reuse_model else boosted_fit(current, features, epsilon=epsilon, k_diffs=k)
    if model_ref.degenerate or model_cur.degenerate:
        raise DegenerateInputError("boosted model is degenerate (zero-variance window)")

    grid_ref = diff(reference, k)
    grid_cur = diff(current, k)
    seasonal_ref = boosted_predict(model_ref, grid_ref)
    seasonal_cur = boosted_predict(model_cur, grid_cur)
    residual_ref = grid_ref.values - seasonal_ref
    residual_cur = grid_cur.values - seasonal_cur

    z_ref = compute_zscore(residual_ref)
    z_curr = compute_zscore(residual_cur)
    delta = abs(z_curr - z_ref)
    report = DriftReport(
        z_ref=z_ref,
        z_curr=z_curr,
        delta=delta,
        threshold=float(threshold),
        drifted=delta >= threshold,
        residual_curr=residual_cur,
    )
    return UtddResult(
        report=report,
        k_diffs=k,
        reference=WindowFit(grid_ref, seasonal_ref, residual_ref, model_ref),
        current=WindowFit(grid_cur, seasonal_cur, residual_cur, model_cur),
    )


def utdd(
    reference: TimeSeries,
    current: TimeSeries,
    features: Sequence,
    *,
    epsilon: Optional[float] = None,
    max_diff: int = 4,
    threshold: float = DEFAULT_THRESHOLD,
    reuse_model: bool = False,
) -> DriftReport:
    """Drift verdict between a reference window and a current window."""
    return run_utdd(
        reference,
        current,
        features,
        epsilon=epsilon,
        max_diff=max_diff,
        threshold=threshold,
        reuse_model=reuse_model,
    ).report


def report_to_dict(report: DriftReport) -> dict:
    return {
        "z_ref": report.z_ref,
        "z_curr": report.z_curr,
        "delta": report.delta,
        "threshold": report.threshold,
        "drifted": report.drifted,
        "residual_curr": [float(v) for v in report.residual_curr],
    }


def report_from_dict(doc: Mapping) -> DriftReport:
    return DriftReport(
        z_ref=float(doc["z_ref"]),
        z_curr=float(doc["z_curr"]),
        delta=float(doc["delta"]),
        threshold=float(doc["threshold"]),
        drifted=bool(doc["drifted"]),
        residual_curr=np.asarray(doc["residual_curr"], dtype=np.float64),
    )


def save_report(report: DriftReport, path, extra: Optional[Mapping] = None) -> None:
    doc = report_to_dict(report)
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


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
