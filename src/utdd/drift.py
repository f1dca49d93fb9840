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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, diff, spread, write_timestamp_table
from .embeddings import BoostedModel, boosted_fit, boosted_predict, check_features
from .stationarity import MIN_WINDOW_POINTS, ndiffs
from .verdict import DEFAULT_EPSILON, DEFAULT_MAX_DIFF, DEFAULT_THRESHOLD, DriftReport
from .verdict import check_positive, detect

__all__ = [
    "WindowFit",
    "UtddResult",
    "compute_zscore",
    "fit_reference",
    "run_utdd",
    "write_residual_csv",
    "write_fit_csv",
]


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
    std = spread(r)
    if not std:
        raise DegenerateInputError("residual has zero variance")
    # bit for bit np.abs(r - r.mean()).mean() / std, without numpy's mean wrapper
    dev = np.abs(r - r.sum() / r.size)
    return float(dev.sum() / dev.size / std)


def fit_reference(window: TimeSeries, features: Sequence, *, epsilon: float = DEFAULT_EPSILON,
                  max_diff: int = DEFAULT_MAX_DIFF) -> BoostedModel:
    """``features`` boosted on ``window`` differenced ``ndiffs`` times; both checked before ADF."""
    features = check_features(features)
    check_positive(epsilon, "epsilon")
    k = ndiffs(window, max_diff=max_diff).k
    return boosted_fit(window, features, epsilon=epsilon, k_diffs=k)


def _window_fit(window: TimeSeries, model: BoostedModel) -> WindowFit:
    """``model``'s seasonal component and residual on ``window`` differenced ``model.k_diffs`` times."""
    grid = diff(window, model.k_diffs)
    seasonal = boosted_predict(model, grid)
    return WindowFit(grid, seasonal, grid.values - seasonal, model)


def run_utdd(
    reference: TimeSeries,
    current: TimeSeries,
    features: Sequence,
    *,
    epsilon: float = DEFAULT_EPSILON,
    max_diff: int = DEFAULT_MAX_DIFF,
    threshold: float = DEFAULT_THRESHOLD,
    reuse_model: bool = False,
) -> UtddResult:
    """Run the drift pipeline and keep the per-window intermediates.

    The differencing order is estimated once, on the reference window, and
    reused for the current window so the two statistics stay comparable.  By
    default each window gets its own boosted fit; with ``reuse_model`` the
    reference model also deseasonalizes the current window, which is the more
    conventional drift-detection design.  Windows with different steps are
    refused with :class:`InvalidArgumentError`, and so are a window of fewer
    than ``MIN_WINDOW_POINTS`` (30) points, a threshold that is not positive
    and finite and an epsilon that is not positive, all before any fitting.  A
    window whose residual has no variance raises :class:`DegenerateInputError`
    from :func:`compute_zscore`.
    """
    if reference.step != current.step:
        raise InvalidArgumentError(
            f"windows have different steps: {reference.step!r} s and {current.step!r} s"
        )
    for name, window in (("reference", reference), ("current", current)):
        if len(window) < MIN_WINDOW_POINTS:
            raise InvalidArgumentError(
                f"{name} window has {len(window)} points; need at least {MIN_WINDOW_POINTS}"
            )
    check_positive(threshold, "threshold")
    model_ref = fit_reference(reference, features, epsilon=epsilon, max_diff=max_diff)
    k = model_ref.k_diffs
    model_cur = model_ref if reuse_model else boosted_fit(current, features, epsilon=epsilon, k_diffs=k)
    fit_ref, fit_cur = _window_fit(reference, model_ref), _window_fit(current, model_cur)

    z_ref = compute_zscore(fit_ref.residual)
    z_curr = compute_zscore(fit_cur.residual)
    report = DriftReport(
        k_diffs=k,
        z_ref=z_ref,
        z_curr=z_curr,
        delta=abs(z_curr - z_ref),
        threshold=float(threshold),
        drifted=detect(z_ref, z_curr, threshold),
    )
    return UtddResult(report=report, reference=fit_ref, current=fit_cur)


def write_residual_csv(fit: WindowFit, path) -> None:
    """Plot-ready ``timestamp,residual`` rows for one window."""
    write_timestamp_table(path, fit.grid, {"residual": fit.residual})


def write_fit_csv(fit: WindowFit, path) -> None:
    """Plot-ready ``timestamp,observed,seasonal,residual`` rows for one window."""
    columns = {"observed": fit.grid.values, "seasonal": fit.seasonal, "residual": fit.residual}
    write_timestamp_table(path, fit.grid, columns)
