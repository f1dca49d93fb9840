"""Augmented Dickey-Fuller unit-root test and minimum differencing order.

The ADF regression is the constant-only form

    dx_t = alpha + gamma * x_{t-1} + sum_{i=1..L} delta_i * dx_{t-i} + e_t

fitted by least squares from the R factor of ``[X | y]``; Q is never formed.
The t-ratio of ``gamma`` is compared against the asymptotic 5% critical value
for the constant-only case (-2.86).  No finite-sample critical-value surface
or p-value interpolation is attempted: callers only need the stationary /
non-stationary verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, is_flat

__all__ = [
    "ADF_CRITICAL_5PCT",
    "DEFAULT_MAX_DIFF",
    "MIN_WINDOW_POINTS",
    "AdfResult",
    "NdiffsResult",
    "adf_test",
    "ndiffs",
]

# Asymptotic 5% point of the Dickey-Fuller distribution, constant-only case.
ADF_CRITICAL_5PCT = -2.86

DEFAULT_MAX_DIFF = 4  # highest differencing order ndiffs tries unless told otherwise
MIN_WINDOW_POINTS = 30  # fewest points ndiffs and run_utdd take in a window


def ols(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least squares from the R factor of ``[X | y]``; Q is never formed.

    Its last column holds ``Q'y`` and its corner ``|R[k, k]|`` is the residual
    norm (Golub & Van Loan, *Matrix Computations*, 5.3), so one R-only QR gives
    the pair ``(coef, stderr)``, ``stderr = |R[k, k]| sqrt(rowsumsq(R^-1) / (n - k))``.
    QR is used instead of the normal equations because near-unit-root designs are
    ill-conditioned.  Raises :class:`DegenerateInputError` when the design
    matrix is rank-deficient and :class:`InvalidArgumentError` when there are
    not enough rows to estimate the error variance.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise InvalidArgumentError("design must be 2-d with one row per target value")
    n, k = X.shape
    if n < k + 1:
        raise InvalidArgumentError(f"{n} observations cannot support {k} regressors")
    ry = np.linalg.qr(np.column_stack([X, y]), mode="r")
    r = ry[:k, :k]
    col_scale = np.maximum(np.sqrt(np.einsum("ij,ij->j", X, X)), 1.0)
    if np.any(np.abs(np.diag(r)) <= 1e-10 * col_scale):
        raise DegenerateInputError("design matrix is rank-deficient")
    coef = np.linalg.solve(r, ry[:k, k])
    r_inv = np.linalg.inv(r)
    # diag of (X'X)^-1 = diag of R^-1 R^-T; R[k, k] stays unsquared, so it cannot overflow
    stderr = abs(ry[k, k]) * np.sqrt((r_inv * r_inv).sum(axis=1) / (n - k))
    return coef, stderr


@dataclass(frozen=True)
class AdfResult:
    """Outcome of one ADF test.

    ``stationary`` is true exactly when ``statistic < critical_value_5pct``.
    """

    statistic: float
    lags_used: int
    critical_value_5pct: float
    stationary: bool


@dataclass(frozen=True)
class NdiffsResult:
    """Smallest differencing order found, with the per-level test trail.

    A level resolved by the degenerate-variance rule contributes no trail
    entry, so the trail may be shorter than ``k + 1`` (or empty).
    """

    k: int
    trail: tuple[AdfResult, ...]


def adf_test(series: Union[TimeSeries, np.ndarray, list], lags: Optional[int] = None) -> AdfResult:
    """Augmented Dickey-Fuller test with a constant and no deterministic trend.

    Parameters
    ----------
    series : TimeSeries or array_like
        The data to test.
    lags : int, optional
        Number of lagged differences L.  Defaults to Schwert's rule
        ``floor(12 * (n/100)^0.25)``: 8 lags at n = 25, 12 at 100, 17 at 500.

    Returns
    -------
    AdfResult
        The t-ratio, the lag order L used (``lags_used``), the 5% critical
        value and the stationarity verdict.

    Raises
    ------
    InvalidArgumentError
        When the series is not one-dimensional, ``lags`` is negative, fewer
        than 10 usable observations remain after lag construction, or the
        observation count does not exceed the regressor count by >= 2.
    DegenerateInputError
        For a singular regression design, as every constant series gives.
    """
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("series must be one-dimensional")
    n = x.size
    L = int(12.0 * (n / 100.0) ** 0.25) if lags is None else int(lags)  # Schwert's rule
    if L < 0:
        raise InvalidArgumentError("lags must be non-negative")
    nobs = n - 1 - L
    nreg = L + 2  # constant, lagged level, L lagged differences
    if nobs < 10 or nobs < nreg + 2:
        raise InvalidArgumentError(
            f"{n} points leave {nobs} usable observations for {nreg} regressors; "
            "need at least 10 and regressors + 2"
        )
    # one row per observation t = L+1 .. n-1 (0-based): dx_t, dx_{t-1}, ..., dx_{t-L}
    lagged = sliding_window_view(np.diff(x), L + 1)[:, ::-1]
    coef, stderr = ols(np.column_stack([np.ones(nobs), x[L : n - 1], lagged[:, 1:]]), lagged[:, 0])
    statistic = float(coef[1] / stderr[1])
    return AdfResult(statistic=statistic, lags_used=L, critical_value_5pct=ADF_CRITICAL_5PCT,
                     stationary=statistic < ADF_CRITICAL_5PCT)


def ndiffs(series: TimeSeries, max_diff: int = DEFAULT_MAX_DIFF) -> NdiffsResult:
    """Smallest k <= max_diff such that the k-times differenced series is stationary.

    Before each ADF test, a candidate whose population standard deviation is
    below ``1e-10 * (1 + |mean|)`` is declared stationary immediately; exact
    constants produced by differencing deterministic trends must terminate the
    search without a degenerate regression.  A level whose ADF design is
    singular (e.g. a pure linear ramp, whose differences are a nonzero
    constant) counts as non-stationary and the search moves on.  If no level
    passes, ``k = max_diff`` is returned with the full trail.
    """
    if len(series) < MIN_WINDOW_POINTS:
        raise InvalidArgumentError(
            f"series has {len(series)} points; need at least {MIN_WINDOW_POINTS}"
        )
    max_diff = int(max_diff)
    if max_diff < 0:
        raise InvalidArgumentError("max_diff must be non-negative")
    trail: list[AdfResult] = []
    for k in range(max_diff + 1):
        # each level differences the last once, bit for bit as np.diff(x, n=k) does
        candidate = np.diff(candidate) if k else series.values
        if is_flat(candidate):
            return NdiffsResult(k=k, trail=tuple(trail))
        try:
            result = adf_test(candidate)
        except DegenerateInputError:
            continue
        trail.append(result)
        if result.stationary:
            return NdiffsResult(k=k, trail=tuple(trail))
    return NdiffsResult(k=max_diff, trail=tuple(trail))
