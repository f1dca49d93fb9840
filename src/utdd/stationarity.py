"""Augmented Dickey-Fuller unit-root test and minimum differencing order.

The ADF regression is the constant-only form

    dx_t = alpha + gamma * x_{t-1} + sum_{i=1..L} delta_i * dx_{t-i} + e_t

fitted by least squares on the one matrix ``[x_{t-1}, dx_{t-1..t-L}, dx_t]``,
and only ``gamma``'s t-ratio is computed.  Centring the columns partials out
the constant (Frisch-Waugh-Lovell), so the matrix needs no column of ones and
the t-ratio comes from the R factor of the centred matrix.  CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya
2015) computes that factor from two small Gram matrices; a design too
ill-conditioned for it is factored by Householder QR instead.  Q is never
formed.  The statistic is compared against the asymptotic 5% critical value
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
from .verdict import DEFAULT_MAX_DIFF

__all__ = [
    "ADF_CRITICAL_5PCT",
    "MIN_WINDOW_POINTS",
    "AdfResult",
    "NdiffsResult",
    "adf_test",
    "ndiffs",
]

# Asymptotic 5% point of the Dickey-Fuller distribution, constant-only case.
ADF_CRITICAL_5PCT = -2.86

MIN_WINDOW_POINTS = 30  # fewest points ndiffs and run_utdd take in a window

# CholeskyQR2 is trusted up to this 1-norm condition estimate of its first
# Cholesky factor.  Near 1e8 it breaks down on designs that the rank rule fits,
# so Householder QR takes over above it.
_CHOLESKY_QR_MAX_COND = 1e6
_BLOCK_ROWS = 2048  # rows of Q formed at a time, so Q is never held whole


def _cholesky_qr2(z: np.ndarray) -> Optional[np.ndarray]:
    """R factor of ``z`` by CholeskyQR2, or None when ``z`` is too ill-conditioned for it.

    The columns are normalised to unit norm inside the Gram matrix, whose
    Cholesky factor R1 gives ``Q = Z inv(R1)``; the Cholesky factor R2 of
    ``Q'Q`` corrects R1's loss of orthogonality, and ``R = R2 R1``.  Q is
    formed a block of rows at a time and only ``Q'Q`` is kept.
    """
    gram = z.T @ z
    norms = np.sqrt(gram.diagonal())
    norms[norms == 0.0] = 1.0  # a zero column stays a zero pivot, which Cholesky refuses
    try:
        # numpy's cholesky gives the lower factor; its transpose is the upper R1
        r1 = np.linalg.cholesky(gram / norms / norms[:, None]).T
    except np.linalg.LinAlgError:
        return None
    r1_inv = np.linalg.inv(r1)
    # the 1-norm of a matrix is its largest absolute column sum
    if np.abs(r1).sum(axis=0).max() * np.abs(r1_inv).sum(axis=0).max() > _CHOLESKY_QR_MAX_COND:
        return None
    to_q = r1_inv / norms[:, None]
    gram = np.zeros_like(gram)
    for start in range(0, z.shape[0], _BLOCK_ROWS):
        q = z[start : start + _BLOCK_ROWS] @ to_q
        gram += q.T @ q
    try:
        return np.linalg.cholesky(gram).T @ r1 * norms
    except np.linalg.LinAlgError:
        return None


def ols(xy: np.ndarray) -> float:
    """t-ratio of the first column of ``X`` when ``y`` is fitted on ``[1 | X]``, for ``xy = [X | y]``.

    A constant is always fitted, so ``xy`` holds no column of ones.  ``xy``
    is overwritten: each column is divided by its largest magnitude, so that
    no sum overflows, and then centred, which partials out the constant
    (Frisch-Waugh-Lovell).  CholeskyQR2 (Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya 2015) gives the R factor of the centred
    ``[X | y]``.  When a Cholesky factorization fails, or the first factor's
    1-norm condition estimate exceeds 1e6, numpy's Householder QR factors the
    centred matrix instead: on a sinusoid plus noise at 1e-10 to 1e-8
    relative, CholeskyQR2 alone refuses designs that the rank rule fits.
    Shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa
    2020) fits them too, but is no faster than this guard.

    For ``X`` of p columns, R's last column holds ``Q'y`` and its corner
    ``|R[p, p]|`` is the residual norm (Golub & Van Loan, *Matrix
    Computations*, 5.3).  With ``w`` the first row of ``R^-1`` (one solve of
    ``R'w = e_1``), the coefficient is ``w . R[:p, p]`` and its standard error
    ``|R[p, p]| |w| / sqrt(n - p - 1)``, the constant counting as a regressor.
    On a leading block of R, with the tail norm of R's last column as residual
    norm, the same formula fits a nested model.  Raises
    :class:`DegenerateInputError` when ``X`` is rank-deficient by the rule
    ``|R_jj| <= 1e-10 * max(|x_j|, 1)`` in the units of ``xy``; the caller
    passes a 2-d float array with spare rows.
    """
    n, p = xy.shape[0], xy.shape[1] - 1
    z = xy
    # at least the smallest normal float, so that 1 / scale below is finite
    scale = np.maximum(np.maximum(z.max(axis=0), -z.min(axis=0)), np.finfo(np.float64).tiny)
    z /= scale
    mean = z.sum(axis=0) / n
    z -= mean
    r = _cholesky_qr2(z)
    if r is None:
        r = np.linalg.qr(z, mode="r")
    rx, scale, mean = r[:p, :p], scale[:p], mean[:p]
    # the rank rule in the units of z = x / scale: |x_j| / scale_j is the norm of
    # z_j + mean_j, and R's column j keeps the norm of z_j
    x_norms = np.sqrt(np.einsum("ij,ij->j", rx, rx) + n * mean * mean)
    if np.any(np.abs(rx.diagonal()) <= 1e-10 * np.maximum(x_norms, 1.0 / scale)):
        raise DegenerateInputError("design matrix is rank-deficient")
    w = np.linalg.solve(rx.T, np.eye(p)[0])
    return float(w @ r[:p, p] * np.sqrt(n - p - 1) / (abs(r[p, p]) * np.linalg.norm(w)))


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
        The t-ratio of ``gamma`` (by :func:`ols`, from the regression matrix
        built once), the lag order L used (``lags_used``), the 5% critical
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
    # lagged[i] holds dx_{t-i} for the observations t = L+1 .. n-1 (0-based)
    lagged = sliding_window_view(np.diff(x), nobs)[::-1]
    # stacked as rows and transposed, so each column is contiguous for ols
    statistic = ols(np.vstack([x[L : n - 1], lagged[1:], lagged[0]]).T)
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
