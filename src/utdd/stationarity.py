"""Augmented Dickey-Fuller unit-root test and minimum differencing order.

The ADF regression is the constant-only form

    dx_t = alpha + gamma * x_{t-1} + sum_{i=1..L} delta_i * dx_{t-i} + e_t

fitted by least squares on the columns ``[x_{t-1}, dx_{t-1..t-L}, dx_t]``, and
only ``gamma``'s t-ratio is computed.  Centring the columns partials out the
constant (Frisch-Waugh-Lovell), so no column of ones is needed and the t-ratio
comes from the R factor of the centred columns.  Every column but the first is
a shifted copy of the one vector ``dx``, so their Gram matrix follows from two
correlations and a shift recurrence at O(n L) cost, without forming the
matrix.  When the condition estimate of its Cholesky factor is at most 100,
that factor is R.  When a Cholesky factorization fails or the estimate is not
finite, Householder QR factors the whole explicit matrix.  Otherwise
CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya 2015) forms the
centred matrix and Q one block of rows at a time and keeps only Q'Q, so memory
grows with the number of points alone.  The statistic is compared against the
asymptotic 5% critical value for the constant-only case (-2.86).
No finite-sample critical-value surface or p-value interpolation is
attempted: callers only need the stationary / non-stationary verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateInputError, InvalidArgumentError
from .series import TimeSeries, spread
from .verdict import DEFAULT_MAX_DIFF, check_count

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

# The Cholesky factor of the Gram matrix is R itself up to this 1-norm condition
# estimate: its t-ratio error grows as kappa^2 u, about 1e-12 here.  Differenced
# random walks with a daily cycle estimate up to 380, where one Cholesky is off
# by 1.9e-12 of max(|t|, 1) against Householder QR; below 100 it is off by 1e-13.
_ONE_PASS_MAX_COND = 100.0
_BLOCK_ROWS = 256  # rows of the design and of Q formed at a time, so neither is held whole
_TINY = np.finfo(np.float64).tiny


def _lag_gram(level: np.ndarray, d: np.ndarray, lags: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix of the centred columns ``[level, d_{t-1..t-L}, d_t]``, and their means.

    ``level`` holds the nobs lagged levels and ``d`` the nobs + L differences;
    the column of lag i is ``d[L - i : L - i + nobs]``.  One lag's window is the
    last one's moved back a step: it gains ``d[L-1-i]`` at its head and loses
    ``d[L-1-i+nobs]`` at its tail, so the lag block follows from its lag-0 row by

        S[i+1, j+1] = S[i, j] + d[L-1-i] d[L-1-j] - d[L-1-i+nobs] d[L-1-j+nobs].

    Two correlations give the lag-0 row and the level's row at O(nobs L) cost,
    and the recurrence the rest at O(L^2).  Each column's mean m enters as the
    rank-one correction ``-nobs m m'``; the level is centred and ``d`` shifted by
    its own mean first, so that the correction removes no large offset.
    """
    nobs, k = level.size, lags + 2
    level_mean, d_mean = level.sum() / nobs, d.sum() / d.size
    v, d = level - level_mean, d - d_mean
    head, tail = d[:lags][::-1], d[nobs : nobs + lags][::-1]
    lag0 = np.correlate(d, d[lags:], "valid")[::-1]  # S[0, j] for j = 0 .. L
    level_row = np.correlate(d, v, "valid")[::-1]
    # the upper triangle, in the column order [level, d_{t-1}, ..., d_{t-L}, d_t]
    gram = np.zeros((k, k))
    gram[0, 0], gram[0, 1:-1], gram[0, -1] = v @ v, level_row[1:], level_row[0]
    gram[1:-1, -1], gram[-1, -1] = lag0[1:], lag0[0]
    step = head[:, None] * head - tail[:, None] * tail
    above = lag0[:-1]
    for i in range(lags):
        np.add(above, step[i, i:], out=gram[i + 1, i + 1 : -1])
        above = gram[i + 1, i + 1 : -2]
    gram += gram.T
    gram.flat[:: k + 1] *= 0.5  # exact: the diagonal was doubled
    sums = np.empty(k)
    sums[0], sums[-1] = v.sum(), d[lags:].sum()
    np.cumsum(head - tail, out=sums[1:-1])
    sums[1:-1] += sums[-1]
    gram -= sums[:, None] * (sums / nobs)
    mean = sums / nobs + d_mean
    mean[0] += level_mean - d_mean
    return gram, mean


def _centred_rows(level: np.ndarray, lagged: np.ndarray, mean: np.ndarray,
                  start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the centred design ``[level, d_{t-1..t-L}, d_t] - mean``.

    ``lagged[i]`` is the nobs-long column of lag i, a view into ``d``.
    """
    # stacked as rows and transposed, so each column is contiguous
    rows = np.vstack([level[start:stop], lagged[1:, start:stop], lagged[0, start:stop]]).T
    rows -= mean
    return rows


def ols(x: np.ndarray, lags: int) -> float:
    """t-ratio of ``gamma`` in the ADF regression of ``x`` with ``lags`` lagged differences.

    The regressors are ``[x_{t-1}, dx_{t-1..t-L}]`` and a constant, and the
    target is ``dx_t``, for the nobs = n - 1 - L observations t = L+1 .. n-1.
    The level column is divided by its largest magnitude and the differences
    by theirs, one scale for all, so that no sum overflows and the difference
    columns stay shifted copies of one vector.  Centring each column partials
    out the constant (Frisch-Waugh-Lovell).  :func:`_lag_gram` gives the Gram
    matrix of the centred columns ``[X | y]`` from the lag structure, and one
    Cholesky factorization of it, with the columns normalised to unit norm,
    gives R1 and its 1-norm condition estimate ``kappa``:

    - ``kappa <= 100``: R is that factor, and no explicit matrix is formed.
      The Gram matrix squares the condition number, so R's relative error,
      and the t-ratio's, grow as ``kappa^2 u`` (u = 2^-53): about 1e-12 at
      the bound.
    - a Cholesky fails or ``kappa`` is not finite: numpy's Householder QR
      factors the explicit matrix.  On a sinusoid plus noise at 1e-10 to 1e-8
      relative, CholeskyQR2 alone refuses designs that the rank rule fits;
      their t-ratio lies within ``1e-6 max(|t|, 1)`` of exact arithmetic.
      Shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa
      2020) fits them too, but is no faster than this fallback.

    Any other ``kappa`` takes CholeskyQR2's second pass from R1, which
    restores R to Householder accuracy.  It forms the centred matrix, and Q
    from it, one block of ``_BLOCK_ROWS`` rows at a time and sums only Q'Q, so
    it holds neither whole.

    For ``X`` of p columns, R's last column holds ``Q'y`` and its corner
    ``|R[p, p]|`` is the residual norm (Golub & Van Loan, *Matrix
    Computations*, 5.3).  With ``w`` the first row of ``R^-1`` (read from
    ``inv(R1)`` in one pass, else one solve of ``R'w = e_1``), the coefficient
    is ``w . R[:p, p]`` and its standard error
    ``|R[p, p]| |w| / sqrt(nobs - p - 1)``, the constant counting as a
    regressor.  On a leading block of R, with the tail norm of R's last column
    as residual norm, the same formula fits a nested model with fewer lags.
    Raises :class:`DegenerateInputError` when ``X`` is rank-deficient by the
    rule ``|R_jj| <= 1e-10 * max(|x_j|, 1)`` in the units of ``x``.  The caller
    passes a one-dimensional float array with nobs >= L + 4; ``x`` is not
    written to.  :func:`adf_test` passes Schwert's L; other orders call this.
    """
    n, p = x.size, lags + 1
    nobs = n - 1 - lags
    level, d = x[lags : n - 1], np.diff(x)
    # at least the smallest normal float, so that 1 / scale below is finite
    level_scale = max(np.abs(level).max(), _TINY)
    d_scale = max(np.abs(d).max(), _TINY)
    level = level / level_scale
    d /= d_scale
    gram, mean = _lag_gram(level, d, lags)
    norms = np.sqrt(gram.diagonal())
    norms[norms == 0.0] = 1.0  # a zero column stays a zero pivot, which Cholesky refuses
    try:
        # numpy's cholesky gives the lower factor; its transpose is the upper R1
        r1 = np.linalg.cholesky(gram / norms / norms[:, None]).T
        r1_inv = np.linalg.inv(r1)
        # the 1-norm of a matrix is its largest absolute column sum
        cond = np.abs(r1).sum(axis=0).max() * np.abs(r1_inv).sum(axis=0).max()
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond <= _ONE_PASS_MAX_COND:
        r = r1 * norms
    else:
        lagged = sliding_window_view(d, nobs)[::-1]  # lagged[i] is the column of lag i
        if cond < np.inf:
            # CholeskyQR2's second pass: Q = z diag(1/norms) inv(R1) is formed a
            # block of rows at a time from a block of the centred design z, and
            # only Q'Q is kept; its Cholesky factor R2 corrects R1's loss of
            # orthogonality, and R = R2 R1 diag(norms)
            to_q, qtq = r1_inv / norms[:, None], np.zeros_like(r1)
            for start in range(0, nobs, _BLOCK_ROWS):
                q = _centred_rows(level, lagged, mean, start, start + _BLOCK_ROWS) @ to_q
                qtq += q.T @ q
            try:
                r = np.linalg.cholesky(qtq).T @ r1 * norms
            except np.linalg.LinAlgError:
                cond = np.inf
        if not cond < np.inf:  # written so that a NaN estimate lands here too
            r = np.linalg.qr(_centred_rows(level, lagged, mean, 0, nobs), mode="r")
    rx, mean = r[:p, :p], mean[:p]
    scale = np.full(p, d_scale)
    scale[0] = level_scale
    # the rank rule in the units of z = x / scale: |x_j| / scale_j is the norm of
    # z_j + mean_j, and R's column j keeps the norm of z_j
    x_norms = np.sqrt(np.einsum("ij,ij->j", rx, rx) + nobs * mean * mean)
    if np.any(np.abs(rx.diagonal()) <= 1e-10 * np.maximum(x_norms, 1.0 / scale)):
        raise DegenerateInputError("design matrix is rank-deficient")
    # in one pass, inv(R) = diag(1 / norms) inv(R1), whose first row is
    # inv(R1)'s divided by norms[0], a positive factor that cancels below
    w = r1_inv[0, :p] if cond <= _ONE_PASS_MAX_COND else np.linalg.solve(rx.T, np.eye(p)[0])
    return float(w @ r[:p, p] * np.sqrt(nobs - p - 1) / (abs(r[p, p]) * np.linalg.norm(w)))


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


def adf_test(series: Union[TimeSeries, np.ndarray, list]) -> AdfResult:
    """Augmented Dickey-Fuller test with a constant and no deterministic trend.

    Parameters
    ----------
    series : TimeSeries or array_like
        The data to test.

    Returns
    -------
    AdfResult
        The t-ratio of ``gamma`` (by :func:`ols`), the lag order L used
        (``lags_used``, Schwert's ``floor(12 * (n/100)^0.25)``: 8 at n = 25, 12
        at 100, 17 at 500), the 5% critical value and the stationarity verdict.

    Raises
    ------
    InvalidArgumentError
        When the series is not one-dimensional, or leaves fewer usable
        observations than the regressor count plus 2 after lag construction:
        every series of 20 points or fewer does.
    DegenerateInputError
        For a singular regression design, as every constant series gives.
    """
    x = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("series must be one-dimensional")
    n = x.size
    L = int(12.0 * (n / 100.0) ** 0.25)  # Schwert's rule
    nobs = n - 1 - L
    nreg = L + 2  # constant, lagged level, L lagged differences
    if nobs < nreg + 2:
        raise InvalidArgumentError(
            f"{n} points leave {nobs} usable observations for {nreg} regressors; "
            f"need at least {nreg + 2}"
        )
    statistic = ols(x, L)
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
    passes, ``k = max_diff`` is returned with the full trail.  A level too
    short for :func:`adf_test` is refused with a message naming ``max_diff``.
    """
    if len(series) < MIN_WINDOW_POINTS:
        raise InvalidArgumentError(
            f"series has {len(series)} points; need at least {MIN_WINDOW_POINTS}"
        )
    max_diff = check_count(max_diff, "max_diff")
    trail: list[AdfResult] = []
    for k in range(max_diff + 1):
        # each level differences the last once, bit for bit as np.diff(x, n=k) does
        candidate = np.diff(candidate) if k else series.values
        if not spread(candidate):
            return NdiffsResult(k=k, trail=tuple(trail))
        try:
            result = adf_test(candidate)
        except DegenerateInputError:
            continue
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"max_diff {max_diff}: difference {k}: {exc}") from None
        trail.append(result)
        if result.stationary:
            return NdiffsResult(k=k, trail=tuple(trail))
    return NdiffsResult(k=max_diff, trail=tuple(trail))
