"""Tests for OLS, the unit-root test, and automatic differencing order."""

import importlib.util
import math
import sys
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from utdd import DegenerateInputError, InvalidArgumentError, TimeSeries
from utdd.stationarity import (
    ADF_CRITICAL_5PCT,
    _lag_gram,
    adf_test,
    ndiffs,
    ols,
)

T0 = datetime(2020, 1, 1, tzinfo=timezone.utc)
ROOT = Path(__file__).resolve().parent.parent


def hourly(values):
    return TimeSeries(T0, 3600.0, np.asarray(values, dtype=float))


# ---------------------------------------------------------------------------
# OLS
# ---------------------------------------------------------------------------

def adf_design(x, lags):
    """The ADF regression's design and target, built independently of adf_test."""
    n = x.size
    dx = np.diff(x)
    cols = [np.ones(n - 1 - lags), x[lags : n - 1]]
    cols += [dx[lags - i : n - 1 - i] for i in range(1, lags + 1)]
    return np.column_stack(cols), dx[lags:]


def exact_t_ratio(design, target):
    """t-ratio of the second coefficient, in exact rational arithmetic on the float inputs.

    Gauss-Jordan elimination of [X'X | X'y | e_2] gives beta and the second
    column of (X'X)^-1; the square root is the only rounding.
    """
    cols = [[Fraction(v) for v in col] for col in design.T.tolist()]
    ys = [Fraction(v) for v in target.tolist()]
    n, k = len(ys), len(cols)
    xty = [sum(a * b for a, b in zip(col, ys)) for col in cols]
    aug = [
        [sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(k)]
        + [xty[i], Fraction(int(i == 1))]
        for i in range(k)
    ]
    for c in range(k):
        pivot = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    beta = [row[k] for row in aug]
    rss = sum(v * v for v in ys) - sum(b * v for b, v in zip(beta, xty))
    t_squared = beta[1] ** 2 * (n - k) / (rss * aug[1][k + 1])
    return math.copysign(math.sqrt(t_squared), beta[1])


def test_ols_hand_computed_case():
    # a short integer series, whose t-ratio exact_t_ratio computes by hand:
    # Gauss-Jordan elimination in rational arithmetic and one square root
    x = np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
    for lags in (0, 1, 2):
        assert_allclose(ols(x, lags), exact_t_ratio(*adf_design(x, lags)), rtol=0, atol=1e-12)


def test_ols_matches_lstsq_on_random_problems():
    rng = np.random.default_rng(11)
    for i in range(20):
        noise = rng.normal(size=40)
        x = np.cumsum(noise) if i % 2 else noise
        design, y = adf_design(x, lags=i % 4)
        want, *_ = np.linalg.lstsq(design, y, rcond=None)
        # textbook covariance: sigma2 * diag((X'X)^-1)
        resid = y - design @ want
        sigma2 = resid @ resid / (y.size - design.shape[1])
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(design.T @ design)))
        assert_allclose(ols(x, i % 4), want[1] / se[1], rtol=1e-9)


def test_ols_rejects_collinear_design():
    # the differences of a quadratic are a line, so each lagged difference is
    # the last one minus a constant: with two lags and the constant, collinear
    with pytest.raises(DegenerateInputError):
        ols(np.arange(20.0) ** 2, 2)


@given(
    n=st.integers(min_value=40, max_value=9000),
    lags=st.integers(min_value=0, max_value=40),
    walk=st.booleans(),
    drift=st.floats(min_value=-10.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=40, lags=0, walk=False, drift=0.0, seed=0)
@example(n=9000, lags=40, walk=True, drift=3.0, seed=1)
@settings(max_examples=40, deadline=None)
def test_lag_gram_is_the_gram_matrix_of_the_explicit_centred_design(n, lags, walk, drift, seed):
    # the correlations, the shift recurrence and the rank-one mean correction
    # against the product of the explicit matrix, to 1e-13 of its diagonal
    nobs = n - 1 - lags
    assume(nobs >= lags + 4)
    noise = np.random.default_rng(seed).standard_normal(n)
    x = (np.cumsum(noise) if walk else noise) + drift * np.arange(n)
    level, d = x[lags : n - 1], np.diff(x)
    gram, mean = _lag_gram(level, d, lags)
    lagged = [d[lags - i : lags - i + nobs] for i in range(1, lags + 1)]
    z = np.column_stack([level, *lagged, d[lags:]])
    assert_allclose(mean, z.mean(axis=0), rtol=1e-12, atol=1e-15 * np.abs(z).max())
    z -= z.mean(axis=0)
    want = z.T @ z
    diagonal = want.diagonal()
    assert np.all(np.abs(gram - want) <= 1e-13 * np.sqrt(np.outer(diagonal, diagonal)))


# ---------------------------------------------------------------------------
# unit-root test
# ---------------------------------------------------------------------------

def test_schwert_lag_rule():
    rng = np.random.default_rng(3)
    for n, lags in ((25, 8), (50, 10), (100, 12), (500, 17)):
        assert adf_test(rng.standard_normal(n)).lags_used == lags


def test_adf_white_noise_is_stationary():
    rng = np.random.default_rng(0)
    res = adf_test(rng.standard_normal(500))
    assert res.stationary
    assert res.statistic < ADF_CRITICAL_5PCT
    assert res.critical_value_5pct == ADF_CRITICAL_5PCT
    assert res.lags_used == 17


def test_adf_random_walk_is_not_stationary():
    rng = np.random.default_rng(1)
    res = adf_test(np.cumsum(rng.standard_normal(500)))
    assert not res.stationary
    assert res.statistic >= ADF_CRITICAL_5PCT


def test_adf_ar1_is_stationary():
    rng = np.random.default_rng(2)
    x = np.zeros(400)
    for t in range(1, 400):
        x[t] = 0.5 * x[t - 1] + rng.standard_normal()
    assert adf_test(x).stationary


def test_adf_matches_direct_regression():
    # independent construction of the same regression via lstsq
    rng = np.random.default_rng(3)
    x = rng.standard_normal(200)
    lags = 3
    res = adf_test(x, lags=lags)

    dx = np.diff(x)
    n = len(x)
    y = dx[lags:]
    cols = [np.ones(n - 1 - lags), x[lags : n - 1]]
    for i in range(1, lags + 1):
        cols.append(dx[lags - i : n - 1 - i])
    design = np.column_stack(cols)
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    sigma2 = resid @ resid / (len(y) - design.shape[1])
    se = np.sqrt(sigma2 * np.diag(np.linalg.inv(design.T @ design)))
    assert_allclose(res.statistic, beta[1] / se[1], rtol=1e-9)
    assert res.lags_used == lags


def test_adf_explicit_zero_lags():
    rng = np.random.default_rng(4)
    res = adf_test(rng.standard_normal(100), lags=0)
    assert res.lags_used == 0
    assert res.stationary


def test_adf_accepts_series_objects():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(120)
    assert adf_test(hourly(values)).statistic == adf_test(values).statistic


def test_adf_rejects_constant_series():
    # no flatness check of its own: the ols rank rule refuses every constant,
    # from the smallest subnormal to near the float limit (warnings are errors)
    sizes_and_lags = [(12, 0), (12, 1)] + [
        (n, lags) for n in (24, 100, 8760) for lags in (None, 0, 1, 3)
    ]
    for c in (0.0, 3.25, -3.25, 1e-300, -1e-300, 5e-324, 1e300, -1e300, -1.7e308, 1e12):
        for n, lags in sizes_and_lags:
            with pytest.raises(DegenerateInputError):
                adf_test(np.full(n, c), lags=lags)


@pytest.mark.parametrize("c", [0.0, 1.0, 1e3, 1e8])
def test_adf_rank_rule_boundary_on_a_noisy_constant(c):
    # a constant plus noise at rel * max(|c|, 1): the 1e-10 rank rule refuses
    # the design up to rel = 1e-12 and fits it from rel = 1e-8 on
    for n in (40, 100, 1464, 8760):
        for seed in range(5):
            noise = max(abs(c), 1.0) * np.random.default_rng(seed).standard_normal(n)
            for rel in (1e-14, 1e-13, 1e-12):
                with pytest.raises(DegenerateInputError):
                    adf_test(c + rel * noise)
            for rel in (1e-8, 1e-7, 1e-6):
                assert math.isfinite(adf_test(c + rel * noise).statistic), (n, seed, rel)


def test_adf_refuses_a_2d_series_and_negative_lags():
    with pytest.raises(InvalidArgumentError, match="one-dimensional"):
        adf_test(np.ones((20, 2)))
    with pytest.raises(InvalidArgumentError, match="lags must be non-negative"):
        adf_test(np.random.default_rng(0).standard_normal(40), lags=-1)


def test_adf_rejects_short_series():
    with pytest.raises(InvalidArgumentError):
        adf_test(np.arange(8.0) ** 0.5)
    with pytest.raises(InvalidArgumentError):
        adf_test(np.random.default_rng(0).standard_normal(40), lags=35)


@given(
    scale=st.floats(min_value=0.01, max_value=1e6),
    shift=st.floats(min_value=-1e6, max_value=1e6),
)
@settings(max_examples=30, deadline=None)
def test_adf_statistic_is_affine_invariant(scale, shift):
    # the t-ratio does not depend on the units of measurement
    rng = np.random.default_rng(6)
    x = rng.standard_normal(150)
    base = adf_test(x, lags=2).statistic
    moved = adf_test(scale * x + shift, lags=2).statistic
    assert_allclose(moved, base, rtol=1e-7, atol=1e-9)


def test_adf_statistic_is_scale_free_up_to_the_float_limit():
    # every column is divided by its largest magnitude before any sum or
    # square, so no norm overflows (warnings are errors) and values past 1e154,
    # whose squares do, are fitted like any others
    x = np.random.default_rng(6).standard_normal(200)
    base = adf_test(x).statistic
    for scale in (1e-9, 1e-6, 1e150, 1e160, 1e200, 1e300, 1e307):
        assert_allclose(adf_test(scale * x).statistic, base, rtol=1e-12)


def test_adf_calls_cholesky_as_numpy_1_24_does(monkeypatch):
    # the package supports numpy >= 1.24, whose cholesky takes no ``upper`` keyword
    cholesky = np.linalg.cholesky
    x = np.random.default_rng(7).standard_normal(500)
    base = adf_test(x).statistic
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: cholesky(a))
    assert adf_test(x).statistic == base


@given(
    n=st.integers(min_value=40, max_value=80),
    lags=st.integers(min_value=0, max_value=4),
    rho=st.floats(min_value=0.5, max_value=1.0),
    level=st.floats(min_value=-1e6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_adf_statistic_matches_an_exact_rational_solution(n, lags, rho, level, seed):
    # AR(1) walks up to a unit root, far from zero: the ill-conditioned designs
    # ADF meets.  Rounding moves the t-ratio by an amount that does not shrink
    # with it, so the bound is relative to |t| only once |t| >= 1, which covers
    # the critical value; below that it is 1e-9 absolute.
    noise = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0]
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    x += level
    want = exact_t_ratio(*adf_design(x, lags))
    got = adf_test(x, lags=lags).statistic
    assert abs(got - want) <= 1e-9 * max(abs(want), 1.0), (got, want)


@lru_cache(maxsize=None)
def bench_workloads():
    """``bench/workloads.py``, imported read only."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def bench_reference_windows(seed):
    """The 21 reference windows of one seed of the monitoring workload."""
    workloads = bench_workloads()
    pairs = [workloads.setup_pair(seed)] + workloads.monitor_pairs(seed)
    return [TimeSeries(pair.start, 3600.0, pair.reference) for pair in pairs]


def householder_t_ratio(design, target):
    """t-ratio of the second coefficient from numpy's Householder QR of the uncentred ``[X | y]``."""
    k = design.shape[1]
    r = np.linalg.qr(np.column_stack([design, target]), mode="r")
    rinv = np.linalg.inv(r[:k, :k])
    sigma = abs(r[k, k]) / np.sqrt(target.size - k)
    return rinv[1] @ r[:k, k] / (sigma * np.linalg.norm(rinv[1]))


@pytest.mark.parametrize("seed", range(1, 11))
def test_ndiffs_matches_lstsq_on_the_bench_windows(seed):
    # Each reference window of the monitoring workload (bench/workloads.py),
    # tested level by level with numpy's own least squares and, to 1e-12,
    # with numpy's Householder QR of the uncentred design.
    max_diff = bench_workloads().MAX_DIFF
    windows = bench_reference_windows(seed)
    orders = []
    for window in windows:
        res = ndiffs(window, max_diff=max_diff)
        x, stats, householder = window.values, [], []
        for k in range(max_diff + 1):
            lags = int(12.0 * (x.size / 100.0) ** 0.25)
            design, target = adf_design(x, lags)
            beta, rss, *_ = np.linalg.lstsq(design, target, rcond=None)
            cov = np.linalg.inv(design.T @ design)
            stats.append(beta[1] / np.sqrt(rss[0] / (target.size - design.shape[1]) * cov[1, 1]))
            householder.append(householder_t_ratio(design, target))
            if stats[-1] < -2.86:
                break
            x = np.diff(x)
        assert res.k == k
        assert [r.lags_used for r in res.trail] == [
            int(12.0 * ((len(window) - i) / 100.0) ** 0.25) for i in range(k + 1)
        ]
        got = np.array([r.statistic for r in res.trail])
        assert_allclose(got, stats, rtol=1e-9)
        assert np.all(np.abs(got - householder) <= 1e-12 * np.maximum(np.abs(householder), 1.0))
        orders.append(k)
    assert len(windows) == 21 and set(orders) == {0, 1}


def noisy_sinusoid(n, weekly, rel, seed=0):
    """A daily sinusoid (plus a weekly one at 0.3) and Gaussian noise at ``rel``.

    In exact arithmetic a sinusoid's difference is a linear combination of
    its level and a few lagged differences, so only the noise keeps the ADF
    design full rank: centred, its condition number is about 10 / rel.
    """
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 24) + (0.3 * np.sin(2 * np.pi * t / 168) if weekly else 0.0)
    return x + rel * np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("weekly", [False, True], ids=["daily", "daily+weekly"])
def test_adf_refusal_set_on_a_noisy_sinusoid(weekly):
    # The 1e-10 rank rule refuses the near-collinear design up to rel = 1e-11;
    # from rel = 1e-10 on it is fitted, and the noise makes it stationary.
    for n in (200, 2000, 8760):
        for rel in (1e-13, 1e-12, 1e-11):
            with pytest.raises(DegenerateInputError):
                adf_test(noisy_sinusoid(n, weekly, rel))
        for rel in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            assert adf_test(noisy_sinusoid(n, weekly, rel)).stationary, (n, rel)
    assert ndiffs(hourly(noisy_sinusoid(2000, weekly, 1e-9))).k == 0


def test_adf_takes_the_householder_branch_only_when_cholesky_qr2_is_unsafe(monkeypatch):
    # The noisy sinusoid needs the guard; no bench reference window does.
    calls = []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "utdd.stationarity":
            calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    # at rel = 1e-9 the first Cholesky factor breaks down; at 1e-7 it exists,
    # but its condition estimate (~2e8) is past the guard
    for rel in (1e-9, 1e-7):
        assert adf_test(noisy_sinusoid(2000, False, rel)).stationary
        assert len(calls) == 1, rel
        calls.clear()
    max_diff = bench_workloads().MAX_DIFF
    for seed in range(1, 11):
        for window in bench_reference_windows(seed):
            ndiffs(window, max_diff=max_diff)
    assert calls == []


def test_adf_takes_the_householder_branch_when_the_second_cholesky_fails(monkeypatch):
    # Over-differenced noise has a unit root in its moving average, so its
    # design's condition estimate (582) lies between the one-Cholesky bound and
    # CholeskyQR2's guard.  Q'Q of a design whose first factor passed the guard
    # is near the identity, so the second Cholesky fails only when made to.
    x = np.diff(np.random.default_rng(8).standard_normal(501))
    base = adf_test(x).statistic
    cholesky, qr = np.linalg.cholesky, np.linalg.qr
    cholesky_calls, qr_calls = [], []

    def second_cholesky_fails(a):
        cholesky_calls.append(a.shape)
        if len(cholesky_calls) == 2:
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return cholesky(a)

    def counting_qr(*args, **kwargs):
        qr_calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", second_cholesky_fails)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    statistic = adf_test(x).statistic
    assert len(cholesky_calls) == 2 and len(qr_calls) == 1
    assert abs(statistic - base) <= 1e-12 * max(abs(base), 1.0)


def test_adf_factors_a_well_conditioned_bench_level_with_one_cholesky(monkeypatch):
    # Every k = 0 level of the bench reference windows estimates its condition
    # below 100, so the Cholesky factor of the lag-structure Gram matrix is R.
    # The k = 1 levels of the random walks estimate 74 to 382; those past 100
    # take CholeskyQR2's second pass, a second Cholesky.
    cholesky = np.linalg.cholesky
    calls = []

    def counting_cholesky(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    max_diff = bench_workloads().MAX_DIFF
    first, second = Counter(), Counter()
    for seed in range(1, 11):
        for window in bench_reference_windows(seed):
            levels = [window.values]
            if ndiffs(window, max_diff=max_diff).k == 1:
                levels.append(np.diff(window.values))
            for level, counts in zip(levels, (first, second)):
                calls.clear()
                adf_test(level)
                counts[len(window), len(calls)] += 1
    assert first == {(168, 1): 40, (504, 1): 90, (1344, 1): 40, (8760, 1): 40}
    assert second == {(168, 1): 5, (168, 2): 2, (504, 2): 20, (1344, 2): 10, (8760, 2): 10}


# ---------------------------------------------------------------------------
# ndiffs
# ---------------------------------------------------------------------------

def test_ndiffs_white_noise():
    rng = np.random.default_rng(7)
    res = ndiffs(hourly(rng.standard_normal(300)))
    assert res.k == 0
    assert len(res.trail) == 1
    assert res.trail[0].stationary


def test_ndiffs_random_walk():
    rng = np.random.default_rng(8)
    res = ndiffs(hourly(np.cumsum(rng.standard_normal(300))))
    assert res.k == 1
    assert len(res.trail) == 2
    assert not res.trail[0].stationary
    assert res.trail[1].stationary


def test_ndiffs_double_integrated():
    rng = np.random.default_rng(9)
    res = ndiffs(hourly(np.cumsum(np.cumsum(rng.standard_normal(400)))))
    assert res.k == 2


def test_ndiffs_constant_series_short_circuits():
    res = ndiffs(hourly(np.full(100, 7.0)))
    assert res.k == 0
    assert res.trail == ()


def test_ndiffs_linear_ramp_uses_degenerate_rule():
    # a ramp differences to a constant; no unit-root test can run on either
    res = ndiffs(hourly(np.arange(100.0)))
    assert res.k == 1
    assert res.trail == ()


def test_ndiffs_respects_max_diff():
    rng = np.random.default_rng(10)
    i2 = np.cumsum(np.cumsum(rng.standard_normal(400)))
    res = ndiffs(hourly(i2), max_diff=1)
    assert res.k == 1


def test_ndiffs_requires_30_points():
    with pytest.raises(InvalidArgumentError):
        ndiffs(hourly(np.arange(29.0)))


def test_ndiffs_rejects_bad_max_diff():
    rng = np.random.default_rng(12)
    with pytest.raises(InvalidArgumentError):
        ndiffs(hourly(rng.standard_normal(100)), max_diff=-1)
