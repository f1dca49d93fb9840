"""Tests for OLS, the unit-root test, and automatic differencing order."""

import importlib.util
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from utdd import DegenerateInputError, InvalidArgumentError, TimeSeries
from utdd.stationarity import (
    ADF_CRITICAL_5PCT,
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

def test_ols_hand_computed_case():
    # y = [1,2,3,5] on an intercept and a trend; solved by hand via the
    # normal equations: X'X = [[4,6],[6,14]], X'y = [11,23],
    # beta = [0.8, 1.3], RSS = 0.3, sigma2 = 0.15, diag((X'X)^-1) = [0.7, 0.2]
    x = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.array([1.0, 2.0, 3.0, 5.0])
    coef, stderr = ols(x, y)
    assert_allclose(coef, [0.8, 1.3], rtol=0, atol=1e-12)
    assert_allclose(stderr, [np.sqrt(0.105), np.sqrt(0.03)], rtol=0, atol=1e-12)


def test_ols_exact_fit_has_zero_residuals():
    x = np.column_stack([np.ones(5), np.arange(5.0)])
    y = 3.0 - 2.0 * np.arange(5.0)
    coef, stderr = ols(x, y)
    assert_allclose(coef, [3.0, -2.0], atol=1e-12)
    assert_allclose(stderr, 0.0, atol=1e-12)


def test_ols_matches_lstsq_on_random_problems():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, k = 40, 4
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = rng.normal(size=n)
        coef, stderr = ols(x, y)
        want, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert_allclose(coef, want, atol=1e-10)
        # textbook covariance: sigma2 * diag((X'X)^-1)
        resid = y - x @ want
        sigma2 = resid @ resid / (n - k)
        se = np.sqrt(sigma2 * np.diag(np.linalg.inv(x.T @ x)))
        assert_allclose(stderr, se, rtol=1e-9)


def test_ols_rejects_collinear_design():
    x = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(DegenerateInputError):
        ols(x, np.arange(10.0))


def test_ols_needs_spare_observations():
    x = np.ones((3, 3))
    with pytest.raises(InvalidArgumentError):
        ols(x, np.ones(3))


@pytest.mark.parametrize(
    "design, target",
    [(np.ones(5), np.ones(5)), (np.ones((5, 2)), np.ones((5, 1))), (np.ones((5, 2)), np.ones(4))],
    ids=["1-d-design", "2-d-target", "row-mismatch"],
)
def test_ols_refuses_mismatched_shapes(design, target):
    with pytest.raises(InvalidArgumentError, match="one row per target value"):
        ols(design, target)


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


def test_ndiffs_matches_lstsq_on_the_bench_windows(monkeypatch):
    # The reference windows of the monitoring workload (bench/workloads.py, read
    # only), each tested level by level with numpy's own least squares.
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    pairs = [workloads.setup_pair(1)] + workloads.monitor_pairs(1)
    orders = []
    for pair in pairs:
        res = ndiffs(TimeSeries(pair.start, 3600.0, pair.reference), max_diff=workloads.MAX_DIFF)
        x, stats = pair.reference, []
        for k in range(workloads.MAX_DIFF + 1):
            lags = int(12.0 * (x.size / 100.0) ** 0.25)
            design, target = adf_design(x, lags)
            beta, rss, *_ = np.linalg.lstsq(design, target, rcond=None)
            cov = np.linalg.inv(design.T @ design)
            stats.append(beta[1] / np.sqrt(rss[0] / (target.size - design.shape[1]) * cov[1, 1]))
            if stats[-1] < -2.86:
                break
            x = np.diff(x)
        assert res.k == k
        assert [r.lags_used for r in res.trail] == [
            int(12.0 * ((pair.reference.size - i) / 100.0) ** 0.25) for i in range(k + 1)
        ]
        assert_allclose([r.statistic for r in res.trail], stats, rtol=1e-9)
        orders.append(k)
    assert len(pairs) == 21 and set(orders) == {0, 1}


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
