"""Tests for the residual z-statistic and the window-vs-window drift pipeline."""

import json
import tracemalloc
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from utdd import (
    DegenerateInputError,
    DriftReport,
    FeatureSpec,
    InvalidArgumentError,
    SeasonalComponentConfig,
    SimConfig,
    TimeSeries,
    TrendConfig,
    boosted_fit,
    compute_zscore,
    detect,
    load_model,
    load_report,
    load_sim_config,
    ndiffs,
    run_utdd,
    save_model,
    save_report,
    simulate_series,
)
from utdd import series
from utdd.drift import fit_reference, write_fit_csv, write_residual_csv
from utdd.series import spread, write_timestamp_table
from utdd.verdict import DEFAULT_EPSILON, DEFAULT_THRESHOLD, REPORT_FORMAT_VERSION

UTC = timezone.utc
T0 = datetime(2020, 8, 1, tzinfo=UTC)
SEP = datetime(2020, 9, 1, tzinfo=UTC)
OCT = datetime(2020, 10, 1, tzinfo=UTC)
NOV = datetime(2020, 11, 1, tzinfo=UTC)
FEATS = (FeatureSpec("day_of_week"), FeatureSpec("hour_of_day"))
FIXTURE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fixture.json"


def two_month_series(seed=0):
    cfg = SimConfig(
        start=T0,
        step=3600.0,
        n=1464,
        components=(SeasonalComponentConfig(24, 0.003),),
        sigma_eps=0.3,
        weekend_scale=0.9,
        trend=TrendConfig(level=10.0),
        seed=seed,
    )
    return simulate_series(cfg)


@lru_cache(maxsize=None)
def fixture_series():
    return simulate_series(load_sim_config(FIXTURE_CONFIG))


def affine(series, a, b):
    return TimeSeries(series.start, series.step, a * series.values + b)


# ---------------------------------------------------------------------------
# z-statistic
# ---------------------------------------------------------------------------

def test_zscore_hand_computed():
    # [1,2,3,4]: mean abs deviation 1.0, population std sqrt(1.25)
    assert_allclose(compute_zscore(np.array([1.0, 2.0, 3.0, 4.0])), 1.0 / np.sqrt(1.25))
    # symmetric two-point and alternating cases collapse to 1.0
    assert compute_zscore(np.array([0.0, 2.0])) == 1.0
    assert compute_zscore(np.array([1.0, -1.0] * 10)) == 1.0


def test_zscore_gaussian_limit():
    rng = np.random.default_rng(0)
    z = compute_zscore(rng.standard_normal(50_000))
    assert abs(z - np.sqrt(2.0 / np.pi)) < 0.01


@given(
    scale=st.floats(min_value=1e-3, max_value=1e6),
    shift_factor=st.floats(min_value=-1e4, max_value=1e4),
)
@settings(max_examples=50, deadline=None)
def test_zscore_scale_shift_invariant(scale, shift_factor):
    # the shift is expressed in units of the scaled data so the test stays
    # within float cancellation limits; the statistic itself is exactly
    # invariant in real arithmetic
    rng = np.random.default_rng(1)
    r = rng.standard_normal(500)
    assert abs(compute_zscore(scale * r + shift_factor * scale) - compute_zscore(r)) < 1e-10


@given(
    n=st.integers(min_value=2, max_value=9_000),
    level=st.floats(min_value=-1e12, max_value=1e12),
    scale=st.floats(min_value=1e-6, max_value=1e6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_zscore_is_numpys_reductions_bit_for_bit(n, level, scale, seed):
    r = level + scale * np.random.default_rng(seed).standard_normal(n)
    if not spread(r):  # the noise is lost in the level's rounding
        with pytest.raises(DegenerateInputError):
            compute_zscore(r)
    else:
        assert compute_zscore(r) == float(np.abs(r - r.mean()).mean() / r.std())


def test_zscore_errors():
    with pytest.raises(InvalidArgumentError):
        compute_zscore(np.array([1.0]))
    with pytest.raises(DegenerateInputError):
        compute_zscore(np.full(10, 3.0))


def test_detect_threshold_boundary():
    # exactly representable values: delta == threshold counts as drift
    assert detect(0.5, 0.75, 0.25)
    assert detect(0.0, 0.1, 0.1)
    assert not detect(0.5, 0.74, 0.25)
    assert detect(0.75, 0.5, 0.25)        # direction does not matter


def test_detect_rejects_non_positive_threshold():
    for threshold in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidArgumentError):
            detect(0.5, 0.75, threshold)


# ---------------------------------------------------------------------------
# two-window pipeline
# ---------------------------------------------------------------------------

def test_self_comparison_has_zero_delta():
    s = two_month_series()
    ref = s.window(T0, SEP)
    report = run_utdd(ref, ref, FEATS).report
    assert report.delta == 0.0
    assert not report.drifted
    assert report.threshold == DEFAULT_THRESHOLD


def test_clean_windows_do_not_drift():
    s = two_month_series(seed=3)
    report = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS).report
    assert not report.drifted
    assert report.delta < 0.05


def test_run_utdd_exposes_window_fits():
    s = two_month_series(seed=4)
    res = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS)
    for fit in (res.reference, res.current):
        assert len(fit.grid) == len(fit.seasonal) == len(fit.residual)
        assert_allclose(fit.grid.values - fit.seasonal, fit.residual, atol=0)
    assert res.report.z_ref == compute_zscore(res.reference.residual)
    assert res.report.z_curr == compute_zscore(res.current.residual)


def test_differencing_order_comes_from_reference():
    rng = np.random.default_rng(0)
    walk = np.cumsum(rng.standard_normal(800)) * 0.2
    noise = rng.standard_normal(800) * 0.2
    s = TimeSeries(T0, 3600.0, np.concatenate([walk, noise + walk[-1]]))
    ref = s.window(T0, T0 + timedelta(hours=800))
    cur = s.window(T0 + timedelta(hours=800), T0 + timedelta(hours=1600))
    res = run_utdd(ref, cur, FEATS)
    assert res.k_diffs == 1
    # both windows were differenced once
    assert len(res.reference.grid) == len(ref) - 1
    assert len(res.current.grid) == len(cur) - 1


def test_reuse_model_scores_current_with_reference_fit():
    s = two_month_series(seed=6)
    ref, cur = s.window(T0, SEP), s.window(SEP, OCT)
    shared = run_utdd(ref, cur, FEATS, reuse_model=True)
    assert shared.current.model is shared.reference.model
    separate = run_utdd(ref, cur, FEATS, reuse_model=False)
    assert separate.current.model is not separate.reference.model
    assert shared.report.z_ref == separate.report.z_ref


def test_run_utdd_validation():
    s = two_month_series(seed=7)
    ref, cur = s.window(T0, SEP), s.window(SEP, OCT)
    with pytest.raises(InvalidArgumentError):
        run_utdd(ref, cur, FEATS, threshold=0.0)
    with pytest.raises(InvalidArgumentError):
        run_utdd(ref, cur, FEATS, threshold=-0.1)
    flat = TimeSeries(T0, 3600.0, np.full(400, 5.0))
    with pytest.raises(DegenerateInputError):
        run_utdd(flat, flat, FEATS)


def test_run_utdd_refuses_windows_with_different_steps(monkeypatch):
    s = two_month_series(seed=7)
    ref = s.window(T0, SEP)
    cur = TimeSeries(SEP, 1800.0, s.window(SEP, OCT).values)
    calls = []
    monkeypatch.setattr("utdd.drift.ndiffs", lambda *a, **k: calls.append(a))
    for a, b in ((ref, cur), (cur, ref)):
        with pytest.raises(InvalidArgumentError, match="different steps: .* and .*"):
            run_utdd(a, b, FEATS)
    assert calls == []


def test_run_utdd_refuses_is_holiday_without_dates_before_ndiffs(monkeypatch):
    s = two_month_series(seed=7)
    calls = []
    monkeypatch.setattr("utdd.drift.ndiffs", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidArgumentError, match="is_holiday requires holiday_dates"):
        run_utdd(s.window(T0, SEP), s.window(SEP, OCT), (FeatureSpec("is_holiday"),))
    assert calls == []


@pytest.mark.parametrize(
    "features, message",
    [((), "need at least one candidate feature"),
     ((FeatureSpec("day_of_week"),) * 2, "each candidate feature may be listed once")],
    ids=["empty", "repeated"],
)
def test_fit_reference_refuses_a_bad_feature_list_before_ndiffs(monkeypatch, features, message):
    s = two_month_series(seed=7)
    calls = []
    monkeypatch.setattr("utdd.drift.ndiffs", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        fit_reference(s.window(T0, SEP), features)
    assert calls == []


@pytest.mark.parametrize(
    "option, message",
    [({"threshold": 0.0}, "threshold must be positive and finite"),
     ({"threshold": -0.1}, "threshold must be positive and finite"),
     ({"threshold": float("nan")}, "threshold must be positive and finite"),
     ({"threshold": float("inf")}, "threshold must be positive and finite"),
     ({"threshold": True}, "threshold must be positive and finite"),
     ({"epsilon": -1.0}, "epsilon must be positive and finite"),
     ({"epsilon": 0.0}, "epsilon must be positive and finite"),
     ({"epsilon": float("nan")}, "epsilon must be positive and finite"),
     ({"epsilon": float("inf")}, "epsilon must be positive and finite"),
     ({"epsilon": True}, "epsilon must be positive and finite")],
    ids=["threshold-0", "threshold-negative", "threshold-nan", "threshold-inf", "threshold-true",
         "epsilon-negative", "epsilon-0", "epsilon-nan", "epsilon-inf", "epsilon-true"],
)
def test_run_utdd_refuses_a_bad_threshold_or_epsilon_before_fitting(monkeypatch, option, message):
    s = two_month_series(seed=7)
    calls = []
    monkeypatch.setattr("utdd.drift.ndiffs", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS, **option)
    assert calls == []


@pytest.mark.parametrize("reuse_model", [False, True], ids=["own-model", "reuse-model"])
@pytest.mark.parametrize("which, n", [("current", 2), ("current", 29), ("reference", 29)])
def test_run_utdd_refuses_a_window_under_30_points(monkeypatch, which, n, reuse_model):
    # z of two points is always 1: scored, such a window would read as drift whatever its data
    values = two_month_series(seed=8).values
    size = {"reference": 200, "current": 200, which: n}
    ref = TimeSeries(T0, 3600.0, values[: size["reference"]])
    cur = TimeSeries(T0 + timedelta(hours=200), 3600.0, values[200 : 200 + size["current"]])
    calls = []
    monkeypatch.setattr("utdd.drift.ndiffs", lambda *a, **k: calls.append(a))
    with pytest.raises(InvalidArgumentError, match=f"^{which} window has {n} points; need at least 30$"):
        run_utdd(ref, cur, (FeatureSpec("is_weekend"),), reuse_model=reuse_model)
    assert calls == []


def test_run_utdd_compares_steps_on_the_microsecond_grid():
    # 0.1 * 3 is 0.30000000000000004 s: both windows step 300,000 microseconds
    values = two_month_series(seed=7).values
    ref, same = (TimeSeries(T0, step, values[:700]) for step in (0.1 * 3, 0.3))
    cur = TimeSeries(ref.timestamp(700), 0.3, values[700:])
    assert ref.step == 0.3 and cur.epoch_us()[0] - ref.epoch_us()[-1] == 300_000
    assert run_utdd(ref, cur, FEATS).report == run_utdd(same, cur, FEATS).report
    assert run_utdd(cur, ref, FEATS).report == run_utdd(cur, same, FEATS).report


def test_one_flatness_rule_for_ndiffs_boosted_fit_and_zscore():
    # std is 1e-11 * (1 + |mean|): flat under the one 1e-10 rule everywhere
    rng = np.random.default_rng(11)
    z = rng.standard_normal(400)
    values = 5.0 + 6e-11 * (z - z.mean()) / z.std()
    assert abs(values.std() / (1.0 + abs(values.mean())) - 1e-11) < 1e-13
    flat = TimeSeries(T0, 3600.0, values)
    result = ndiffs(flat)
    assert result.k == 0 and result.trail == ()
    model = boosted_fit(flat, FEATS, k_diffs=0)
    assert model.stages == ()
    with pytest.raises(DegenerateInputError):
        compute_zscore(values)
    with pytest.raises(DegenerateInputError):
        run_utdd(flat, flat, FEATS)


def readme_windows(a=1.0, b=0.0, **options):
    """``run_utdd`` on the README windows of ``a * fixture + b``."""
    s = affine(fixture_series(), a, b)
    return run_utdd(s.window(T0, OCT), s.window(SEP, NOV), FEATS, **options)


@lru_cache(maxsize=None)
def fixture_result(reuse_model, epsilon=DEFAULT_EPSILON):
    return readme_windows(reuse_model=reuse_model, epsilon=epsilon)


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=-1e3, max_value=1e3),
    reuse_model=st.booleans(),
    epsilon=st.sampled_from([DEFAULT_EPSILON, 0.01, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_is_affine_invariant(a, b, reuse_model, epsilon):
    moved = readme_windows(a, b, reuse_model=reuse_model, epsilon=epsilon)
    base = fixture_result(reuse_model, epsilon)
    assert moved.k_diffs == base.k_diffs
    assert moved.report.drifted == base.report.drifted
    assert abs(moved.report.z_ref - base.report.z_ref) < 1e-9
    assert abs(moved.report.z_curr - base.report.z_curr) < 1e-9


@given(e=st.integers(min_value=-20, max_value=60), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=30, deadline=None)
def test_power_of_two_units_move_no_number_of_the_report(e, sign):
    # epsilon is a fraction of each window's spread, so even an epsilon that
    # drops stages sees the same stages in every unit; scaling by 2^e is exact
    moved = readme_windows(sign * 2.0**e, epsilon=0.01).report
    base = fixture_result(False, 0.01).report
    assert (moved.k_diffs, moved.z_ref, moved.z_curr, moved.drifted) == (
        base.k_diffs, base.z_ref, base.z_curr, base.drifted)


@given(
    start_day=st.integers(min_value=0, max_value=60),
    days=st.integers(min_value=14, max_value=31),
    a=st.floats(min_value=1e-3, max_value=1e3),
    b=st.floats(min_value=-1e3, max_value=1e3),
)
@settings(max_examples=30, deadline=None)
def test_self_comparison_is_exact_and_reuse_changes_nothing(start_day, days, a, b):
    lo = T0 + timedelta(days=start_day)
    window = affine(fixture_series(), a, b).window(lo, lo + timedelta(days=days))
    fitted = run_utdd(window, window, FEATS)
    reused = run_utdd(window, window, FEATS, reuse_model=True)
    for res in (fitted, reused):
        assert res.report.delta == 0.0
        assert not res.report.drifted
    assert reused.report == fitted.report
    assert_array_equal(reused.current.residual, fitted.current.residual)


# ---------------------------------------------------------------------------
# report artifacts
# ---------------------------------------------------------------------------

def test_report_json_roundtrip(tmp_path):
    s = two_month_series(seed=8)
    res = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS)
    path = tmp_path / "report.json"
    save_report(res.report, path)
    back = load_report(path)
    assert back.z_ref == res.report.z_ref
    assert back.z_curr == res.report.z_curr
    assert back.delta == res.report.delta
    assert back.threshold == res.report.threshold
    assert back.drifted == res.report.drifted
    assert back.k_diffs == res.k_diffs
    doc = json.loads(path.read_text())
    # the residual is stored only in the fit and residual CSVs
    assert list(doc) == ["version", "k_diffs", "z_ref", "z_curr", "delta", "threshold", "drifted"]
    assert doc["version"] == REPORT_FORMAT_VERSION == 2
    assert doc["k_diffs"] == res.k_diffs


REPORT_DOC = {
    "version": 2,
    "k_diffs": 1,
    "z_ref": 0.5,
    "z_curr": 0.75,
    "delta": 0.25,
    "threshold": 0.1,
    "drifted": True,
}


def without(key):
    return {k: v for k, v in REPORT_DOC.items() if k != key}


def loaded(tmp_path, doc):
    """``doc`` written to a file under ``tmp_path`` and read by :func:`load_report`."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))  # NaN as Python writes it
    return load_report(path)


def test_report_from_dict_refuses_what_it_cannot_read(tmp_path):
    assert loaded(tmp_path, REPORT_DOC) == DriftReport(
        k_diffs=1, z_ref=0.5, z_curr=0.75, delta=0.25, threshold=0.1, drifted=True
    )
    # a JSON integer is a number
    assert loaded(tmp_path, {**REPORT_DOC, "z_ref": 1}).z_ref == 1.0
    refused = [
        5,
        None,
        "report",
        [REPORT_DOC],
        without("version"),
        {**without("version"), "residual_curr": [0.1, -0.1]},  # written before version 2
        {**REPORT_DOC, "version": 1},
        {**REPORT_DOC, "version": "2"},
        *(without(key) for key in REPORT_DOC if key != "version"),
        {**REPORT_DOC, "drifted": "no"},
        {**REPORT_DOC, "drifted": 1},
        {**REPORT_DOC, "drifted": None},
        {**REPORT_DOC, "k_diffs": 1.0},
        {**REPORT_DOC, "k_diffs": "1"},
        {**REPORT_DOC, "k_diffs": True},
        *(
            {**REPORT_DOC, key: value}
            for key in ("z_ref", "z_curr", "delta", "threshold")
            for value in ("0.5", None, True, [0.5], float("nan"))
        ),
    ]
    for doc in refused:
        with pytest.raises(InvalidArgumentError):
            loaded(tmp_path, doc)


def test_report_refuses_an_impossible_differencing_order(tmp_path):
    for k_diffs in (-3, -1):
        with pytest.raises(InvalidArgumentError, match="k_diffs"):
            loaded(tmp_path, {**REPORT_DOC, "k_diffs": k_diffs})
    numbers = dict(z_ref=0.5, z_curr=0.75, delta=0.25, threshold=0.1, drifted=True)
    for k_diffs in (-1, True, False, 1.0, "1", None, np.int64(1)):
        with pytest.raises(InvalidArgumentError, match="k_diffs"):
            DriftReport(k_diffs=k_diffs, **numbers)
    assert DriftReport(k_diffs=0, **numbers).k_diffs == 0


def test_report_verdict_must_follow_from_its_numbers(tmp_path):
    refused = [
        {**REPORT_DOC, "delta": 5.0, "drifted": False},  # delta is not |z_curr - z_ref|
        {**REPORT_DOC, "drifted": False},  # delta >= threshold
        {**REPORT_DOC, "threshold": 0.5},  # delta < threshold, yet drifted
        {**REPORT_DOC, "threshold": -1.0, "drifted": True},
        {**REPORT_DOC, "threshold": 0.0},
    ]
    for doc in refused:
        with pytest.raises(InvalidArgumentError):
            loaded(tmp_path, doc)
    with pytest.raises(InvalidArgumentError):
        DriftReport(k_diffs=0, z_ref=0.5, z_curr=0.5, delta=5.0, threshold=0.1, drifted=False)


def test_report_and_model_writes_are_atomic(tmp_path, monkeypatch):
    s = two_month_series(seed=8)
    res = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS)

    def broken_dump(doc, fh, **kwargs):
        fh.write('{"partial": ')
        raise OSError("disk full")

    for save, load, value, name in (
        (save_report, load_report, res.report, "report.json"),
        (save_model, load_model, res.reference.model, "model.json"),
    ):
        path = tmp_path / name
        save(value, path)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(json, "dump", broken_dump)
            with pytest.raises(OSError):
                save(value, path)
        assert path.read_bytes() == before
        load(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "report.json"]


def test_fit_csv_and_residual_csv(tmp_path):
    s = two_month_series(seed=9)
    res = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS)
    fit_path = tmp_path / "fit.csv"
    resid_path = tmp_path / "resid.csv"
    write_fit_csv(res.current, fit_path)
    write_residual_csv(res.current, resid_path)

    header, *lines = fit_path.read_text().splitlines()
    assert header == "timestamp,observed,seasonal,residual"
    data = np.loadtxt(lines, delimiter=",", usecols=(1, 2, 3))
    assert len(data) == len(res.current.grid)
    assert_array_equal(data[:, 0], res.current.grid.values)
    assert_array_equal(data[:, 1], res.current.seasonal)
    assert_array_equal(data[:, 2], res.current.residual)
    # the decomposition identity holds row by row
    assert_allclose(data[:, 0], data[:, 1] + data[:, 2], atol=0)

    header, *lines = resid_path.read_text().splitlines()
    assert header == "timestamp,residual"
    assert_array_equal(np.loadtxt(lines, delimiter=",", usecols=1), res.current.residual)


@lru_cache(maxsize=None)
def one_year_fit():
    """The fit of a year of hourly points, 8,760 rows of fit CSV."""
    s = simulate_series(SimConfig(
        start=T0, step=3600.0, n=8760, components=(SeasonalComponentConfig(24, 0.003),),
        sigma_eps=0.3, trend=TrendConfig(level=10.0), seed=11,
    ))
    return run_utdd(s, s, FEATS).current


def test_fit_csv_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    fit = one_year_fit()
    write_fit_csv(fit, tmp_path / "want.csv")
    want = (tmp_path / "want.csv").read_bytes()
    for rows in (1, 7, 1024, 4096):
        monkeypatch.setattr(series, "_BLOCK_ROWS", rows)
        write_fit_csv(fit, tmp_path / "fit.csv")
        assert (tmp_path / "fit.csv").read_bytes() == want, rows


def test_fit_csv_memory_grows_with_rows_not_text(tmp_path):
    # blocks of 4,096 rows took 2.17 MB
    fit = one_year_fit()
    tracemalloc.start()
    try:
        write_fit_csv(fit, tmp_path / "fit.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_fit_csv_rewrite_is_byte_identical(tmp_path):
    s = two_month_series(seed=10)
    res = run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS)
    p1 = tmp_path / "fit1.csv"
    write_fit_csv(res.current, p1)
    header, *lines = p1.read_text().splitlines()
    columns = header.split(",")[1:]
    assert columns == ["observed", "seasonal", "residual"]
    data = np.loadtxt(lines, delimiter=",", usecols=(1, 2, 3))

    p2 = tmp_path / "fit2.csv"
    write_timestamp_table(p2, res.current.grid, dict(zip(columns, data.T)))
    assert p1.read_bytes() == p2.read_bytes()
