"""Tests for the time-series container, calendar features, and CSV I/O."""

import tracemalloc
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from utdd import (
    CsvFormatError,
    FeatureSpec,
    InvalidArgumentError,
    TimeSeries,
    diff,
    extract_feature,
    read_series_csv,
    write_series_csv,
)
from utdd.series import (
    _BLOCK_ROWS,
    FEATURE_KINDS,
    calendar_codes,
    format_utc,
    grid_calendar,
    parse_utc,
    spread,
    write_timestamp_table,
)

UTC = timezone.utc
T0 = datetime(2020, 8, 1, tzinfo=UTC)
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)


def hourly(values, start=T0):
    return TimeSeries(start, 3600.0, np.asarray(values, dtype=float))


def timestamps(s):
    return [s.timestamp(i) for i in range(len(s))]


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def test_parse_format_utc_roundtrip():
    for text in ["2020-08-01T00:00:00Z", "1999-12-31T23:59:59Z", "2020-02-29T12:30:00Z"]:
        assert format_utc(parse_utc(text)) == text


def test_parse_utc_accepts_offsets_rejects_naive():
    # +00:00 and Z are the same instant; text without an offset is ambiguous
    assert parse_utc("2020-08-01T02:00:00+02:00") == T0
    with pytest.raises(ValueError):
        parse_utc("2020-08-01T00:00:00")


def test_parse_utc_rejects_garbage():
    with pytest.raises(ValueError):
        parse_utc("not-a-time")


def test_format_utc_microseconds_only_when_present():
    assert format_utc(datetime(2020, 1, 1, microsecond=250, tzinfo=UTC)) == (
        "2020-01-01T00:00:00.000250Z"
    )
    assert format_utc(datetime(2020, 1, 1, tzinfo=UTC)) == "2020-01-01T00:00:00Z"


def test_format_utc_pads_years_below_1000_so_parse_utc_reads_them():
    ts = datetime(999, 1, 1, microsecond=5, tzinfo=UTC)
    assert format_utc(ts) == "0999-01-01T00:00:00.000005Z"
    assert parse_utc(format_utc(ts)) == ts


def test_parse_utc_refuses_instants_outside_utc_range():
    for text in ("0001-01-01T00:00:00+02:00", "9999-12-31T23:00:00-02:00"):
        with pytest.raises(ValueError, match="out of range in UTC"):
            parse_utc(text)


# ---------------------------------------------------------------------------
# TimeSeries container
# ---------------------------------------------------------------------------

def test_series_basic_accessors():
    s = hourly([1.0, 2.0, 3.0])
    assert len(s) == 3
    assert s.timestamp(0) == T0
    assert s.timestamp(2) == T0 + timedelta(hours=2)
    assert s.values.dtype == np.float64


def test_series_values_are_read_only():
    s = hourly([1.0, 2.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0


def test_epoch_us_is_exact_far_from_1970():
    # a float POSIX timestamp near year 9000 resolves only ~30 microseconds
    for start in (datetime(9000, 1, 1, microsecond=123457, tzinfo=UTC),
                  datetime(1000, 6, 1, microsecond=1, tzinfo=UTC)):
        s = TimeSeries(start, 1.5, np.zeros(3))
        want = [(s.timestamp(i) - EPOCH) // timedelta(microseconds=1) for i in range(3)]
        assert s.epoch_us().tolist() == want


def test_series_rejects_bad_inputs():
    with pytest.raises(InvalidArgumentError):
        TimeSeries(T0, 0.0, np.ones(3))
    with pytest.raises(InvalidArgumentError):
        TimeSeries(T0, -1.0, np.ones(3))
    with pytest.raises(InvalidArgumentError):
        TimeSeries(T0, 3600.0, np.array([]))
    with pytest.raises(InvalidArgumentError):
        TimeSeries(T0, 3600.0, np.array([1.0, np.nan]))
    with pytest.raises(InvalidArgumentError):
        TimeSeries(T0, 3600.0, np.array([1.0, np.inf]))


def test_series_refuses_a_grid_past_the_datetime_range():
    last = datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC)
    for start, step, n in ((last - timedelta(hours=1), 3600.0, 2), (last, 1e-6, 1)):
        s = TimeSeries(start, step, np.ones(n))
        assert s.timestamp(n - 1) <= last
    for start, step, n in ((last - timedelta(hours=1), 3600.0, 3), (last, 1e-6, 2), (T0, 1e308, 2)):
        with pytest.raises(InvalidArgumentError, match="ends past 9999-12-31T23:59:59.999999Z"):
            TimeSeries(start, step, np.ones(n))


def test_window_half_open():
    s = hourly(np.arange(48.0))
    w = s.window(T0 + timedelta(hours=10), T0 + timedelta(hours=20))
    assert len(w) == 10
    assert w.timestamp(0) == T0 + timedelta(hours=10)
    # the right edge is excluded
    assert w.values[-1] == 19.0


def test_window_bounds_between_samples():
    s = hourly(np.arange(48.0))
    w = s.window(T0 + timedelta(minutes=30), T0 + timedelta(hours=5, minutes=30))
    # first sample at or after the lower bound is hour 1; hour 5 is below the upper bound
    assert_array_equal(w.values, np.arange(1.0, 6.0))


def test_window_bounds_one_microsecond_past_grid_points():
    s = hourly(np.arange(48.0))
    us = timedelta(microseconds=1)
    w = s.window(T0 + timedelta(hours=10) + us, T0 + timedelta(hours=20) + us)
    # 10:00 lies before the lower bound and 20:00 before the upper one
    assert_array_equal(w.values, np.arange(11.0, 21.0))
    assert w.start == T0 + timedelta(hours=11)


@given(
    st.integers(0, 10**6),
    st.one_of(st.integers(1, 10**10), st.sampled_from([3_600_000_000, 86_400_000_000])),
    st.integers(1, 40),
    *[st.tuples(st.integers(-2, 42), st.integers(-2, 2))] * 2,
)
@settings(max_examples=300, deadline=None)
def test_window_matches_a_half_open_filter(start_us, step_us, n, lo, hi):
    s = TimeSeries(T0 + timedelta(microseconds=start_us), step_us / 1e6, np.arange(float(n)))
    start_at, end_before = (
        s.start + timedelta(microseconds=index * step_us + offset) for index, offset in (lo, hi)
    )
    grid = s.epoch_us().tolist()
    bounds = [(t - EPOCH) // timedelta(microseconds=1) for t in (start_at, end_before)]
    inside = [i for i, t in enumerate(grid) if bounds[0] <= t < bounds[1]]
    if not inside:
        with pytest.raises(InvalidArgumentError):
            s.window(start_at, end_before)
        return
    w = s.window(start_at, end_before)
    assert w.values.tolist() == [float(i) for i in inside]
    assert (w.start, w.step) == (s.timestamp(inside[0]), s.step)


def test_window_clamps_to_series():
    s = hourly(np.arange(24.0))
    w = s.window(T0 - timedelta(days=1), T0 + timedelta(days=7))
    assert len(w) == 24


def test_window_errors():
    s = hourly(np.arange(24.0))
    with pytest.raises(InvalidArgumentError):
        s.window(T0 + timedelta(hours=5), T0 + timedelta(hours=5))
    with pytest.raises(InvalidArgumentError):
        s.window(T0 + timedelta(hours=9), T0 + timedelta(hours=3))
    with pytest.raises(InvalidArgumentError):
        s.window(T0 + timedelta(days=10), T0 + timedelta(days=11))


def test_diff_orders():
    s = hourly([1.0, 4.0, 9.0, 16.0])
    d1 = diff(s, 1)
    assert_array_equal(d1.values, [3.0, 5.0, 7.0])
    assert d1.timestamp(0) == T0 + timedelta(hours=1)
    d2 = diff(s, 2)
    assert_array_equal(d2.values, [2.0, 2.0])
    assert d2.timestamp(0) == T0 + timedelta(hours=2)
    d0 = diff(s, 0)
    assert_array_equal(d0.values, s.values)
    assert d0.start == s.start


def test_diff_of_order_zero_is_the_series_itself():
    s = hourly([1.0, 4.0, 9.0])
    assert diff(s, 0) is s


def test_diff_errors():
    s = hourly([1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        diff(s, -1)
    with pytest.raises(InvalidArgumentError):
        diff(s, 3)


def two_reduction_is_flat(values):
    """The zero-variance rule as numpy's std and mean, each reducing the array for its mean."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.std()) < 1e-10 * (1.0 + abs(float(arr.mean())))


@given(
    n=st.integers(min_value=1, max_value=9000),
    level=st.one_of(st.just(0.0), st.floats(min_value=-1e12, max_value=1e12)),
    ulps=st.integers(min_value=-8, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_is_flat_agrees_with_the_two_reduction_rule_at_its_threshold(n, level, ulps, seed):
    # noise rescaled until its std meets 1e-10 * (1 + |mean|), then moved a few
    # ulps off it: a few draws in 100 at level 0 land on the threshold exactly
    noise = np.random.default_rng(seed).standard_normal(n)
    scale = 1.0
    for _ in range(3):
        values = level + scale * noise
        scale *= 1e-10 * (1.0 + abs(values.mean())) / (values.std() or 1.0)
    values = level + scale * (1.0 + ulps * 2.0**-52) * noise
    std = spread(values)
    assert (std == 0.0) == two_reduction_is_flat(values)
    if std:
        assert std == float(values.std())  # the std the rule measured is numpy's, bit for bit


# ---------------------------------------------------------------------------
# calendar features
# ---------------------------------------------------------------------------

def test_hour_of_day_codes():
    s = hourly(np.zeros(30))
    codes = extract_feature(s, FeatureSpec("hour_of_day"))
    assert_array_equal(codes[:25], list(range(24)) + [0])
    assert codes.dtype == np.int64


def test_day_of_week_codes():
    # 2020-08-03 was a Monday
    monday = datetime(2020, 8, 3, tzinfo=UTC)
    s = TimeSeries(monday, 86400.0, np.zeros(14))
    codes = extract_feature(s, FeatureSpec("day_of_week"))
    assert_array_equal(codes, list(range(7)) * 2)


def test_is_weekend_codes():
    monday = datetime(2020, 8, 3, tzinfo=UTC)
    s = TimeSeries(monday, 86400.0, np.zeros(7))
    codes = extract_feature(s, FeatureSpec("is_weekend"))
    assert_array_equal(codes, [0, 0, 0, 0, 0, 1, 1])


def test_month_of_year_codes():
    s = TimeSeries(datetime(2020, 1, 15, tzinfo=UTC), 86400.0 * 30, np.zeros(13))
    codes = extract_feature(s, FeatureSpec("month_of_year"))
    # 2020-01-15, 02-14, 03-15, ... 12-10, then 2021-01-09
    assert_array_equal(codes, list(range(12)) + [0])


def test_is_holiday_codes():
    s = TimeSeries(datetime(2020, 9, 6, tzinfo=UTC), 86400.0, np.zeros(3))
    spec = FeatureSpec("is_holiday", holiday_dates=frozenset([date(2020, 9, 7)]))
    assert_array_equal(extract_feature(s, spec), [0, 1, 0])


def test_is_holiday_empty_set_is_all_zero():
    s = hourly(np.zeros(10))
    spec = FeatureSpec("is_holiday", holiday_dates=frozenset())
    assert_array_equal(extract_feature(s, spec), np.zeros(10))


def test_is_holiday_requires_dates():
    # refused by the spec itself, before any caller fits or extracts with it
    with pytest.raises(InvalidArgumentError, match="^is_holiday requires holiday_dates$"):
        FeatureSpec("is_holiday")


def test_exogenous_codes_passthrough_and_validation():
    # exogenous code passthrough is gone: the kind is refused, and so are the
    # arguments that used to carry the codes
    with pytest.raises(InvalidArgumentError):
        FeatureSpec("exogenous")
    with pytest.raises(TypeError):
        FeatureSpec("exogenous", cardinality=3, exogenous_codes=(0, 2, 1, 0))
    assert "exogenous" not in FEATURE_KINDS


def test_feature_spec_validation():
    with pytest.raises(InvalidArgumentError):
        FeatureSpec("no_such_feature")
    with pytest.raises(InvalidArgumentError):
        FeatureSpec("day_of_week", holiday_dates=frozenset([date(2020, 1, 1)]))
    assert FeatureSpec("day_of_week").cardinality == 7
    assert FeatureSpec("hour_of_day").cardinality == 24
    assert FeatureSpec("month_of_year").cardinality == 12
    assert FeatureSpec("is_weekend").cardinality == 2
    assert FeatureSpec("is_holiday", holiday_dates=frozenset()).cardinality == 2


def test_feature_spec_refuses_holidays_that_are_not_dates():
    with pytest.raises(InvalidArgumentError, match="calendar dates"):
        FeatureSpec("is_holiday", holiday_dates=frozenset(["2020-01-01"]))


def datetime_codes(s, holidays):
    """Each kind's code at every point of ``s``, from python's datetime."""
    when = [s.timestamp(i) for i in range(len(s))]
    return {
        "hour_of_day": [t.hour for t in when],
        "day_of_week": [t.weekday() for t in when],
        "month_of_year": [t.month - 1 for t in when],
        "is_weekend": [int(t.weekday() >= 5) for t in when],
        "is_holiday": [int(t.date() in holidays) for t in when],
    }


def features(s, holidays, kinds=FEATURE_KINDS):
    out = {}
    for kind in kinds:
        dates = holidays if kind == "is_holiday" else None
        out[kind] = extract_feature(s, FeatureSpec(kind, holiday_dates=dates))
    return out


# under an hour, not dividing a day, a day and a second, several days, the largest step
FEATURE_STEPS = (1e-3, 0.5, 59.999, 3600.0, 7777.0, 86400.0, 86401.0, 3 * 86400.0, 1e7, 1e9)


@given(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)),
    st.one_of(st.sampled_from(FEATURE_STEPS), st.floats(1e-3, 1e9)),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_feature_codes_match_datetime_library(start, step, data):
    # python's datetime is the independent oracle for the calendar math, on every
    # point of grids from year 1 to 9999 whose steps may or may not divide a day
    start = start.replace(tzinfo=UTC)
    step_us = round(step * 1e6)
    fits = (datetime.max.replace(tzinfo=UTC) - start) // timedelta(microseconds=step_us) + 1
    n = data.draw(st.integers(1, min(fits, 120)), label="n")
    s = TimeSeries(start, step, np.zeros(n))
    inside = data.draw(st.lists(st.sampled_from([t.date() for t in timestamps(s)])))
    anywhere = data.draw(st.lists(st.dates()))
    holidays = frozenset(inside + anywhere)
    got, want = features(s, holidays), datetime_codes(s, holidays)
    for kind in FEATURE_KINDS:
        assert got[kind].dtype == np.int64, kind
        assert got[kind].tolist() == want[kind], kind


@pytest.mark.parametrize(
    "start, step, n",
    [
        (T0, 3600.0, 8_760),
        (datetime(2020, 8, 1, 0, 7, tzinfo=UTC), 900.0, 500),
        (datetime(1969, 12, 20, 5, tzinfo=UTC), 1.5 * 86400.0, 300),
        (datetime(9999, 12, 30, tzinfo=UTC), 3600.0, 48),
    ],
    ids=["hourly-year", "quarter-hour", "day-and-a-half", "ends-9999-12-31"],
)
def test_one_calendar_gives_every_kinds_codes(start, step, n):
    # boosted_fit and boosted_predict read all their features from one calendar
    s = TimeSeries(start, step, np.zeros(n))
    holidays = frozenset(t.date() for t in timestamps(s)[::5])
    calendar = grid_calendar(s)
    assert (calendar[3] is None) == (step > 86400.0)  # a table of the points' own days
    want = datetime_codes(s, holidays)
    for kind in FEATURE_KINDS:
        spec = FeatureSpec(kind, holiday_dates=holidays if kind == "is_holiday" else None)
        codes = calendar_codes(calendar, spec)
        assert_array_equal(codes, extract_feature(s, spec))
        assert codes.tolist() == want[kind], kind


def test_day_codes_on_a_long_step_take_memory_by_points_not_days():
    # 24,000 points 150 days apart span the whole datetime range, 3.6e6 days: a table
    # over every day of the window would take 150 times the memory of the points
    s = TimeSeries(datetime(1, 1, 1, tzinfo=UTC), 150 * 86400.0, np.zeros(24_000))
    holidays = frozenset(t.date() for t in timestamps(s)[::7]) | {date(9999, 12, 31)}
    kinds = ("month_of_year", "is_holiday")
    tracemalloc.start()
    try:
        got = features(s, holidays, kinds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * len(s) * 8
    want = datetime_codes(s, holidays)
    for kind in kinds:
        assert got[kind].tolist() == want[kind], kind


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_series_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    s = hourly(rng.normal(0, 1.5, 100))
    path = tmp_path / "series.csv"
    write_series_csv(s, path)
    back = read_series_csv(path)
    assert back.start == s.start
    assert back.step == s.step
    assert_array_equal(back.values, s.values)


def test_series_csv_write_read_write_byte_identical(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, 1e-300, 1e300, -0.0, 2.0**-52, 123456789.123456789])
    # the last of 2 * _BLOCK_ROWS + 1 rows is a block of one row
    for rows in (len(values), 2 * _BLOCK_ROWS + 1):
        s = hourly(np.resize(values, rows))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(s, p1)
        write_series_csv(read_series_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=2,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_csv_values_survive_roundtrip(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("csv")
    s = hourly(np.array(values, dtype=float))
    path = tmp / "x.csv"
    write_series_csv(s, path)
    assert_array_equal(read_series_csv(path).values, s.values)


def test_single_row_csv_is_refused_at_line_3(tmp_path):
    # one stamp gives no step; a fault in the row itself is still reported at line 2
    path = tmp_path / "one.csv"
    path.write_text("timestamp,value\n2020-08-01T00:00:00Z,5.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert str(err.value) == "line 3: one data row gives no step; need two or more"
    path.write_text("timestamp,value\n2020-08-01T00:00:00Z,x\n")
    with pytest.raises(CsvFormatError, match="^line 2: bad numeric value$"):
        read_series_csv(path)


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n2020-08-01T00:00:00Z,5.0\n")
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert err.value.line == 1


def test_csv_bad_rows_report_line_numbers(tmp_path):
    cases = [
        ("timestamp,value\n2020-08-01T00:00:00Z\n", 2),          # missing field
        ("timestamp,value\n2020-08-01T00:00:00Z,a\n", 2),        # bad float
        ("timestamp,value\nnope,1.0\n", 2),                      # bad timestamp
        ("timestamp,value\n2020-08-01T00:00:00Z,1.0\n\n2020-08-01T02:00:00Z,1.0\n", 3),
        ("timestamp,value\n2020-08-01T00:00:00Z,nan\n", 2),      # non-finite
    ]
    for text, line in cases:
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert err.value.line == line, text


@pytest.mark.parametrize(
    "row, message",
    [("{stamp},abc", "bad numeric value"),
     ("{late},1.0", "expected timestamp {stamp}, found {late}"),
     ("{stamp},1.0,2.0", "expected 2 fields, found 3")],
    ids=["bad-value", "off-grid", "three-fields"],
)
def test_csv_faults_in_the_last_block_name_their_line(tmp_path, row, message):
    s = hourly(np.zeros(2 * _BLOCK_ROWS + 1))
    path = tmp_path / "s.csv"
    write_series_csv(s, path)
    last = s.timestamp(len(s) - 1)
    stamps = {"stamp": format_utc(last), "late": format_utc(last + timedelta(minutes=30))}
    lines = path.read_text().splitlines()
    lines[-1] = row.format(**stamps)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert str(err.value) == f"line {len(s) + 1}: " + message.format(**stamps)


def test_csv_irregular_spacing_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "timestamp,value\n"
        "2020-08-01T00:00:00Z,1.0\n"
        "2020-08-01T01:00:00Z,2.0\n"
        "2020-08-01T03:00:00Z,3.0\n"
    )
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert err.value.line == 4


def test_csv_stamps_beyond_the_datetime_range(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("timestamp,value\n2020-01-01T00:00:00Z,1.0\n9999-12-31T23:00:00-02:00,2.0\n")
    with pytest.raises(CsvFormatError, match="line 3: bad timestamp '9999-12-31T23:00:00-02:00'"):
        read_series_csv(path)
    # the writer can render a grid past year 9999, but no row there parses
    path.write_text(
        "timestamp,value\n9999-12-31T22:00:00Z,1.0\n9999-12-31T23:00:00Z,2.0\n"
        "10000-01-01T00:00:00Z,3.0\n"
    )
    with pytest.raises(CsvFormatError, match="line 4: bad timestamp '10000-01-01T00:00:00Z'"):
        read_series_csv(path)
    # the grid of the first two stamps leaves year 9999 before the third row
    stamps = ["9998-01-01T00:00:00Z", "9999-01-01T00:00:00Z", "9999-06-01T00:00:00Z"]
    path.write_text("timestamp,value\n" + "".join(f"{ts},1.0\n" for ts in stamps))
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert str(err.value) == (
        "line 4: expected timestamp 10000-01-01T00:00:00Z, found 9999-06-01T00:00:00Z"
    )


def test_csv_descending_timestamps_rejected(tmp_path):
    path = tmp_path / "desc.csv"
    for hours in ((1, 0), (2, 1, 0), (0, 0, 0)):  # two rows, three rows, a repeated first stamp
        rows = "".join(f"2020-08-01T0{h}:00:00Z,1.0\n" for h in hours)
        path.write_text("timestamp,value\n" + rows)
        with pytest.raises(CsvFormatError, match="^line 3: timestamps must be strictly ascending$"):
            read_series_csv(path)


@pytest.mark.parametrize(
    "header, edits, message",
    [
        (
            "timestamp,value",
            {4: "2020-08-01T02:30:00Z,2.0", 7: "2020-08-01T05:00:00Z,abc"},
            "line 4: expected timestamp 2020-08-01T02:00:00Z, found 2020-08-01T02:30:00Z",
        ),
        (
            "timestamp,value",
            {4: "2020-08-01T01:00:00Z,2.0", 7: "2020-08-01T05:00:00Z,abc"},
            "line 4: expected timestamp 2020-08-01T02:00:00Z, found 2020-08-01T01:00:00Z",
        ),
        (
            "timestamp,val",
            {3: "2020-08-01T01:00:00Z,x"},
            "line 1: expected header 'timestamp,value'",
        ),
    ],
    ids=["off-grid-then-bad-value", "repeat-then-bad-value", "header-name-then-bad-value"],
)
def test_csv_reports_the_first_offending_line(tmp_path, header, edits, message):
    lines = [header] + [f"2020-08-01T0{h}:00:00Z,{h}.0" for h in range(6)]
    for line_no, row in edits.items():
        lines[line_no - 1] = row
    path = tmp_path / "two_faults.csv"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert str(err.value) == message



@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"],
)
def test_csv_lines_end_only_at_a_line_feed_or_carriage_return(tmp_path, separator):
    # str.splitlines ends a line at each of these too, and would call line 5 blank
    lines = ["timestamp,value"] + [f"2020-08-01T0{h}:00:00Z,{h}.0" for h in range(6)]
    lines[3] += separator
    path = tmp_path / "separator.csv"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    with pytest.raises(CsvFormatError) as err:
        read_series_csv(path)
    assert str(err.value) == "line 4: bad numeric value"


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_csv_reads_lf_crlf_and_cr_line_endings_alike(tmp_path, ending):
    s = hourly([1.0, 2.5, -3.0, 4.0])
    path = tmp_path / "endings.csv"
    write_series_csv(s, path)
    text = path.read_text(encoding="utf-8")
    for body in (text, text.removesuffix("\n")):  # with and without a final line ending
        path.write_bytes(body.replace("\n", ending).encode("utf-8"))
        back = read_series_csv(path)
        assert (back.start, back.step) == (s.start, s.step)
        assert_array_equal(back.values, s.values)
    path.write_bytes((text + "\n").replace("\n", ending).encode("utf-8"))
    with pytest.raises(CsvFormatError, match=f"^line {len(s) + 2}: blank line$"):
        read_series_csv(path)

def test_timestamp_table_multicolumn(tmp_path):
    a = np.arange(5.0)
    b = np.arange(5.0) * 0.5
    path = tmp_path / "table.csv"
    write_timestamp_table(path, hourly(a), {"observed": a, "seasonal": b})
    assert path.read_text().splitlines()[:2] == [
        "timestamp,observed,seasonal",
        "2020-08-01T00:00:00Z,0.0,0.0",
    ]
    stamps = np.loadtxt(path, dtype=str, delimiter=",", skiprows=1, usecols=0)
    assert stamps.tolist() == [format_utc(T0 + timedelta(hours=i)) for i in range(5)]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2))
    assert_array_equal(data, np.column_stack([a, b]))


@pytest.mark.parametrize(
    "text, message", [("", "file is empty"), ("timestamp,value\n", "no data rows")]
)
def test_series_csv_without_rows_names_line(tmp_path, text, message):
    path = tmp_path / "short.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=message) as err:
        read_series_csv(path)
    assert err.value.line == (1 if not text else 2)


def test_timestamp_table_renders_the_datetime_range_edges(tmp_path):
    # a grid past 9999-12-31T23:59:59.999999Z is refused by TimeSeries itself
    first = TimeSeries(datetime(1, 1, 1, tzinfo=UTC), 1.0, np.zeros(2))
    last = TimeSeries(datetime(9999, 12, 31, 23, 59, 59, 999998, tzinfo=UTC), 1e-6, np.zeros(2))
    path = tmp_path / "edges.csv"
    for grid, rows in (
        (first, ["0001-01-01T00:00:00Z,0.0", "0001-01-01T00:00:01Z,0.0"]),
        (last, ["9999-12-31T23:59:59.999998Z,0.0", "9999-12-31T23:59:59.999999Z,0.0"]),
    ):
        write_timestamp_table(path, grid, {"value": grid.values})
        assert path.read_text().splitlines()[1:] == rows
        assert_array_equal(read_series_csv(path).epoch_us(), grid.epoch_us())


def test_timestamp_table_header_is_one_rule(tmp_path):
    # writer and reader share one header: a table without value columns is not written
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidArgumentError, match="at least one value column"):
        write_timestamp_table(path, hourly(np.zeros(2)), {})
    assert not path.exists()
    # nor one whose header would not name one column per field
    for name in ("", "a,b", 'a"b', "a\rb", "a\nb"):
        with pytest.raises(InvalidArgumentError, match="column name"):
            write_timestamp_table(path, hourly(np.zeros(2)), {name: np.zeros(2)})
        assert not path.exists()
    # and every other header is refused with the one expected
    for header in ("time,value", "timestamp", "timestamp,value,", "timestamp,,value"):
        path.write_text(header + "\n2020-08-01T00:00:00Z,1.0\n")
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert str(err.value) == "line 1: expected header 'timestamp,value'"


def test_csv_memory_grows_with_rows_not_text(tmp_path):
    # two years hourly: every row's text held at once took 16.3 MB to read, 5.05 MB to write
    s = hourly(np.random.default_rng(5).normal(50.0, 5.0, 17_520))
    path = tmp_path / "s.csv"
    peaks = []
    for call, args in ((write_series_csv, (s, path)), (read_series_csv, (path,))):
        tracemalloc.start()
        try:
            call(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    write_peak, read_peak = peaks
    assert write_peak < 3e6
    assert read_peak < 8e6


def test_timestamp_table_writer_needs_one_value_per_point(tmp_path):
    path = tmp_path / "out.csv"
    for values in (np.zeros(1), np.zeros(3)):
        with pytest.raises(ValueError):
            write_timestamp_table(path, hourly(np.zeros(2)), {"x": np.zeros(2), "y": values})
        assert not path.exists()


# ---------------------------------------------------------------------------
# CSV properties: the grid writer and reader against per-row references
# ---------------------------------------------------------------------------

STEPS = (0.5, 1.5, 3600.0, 86400.0, 1 / 3, 1e-6)


@st.composite
def grid_series(draw, max_rows=30):
    """Series on the steps above, starting before or after 1970, with or without microseconds."""
    start = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9998, 1, 1)))
    if draw(st.booleans()):
        start = start.replace(microsecond=0)
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=max_rows)
    )
    return TimeSeries(start.replace(tzinfo=UTC), draw(st.sampled_from(STEPS)), values)


@given(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9998, 1, 1)),
    st.one_of(st.sampled_from(STEPS + (0.1 * 3, 2.5e-6)), st.floats(1e-6, 86400.0)),
    st.integers(1, 30),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_every_timestamp_is_one_exact_microsecond_grid(tmp_path_factory, start, step, n, data):
    s = TimeSeries(start.replace(tzinfo=UTC), step, np.arange(float(n)))
    us = s.epoch_us().tolist()
    assert timestamps(s) == [EPOCH + timedelta(microseconds=t) for t in us]
    assert s.step == round(step * 1e6) / 1e6
    assert set(np.diff(us).tolist()) <= {round(step * 1e6)}

    k = data.draw(st.integers(0, n - 1))
    assert diff(s, k).epoch_us().tolist() == us[k:]
    assert timestamps(diff(s, k)) == timestamps(s)[k:]
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    w = s.window(s.timestamp(lo), s.timestamp(hi))
    assert w.epoch_us().tolist() == us[lo:hi]
    assert timestamps(w) == timestamps(s)[lo:hi]
    assert diff(s, k).step == w.step == s.step

    path = tmp_path_factory.mktemp("csv") / "x.csv"
    write_series_csv(s, path)
    if n == 1:
        with pytest.raises(CsvFormatError, match="^line 3: one data row gives no step"):
            read_series_csv(path)
        return
    back = read_series_csv(path)
    assert back.epoch_us().tolist() == us
    assert back.step == s.step


def test_steps_round_to_whole_microseconds_from_1_us_to_1e9_s():
    assert TimeSeries(T0, 0.1 * 3, np.zeros(2)).step == TimeSeries(T0, 0.3, np.zeros(2)).step == 0.3
    ties = [TimeSeries(T0, us * 1e-6, np.zeros(2)).step for us in (0.51, 1.5, 2.5, 2.51)]
    assert ties == [1e-6, 2e-6, 2e-6, 3e-6]
    for step in (1e-7, 5e-7, 0.5e-6, 1e9 + 1e-6, 1e12):
        with pytest.raises(InvalidArgumentError, match="step must round to 1 microsecond"):
            TimeSeries(T0, step, np.zeros(1))
    assert TimeSeries(T0, 1e9, np.zeros(2)).timestamp(1) == T0 + timedelta(seconds=1e9)


def per_row_csv(columns, timestamps, arrays):
    """The file a row-at-a-time writer produces."""
    lines = ["timestamp," + ",".join(columns)]
    for i, ts in enumerate(timestamps):
        lines.append(",".join([format_utc(ts)] + [repr(float(arr[i])) for arr in arrays]))
    return "".join(line + "\n" for line in lines)


@given(grid_series(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_writer_matches_per_row_reference(tmp_path_factory, s, ncols):
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    write_series_csv(s, path)
    assert path.read_bytes() == per_row_csv(["value"], timestamps(s), [s.values]).encode()

    columns = ["observed", "seasonal", "residual"][:ncols]
    arrays = [s.values, -s.values, s.values[::-1]][:ncols]
    write_timestamp_table(path, s, dict(zip(columns, arrays)))
    assert path.read_bytes() == per_row_csv(columns, timestamps(s), arrays).encode()


@given(grid_series(), st.data())
@settings(max_examples=200, deadline=None)
def test_reader_accepts_every_utc_spelling(tmp_path_factory, s, data):
    def spell(ts, form):
        if form == "Z":
            return format_utc(ts)
        if form == "z":
            return format_utc(ts)[:-1] + "z"
        if form == "+00:00":
            return ts.replace(tzinfo=None).isoformat() + "+00:00"
        return (ts + timedelta(hours=2)).replace(tzinfo=None).isoformat() + "+02:00"

    forms = data.draw(
        st.lists(st.sampled_from(["Z", "z", "+00:00", "+02:00"]), min_size=len(s), max_size=len(s))
    )
    rows = [f"{spell(ts, form)},{v!r}" for ts, form, v in zip(timestamps(s), forms, s.values.tolist())]
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    path.write_text("timestamp,value\n" + "".join(row + "\n" for row in rows))
    if len(s) == 1:
        with pytest.raises(CsvFormatError, match="^line 3: one data row gives no step"):
            read_series_csv(path)
        return
    back = read_series_csv(path)
    assert back.start == s.start
    assert back.step == s.step
    assert_array_equal(back.values, s.values)


def per_row_read(text):
    """A row-at-a-time series reader: ``(timestamps, values)``, or raises its CsvFormatError."""
    lines = text.splitlines()
    if lines[0] != "timestamp,value":
        raise CsvFormatError("expected header 'timestamp,value'", line=1)
    if len(lines) < 2:
        raise CsvFormatError("no data rows", line=2)
    timestamps, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise CsvFormatError("blank line", line=lineno)
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(f"expected 2 fields, found {len(parts)}", line=lineno)
        try:
            ts = parse_utc(parts[0])
        except ValueError:
            raise CsvFormatError(f"bad timestamp {parts[0]!r}", line=lineno) from None
        if len(timestamps) == 1 and ts <= timestamps[0]:
            raise CsvFormatError("timestamps must be strictly ascending", line=lineno)
        if len(timestamps) > 1:
            expected = timestamps[0] + (lineno - 2) * (timestamps[1] - timestamps[0])
            if ts != expected:
                raise CsvFormatError(
                    f"expected timestamp {format_utc(expected)}, found {format_utc(ts)}",
                    line=lineno,
                )
        timestamps.append(ts)
        # float() also takes `1_0`, surrounding spaces and non-ASCII digits
        if not (parts[1].isascii() and parts[1] == parts[1].strip() and "_" not in parts[1]):
            raise CsvFormatError("bad numeric value", line=lineno)
        try:
            value = float(parts[1])
        except ValueError:
            raise CsvFormatError("bad numeric value", line=lineno) from None
        if not np.isfinite(value):
            raise CsvFormatError("non-finite value", line=lineno)
        values.append(value)
    if len(timestamps) < 2:
        raise CsvFormatError("one data row gives no step; need two or more", line=3)
    return timestamps, values


NUMBER_FAULTS = ("1.0.0", "1_0", " 2", "2 ", "\u0663", "inf", "-Infinity", "nan")
FAULTS = ("blank", "extra field", "missing field", "stamp", *NUMBER_FAULTS,
          "off grid", "repeat first", "offset", "header name")


@given(
    grid_series(max_rows=12),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(FAULTS)), max_size=4),
)
@settings(max_examples=400, deadline=None)
def test_reader_reports_the_first_fault_like_a_per_row_reader(tmp_path_factory, s, faults):
    header = "timestamp,value"
    rows = [[format_utc(ts), repr(v)] for ts, v in zip(timestamps(s), s.values.tolist())]
    for index, fault in faults:
        i = index % len(rows)
        ts = s.timestamp(i)
        if fault == "header name":
            header = "timestamp,level"
        elif fault == "blank":
            rows[i] = [""]
        elif fault == "extra field":
            rows[i] = rows[i] + ["1.0"]
        elif fault == "missing field":
            rows[i] = rows[i][: max(1, len(rows[i]) - 1)]
        elif fault == "stamp":
            rows[i][0] = "2020-13-01T00:00:00Z"
        elif fault in NUMBER_FAULTS:
            rows[i][-1] = fault
        elif fault == "off grid":
            rows[i][0] = format_utc(ts + timedelta(seconds=0.25))
        elif fault == "repeat first":
            rows[i][0] = format_utc(s.start)
        else:
            rows[i][0] = ts.replace(tzinfo=None).isoformat() + "+00:00"
    text = header + "\n" + "".join(",".join(row) + "\n" for row in rows)
    path = tmp_path_factory.mktemp("csv") / "x.csv"
    path.write_text(text)

    try:
        want_stamps, want_values = per_row_read(text)
    except CsvFormatError as want:
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert (str(err.value), err.value.line) == (str(want), want.line)
        return
    back = read_series_csv(path)
    assert timestamps(back) == want_stamps
    assert back.step == (want_stamps[1] - want_stamps[0]).total_seconds()
    assert_array_equal(back.values, want_values)


def test_writer_output_takes_the_grid_shortcut(tmp_path, monkeypatch):
    """Files the writer produces never reach the row-by-row reader; other spellings do."""

    def row_by_row(body):
        raise AssertionError("read row by row")

    monkeypatch.setattr("utdd.series._read_rows", row_by_row)
    odd = TimeSeries(T0.replace(microsecond=250), 0.5, [1.5, -2.0, 3.0])
    for s in (hourly(np.arange(48.0) ** 0.5), hourly(np.arange(2 * _BLOCK_ROWS + 1.0) ** 0.5), odd):
        write_series_csv(s, tmp_path / "s.csv")
        back = read_series_csv(tmp_path / "s.csv")
        assert (back.start, back.step) == (s.start, s.step)
        assert_array_equal(back.values, s.values)

    text = (tmp_path / "s.csv").read_text()
    (tmp_path / "offset.csv").write_text(text.replace("Z,", "+00:00,"))
    with pytest.raises(AssertionError, match="read row by row"):
        read_series_csv(tmp_path / "offset.csv")
