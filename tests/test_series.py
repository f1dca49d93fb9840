"""Tests for the time-series container, calendar features, and CSV I/O."""

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
    residual_stats,
    write_series_csv,
)
from utdd.series import (
    FEATURE_KINDS,
    format_utc,
    parse_utc,
    read_timestamp_table,
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


def test_diff_errors():
    s = hourly([1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgumentError):
        diff(s, -1)
    with pytest.raises(InvalidArgumentError):
        diff(s, 3)


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
    assert codes[0] == 0  # January
    assert set(codes) <= set(range(12))


def test_is_holiday_codes():
    s = TimeSeries(datetime(2020, 9, 6, tzinfo=UTC), 86400.0, np.zeros(3))
    spec = FeatureSpec("is_holiday", holiday_dates=frozenset([date(2020, 9, 7)]))
    assert_array_equal(extract_feature(s, spec), [0, 1, 0])


def test_is_holiday_empty_set_is_all_zero():
    s = hourly(np.zeros(10))
    spec = FeatureSpec("is_holiday", holiday_dates=frozenset())
    assert_array_equal(extract_feature(s, spec), np.zeros(10))


def test_is_holiday_requires_dates():
    s = hourly(np.zeros(10))
    with pytest.raises(InvalidArgumentError):
        extract_feature(s, FeatureSpec("is_holiday"))


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


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_feature_codes_match_datetime_library(offset_hours):
    # python's datetime is the independent oracle for the integer calendar math
    when = T0 + timedelta(hours=offset_hours)
    s = TimeSeries(when, 3600.0, np.zeros(1))
    assert extract_feature(s, FeatureSpec("hour_of_day"))[0] == when.hour
    assert extract_feature(s, FeatureSpec("day_of_week"))[0] == when.weekday()
    assert extract_feature(s, FeatureSpec("month_of_year"))[0] == when.month - 1
    assert extract_feature(s, FeatureSpec("is_weekend"))[0] == int(when.weekday() >= 5)


def test_residual_stats_values():
    stats = residual_stats(np.array([1.0, 2.0, 3.0, 4.0]))
    assert stats.mean == 2.5
    assert_allclose(stats.std, np.std([1.0, 2.0, 3.0, 4.0]))
    assert stats.n == 4
    with pytest.raises(InvalidArgumentError):
        residual_stats(np.array([1.0]))


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
    s = hourly(values)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(s, p1)
    write_series_csv(read_series_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
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


def test_single_row_csv_defaults_step(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("timestamp,value\n2020-08-01T00:00:00Z,5.0\n")
    s = read_series_csv(path)
    assert len(s) == 1
    assert s.step == 1.0


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


def test_csv_descending_timestamps_rejected(tmp_path):
    path = tmp_path / "desc.csv"
    path.write_text(
        "timestamp,value\n"
        "2020-08-01T01:00:00Z,1.0\n"
        "2020-08-01T00:00:00Z,2.0\n"
    )
    with pytest.raises(CsvFormatError):
        read_series_csv(path)


def test_timestamp_table_multicolumn(tmp_path):
    ts = [T0 + timedelta(hours=i) for i in range(5)]
    us = np.array([(t - EPOCH) // timedelta(microseconds=1) for t in ts])
    a = np.arange(5.0)
    b = np.arange(5.0) * 0.5
    path = tmp_path / "table.csv"
    write_timestamp_table(path, ["observed", "seasonal"], us, [a, b])
    assert path.read_text().splitlines()[:2] == [
        "timestamp,observed,seasonal",
        "2020-08-01T00:00:00Z,0.0,0.0",
    ]
    cols, ts2, data = read_timestamp_table(path)
    assert cols == ["observed", "seasonal"]
    assert ts2.dtype == np.int64
    assert_array_equal(ts2, us)
    assert_array_equal(data[:, 0], a)
    assert_array_equal(data[:, 1], b)


# ---------------------------------------------------------------------------
# CSV properties: the grid writer and reader against per-row references
# ---------------------------------------------------------------------------

STEPS = (0.5, 1.5, 3600.0, 86400.0)


@st.composite
def grid_series(draw, max_rows=30):
    """Series on the steps above, starting before or after 1970, with or without microseconds."""
    start = draw(st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9998, 1, 1)))
    if draw(st.booleans()):
        start = start.replace(microsecond=0)
    values = draw(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=max_rows)
    )
    return TimeSeries(start.replace(tzinfo=UTC), draw(st.sampled_from(STEPS)), values)


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
    write_timestamp_table(path, columns, s.epoch_us(), arrays)
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
    back = read_series_csv(path)
    assert back.start == s.start
    assert back.step == (s.step if len(s) > 1 else 1.0)
    assert_array_equal(back.values, s.values)


def per_row_read(text):
    """A row-at-a-time reader: returns ``(start, step, values)`` or ``(message, line)``."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if header[0] != "timestamp" or len(header) < 2 or any(not c for c in header[1:]):
        return "expected header 'timestamp,<name>[,...]'", 1
    timestamps, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            return "blank line", lineno
        parts = line.split(",")
        if len(parts) != len(header):
            return f"expected {len(header)} fields, found {len(parts)}", lineno
        try:
            timestamps.append(parse_utc(parts[0]))
        except ValueError:
            return f"bad timestamp {parts[0]!r}", lineno
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError:
            return "bad numeric value", lineno
        if not all(np.isfinite(row)):
            return "non-finite value", lineno
        values.append(row[0])
    if header[1:] != ["value"]:
        return "expected header 'timestamp,value'", 1
    if not timestamps:
        return "no data rows", 2
    if len(timestamps) == 1:
        return timestamps[0], 1.0, values
    step = (timestamps[1] - timestamps[0]).total_seconds()
    if step <= 0:
        return "timestamps must be strictly ascending", 3
    for i, ts in enumerate(timestamps):
        expected = timestamps[0] + timedelta(seconds=i * step)
        if ts != expected:
            return f"expected timestamp {format_utc(expected)}, found {format_utc(ts)}", i + 2
    return timestamps[0], step, values


FAULTS = ("blank", "extra field", "missing field", "stamp", "number", "inf", "nan",
          "off grid", "repeat first", "offset", "header name")


@given(grid_series(max_rows=12), st.lists(st.tuples(st.integers(0, 11), st.sampled_from(FAULTS)), max_size=4))
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
            rows[i] = rows[i][:1]
        elif fault == "stamp":
            rows[i][0] = "2020-13-01T00:00:00Z"
        elif fault == "number":
            rows[i][-1] = "1.0.0"
        elif fault in ("inf", "nan"):
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

    want = per_row_read(text)
    if len(want) == 2:
        with pytest.raises(CsvFormatError) as err:
            read_series_csv(path)
        assert (str(err.value), err.value.line) == (f"line {want[1]}: {want[0]}", want[1])
    else:
        back = read_series_csv(path)
        assert (back.start, back.step) == want[:2]
        assert_array_equal(back.values, want[2])
