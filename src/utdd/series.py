"""Uniformly spaced time series: container, differencing, calendar features, CSV I/O.

Everything downstream (stationarity testing, embedding fits, drift scoring)
works on the types defined here.  All containers are immutable after
construction and all operations are pure functions, so values can be shared
freely across threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Mapping, Optional

import numpy as np

from .errors import CsvFormatError, InvalidArgumentError
from .jsondoc import NUMBER
from .verdict import check_count

__all__ = [
    "TimeSeries",
    "FeatureSpec",
    "FEATURE_KINDS",
    "diff",
    "extract_feature",
    "spread",
    "parse_utc",
    "format_utc",
    "utc_us",
    "coerce_utc",
    "check_grid",
    "check_window",
    "read_series_csv",
    "write_series_csv",
    "write_timestamp_table",
]

_US_PER_SECOND = 1_000_000
_US_PER_HOUR = 3_600 * _US_PER_SECOND
_US_PER_DAY = 24 * _US_PER_HOUR
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MAX_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US


def coerce_utc(dt: datetime) -> datetime:
    """Naive datetimes are taken to be UTC; aware ones are converted."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def utc_us(dt: datetime) -> int:
    """Exact microseconds since the Unix epoch (naive datetimes are UTC)."""
    return (coerce_utc(dt) - _EPOCH) // _ONE_US


def check_grid(start: datetime, step: float, n: int) -> int:
    """``step`` in whole microseconds, for an ``n``-point grid that begins at ``start``.

    The step is rounded once to the nearest microsecond (ties to even).  Refuses
    a step that is not a positive number of seconds or that rounds to 0 µs or
    past 1e9 s, and a grid whose last point falls past ``datetime.max``.
    Nothing is allocated, so a caller can check a length before building arrays.
    """
    step = float(step)
    if not (math.isfinite(step) and step > 0):
        raise InvalidArgumentError("step must be a positive number of seconds")
    # capped so that round() cannot overflow; a capped step fails a test below
    step_us = round(min(step * _US_PER_SECOND, 1e18))
    if (n - 1) * step_us > _MAX_US - utc_us(start):
        raise InvalidArgumentError(f"the series ends past {format_utc(datetime.max)}")
    if not 0 < step_us <= 10**15:  # up to 1e9 s, k µs -> k / 1e6 s -> k µs is exact
        raise InvalidArgumentError(f"step must round to 1 microsecond .. 1e9 s, not {step!r} s")
    return step_us


def spread(values) -> float:
    """The population std of ``values``, or 0.0 when they are flat by the package's
    one zero-variance rule, ``std < 1e-10 * (1 + |mean|)``.

    Exact constants are flat.  The differences of a deterministic trend are
    flat only while their rounding noise stays under the absolute floor: for
    ``c + 0.1 t`` over 1,464 points up to ``c = 1e6``, not from ``c = 1e7``
    (std 7.5e-10 against 1.1e-10).  ROADMAP item 6 makes the rule relative.
    """
    arr = np.asarray(values, dtype=np.float64)
    # bit for bit arr.mean() and arr.std(), without numpy's wrapper, and the
    # array summed for its mean once, where arr.std() would sum it once more
    mean = arr.sum() / arr.size
    std = float(np.sqrt(((arr - mean) ** 2).sum() / arr.size))
    return 0.0 if std < 1e-10 * (1.0 + abs(float(mean))) else std


def check_window(start_at: datetime, end_before: datetime) -> tuple:
    """The bounds of a half-open window, in UTC; refuses an end that is not after the start."""
    start_at, end_before = coerce_utc(start_at), coerce_utc(end_before)
    if end_before <= start_at:
        raise InvalidArgumentError("window end must be after window start")
    return start_at, end_before


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp such as ``2020-08-01T00:00:00Z``."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_utc(dt: datetime) -> str:
    """The CSV writer's text for ``dt``: ISO-8601 UTC, ``Z``, microseconds only if nonzero."""
    return _format_stamps(np.array([utc_us(dt)]))[0]


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly spaced, real-valued series.

    The timestamp of index ``i`` is ``start + i * step``, never stored per
    point, in whole microseconds: :func:`check_grid` rounds ``step`` once.
    Values must be finite.  The backing array is made read-only at construction.

    Parameters
    ----------
    start : datetime
        Timestamp of the first point.  Naive datetimes are interpreted as UTC.
    step : float
        Spacing between consecutive points, in seconds: over 0.5 µs, at most 1e9 s.
    values : array_like
        One-dimensional sequence of finite floats, length >= 1.
    """

    start: datetime
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", coerce_utc(self.start))
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise InvalidArgumentError("values must be a one-dimensional, non-empty sequence")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("values must be finite (no NaN or infinity)")
        step_us = check_grid(self.start, self.step, values.size)
        object.__setattr__(self, "step", step_us / _US_PER_SECOND)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime:
        """Timestamp of the point at ``index``."""
        return self.start + timedelta(microseconds=int(index) * round(self.step * _US_PER_SECOND))

    def epoch_us(self) -> np.ndarray:
        """Microseconds since the Unix epoch for every point (int64)."""
        step_us = round(self.step * _US_PER_SECOND)
        return utc_us(self.start) + np.arange(len(self), dtype=np.int64) * step_us

    def window(self, start_at: datetime, end_before: datetime) -> "TimeSeries":
        """Sub-series with ``start_at <= timestamp < end_before`` (half-open).

        The bounds are compared exactly with the points' :meth:`epoch_us`.

        Raises :class:`InvalidArgumentError` when the bounds are inverted or
        no points fall inside them.
        """
        start_at, end_before = check_window(start_at, end_before)
        i_lo, i_hi = np.searchsorted(self.epoch_us(), [utc_us(start_at), utc_us(end_before)])
        if i_hi <= i_lo:
            raise InvalidArgumentError(
                f"window [{format_utc(start_at)}, {format_utc(end_before)}) selects no points"
            )
        return TimeSeries(self.timestamp(i_lo), self.step, self.values[i_lo:i_hi])


_CARDINALITY = {
    "hour_of_day": 24,
    "day_of_week": 7,
    "month_of_year": 12,
    "is_weekend": 2,
    "is_holiday": 2,
}

FEATURE_KINDS = tuple(_CARDINALITY)


@dataclass(frozen=True)
class FeatureSpec:
    """One categorical calendar feature, derived from each point's timestamp.

    Code conventions:

    * ``hour_of_day``: 0..23
    * ``day_of_week``: Monday=0 .. Sunday=6
    * ``month_of_year``: January=0 .. December=11
    * ``is_weekend``: 1 on Saturday/Sunday, else 0
    * ``is_holiday``: 1 on dates listed in ``holiday_dates``, else 0; the set,
      possibly empty, is required

    All calendar math is UTC with the proleptic Gregorian calendar; there is
    no timezone or DST handling.
    """

    kind: str
    holiday_dates: Optional[frozenset] = None

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise InvalidArgumentError(
                f"unknown feature kind {self.kind!r}; expected one of {FEATURE_KINDS}"
            )
        if self.kind == "is_holiday" and self.holiday_dates is None:
            raise InvalidArgumentError("is_holiday requires holiday_dates")
        if self.holiday_dates is not None:
            if self.kind != "is_holiday":
                raise InvalidArgumentError("holiday_dates only applies to is_holiday features")
            dates = frozenset(
                d.date() if isinstance(d, datetime) else d for d in self.holiday_dates
            )
            if not all(isinstance(d, date) for d in dates):
                raise InvalidArgumentError("holiday_dates must contain calendar dates")
            object.__setattr__(self, "holiday_dates", dates)

    @property
    def cardinality(self) -> int:
        """Number of categories; every code lies in ``[0, cardinality)``."""
        return _CARDINALITY[self.kind]


def diff(series: TimeSeries, k: int) -> TimeSeries:
    """k-th order forward difference of a series.

    The result has ``len(series) - k`` points and starts ``k`` steps later
    (each value is attributed to the last timestamp it involves).  ``k=0``
    returns the series itself, which is immutable.
    """
    check_count(k, "difference order")
    if not k:
        return series
    if k >= len(series):
        raise InvalidArgumentError(
            f"difference order {k} requires a series longer than {k} points"
        )
    return TimeSeries(series.timestamp(k), series.step, np.diff(series.values, n=k))


def grid_calendar(series: TimeSeries) -> tuple:
    """The calendar that :func:`calendar_codes` reads every feature of ``series`` from.

    It is ``(us, day, days, index)``: each point's epoch microseconds and day
    number (days since 1970-01-01, ascending), a table of days, and each
    point's row in it (None when the table is ``day`` itself).  The table
    spans the window's days when they are no more than its points, else it is
    the points' own days, so memory stays bounded by the point count at any step.
    """
    us = series.epoch_us()
    day = us // _US_PER_DAY
    first, span = int(day[0]), int(day[-1] - day[0]) + 1
    if span <= day.size:  # every day from the first point's to the last's
        return us, day, np.arange(first, first + span, dtype=np.int64), day - first
    return us, day, day, None  # a step of over a day: no two points share a day


def calendar_codes(calendar: tuple, spec: FeatureSpec) -> np.ndarray:
    """The codes of ``spec`` at every point of a :func:`grid_calendar`."""
    us, day, days, index = calendar
    if spec.kind == "hour_of_day":
        # the time of day by a floor division, about twice as fast as numpy's int64 remainder
        return (us - day * _US_PER_DAY) // _US_PER_HOUR
    # every other kind depends on the date alone: computed once per day of the table
    if spec.kind == "month_of_year":
        codes = days.astype("datetime64[D]").astype("datetime64[M]").astype(np.int64) % 12
    elif spec.kind == "is_holiday":
        # each day's count among the sorted, distinct holiday day numbers: 0 or 1
        holidays = np.array(sorted(d.toordinal() for d in spec.holiday_dates), dtype=np.int64)
        holidays -= _EPOCH.toordinal()
        codes = np.searchsorted(holidays, days, "right") - np.searchsorted(holidays, days)
    else:
        # epoch day 0 (1970-01-01) was a Thursday; shift so Monday = 0
        codes = (days + 3) % 7
        if spec.kind == "is_weekend":
            codes = (codes >= 5).astype(np.int64)
    return codes if index is None else codes[index]


def extract_feature(series: TimeSeries, spec: FeatureSpec) -> np.ndarray:
    """Category id per point, computed from each point's timestamp.

    The result is an int64 array with every id below ``spec.cardinality``.
    ``boosted_fit`` and ``boosted_predict`` build the :func:`grid_calendar` once
    per call and share it, reading each feature with :func:`calendar_codes`.
    """
    return calendar_codes(grid_calendar(series), spec)


# ---------------------------------------------------------------------------
# CSV I/O
#
# All files share one layout: the `_header` of their column names, then one row
# per point of an ISO-8601 UTC timestamp and floats in the shortest round-trip
# repr, so write -> read -> write is byte-identical for data rows.  The reader
# takes `timestamp,value` files: it checks line 1 against their `_header`, and
# that a row follows, before it reads any row.  `_read_rows` reads one row at a
# time, each field in order and the grid of the first two rows with it, and so
# defines every row error and its line; `_read_grid` returns the same for a file
# the writer could have written, in a few whole-column steps, and None otherwise.
# The writer and `_read_grid` work on `_BLOCK_ROWS` rows at a time, so the text
# of only one block is held as Python strings; the bytes do not depend on it.
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 4096


def _format_stamps(us: np.ndarray) -> list[str]:
    """ISO-8601 UTC text of each epoch-microsecond value, as in ``2020-08-01T00:00:00Z``.

    A grid repeats few dates and few times of day, so each distinct one is
    rendered once (with microseconds only where they are nonzero) and the
    row text is their concatenation.
    """
    day, time_of_day = np.divmod(np.asarray(us, dtype=np.int64), _US_PER_DAY)
    days, day_index = np.unique(day, return_inverse=True)
    times, time_index = np.unique(time_of_day, return_inverse=True)
    dates = np.datetime_as_string(days.astype("datetime64[D]")).tolist()
    clock = np.where(
        times % _US_PER_SECOND == 0,
        np.datetime_as_string((times // _US_PER_SECOND).astype("datetime64[s]")),
        np.datetime_as_string(times.astype("datetime64[us]")),
    )
    clock = [text[10:] + "Z" for text in clock.tolist()]
    return [dates[i] + clock[j] for i, j in zip(day_index.tolist(), time_index.tolist())]


def _header(columns) -> str:
    """The header line ``timestamp,<names>`` of one or more ``columns``, each a bare CSV field."""
    if not columns:
        raise InvalidArgumentError("a timestamp table needs at least one value column")
    for name in columns:
        if not name or re.search(r'[,"\r\n]', name):
            raise InvalidArgumentError(
                f"column name {name!r} must be non-empty, without comma, quote, CR or LF"
            )
    return ",".join(["timestamp", *columns])


def write_timestamp_table(path, grid: TimeSeries, columns: Mapping[str, np.ndarray]) -> None:
    """Write a CSV row per point of ``grid``; ``columns`` maps each name to its floats.

    Every column is checked to hold one value per point before the file is opened.
    """
    header = _header(columns)
    arrays = [np.asarray(a, np.float64) for a in columns.values()]
    for name, a in zip(columns, arrays):
        if a.shape != (len(grid),):
            raise InvalidArgumentError(f"column {name!r}: {a.size} values for {len(grid)} points")
    us = grid.epoch_us()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for first in range(0, len(grid), _BLOCK_ROWS):
            rows = slice(first, first + _BLOCK_ROWS)
            fields = [_format_stamps(us[rows])]
            fields += [list(map(repr, a[rows].tolist())) for a in arrays]
            fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


# The value texts the reader accepts, one per line.
_NUMBERS = re.compile(rf"(?:{NUMBER}\n)*{NUMBER}")


def _read_rows(body: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch-microsecond stamps and values of each row; raises at the first faulty row.

    A row's fields are checked in order: their count, the timestamp, its place
    on the grid of the first two rows, then the value.
    """
    stamps, values = [], []
    for line_no, line in enumerate(body, start=2):
        fields = line.split(",")
        if len(fields) != 2:
            message = f"expected 2 fields, found {len(fields)}" if line else "blank line"
            raise CsvFormatError(message, line=line_no)
        try:
            stamp = utc_us(parse_utc(fields[0]))
        except ValueError:
            raise CsvFormatError(f"bad timestamp {fields[0]!r}", line=line_no) from None
        if len(stamps) == 1 and stamp <= stamps[0]:
            raise CsvFormatError("timestamps must be strictly ascending", line=line_no)
        if len(stamps) > 1 and stamp != (want := stamps[-1] + stamps[1] - stamps[0]):
            want, found = _format_stamps(np.array([want, stamp]))
            raise CsvFormatError(f"expected timestamp {want}, found {found}", line=line_no)
        stamps.append(stamp)
        if not _NUMBERS.fullmatch(fields[1]):
            raise CsvFormatError("bad numeric value", line=line_no)
        value = float(fields[1])
        if not math.isfinite(value):
            raise CsvFormatError("non-finite value", line=line_no)
        values.append(value)
    return np.array(stamps, dtype=np.int64), np.array(values, dtype=np.float64)


def _read_grid(body: list[str]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """What :func:`_read_rows` returns, if the rows (two or more) have finite values and
    the stamps are the writer's text of the ascending grid of the first two; else None.

    The rows are checked and parsed one block at a time, each in a few whole-column steps.
    """
    if len(body) < 2 or any(line.count(",") != 1 for line in body):
        return None
    try:
        first, second = (utc_us(parse_utc(line.split(",")[0])) for line in body[:2])
        # the last stamp keeps the whole grid in datetime's range
        parse_utc(body[-1].split(",")[0])
    except ValueError:
        return None
    if second <= first:
        return None
    grid = first + np.arange(len(body), dtype=np.int64) * (second - first)
    data = np.empty(len(body), dtype=np.float64)
    for start in range(0, len(body), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        fields = ",".join(body[rows]).split(",")
        stamps, values = fields[0::2], fields[1::2]
        if not _NUMBERS.fullmatch("\n".join(values)):
            return None
        data[rows] = list(map(float, values))
        if not np.isfinite(data[rows]).all() or _format_stamps(grid[rows]) != stamps:
            return None
    return grid, data


def read_series_csv(path) -> TimeSeries:
    """Read a ``timestamp,value`` CSV into a :class:`TimeSeries`.

    At least two rows must follow the header, since one stamp gives no step,
    and the rows must lie on a regular, strictly ascending grid.  Raises
    :class:`CsvFormatError` naming the first offending line: the header is
    checked before any row, and each row before the next.
    """
    header = _header(["value"])
    with open(path, "r", encoding="utf-8") as fh:  # lines end at \n, \r\n or \r only
        lines = [line.removesuffix("\n") for line in fh]
    if not lines:
        raise CsvFormatError("file is empty", line=1)
    if lines[0] != header:
        raise CsvFormatError(f"expected header {header!r}", line=1)
    if len(lines) < 2:
        raise CsvFormatError("no data rows", line=2)
    stamps, values = _read_grid(lines[1:]) or _read_rows(lines[1:])
    if len(stamps) < 2:
        raise CsvFormatError("one data row gives no step; need two or more", line=3)
    start = _EPOCH + timedelta(microseconds=int(stamps[0]))
    return TimeSeries(start, (int(stamps[1]) - int(stamps[0])) / _US_PER_SECOND, values)


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the standard ``timestamp,value`` format."""
    write_timestamp_table(path, series, {"value": series.values})
