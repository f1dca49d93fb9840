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
from typing import Optional, Sequence

import numpy as np

from .errors import CsvFormatError, InvalidArgumentError
from .jsondoc import _NUMBER

__all__ = [
    "TimeSeries",
    "FeatureSpec",
    "FEATURE_KINDS",
    "diff",
    "extract_feature",
    "is_flat",
    "parse_utc",
    "format_utc",
    "utc_us",
    "check_grid",
    "read_series_csv",
    "write_series_csv",
    "read_timestamp_table",
    "write_timestamp_table",
]

_US_PER_SECOND = 1_000_000
_US_PER_HOUR = 3_600 * _US_PER_SECOND
_US_PER_DAY = 24 * _US_PER_HOUR
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_MIN_US = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US
_MAX_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _ONE_US


def _coerce_utc(dt: datetime) -> datetime:
    """Naive datetimes are taken to be UTC; aware ones are converted."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def utc_us(dt: datetime) -> int:
    """Exact microseconds since the Unix epoch (naive datetimes are UTC)."""
    return (_coerce_utc(dt) - _EPOCH) // _ONE_US


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


def is_flat(values) -> bool:
    """The package's one zero-variance rule: ``std < 1e-10 * (1 + |mean|)``.

    Loose enough that the differences of a deterministic trend, constant up
    to rounding, count as flat.
    """
    arr = np.asarray(values, dtype=np.float64)
    mean = arr.mean()
    # bit for bit arr.std(), which would sum the array for its mean once more
    std = np.sqrt(np.mean((arr - mean) ** 2))
    return float(std) < 1e-10 * (1.0 + abs(float(mean)))


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
    """Render a datetime as ISO-8601 UTC with a ``Z`` suffix (microseconds only if nonzero)."""
    return _coerce_utc(dt).replace(tzinfo=None).isoformat() + "Z"


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
        object.__setattr__(self, "start", _coerce_utc(self.start))
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
        start_at = _coerce_utc(start_at)
        end_before = _coerce_utc(end_before)
        if end_before <= start_at:
            raise InvalidArgumentError("window end must be after window start")
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
    * ``is_holiday``: 1 on dates listed in ``holiday_dates``, else 0

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
    returns an identical copy.
    """
    k = int(k)
    if k < 0:
        raise InvalidArgumentError("difference order must be non-negative")
    if k >= len(series):
        raise InvalidArgumentError(
            f"difference order {k} requires a series longer than {k} points"
        )
    return TimeSeries(series.timestamp(k), series.step, np.diff(series.values, n=k))


def extract_feature(series: TimeSeries, spec: FeatureSpec) -> np.ndarray:
    """Category id per point, computed from each point's timestamp.

    The result is an int64 array with every id below ``spec.cardinality``.
    Every kind but ``hour_of_day`` depends on the date alone, so its codes are
    computed once per distinct day and gathered by day.  The day table spans
    the window's days when they are no more than its points, else it is the
    points' own days, so memory stays bounded by the point count at any step.
    """
    us = series.epoch_us()
    if spec.kind == "hour_of_day":
        # the time of day by a floor division, about twice as fast as numpy's int64 remainder
        return (us - us // _US_PER_DAY * _US_PER_DAY) // _US_PER_HOUR
    if spec.kind == "is_holiday" and spec.holiday_dates is None:
        raise InvalidArgumentError("is_holiday extraction requires holiday_dates")
    day = us // _US_PER_DAY  # days since 1970-01-01, ascending
    first, span = int(day[0]), int(day[-1] - day[0]) + 1
    if span <= day.size:  # every day from the first point's to the last's
        days, index = np.arange(first, first + span, dtype=np.int64), day - first
    else:  # a step of over a day: no two points share a day
        days, index = day, None
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


# ---------------------------------------------------------------------------
# CSV I/O
#
# All files share one layout: a `timestamp,<name>[,<name>...]` header followed
# by rows of an ISO-8601 UTC timestamp and floats rendered with the shortest
# round-trip repr, so write -> read -> write is byte-identical for data rows.
# The writer renders timestamps with `np.datetime_as_string`, once per distinct
# date and time of day.  `_read_rows` reads one row at a time and so defines
# every row error and its line; `_read_grid` returns the same for a file the
# writer could have written, in a few whole-column steps, and None for any
# other.  The column names, the row count, the step and the grid are checked
# after either, once.
# ---------------------------------------------------------------------------


def _format_stamps(us: np.ndarray) -> list[str]:
    """:func:`format_utc` text of each epoch-microsecond value.

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


def write_timestamp_table(
    path,
    columns: Sequence[str],
    stamps: np.ndarray,
    arrays: Sequence[np.ndarray],
) -> None:
    """Write a ``timestamp,...`` CSV with one float column per entry in ``columns``.

    ``stamps`` are the rows' times in microseconds since the Unix epoch, as
    returned by :meth:`TimeSeries.epoch_us` and :func:`read_timestamp_table`.
    """
    if len(columns) != len(arrays) or not columns:
        raise InvalidArgumentError("need one array per named column")
    stamps = np.asarray(stamps, dtype=np.int64)
    if stamps.size and not (_MIN_US <= stamps.min() and stamps.max() <= _MAX_US):
        raise InvalidArgumentError(
            f"timestamps must lie from {format_utc(datetime.min)} to {format_utc(datetime.max)}"
        )
    fields = [_format_stamps(stamps)]
    fields.extend(list(map(repr, np.asarray(arr, dtype=np.float64).tolist())) for arr in arrays)
    if any(len(col) != len(fields[0]) for col in fields):
        raise InvalidArgumentError("need one value per timestamp in every column")
    text = "\n".join(["timestamp," + ",".join(columns), *map(",".join, zip(*fields)), ""])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# The value texts both readers accept, one per line.
_NUMBERS = re.compile(rf"(?:{_NUMBER}\n)*{_NUMBER}")


def _read_rows(body: list[str], ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Epoch-microsecond stamps and values of each row; raises at the first faulty row."""
    stamps, data = [], []
    for line_no, line in enumerate(body, start=2):
        fields = line.split(",")
        if len(fields) != ncols:
            message = f"expected {ncols} fields, found {len(fields)}" if line else "blank line"
            raise CsvFormatError(message, line=line_no)
        try:
            stamps.append(utc_us(parse_utc(fields[0])))
        except ValueError:
            raise CsvFormatError(f"bad timestamp {fields[0]!r}", line=line_no) from None
        if not _NUMBERS.fullmatch("\n".join(fields[1:])):
            raise CsvFormatError("bad numeric value", line=line_no)
        row = [float(v) for v in fields[1:]]
        if not all(map(math.isfinite, row)):
            raise CsvFormatError("non-finite value", line=line_no)
        data.append(row)
    return np.array(stamps, dtype=np.int64), np.array(data).reshape(len(body), ncols - 1)


def _read_grid(body: list[str], ncols: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """What :func:`_read_rows` returns, if the rows (two or more) have finite values and
    the stamps are the writer's text of the grid of the first two; else None."""
    if len(body) < 2 or any(line.count(",") != ncols - 1 for line in body):
        return None
    fields = ",".join(body).split(",")
    stamps, columns = fields[0::ncols], [fields[j::ncols] for j in range(1, ncols)]
    if not all(_NUMBERS.fullmatch("\n".join(column)) for column in columns):
        return None
    try:
        first, second = (utc_us(parse_utc(text)) for text in stamps[:2])
        parse_utc(stamps[-1])  # the last stamp keeps the whole grid in datetime's range
    except ValueError:
        return None
    data = np.column_stack([list(map(float, column)) for column in columns])
    grid = first + np.arange(len(body), dtype=np.int64) * (second - first)
    if not np.isfinite(data).all() or _format_stamps(grid) != stamps:
        return None
    return grid, data


def read_timestamp_table(
    path, columns: Optional[Sequence[str]] = None
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a ``timestamp,...`` CSV written by :func:`write_timestamp_table`.

    Returns ``(column names, stamps, data)``: ``stamps`` are epoch
    microseconds (int64) and ``data`` has shape ``(n_rows, n_columns)``.  The
    rows must lie on a regular, strictly ascending grid.  When ``columns`` is
    given the names must equal it and at least one data row must exist.
    Raises :class:`CsvFormatError` naming the offending line on malformed
    content.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("file is empty", line=1)
    header = lines[0].split(",")
    if header[0] != "timestamp" or len(header) < 2 or any(not c for c in header[1:]):
        raise CsvFormatError("expected header 'timestamp,<name>[,...]'", line=1)
    stamps, data = _read_grid(lines[1:], len(header)) or _read_rows(lines[1:], len(header))

    if columns is not None:
        if header[1:] != list(columns):
            names = ",".join(["timestamp", *columns])
            raise CsvFormatError(f"expected header {names!r}", line=1)
        if not len(stamps):
            raise CsvFormatError("no data rows", line=2)
    if len(stamps) > 1:
        if stamps[1] <= stamps[0]:
            raise CsvFormatError("timestamps must be strictly ascending", line=3)
        grid = stamps[0] + np.arange(len(stamps), dtype=np.int64) * (stamps[1] - stamps[0])
        i = int(np.argmax(stamps != grid))
        if stamps[i] != grid[i]:
            want, found = _format_stamps(np.array([grid[i], stamps[i]]))
            raise CsvFormatError(f"expected timestamp {want}, found {found}", line=i + 2)
    return header[1:], stamps, data


def read_series_csv(path) -> TimeSeries:
    """Read a ``timestamp,value`` CSV into a :class:`TimeSeries`.

    Rows must be strictly ascending with a constant step.  A single-row file
    yields a series with the documented fallback step of one second.
    """
    _, stamps, data = read_timestamp_table(path, ["value"])
    start = _EPOCH + timedelta(microseconds=int(stamps[0]))
    step = (int(stamps[1]) - int(stamps[0])) / _US_PER_SECOND if len(stamps) > 1 else 1.0
    return TimeSeries(start, step, data[:, 0])


def write_series_csv(series: TimeSeries, path) -> None:
    """Write a series in the standard ``timestamp,value`` format."""
    write_timestamp_table(path, ["value"], series.epoch_us(), [series.values])
