"""Uniformly spaced time series: container, differencing, calendar features, CSV I/O.

Everything downstream (stationarity testing, embedding fits, drift scoring)
works on the types defined here.  All containers are immutable after
construction and all operations are pure functions, so values can be shared
freely across threads.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import CsvFormatError, InvalidArgumentError

__all__ = [
    "TimeSeries",
    "FeatureSpec",
    "ResidualStats",
    "FEATURE_KINDS",
    "diff",
    "extract_feature",
    "residual_stats",
    "is_flat",
    "parse_utc",
    "format_utc",
    "utc_us",
    "read_series_csv",
    "write_series_csv",
    "read_timestamp_table",
    "write_timestamp_table",
    "write_json",
]

_US_PER_SECOND = 1_000_000
_US_PER_HOUR = 3_600 * _US_PER_SECOND
_US_PER_DAY = 24 * _US_PER_HOUR
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)


def _coerce_utc(dt: datetime) -> datetime:
    """Naive datetimes are taken to be UTC; aware ones are converted."""
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def utc_us(dt: datetime) -> int:
    """Exact microseconds since the Unix epoch (naive datetimes are UTC)."""
    return (_coerce_utc(dt) - _EPOCH) // _ONE_US


def is_flat(values) -> bool:
    """The package's one zero-variance rule: ``std < 1e-10 * (1 + |mean|)``.

    Loose enough that the differences of a deterministic trend, constant up
    to rounding, count as flat.
    """
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.std()) < 1e-10 * (1.0 + abs(float(arr.mean())))


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 UTC timestamp such as ``2020-08-01T00:00:00Z``."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return dt.astimezone(timezone.utc)


def format_utc(dt: datetime) -> str:
    """Render a datetime as ISO-8601 UTC with a ``Z`` suffix."""
    dt = _coerce_utc(dt)
    if dt.microsecond:
        return dt.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly spaced, real-valued series.

    The timestamp of index ``n`` is ``start + n * step`` and is never stored
    per point.  ``step`` is in seconds and must be positive; values must be
    finite.  The backing array is made read-only at construction.

    Parameters
    ----------
    start : datetime
        Timestamp of the first point.  Naive datetimes are interpreted as UTC.
    step : float
        Spacing between consecutive points, in seconds.
    values : array_like
        One-dimensional sequence of finite floats, length >= 1.
    """

    start: datetime
    step: float
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _coerce_utc(self.start))
        step = float(self.step)
        if not (math.isfinite(step) and step > 0):
            raise InvalidArgumentError("step must be a positive number of seconds")
        object.__setattr__(self, "step", step)
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise InvalidArgumentError("values must be a one-dimensional, non-empty sequence")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("values must be finite (no NaN or infinity)")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    def timestamp(self, index: int) -> datetime:
        """Timestamp of the point at ``index``."""
        return self.start + timedelta(seconds=index * self.step)

    def epoch_us(self) -> np.ndarray:
        """Microseconds since the Unix epoch for every point (int64)."""
        base = utc_us(self.start)
        offsets = np.rint(np.arange(len(self)) * (self.step * _US_PER_SECOND))
        return base + offsets.astype(np.int64)

    def window(self, start_at: datetime, end_before: datetime) -> "TimeSeries":
        """Sub-series with ``start_at <= timestamp < end_before`` (half-open).

        Raises :class:`InvalidArgumentError` when the bounds are inverted or
        no points fall inside them.
        """
        start_at = _coerce_utc(start_at)
        end_before = _coerce_utc(end_before)
        if end_before <= start_at:
            raise InvalidArgumentError("window end must be after window start")
        lo = (start_at - self.start).total_seconds() / self.step
        hi = (end_before - self.start).total_seconds() / self.step
        # ceil with a small slack so exact grid hits land on the grid point
        i_lo = max(0, math.ceil(lo - 1e-9))
        i_hi = min(len(self), math.ceil(hi - 1e-9))
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


@dataclass(frozen=True)
class ResidualStats:
    """Mean and population standard deviation of a residual window."""

    mean: float
    std: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidArgumentError("residual statistics need at least two observations")
        if not (self.std >= 0):
            raise InvalidArgumentError("standard deviation cannot be negative")


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
    values = np.diff(series.values, n=k)
    start = series.start + timedelta(seconds=k * series.step)
    return TimeSeries(start, series.step, values)


def extract_feature(series: TimeSeries, spec: FeatureSpec) -> np.ndarray:
    """Category id per point, computed from each point's timestamp.

    The result is an int64 array with every id below ``spec.cardinality``.
    """
    us = series.epoch_us()
    if spec.kind == "hour_of_day":
        return ((us // _US_PER_HOUR) % 24).astype(np.int64)
    if spec.kind == "day_of_week":
        # epoch day 0 (1970-01-01) was a Thursday; shift so Monday = 0
        return ((us // _US_PER_DAY + 3) % 7).astype(np.int64)
    if spec.kind == "is_weekend":
        dow = (us // _US_PER_DAY + 3) % 7
        return (dow >= 5).astype(np.int64)
    if spec.kind == "month_of_year":
        months = us.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        return months % 12
    # is_holiday
    if spec.holiday_dates is None:
        raise InvalidArgumentError("is_holiday extraction requires holiday_dates")
    if not spec.holiday_dates:
        return np.zeros(len(series), dtype=np.int64)
    days = us.astype("datetime64[us]").astype("datetime64[D]")
    table = np.array(sorted(spec.holiday_dates), dtype="datetime64[D]")
    return np.isin(days, table).astype(np.int64)


def residual_stats(values: Sequence[float]) -> ResidualStats:
    """Mean and population standard deviation of ``values`` (length >= 2)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidArgumentError("residual statistics need at least two values")
    return ResidualStats(mean=float(arr.mean()), std=float(arr.std()), n=int(arr.size))


# ---------------------------------------------------------------------------
# CSV I/O
#
# All files share one layout: a `timestamp,<name>[,<name>...]` header followed
# by rows of an ISO-8601 UTC timestamp and floats rendered with the shortest
# round-trip repr, so write -> read -> write is byte-identical for data rows.
#
# No row gets its own datetime object.  The writer renders a column of epoch
# microseconds with `np.datetime_as_string`, once per distinct date and time
# of day.  The reader accepts only regular grids: it parses the first two
# timestamps, renders the grid they imply the same way and compares that
# column with the file's in one step, so only rows whose text differs
# (another UTC offset, a lowercase `z`, a fault) are parsed one at a time.
# Errors are those of a row-by-row reader: the first faulty row wins, within a
# row in the order blank line, field count, timestamp, number, non-finite
# value; the column names, the step and the grid are checked after that.
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
    fields = [_format_stamps(stamps)]
    fields.extend(list(map(repr, np.asarray(arr, dtype=np.float64).tolist())) for arr in arrays)
    if any(len(col) != len(fields[0]) for col in fields):
        raise InvalidArgumentError("need one value per timestamp in every column")
    text = "\n".join(["timestamp," + ",".join(columns), *map(",".join, zip(*fields)), ""])
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON through a temporary file beside ``path``
    and :func:`os.replace`, so a failed write leaves ``path`` as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _first_failure(rows: list, parse) -> int:
    """Index of the first row on which ``parse`` raises ValueError, else ``len(rows)``."""
    for i, row in enumerate(rows):
        try:
            parse(row)
        except ValueError:
            return i
    return len(rows)


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
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CsvFormatError("file is empty", line=1)
    header = lines[0].split(",")
    if header[0] != "timestamp" or len(header) < 2 or any(not c for c in header[1:]):
        raise CsvFormatError("expected header 'timestamp,<name>[,...]'", line=1)
    ncols = len(header)
    body = lines[1:]

    # Row faults as (row, rank within the row, message); the least one wins.
    # Each check only looks at the rows before the faults already found.
    faults = []
    commas = np.fromiter(map(str.count, body, repeat(",")), dtype=np.int64, count=len(body))
    misshapen = np.flatnonzero(commas != ncols - 1)
    n = int(misshapen[0]) if misshapen.size else len(body)
    if n < len(body):
        message = f"expected {ncols} fields, found {commas[n] + 1}" if body[n] else "blank line"
        faults.append((n, 0, message))
    fields = ",".join(body[:n]).split(",") if n else []
    stamps = fields[0::ncols]

    data = np.empty((n, ncols - 1))
    try:
        for j in range(1, ncols):
            data[:, j - 1] = list(map(float, fields[j::ncols]))
    except ValueError:
        rows = [line.split(",")[1:] for line in body[:n]]
        n_num = _first_failure(rows, lambda row: [float(v) for v in row])
        faults.append((n_num, 2, "bad numeric value"))
        data = np.array([[float(v) for v in row] for row in rows[:n_num]])
        data = data.reshape(n_num, ncols - 1)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        faults.append((int(np.argmin(finite)), 3, "non-finite value"))

    n_ts = _first_failure(stamps[:2], parse_utc)
    first = [utc_us(parse_utc(text)) for text in stamps[:n_ts]]
    step_us = first[1] - first[0] if len(first) == 2 else 0
    grid = (first[0] if first else 0) + np.arange(n, dtype=np.int64) * step_us
    off_grid = None
    if n_ts == len(stamps[:2]):
        n_ts = n
        text = _format_stamps(grid)
        mismatched = [] if text == stamps else [i for i in range(n) if stamps[i] != text[i]]
        for i in mismatched:
            try:
                ts = parse_utc(stamps[i])
            except ValueError:
                n_ts = i
                break
            if off_grid is None and utc_us(ts) != grid[i]:
                off_grid = (i, ts)
    if n_ts < n:
        faults.append((n_ts, 1, f"bad timestamp {stamps[n_ts]!r}"))
    if faults:
        row, _, message = min(faults)
        raise CsvFormatError(message, line=row + 2)

    if columns is not None:
        if header[1:] != list(columns):
            names = ",".join(["timestamp", *columns])
            raise CsvFormatError(f"expected header {names!r}", line=1)
        if not n:
            raise CsvFormatError("no data rows", line=2)
    if n > 1 and step_us <= 0:
        raise CsvFormatError("timestamps must be strictly ascending", line=3)
    if off_grid is not None:
        i, ts = off_grid
        want = _EPOCH + timedelta(microseconds=int(grid[i]))
        raise CsvFormatError(
            f"expected timestamp {format_utc(want)}, found {format_utc(ts)}", line=i + 2
        )
    return header[1:], grid, data


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
