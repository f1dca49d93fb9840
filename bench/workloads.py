"""Seeded inputs for the three workloads (numpy and stdlib only).

``cli-fixture`` and ``cli-2y`` drive the ``utdd`` command line; their series
come from the program's own simulator with ``UTDD_SEED`` set to the bench
seed.  ``monitor-lib`` calls ``run_utdd`` in memory on pairs drawn here.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

import numpy as np

MAX_DIFF = 4  # the CLI default, passed explicitly to run_utdd as well

# The README round trip on the bundled fixture.
FIXTURE_CONFIG = "configs/fixture.json"
FIXTURE_WINDOWS = (
    "2020-08-01T00:00:00Z",
    "2020-10-01T00:00:00Z",
    "2020-09-01T00:00:00Z",
    "2020-11-01T00:00:00Z",
)

# Two years of hourly data (17,520 points); year 1 against year 2.
TWO_YEAR_CONFIG = "bench/two_year.json"
TWO_YEAR_WINDOWS = (
    "2019-01-01T00:00:00Z",
    "2020-01-01T00:00:00Z",
    "2020-01-01T00:00:00Z",
    "2021-01-01T00:00:00Z",
)


def parse_utc(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def window_points(start: datetime, step_s: float, n: int, lo: str, hi: str) -> int:
    """Points of a regular series inside the half-open window [lo, hi)."""
    first = np.ceil((parse_utc(lo) - start).total_seconds() / step_s)
    end = np.ceil((parse_utc(hi) - start).total_seconds() / step_s)
    return int(min(end, n) - max(first, 0))


# (reference length in points, pairs per pass).  One pass over all pairs is
# one monitor-lib iteration.
MONITOR_SIZES = ((168, 4), (504, 8), (1344, 4), (8760, 4))
MONITOR_START = datetime(2021, 1, 4, tzinfo=timezone.utc)
MONITOR_HOLIDAYS = frozenset(
    date(2021, 1, 1) + timedelta(days=d) for d in range(0, 2 * 365, 45)
)


@dataclass(frozen=True)
class MonitorPair:
    """One monitoring call: reference then current window on one hourly grid."""

    start: datetime
    reference: np.ndarray
    current: np.ndarray
    reuse_model: bool


def _pair(rng: np.random.Generator, n: int, index: int) -> MonitorPair:
    # The shape of each pair is fixed by its index so every seed runs the
    # same mix of window sizes, noise families, random walks and drifts.
    heavy_tails = index % 2 == 1
    random_walk = index % 4 == 2
    drifted = index % 4 == 3
    reuse_model = (index // 2) % 2 == 1
    total = 2 * n
    offset_h = int(rng.integers(0, 24 * 7))
    start = MONITOR_START + timedelta(hours=offset_h)
    t = np.arange(total) + offset_h
    # Fixed amplitudes keep the differencing order a property of the pair's
    # shape (k = 0, or k = 1 for random walks) rather than of the seed.
    daily = np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
    weekly = 0.3 * np.sin(2 * np.pi * t / 168 + rng.uniform(0, 2 * np.pi))
    if heavy_tails:
        noise = 0.5 * rng.standard_t(3, total) / np.sqrt(3.0)
    else:
        noise = 0.5 * rng.standard_normal(total)
    values = 20.0 + daily + weekly + noise
    if random_walk:
        values += np.cumsum(rng.standard_normal(total)) * 0.3
    if drifted:
        values[n:] += 1.5 * daily[n:] + 2.0 * noise[n:]
    return MonitorPair(start, values[:n], values[n:], reuse_model)


def monitor_pairs(seed: int) -> list:
    """The fixed list of (reference, current) pairs one pass scores, in call order."""
    rng = np.random.default_rng([seed, 2110])
    pairs = [
        _pair(rng, n, index) for n, count in MONITOR_SIZES for index in range(count)
    ]
    # Interleave sizes so a pass does not run all large windows back to back.
    order = np.random.default_rng([seed, 6383]).permutation(len(pairs))
    return [pairs[i] for i in order]


def setup_pair(seed: int) -> MonitorPair:
    """The first call of a fresh monitoring process: a 504-point pair."""
    return _pair(np.random.default_rng([seed, 504]), 504, 0)
