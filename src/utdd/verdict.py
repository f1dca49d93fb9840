"""The drift verdict and its stored report.  Standard library only.

A report holds the differencing order, both window statistics and the
verdict ``|z_curr - z_ref| >= threshold``.  This module also holds the
defaults the command line shows before any command runs, so that
``utdd report``, ``--help`` and usage errors start without numpy, and the
package's one rule for each kind of parameter: the threshold and epsilon
must be positive and finite numbers, and every count an ``int`` of at least
its minimum.  The command line applies them before it reads its input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .errors import InvalidArgumentError
from .jsondoc import json_object, json_version, read_json, write_json

__all__ = [
    "DEFAULT_EPSILON", "DEFAULT_FEATURE_ORDER", "DEFAULT_MAX_DIFF", "DEFAULT_THRESHOLD",
    "REPORT_FORMAT_VERSION", "DriftReport", "check_count", "check_positive", "detect",
    "save_report", "load_report",
]

# Coarse-to-fine calendar structure.
DEFAULT_FEATURE_ORDER = ("day_of_week", "hour_of_day", "is_holiday", "month_of_year")

DEFAULT_MAX_DIFF = 4  # highest differencing order ndiffs tries unless told otherwise
DEFAULT_EPSILON = 1e-3  # booster stop tolerance, a fraction of the differenced window's std

# Smallest round value below the delta this detector is meant to flag.
DEFAULT_THRESHOLD = 0.1

REPORT_FORMAT_VERSION = 2


def check_positive(value: float, name: str) -> None:
    """Refuse a bool, or a ``value`` not positive and finite, with :class:`InvalidArgumentError`."""
    if type(value) is bool or not 0 < value < math.inf:
        raise InvalidArgumentError(f"{name} must be positive and finite")


def check_count(value: int, name: str, minimum: int = 0) -> int:
    """``value``, an exact ``int`` of at least ``minimum``; else :class:`InvalidArgumentError`."""
    if type(value) is not int:  # a bool, float, str or numpy integer is no count
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = f"at least {minimum}" if minimum else "non-negative"
        raise InvalidArgumentError(f"{name} must be {bound}")
    return value


def detect(z_ref: float, z_curr: float, threshold: float) -> bool:
    """Drift verdict: ``|z_curr - z_ref| >= threshold`` (threshold must be positive and finite)."""
    check_positive(threshold, "threshold")
    return abs(z_curr - z_ref) >= threshold


@dataclass(frozen=True)
class DriftReport:
    """The differencing order, both window statistics and the verdict.

    ``delta`` is exactly ``|z_curr - z_ref|`` and ``drifted`` is true exactly
    when ``delta >= threshold``.  The field order is the order in which the
    report is stored and printed.
    """

    k_diffs: int
    z_ref: float
    z_curr: float
    delta: float
    threshold: float
    drifted: bool

    def __post_init__(self) -> None:
        check_count(self.k_diffs, "k_diffs")
        if self.delta != abs(self.z_curr - self.z_ref):
            raise InvalidArgumentError("delta must equal |z_curr - z_ref|")
        if self.drifted != detect(self.z_ref, self.z_curr, self.threshold):
            raise InvalidArgumentError("drifted must equal delta >= threshold")


# Postponed annotations keep each field's type as text: the json_scalar kind.
_REPORT = {field.name: field.type for field in fields(DriftReport)}


def save_report(report: DriftReport, path) -> None:
    write_json(path, {"version": REPORT_FORMAT_VERSION, **asdict(report)})


def load_report(path) -> DriftReport:
    """The report :func:`save_report` wrote to ``path``; any other document is refused."""
    body = json_version(read_json(path), REPORT_FORMAT_VERSION, "utdd detect")
    return DriftReport(**json_object(body, _REPORT, _REPORT))
