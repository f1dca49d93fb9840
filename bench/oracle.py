"""Independent checks of every drift verdict the benchmark produces.

The z-statistic is recomputed here with the bench's own numpy code from the
residuals the program returned (in memory) or wrote (the ``residual`` column
of each ``*_fit.csv``), and the verdict fields are checked for consistency
with it.  Each check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json

import numpy as np

Z_RTOL = 1e-12


def zscore(residual) -> float:
    r = np.asarray(residual, dtype=np.float64)
    return float(np.mean(np.abs(r - r.mean())) / r.std())


def check_verdict(z_ref_residual, z_cur_residual, doc: dict, max_diff: int) -> list:
    """Check a report's fields against residuals the bench scored itself."""
    problems = []
    for key, residual in (("z_ref", z_ref_residual), ("z_curr", z_cur_residual)):
        expected = zscore(residual)
        if not abs(doc[key] - expected) <= Z_RTOL * abs(expected):
            problems.append(f"{key} {doc[key]!r} != recomputed {expected!r}")
    if doc["delta"] != abs(doc["z_curr"] - doc["z_ref"]):
        problems.append(f"delta {doc['delta']!r} != |z_curr - z_ref|")
    if doc["drifted"] != (doc["delta"] >= doc["threshold"]):
        problems.append(f"drifted {doc['drifted']!r} disagrees with delta >= threshold")
    k = doc["k_diffs"]
    if not (isinstance(k, int) and 0 <= k <= max_diff):
        problems.append(f"k_diffs {k!r} outside [0, {max_diff}]")
    return problems


def _fit_residual(path) -> np.ndarray:
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n").split(",")
    column = header.index("residual")
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=column, ndmin=1)


def check_detect_files(report_path: str, detect_code: int, report_code: int, max_diff: int) -> list:
    """Check one ``utdd detect`` run from its report, fit CSVs and exit codes."""
    with open(report_path, "r") as fh:
        doc = json.load(fh)
    stem = report_path[:-5] if report_path.endswith(".json") else report_path
    problems = check_verdict(
        _fit_residual(f"{stem}_ref_fit.csv"), _fit_residual(f"{stem}_cur_fit.csv"), doc, max_diff
    )
    expected_code = 1 if doc["drifted"] else 0
    if detect_code != expected_code:
        problems.append(f"detect exited {detect_code}, verdict says {expected_code}")
    if report_code != detect_code:
        problems.append(f"report exited {report_code}, detect exited {detect_code}")
    return problems


def check_result(result, max_diff: int) -> list:
    """Check an in-memory ``run_utdd`` result."""
    report = result.report
    doc = {
        "z_ref": report.z_ref,
        "z_curr": report.z_curr,
        "delta": report.delta,
        "threshold": report.threshold,
        "drifted": report.drifted,
        "k_diffs": result.k_diffs,
    }
    return check_verdict(result.reference.residual, result.current.residual, doc, max_diff)


def check_self_comparison(delta: float, drifted: bool) -> list:
    """A window compared with itself scores exactly zero and does not drift."""
    problems = []
    if delta != 0.0:
        problems.append(f"self-comparison delta {delta!r} != 0.0")
    if drifted:
        problems.append("self-comparison reported drift")
    return problems
