"""Span recorder for the traced benchmark run.

Probes replace public ``utdd`` functions at the module attribute the caller
looks them up through (``utdd.cli.read_series_csv``, ``utdd.drift.ndiffs``,
``utdd.stationarity.ols``, ...), so the program itself is not modified.  Each
call records one span ``[name, start_s, end_s, parent_index, count]``; the
parent is the span open when the call began, and ``count`` is a work count
taken from the call's arguments or result (rows, bytes, harmonic steps).
Spans stay in memory and are written out once, by :meth:`Tracer.dump`.

Stdlib only: importing this module must not import numpy or utdd, so that
``cli.import`` measures the program's own import.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT, COUNT = range(5)


def _path_size(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[1]))


def _result_len(args, kwargs, result):
    return len(result)


def _first_arg_len(args, kwargs, result):
    return len(args[0])


def _stages_kept(args, kwargs, result):
    return len(result.stages)


def _harmonic_steps(args, kwargs, result):
    cfg = args[0]
    return cfg.n * sum(comp.p for comp in cfg.components)


# (module, attribute, span name, work count).  The attribute is the binding
# the caller resolves at call time, so the probe sees every call on that path.
CORE_PROBES = (
    ("utdd.drift", "ndiffs", "stationarity.ndiffs", None),
    ("utdd.stationarity", "adf_test", "stationarity.adf_test", None),
    ("utdd.stationarity", "ols", "stationarity.ols", None),
    ("utdd.drift", "boosted_fit", "embeddings.boosted_fit", _stages_kept),
    ("utdd.embeddings", "fit_embedding", "embeddings.fit_embedding", None),
    ("utdd.drift", "boosted_predict", "embeddings.boosted_predict", None),
    ("utdd.drift", "compute_zscore", "drift.compute_zscore", None),
)
LIBRARY_PROBES = (("utdd.drift", "run_utdd", "drift.run_utdd", None),) + CORE_PROBES
CLI_PROBES = (
    ("utdd.cli", "read_series_csv", "series.read_series_csv", _result_len),
    ("utdd.cli", "write_series_csv", "series.write_series_csv", _first_arg_len),
    ("utdd.cli", "simulate_series", "simulate.simulate_series", _harmonic_steps),
    ("utdd.cli", "run_utdd", "drift.run_utdd", None),
    ("utdd.cli", "save_report", "drift.save_report", _path_size),
    ("utdd.cli", "write_fit_csv", "drift.write_fit_csv", _path_size),
    ("utdd.cli", "write_residual_csv", "drift.write_residual_csv", _path_size),
) + CORE_PROBES

# Spans that must fire at least once in a traced run of each workload; a
# refactor that re-routes one of these calls fails the run instead of
# reporting a silent zero.
_CORE_SPANS = {
    "drift.run_utdd",
    "stationarity.ndiffs",
    "stationarity.adf_test",
    "stationarity.ols",
    "embeddings.boosted_fit",
    "embeddings.fit_embedding",
    "embeddings.boosted_predict",
    "drift.compute_zscore",
}
_CLI_SPANS = _CORE_SPANS | {
    "cli.import",
    "cli.main",
    "series.read_series_csv",
    "drift.save_report",
    "drift.write_fit_csv",
    "drift.write_residual_csv",
}
EXPECTED_SPANS = {
    "cli-fixture": _CLI_SPANS,
    "cli-2y": _CLI_SPANS | {"series.write_series_csv", "simulate.simulate_series"},
    "monitor-lib": _CORE_SPANS,
}


class Tracer:
    """Records nested spans around probed calls in a single-threaded process."""

    def __init__(self, probes=()):
        self.spans: list = []
        self._open: list = []
        self._probes = probes
        self._originals: list = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, 0])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][END] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _probe(self, original, name, count):
        @functools.wraps(original)
        def probed(*args, **kwargs):
            index = self._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(index)
            if count is not None:
                self.spans[index][COUNT] = count(args, kwargs, result)
            return result

        return probed

    def install(self) -> None:
        """Replace every probed attribute with its recording wrapper."""
        for module_name, attr, name, count in self._probes:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._probe(original, name, count))

    def remove(self) -> None:
        """Restore the original functions."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        if self._open:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, longest and first call, counts.

    Self time is a span's duration minus the time its direct children cover.
    The program is single-threaded, so a span's children run one after another
    inside it and the covered time is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict = {}
    for span, covered in zip(spans, child_time):
        duration = span[END] - span[START]
        entry = out.setdefault(
            span[NAME], {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0, "first": duration, "count": 0}
        )
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered
        entry["max"] = max(entry["max"], duration)
        entry["count"] += span[COUNT]
    return out


def merge(summaries) -> dict:
    """Combine the summaries of the processes that make up one iteration."""
    out: dict = {}
    for summary in summaries:
        for name, entry in summary.items():
            if name not in out:
                out[name] = dict(entry)
                continue
            acc = out[name]
            for key in ("calls", "total", "self", "count"):
                acc[key] += entry[key]
            acc["max"] = max(acc["max"], entry["max"])
    return out


# name -> unit.  Every name appears in BENCHMARK.json's per_layer list.
LAYER_METRICS = {
    "cli.import_ms": "ms",
    "cli.main_self_ms": "ms",
    "series.read_series_csv_ms": "ms",
    "series.write_series_csv_ms": "ms",
    "series.rows_read": "count",
    "series.rows_written": "count",
    "drift.write_fit_csv_ms": "ms",
    "drift.write_residual_csv_ms": "ms",
    "drift.save_report_ms": "ms",
    "drift.bytes_written": "bytes",
    "drift.run_utdd_self_ms": "ms",
    "drift.compute_zscore_ms": "ms",
    "stationarity.ndiffs_ms": "ms",
    "stationarity.ols_ms": "ms",
    "stationarity.ols_ms.max": "ms",
    "stationarity.ols_first_ms": "ms",
    "stationarity.adf_tests": "count",
    "stationarity.ols_calls": "count",
    "embeddings.boosted_fit_ms": "ms",
    "embeddings.boosted_predict_ms": "ms",
    "embeddings.stages_tried": "count",
    "embeddings.stages_kept": "count",
    "embeddings.stage_yield": "ratio",
    "simulate.simulate_series_ms": "ms",
    "simulate.harmonic_steps": "count",
    "trace.overhead_ms": "ms",
    "trace.base_p50_ms": "ms",
}

# Work counts that must repeat exactly between iterations at one seed.
EXACT_COUNTS = (
    "stationarity.adf_tests",
    "stationarity.ols_calls",
    "embeddings.stages_tried",
    "embeddings.stages_kept",
    "series.rows_read",
    "series.rows_written",
    "drift.bytes_written",
    "simulate.harmonic_steps",
)


def iteration_metrics(summary: dict) -> dict:
    """Per-layer values for one iteration (totals over its calls, times in ms)."""

    def entry(name):
        return summary.get(name, {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0, "count": 0})

    def ms(name, key="total"):
        return entry(name)[key] * 1e3

    tried = entry("embeddings.fit_embedding")["calls"]
    kept = entry("embeddings.boosted_fit")["count"]
    return {
        "cli.import_ms": ms("cli.import"),
        "cli.main_self_ms": ms("cli.main", "self"),
        "series.read_series_csv_ms": ms("series.read_series_csv"),
        "series.write_series_csv_ms": ms("series.write_series_csv"),
        "series.rows_read": entry("series.read_series_csv")["count"],
        "series.rows_written": entry("series.write_series_csv")["count"],
        "drift.write_fit_csv_ms": ms("drift.write_fit_csv"),
        "drift.write_residual_csv_ms": ms("drift.write_residual_csv"),
        "drift.save_report_ms": ms("drift.save_report"),
        "drift.bytes_written": sum(
            entry(name)["count"]
            for name in ("drift.save_report", "drift.write_fit_csv", "drift.write_residual_csv")
        ),
        "drift.run_utdd_self_ms": ms("drift.run_utdd", "self"),
        "drift.compute_zscore_ms": ms("drift.compute_zscore"),
        "stationarity.ndiffs_ms": ms("stationarity.ndiffs"),
        "stationarity.ols_ms": ms("stationarity.ols"),
        "stationarity.ols_ms.max": ms("stationarity.ols", "max"),
        "stationarity.adf_tests": entry("stationarity.adf_test")["calls"],
        "stationarity.ols_calls": entry("stationarity.ols")["calls"],
        "embeddings.boosted_fit_ms": ms("embeddings.boosted_fit"),
        "embeddings.boosted_predict_ms": ms("embeddings.boosted_predict"),
        "embeddings.stages_tried": tried,
        "embeddings.stages_kept": kept,
        "embeddings.stage_yield": kept / tried if tried else 0.0,
        "simulate.simulate_series_ms": ms("simulate.simulate_series"),
        "simulate.harmonic_steps": entry("simulate.simulate_series")["count"],
    }
