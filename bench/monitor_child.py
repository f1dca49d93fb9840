"""One warm monitoring process for the ``monitor-lib`` workload.

Usage: python bench/monitor_child.py MODE SEED [SECONDS OUT]

MODE is one of

``setup``
    Import utdd, score one 504-point pair and print ``time.monotonic()`` as
    the last line.  The parent times a fresh interpreter up to that point.
``measure``
    Score the set-up pair and the seed's pair list once untimed (warm-up),
    then pass after pass for SECONDS.  One pass over the list is one
    iteration, timed as the sum of its ``run_utdd`` calls.  Writes JSON to OUT.
``trace``
    Like ``measure`` with layer probes: the first call and the warm-up pass
    are traced, then untraced and traced passes alternate.  Writes JSON to OUT.

Every result is checked by the bench's oracle; no file I/O happens in the
timed loop.
"""

import sys
import time


def main() -> int:
    mode, seed = sys.argv[1], int(sys.argv[2])
    import utdd.drift
    from utdd import FeatureSpec, TimeSeries

    import oracle
    import workloads

    features = (
        FeatureSpec("day_of_week"),
        FeatureSpec("hour_of_day"),
        FeatureSpec("is_holiday", holiday_dates=workloads.MONITOR_HOLIDAYS),
        FeatureSpec("month_of_year"),
    )

    def windows(pair):
        ref = TimeSeries(pair.start, 3600.0, pair.reference)
        cur = TimeSeries(ref.timestamp(len(ref)), 3600.0, pair.current)
        return ref, cur, pair.reuse_model

    def score(ref, cur, reuse):
        return utdd.drift.run_utdd(
            ref, cur, features, max_diff=workloads.MAX_DIFF, reuse_model=reuse
        )

    if mode == "trace":
        from tracer import LIBRARY_PROBES, Tracer, summarize

        tracer = Tracer(LIBRARY_PROBES)
        tracer.install()
    elif mode not in ("setup", "measure"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2

    # Every process starts with the set-up pair, traced in trace mode, so
    # stationarity.ols_first_ms and setup_s see the same first call.
    problems = oracle.check_result(score(*windows(workloads.setup_pair(seed))), workloads.MAX_DIFF)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    if mode == "setup":
        print(repr(time.monotonic()))
        return 0

    import json

    seconds, out = float(sys.argv[3]), sys.argv[4]
    calls = [windows(pair) for pair in workloads.monitor_pairs(seed)]
    report = {"attempted": 0, "failed": 0, "problems": []}

    def run_pass():
        """Score every pair once: one iteration, timed as the sum of its run_utdd calls."""
        report["attempted"] += 1
        elapsed, found = 0.0, []
        for ref, cur, reuse in calls:
            start = time.perf_counter()
            try:
                result = score(ref, cur, reuse)
            except Exception as exc:  # a raising call fails the iteration
                found.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed += time.perf_counter() - start
            found.extend(oracle.check_result(result, workloads.MAX_DIFF))
        if found:
            report["failed"] += 1
            report["problems"].extend(found)
            return []
        return [elapsed]

    def timed_passes(body):
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            body(rounds)
            rounds += 1

    if mode == "measure":
        run_pass()
        report["latencies"] = []
        timed_passes(lambda _: report["latencies"].extend(run_pass()))
        report["points"] = len(report["latencies"]) * sum(len(r) + len(c) for r, c, _ in calls)
    else:
        run_pass()
        report["warmup"] = summarize(tracer.take())
        tracer.remove()
        report["untraced"], report["traced"], report["passes"] = [], [], []

        def traced_pass():
            tracer.install()
            report["traced"].extend(run_pass())
            tracer.remove()
            report["passes"].append(summarize(tracer.take()))

        def alternate(round_):
            # Swapping the order every round keeps order effects out of the overhead.
            if round_ % 2:
                traced_pass()
            report["untraced"].extend(run_pass())
            if not round_ % 2:
                traced_pass()

        timed_passes(alternate)

    ref, _, _ = calls[0]
    result = score(ref, ref, False)
    report["attempted"] += 1
    problems = oracle.check_self_comparison(result.report.delta, result.report.drifted)
    if problems:
        report["failed"] += 1
        report["problems"].extend(problems)
    with open(out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
