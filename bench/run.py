"""Benchmark for utdd: cold command-line runs and a warm monitoring loop.

Usage (from the root of a utdd checkout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

NAME is ``cli-fixture``, ``cli-2y``, ``monitor-lib`` or ``all``.  Each
workload is one closed loop with one client: the next iteration starts when
the previous one has finished, and child processes run one at a time.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced and traced iterations, reports the
per-layer metrics of the traced ones and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program under
test is imported from ``src/`` of the checkout; no BLAS thread variable is
set or changed, they are only recorded.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PY = sys.executable

CALL_TIMEOUT_S = 60
SETUP_REPEATS = 9
MIN_ITERATIONS = 3
MIN_TRACED = 2  # exact-repeat counts need two traced iterations to compare
# Warm monitor-lib processes per run, one after another.  Otherwise-identical
# processes differ in speed by up to a quarter on a shared two-core machine,
# so a run samples several of them.
MONITOR_PROCESSES = 10

WORKLOADS = ("cli-fixture", "cli-2y", "monitor-lib")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg['name']} {blas_cfg['version']}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path) as fh:
            src_lines += fh.read().count("\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": commit,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["UTDD_SEED"] = str(seed)
    return env


def call(argv, env) -> subprocess.CompletedProcess:
    """Run one child to completion; a timeout kills it and raises TimeoutExpired."""
    return subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CALL_TIMEOUT_S,
    )


def time_setup(argv, env) -> list:
    """Seconds from launching a fresh interpreter to the monotonic time it prints last."""
    call(argv, env)  # untimed: compiles bytecode in a fresh checkout
    samples = []
    for _ in range(SETUP_REPEATS):
        launched = time.monotonic()
        proc = call(argv, env)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - launched)
    return samples


class Tally:
    """Attempted and failed iterations of one run, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems) -> bool:
        """Count one attempt; return True when it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at 90.

    Below 20 samples no percentile above the median has ten samples beyond
    it, so the median is reported.
    """
    return max(50.0, min(90.0, 100.0 * (1.0 - 10.0 / n)))


def ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# Command-line workloads
# ---------------------------------------------------------------------------


def _window_args(windows) -> list:
    ref_from, ref_to, cur_from, cur_to = windows
    return ["--ref-from", ref_from, "--ref-to", ref_to, "--cur-from", cur_from, "--cur-to", cur_to]


class CliWorkload:
    """The shell round trip: fresh ``utdd`` processes per command."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.env = child_env(seed)
        fixture = name == "cli-fixture"
        if fixture:
            config, windows = workloads.FIXTURE_CONFIG, workloads.FIXTURE_WINDOWS
        else:
            config, windows = workloads.TWO_YEAR_CONFIG, workloads.TWO_YEAR_WINDOWS
        with open(ROOT / config) as fh:
            doc = json.load(fh)
        series = str(work / "series.csv")
        simulate = ["simulate", "--config", config, "--out", series]
        # The fixture runs the README command as written; the two-year detect
        # also passes the config's holidays so the is_holiday stage has work.
        holidays = [] if fixture else ["--holidays", ",".join(doc["holidays"])]
        self.report = str(work / "report.json")
        self.self_report = str(work / "self.json")
        ref_from, ref_to = windows[:2]
        detect = ["detect", "--input", series, *holidays]
        # The fixture is simulated once per run; the two-year series in every iteration.
        self.setup_commands = [simulate] if fixture else []
        self.commands = ([] if fixture else [simulate]) + [
            [*detect, *_window_args(windows), "--report-out", self.report],
            ["report", "--report", self.report],
        ]
        self.self_commands = [
            [*detect, *_window_args((ref_from, ref_to, ref_from, ref_to)), "--report-out", self.self_report],
            ["report", "--report", self.self_report],
        ]
        start = workloads.parse_utc(doc["start"])
        self.points = sum(
            workloads.window_points(start, doc["step_seconds"], doc["n"], lo, hi)
            for lo, hi in (windows[:2], windows[2:])
        )

    def run_chain(self, commands, traced: bool):
        """Run the commands in order; return (seconds, exit codes, span files, problems)."""
        codes, spans, problems = [], [], []
        start = time.perf_counter()
        for i, args in enumerate(commands):
            if traced:
                spans.append(self.work / f"spans{i}.json")
                argv = [PY, str(BENCH / "cli_child.py"), str(spans[-1]), *args]
            else:
                argv = [PY, "-m", "utdd", *args]
            try:
                proc = call(argv, self.env)
            except subprocess.TimeoutExpired:
                problems.append(f"{args[0]} timed out after {CALL_TIMEOUT_S} s")
                break
            codes.append(proc.returncode)
            allowed = (0,) if args[0] == "simulate" else (0, 1)
            if proc.returncode not in allowed:
                problems.append(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                break
        return time.perf_counter() - start, codes, spans, problems

    def iteration(self, traced: bool):
        """One timed round trip plus its oracle check: (seconds, span files, problems)."""
        elapsed, codes, spans, problems = self.run_chain(self.commands, traced)
        if not problems:
            problems = oracle.check_detect_files(self.report, codes[-2], codes[-1], workloads.MAX_DIFF)
        return elapsed, spans, problems

    def prepare(self) -> None:
        for args in self.setup_commands:
            problems = self.run_chain([args], traced=False)[3]
            if problems:
                raise BenchError(f"{self.name} set-up failed: {problems[0]}")

    def self_check(self) -> list:
        """Untimed: the reference window compared with itself scores 0.0 and exits 0."""
        _, codes, _, problems = self.run_chain(self.self_commands, traced=False)
        if problems:
            return problems
        with open(self.self_report) as fh:
            doc = json.load(fh)
        problems = oracle.check_self_comparison(doc["delta"], doc["drifted"])
        if codes != [0, 0]:
            problems.append(f"self-comparison exit codes {codes}, expected [0, 0]")
        return problems

    def measure(self, seconds: float) -> dict:
        self.prepare()
        setup = time_setup([PY, "-c", "import utdd\nimport time\nprint(repr(time.monotonic()))"], self.env)
        tally, latencies = Tally(), []
        deadline = time.perf_counter() + seconds
        while tally.attempted < MIN_ITERATIONS or time.perf_counter() < deadline:
            elapsed, _, problems = self.iteration(traced=False)
            if tally.record(problems):
                latencies.append(elapsed)
        tally.record(self.self_check())
        return dict(tally.result(), setup=setup, latencies=latencies, points=self.points * len(latencies))

    def trace(self, seconds: float) -> dict:
        self.prepare()
        tally, untraced, traced, iterations, first_ols = Tally(), [], [], [], []
        deadline = time.perf_counter() + seconds
        while tally.attempted < 2 * MIN_TRACED or time.perf_counter() < deadline:
            # Untraced and traced iterations alternate, starting with each in
            # turn, so order effects stay out of the overhead.
            is_traced = tally.attempted % 4 in (1, 2)
            elapsed, spans, problems = self.iteration(traced=is_traced)
            if not tally.record(problems):
                continue
            if not is_traced:
                untraced.append(elapsed)
                continue
            traced.append(elapsed)
            summaries = []
            for path in spans:
                with open(path) as fh:
                    summaries.append(tracer.summarize(json.load(fh)))
            # Each command is a fresh process, so its first ols call is the cold one.
            first_ols.extend(s["stationarity.ols"]["first"] for s in summaries if "stationarity.ols" in s)
            iterations.append(tracer.merge(summaries))
        tally.record(self.self_check())
        return dict(
            tally.result(), iterations=iterations, first_ols=first_ols, untraced=untraced, traced=traced
        )


# ---------------------------------------------------------------------------
# Library workload
# ---------------------------------------------------------------------------


class MonitorWorkload:
    """Warm processes scoring a fixed list of in-memory window pairs."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.env = child_env(seed)

    def _child(self, mode: str, seconds: float, out: Path) -> dict:
        argv = [PY, str(BENCH / "monitor_child.py"), mode, str(self.seed), repr(seconds), str(out)]
        try:
            proc = call(argv, self.env)
        except subprocess.TimeoutExpired:
            raise BenchError(f"monitor-lib {mode} process timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"monitor-lib {mode} process failed: {proc.stderr.strip()[-500:]}")
        with open(out) as fh:
            return json.load(fh)

    def _children(self, mode: str, seconds: float) -> list:
        return [
            self._child(mode, seconds / MONITOR_PROCESSES, self.work / f"{mode}{i}.json")
            for i in range(MONITOR_PROCESSES)
        ]

    def measure(self, seconds: float) -> dict:
        setup_argv = [PY, str(BENCH / "monitor_child.py"), "setup", str(self.seed)]
        setup = time_setup(setup_argv, self.env)
        reports = self._children("measure", seconds)
        return dict(
            _pool(reports, ("attempted", "failed", "problems", "latencies", "points")), setup=setup
        )

    def trace(self, seconds: float) -> dict:
        reports = self._children("trace", seconds)
        out = _pool(reports, ("attempted", "failed", "problems", "untraced", "traced", "passes"))
        out["iterations"] = out.pop("passes")
        out["first_ols"] = [report["warmup"]["stationarity.ols"]["first"] for report in reports]
        return out


def _pool(reports, keys) -> dict:
    """Sum or concatenate the same keys over the reports of several processes."""
    out = {}
    for key in keys:
        out[key] = reports[0][key]
        for report in reports[1:]:
            out[key] = out[key] + report[key]
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(run: dict):
    """(values, notes) of the end-to-end metrics of one untraced run."""
    latencies = np.sort(np.asarray(run["latencies"], dtype=np.float64))
    n = latencies.size
    if n == 0:
        raise BenchError("no iteration succeeded: " + "; ".join(run["problems"][:3]))
    q = tail_percentile(n)
    busy = float(latencies.sum())
    values = {
        "setup_s": statistics.median(run["setup"]),
        "latency_p50_ms": ms(float(np.median(latencies))),
        "latency_p90_ms": ms(float(np.percentile(latencies, q))),
        "points_per_s": run["points"] / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(run['setup'])} fresh interpreters",
        "latency_p50_ms": f"n={n} iterations",
        "latency_p90_ms": f"p{q:.1f} of n={n}" + ("" if q == 90.0 else " (p90 needs n >= 100)"),
        "points_per_s": f"{run['points']} points in {busy:.3f} s of iterations",
        "peak_rss_mb": "max RSS of any child process",
    }
    return values, notes


def layer_metrics(workload: str, seed: int, run: dict):
    """(values, notes) of the per-layer metrics of one traced run."""
    if not run["iterations"]:
        raise BenchError("no traced iteration succeeded: " + "; ".join(run["problems"][:3]))
    fired = set().union(*run["iterations"])
    missing = tracer.EXPECTED_SPANS[workload] - fired
    if missing:
        raise BenchError(f"expected spans never fired on {workload}: {', '.join(sorted(missing))}")
    per_iteration = [tracer.iteration_metrics(summary) for summary in run["iterations"]]
    n = len(per_iteration)
    values, notes = {}, {}
    for name in per_iteration[0]:
        column = [metrics[name] for metrics in per_iteration]
        if name in tracer.EXACT_COUNTS:
            if len(set(column)) != 1:
                raise BenchError(
                    f"{name} differs between iterations at seed {seed}: {sorted(set(column))}"
                )
            values[name], notes[name] = column[0], f"identical in all {n} iterations"
        elif name == "stationarity.ols_ms.max":
            values[name], notes[name] = max(column), f"longest single call over {n} iterations"
        else:
            values[name], notes[name] = statistics.median(column), f"median of {n} iterations"
    values["stationarity.ols_first_ms"] = ms(statistics.median(run["first_ols"]))
    notes["stationarity.ols_first_ms"] = f"median of {len(run['first_ols'])} fresh processes"
    base = statistics.median(run["untraced"])
    values["trace.overhead_ms"] = ms(statistics.median(run["traced"]) - base)
    values["trace.base_p50_ms"] = ms(base)
    notes["trace.overhead_ms"] = (
        f"traced minus untraced p50 ({len(run['traced'])} traced, {len(run['untraced'])} untraced)"
    )
    notes["trace.base_p50_ms"] = "untraced latency_p50_ms of this run"
    return values, notes


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = MonitorWorkload(seed, work) if name == "monitor-lib" else CliWorkload(name, seed, work)
        run = bench.trace(seconds) if traced else bench.measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if traced:
        values, notes = layer_metrics(name, seed, run)
        units = tracer.LAYER_METRICS
    else:
        values, notes = end_to_end_metrics(run)
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": environment(),
        "metrics": {m: {"value": values[m], "unit": units[m], "note": notes[m]} for m in units},
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
    }


def print_record(record: dict) -> None:
    print(f"# {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:<30} {shown} {metric['unit']:<6} {metric['note']}")
    print(f"{'fail_ratio':<30} {record['failed'] / record['attempted']:>16.6g} {'ratio':<6} "
          f"{record['failed']} failed of {record['attempted']} attempted")
    if record["trace"]:
        overhead = record["metrics"]["trace.overhead_ms"]["value"]
        base = record["metrics"]["trace.base_p50_ms"]["value"]
        print(f"tracing overhead: {overhead:+.3f} ms on an untraced latency_p50_ms of {base:.3f} ms "
              f"({100.0 * overhead / base:+.2f}%)")
    for problem in record["problems"][:5]:
        print(f"problem: {problem}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record["metrics"].items()
        },
    })


def run_all(args) -> int:
    """Each workload in its own benchmark process, so peak RSS stays per workload."""
    records = []
    work = ROOT / ".bench_work" / f"all-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            out = work / f"{name}.json"
            argv = [PY, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
            if not out.exists():
                print(f"error: workload {name} produced no result", file=sys.stderr)
                return 1
            with open(out) as fh:
                records.append(json.load(fh))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=2)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {
            f"{r['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
            for r in records for name, m in r["metrics"].items()
        },
    }))
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (environment, notes) as JSON here")
    args = parser.parse_args()
    missing = [p for p in ("src/utdd/__init__.py", "configs/fixture.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a utdd checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
    print_record(record)
    print(result_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
