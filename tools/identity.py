"""Compare what a git revision and the working tree compute, byte for byte.

Usage: python tools/identity.py REV

REV's committed files are unpacked with ``git archive`` into a temporary
directory, which is removed afterwards.  Each tree then runs the same work
with its own ``src`` on the path, in a fresh directory of its own:

- the command line, in this order: ``simulate`` of the fixture at its own seed
  and at ``UTDD_SEED=1`` and of the two-year bench config; ``detect`` on the
  README windows with and without ``--reuse-model``, on the reference window
  against itself and on the two years with the config's ``--holidays``;
  ``detect --max-diff -1``, refused before its missing input is read; ``fit``
  with the README's flags and on a 10-hour window, refused as too short;
  ``report`` on both reports.  Every file a command writes, its stdout, its
  stderr and its exit code are compared.  Each command's peak RSS in both
  trees is printed next to its line, for information only: the bench reports
  only the largest child of a workload, and this shows which command moved.
- the library: ``run_utdd`` on the 210 window pairs of the ``monitor-lib``
  workload (seeds 1-10, the set-up pair and 20 pairs each, scored as
  ``bench/monitor_child.py`` scores them).  k, ``z_ref``, ``z_curr`` and both
  residuals are compared, and so is the message of any refusal.

Both trees take their inputs from the working tree's ``bench/workloads.py``,
imported read only.  Prints one line per check, then the line counts of both
trees' ``src`` next to the verdict, and exits 1 on any difference.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in bench/

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def bench_workloads():
    """``bench/workloads.py`` of the working tree, imported read only."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    return workloads


def monitor_lines() -> list:
    """One line per monitor-lib window pair: k, both z and both residual digests."""
    import utdd
    from utdd import FeatureSpec, TimeSeries, run_utdd

    workloads = bench_workloads()
    features = (
        FeatureSpec("day_of_week"),
        FeatureSpec("hour_of_day"),
        FeatureSpec("is_holiday", holiday_dates=workloads.MONITOR_HOLIDAYS),
        FeatureSpec("month_of_year"),
    )
    lines = [utdd.__file__]
    for seed in SEEDS:
        for pair in [workloads.setup_pair(seed)] + workloads.monitor_pairs(seed):
            ref = TimeSeries(pair.start, 3600.0, pair.reference)
            cur = TimeSeries(ref.timestamp(len(ref)), 3600.0, pair.current)
            try:
                result = run_utdd(ref, cur, features, max_diff=workloads.MAX_DIFF,
                                  reuse_model=pair.reuse_model)
            except Exception as exc:  # a refusal is an output too
                lines.append(f"{type(exc).__name__}: {exc}")
                continue
            report = result.report
            digests = [hashlib.sha256(fit.residual.tobytes()).hexdigest()[:16]
                       for fit in (result.reference, result.current)]
            lines.append(f"k {report.k_diffs} z_ref {report.z_ref!r} z_curr {report.z_curr!r} "
                         f"residuals {' '.join(digests)}")
    return lines


def cli_commands(workloads, holidays: str) -> list:
    """(label, extra environment, argv) of each command, in the order they run."""

    def windows(bounds):
        return ["--ref-from", bounds[0], "--ref-to", bounds[1],
                "--cur-from", bounds[2], "--cur-to", bounds[3]]

    readme, two_year = workloads.FIXTURE_WINDOWS, workloads.TWO_YEAR_WINDOWS
    return [
        ("simulate fixture", {}, ["simulate", "--config", "fixture.json", "--out", "fixture.csv"]),
        ("simulate fixture UTDD_SEED=1", {"UTDD_SEED": "1"},
         ["simulate", "--config", "fixture.json", "--out", "fixture_seed1.csv"]),
        ("simulate two-year", {}, ["simulate", "--config", "two_year.json", "--out", "two_year.csv"]),
        ("detect README", {},
         ["detect", "--input", "fixture.csv", *windows(readme), "--report-out", "report.json"]),
        ("detect README --reuse-model", {},
         ["detect", "--input", "fixture.csv", *windows(readme), "--reuse-model",
          "--report-out", "reuse.json"]),
        ("detect self-comparison", {},
         ["detect", "--input", "fixture.csv", *windows(readme[:2] * 2), "--report-out", "self.json"]),
        ("detect two-year --holidays", {},
         ["detect", "--input", "two_year.csv", "--holidays", holidays, *windows(two_year),
          "--report-out", "two_year.json"]),
        ("detect --max-diff -1", {},
         ["detect", "--input", "missing.csv", *windows(readme), "--max-diff", "-1",
          "--report-out", "refused.json"]),
        ("fit README", {},
         ["fit", "--input", "fixture.csv", "--from", readme[0], "--to", readme[1],
          "--features", "day_of_week,hour_of_day", "--model-out", "model.json"]),
        ("fit 10-hour window", {},
         ["fit", "--input", "fixture.csv", "--from", readme[0], "--to", "2020-08-01T10:00:00Z",
          "--model-out", "short.json"]),
        ("report README", {}, ["report", "--report", "report.json"]),
        ("report two-year", {}, ["report", "--report", "two_year.json"]),
    ]


def src_lines(tree: Path) -> int:
    """Lines of the ``.py`` files under ``tree/src``, counted as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*.py"))


def snapshot(work: Path) -> dict:
    return {path.name: path.read_bytes() for path in work.iterdir()}


# A child's ru_maxrss starts at its parent's peak RSS, which for this script is
# above most commands' own, so each command is spawned and reaped by a fresh
# interpreter that imports nothing else and writes "<exit code> <peak KiB>".
_LAUNCH = """import os, sys
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def run_command(argv: list, cwd: Path, env: dict) -> tuple:
    """(exit code, stdout, stderr) of one command, and its peak RSS in KiB."""
    status = cwd.parent / "status"
    done = subprocess.run([sys.executable, "-c", _LAUNCH, str(status), *argv], cwd=cwd, env=env,
                          capture_output=True, check=True)
    code, peak = map(int, status.read_text().split())
    return (code, done.stdout, done.stderr), peak


def run_tree(tree: Path, work: Path, commands: list) -> tuple:
    """Every command's (exit code, stdout, stderr, files written), each command's
    peak RSS in KiB, and the monitor lines."""
    work.mkdir()
    # each tree simulates from its own configs, copied so that paths read the same
    shutil.copy(tree / "configs" / "fixture.json", work / "fixture.json")
    shutil.copy(tree / "bench" / "two_year.json", work / "two_year.json")
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("UTDD_SEED", None)
    outputs, peaks = [], []
    for _, extra, argv in commands:
        before = snapshot(work)
        done, peak = run_command([sys.executable, "-m", "utdd", *argv], work, {**env, **extra})
        written = {name: data for name, data in snapshot(work).items() if before.get(name) != data}
        outputs.append((*done, written))
        peaks.append(peak)
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--monitor"],
                          cwd=work, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"monitor-lib run failed in {tree}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    if Path(lines[0]).resolve() != (tree / "src" / "utdd" / "__init__.py").resolve():
        raise SystemExit(f"monitor-lib run imported {lines[0]}, not the tree at {tree}")
    return outputs, peaks, lines[1:]


def describe(code: int, stdout: bytes, stderr: bytes, written: dict) -> str:
    files = ", ".join(f"{name} {len(data):,} B" for name, data in sorted(written.items()))
    return f"exit {code}, stdout {len(stdout):,} B, stderr {len(stderr):,} B, files: {files or 'none'}"


def main(argv: list) -> int:
    if argv == ["--monitor"]:
        print("\n".join(monitor_lines()))
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    workloads = bench_workloads()
    holidays = ",".join(json.loads((ROOT / "bench" / "two_year.json").read_text())["holidays"])
    commands = cli_commands(workloads, holidays)
    with tempfile.TemporaryDirectory(prefix="utdd-identity-") as tmp:
        old, archive = Path(tmp) / "rev", Path(tmp) / "rev.tar"
        old.mkdir()
        subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(archive), rev],
                       check=True)
        subprocess.run(["tar", "-x", "-f", str(archive), "-C", str(old)], check=True)
        line_counts = f"src/ lines: {src_lines(old):,} at {rev}, {src_lines(ROOT):,} in the working tree"
        old_cli, old_peaks, old_monitor = run_tree(old, Path(tmp) / "run-rev", commands)
        new_cli, new_peaks, new_monitor = run_tree(ROOT, Path(tmp) / "run-tree", commands)

    differ = 0
    print(f"{rev} against the working tree; peak RSS in MB as the bench's peak_rss_mb counts it")
    for (label, _, _), before, after, old_kib, new_kib in zip(
        commands, old_cli, new_cli, old_peaks, new_peaks
    ):
        rss = f"[peak RSS {old_kib / 1024:.1f} -> {new_kib / 1024:.1f} MB]"
        if before == after:
            print(f"same     {label} {rss}: {describe(*after)}")
            continue
        differ += 1
        print(f"DIFFERS  {label} {rss}")
        print(f"  {rev}: {describe(*before)}")
        print(f"  tree: {describe(*after)}")
        for name in sorted(set(before[3]) | set(after[3])):
            if before[3].get(name) != after[3].get(name):
                print(f"  file {name} differs")
        for i, stream in ((1, "stdout"), (2, "stderr")):
            if before[i] != after[i]:
                print(f"  {stream} {rev}: {before[i].decode(errors='replace')!r}")
                print(f"  {stream} tree: {after[i].decode(errors='replace')!r}")
    moved = [i for i, (a, b) in enumerate(zip(old_monitor, new_monitor)) if a != b]
    moved += range(min(len(old_monitor), len(new_monitor)), max(len(old_monitor), len(new_monitor)))
    what = "k, z_ref, z_curr and both residuals"
    if moved:
        differ += 1
        print(f"DIFFERS  monitor-lib: {len(moved)} of {len(new_monitor)} windows ({what})")
        for i in moved[:5]:
            print(f"  window {i}: {rev}: {old_monitor[i] if i < len(old_monitor) else None}")
            print(f"  window {i}: tree: {new_monitor[i] if i < len(new_monitor) else None}")
    else:
        print(f"same     monitor-lib: {len(new_monitor)} windows ({what})")
    print(line_counts)
    if differ:
        print(f"{differ} of {len(commands) + 1} checks differ")
        return 1
    print(f"identical: {len(commands)} commands and {len(new_monitor)} monitor-lib windows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
