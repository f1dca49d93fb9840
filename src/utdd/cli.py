"""Command-line front end.

Subcommands::

    utdd simulate --config cfg.json --out series.csv
    utdd fit      --input series.csv --from ISO --to ISO [--features LIST] \
                  [--holidays DATES] [--epsilon F] [--max-diff N] --model-out model.json
    utdd detect   --input series.csv --ref-from ISO --ref-to ISO \
                  --cur-from ISO --cur-to ISO [--threshold F] [--reuse-model] \
                  [--features LIST] [--holidays DATES] [--epsilon F] \
                  [--max-diff N] --report-out report.json
    utdd report   --report report.json

Exit codes encode the verdict so shell pipelines can trigger retraining
without parsing JSON: 0 = success / no drift, 1 = drift detected, >= 2 =
error.  ``detect`` writes, next to the report, a seasonal-fit CSV
(``timestamp,observed,seasonal,residual``) and a residual CSV per window.
The ``UTDD_SEED`` environment variable overrides the simulation config's
seed for CI determinism.

Each process imports only what its command runs: the module level holds the
standard library and the stdlib-only :mod:`utdd.verdict`, so ``report``,
``--help`` and usage errors start without numpy, ``simulate`` loads no
pipeline module and ``detect`` no simulator.

A command runs OpenBLAS on one thread: its matrix products are too small to
repay waking more, and starting them slows numpy's import.  ``main`` sets
``OPENBLAS_NUM_THREADS=1`` only when the variable is unset and numpy is not
yet loaded, so a user's value wins, and neither ``import utdd`` nor a caller
that has already loaded numpy is affected.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys
from dataclasses import asdict, replace
from datetime import date
from typing import Optional, Sequence

from .errors import InvalidArgumentError, UtddError
from .jsondoc import NUMBER
from .verdict import (
    DEFAULT_EPSILON, DEFAULT_FEATURE_ORDER, DEFAULT_MAX_DIFF, DEFAULT_THRESHOLD, DriftReport,
    check_count, check_positive, load_report, save_report,
)

__all__ = ["main"]

# The numpy-backed names the commands call, by the module that defines them.  A
# command binds the names of the modules it needs with _load and calls them as
# module globals; attribute access from outside binds them through __getattr__.
_DEFERRED = {
    "series": ("FeatureSpec", "check_window", "format_utc", "parse_utc", "read_series_csv",
               "write_series_csv"),
    "simulate": ("load_sim_config", "simulate_series"),
    "embeddings": ("save_model",),
    "drift": ("fit_reference", "run_utdd", "write_fit_csv", "write_residual_csv"),
}


def _load(*modules: str) -> None:
    """Bind the deferred names of ``modules``; a name already bound (a probe, say) is kept."""
    for module in modules:
        imported = importlib.import_module(f".{module}", __package__)
        for name in _DEFERRED[module]:
            globals().setdefault(name, getattr(imported, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _number(convert):
    """An argparse type: ``convert`` of text in the CSV reader's ASCII number syntax only."""
    def parse(text: str):
        if not re.fullmatch(NUMBER, text):  # int() and float() also take `1_0`, ` 1` and `٣`
            raise ValueError(text)
        return convert(text)
    parse.__name__ = convert.__name__  # argparse's message: "invalid int value: '0_1'"
    return parse


_INT, _FLOAT = _number(int), _number(float)


def _features(args: argparse.Namespace) -> tuple:
    """The feature specs of ``--features``, with ``--holidays`` given to ``is_holiday``."""
    days = args.holidays.split(",") if args.holidays else []
    try:
        holidays = frozenset(date.fromisoformat(day.strip()) for day in days)
    except ValueError as exc:
        raise InvalidArgumentError(f"--holidays: {exc}") from None
    specs = []
    for token in args.features.split(","):
        kind = token.strip()
        if not kind:
            raise InvalidArgumentError("--features contains an empty entry")
        specs.append(FeatureSpec(kind, holiday_dates=holidays if kind == "is_holiday" else None))
    if args.holidays is not None and all(spec.kind != "is_holiday" for spec in specs):
        raise InvalidArgumentError("--holidays is given, but --features lists no is_holiday")
    return tuple(specs)


def _bounds(from_text: str, to_text: str, what: str) -> tuple:
    """The parsed and checked ``(start_at, end_before)`` of a window, read before its input is."""
    try:
        return check_window(parse_utc(from_text), parse_utc(to_text))
    except ValueError as exc:
        raise InvalidArgumentError(f"{what}: {exc}") from None


def _print_kv(pairs) -> None:
    width = max(len(key) for key, _ in pairs)
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        print(f"{key:<{width}}  {value}")


def _print_verdict(report: DriftReport) -> int:
    """Print the report's fields, one per line; return the exit code of its verdict."""
    _print_kv(list(asdict(report).items()))
    return 1 if report.drifted else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    _load("series", "simulate")
    cfg = load_sim_config(args.config)
    env_seed = os.environ.get("UTDD_SEED")
    if env_seed:
        try:
            seed = _INT(env_seed)
        except ValueError:
            raise InvalidArgumentError(f"UTDD_SEED must be an integer, got {env_seed!r}") from None
        cfg = replace(cfg, seed=seed)  # SimConfig refuses a negative seed by name
    series = simulate_series(cfg)
    write_series_csv(series, args.out)
    print(
        f"simulated {len(series)} points, {format_utc(series.timestamp(0))} .. "
        f"{format_utc(series.timestamp(len(series) - 1))}, seed {cfg.seed}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    _load("series", "embeddings", "drift")
    features = _features(args)
    bounds = _bounds(args.window_from, args.window_to, "--from/--to")
    check_positive(args.epsilon, "epsilon")
    check_count(args.max_diff, "max_diff")
    window = read_series_csv(args.input).window(*bounds)
    model = fit_reference(window, features, epsilon=args.epsilon, max_diff=args.max_diff)
    save_model(model, args.model_out)
    if not model.stages:
        print("warning: no stage cleared epsilon; the model predicts a constant", file=sys.stderr)
    pairs = [("k_diffs", model.k_diffs), ("epsilon", model.epsilon), ("stages", len(model.stages))]
    for i, stage in enumerate(model.stages):
        pairs.append((f"stage[{i}]", f"{stage.feature.kind}  sse_reduction {stage.sse_reduction!r}"))
    _print_kv(pairs)
    print(f"wrote {args.model_out}")
    return 0


def _sibling(report_out: str, suffix: str) -> str:
    stem = report_out[:-5] if report_out.endswith(".json") else report_out
    return f"{stem}_{suffix}"


def cmd_detect(args: argparse.Namespace) -> int:
    _load("series", "drift")
    features = _features(args)
    ref_bounds = _bounds(args.ref_from, args.ref_to, "--ref-from/--ref-to")
    cur_bounds = _bounds(args.cur_from, args.cur_to, "--cur-from/--cur-to")
    check_positive(args.threshold, "threshold")
    check_positive(args.epsilon, "epsilon")
    check_count(args.max_diff, "max_diff")
    series = read_series_csv(args.input)
    reference, current = series.window(*ref_bounds), series.window(*cur_bounds)
    result = run_utdd(
        reference,
        current,
        features,
        epsilon=args.epsilon,
        max_diff=args.max_diff,
        threshold=args.threshold,
        reuse_model=args.reuse_model,
    )
    save_report(result.report, args.report_out)
    outputs = [args.report_out]
    for name, fit in (("ref", result.reference), ("cur", result.current)):
        fit_path = _sibling(args.report_out, f"{name}_fit.csv")
        residual_path = _sibling(args.report_out, f"{name}_residual.csv")
        write_fit_csv(fit, fit_path)
        write_residual_csv(fit, residual_path)
        outputs.extend([fit_path, residual_path])

    code = _print_verdict(result.report)
    for path in outputs:
        print(f"wrote {path}")
    return code


def cmd_report(args: argparse.Namespace) -> int:
    return _print_verdict(load_report(args.report))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utdd",
        description="Seasonal-aware drift detection between two time windows.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic series from a JSON config")
    p_sim.add_argument("--config", required=True, help="simulation config (JSON)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(handler=cmd_simulate)

    window_fit = argparse.ArgumentParser(add_help=False)
    window_fit.add_argument("--input", required=True, help="input series CSV")
    window_fit.add_argument(
        "--features",
        default=",".join(DEFAULT_FEATURE_ORDER),
        help="comma-separated feature kinds (default %(default)s)",
    )
    window_fit.add_argument("--holidays", help="comma-separated ISO dates for is_holiday")
    window_fit.add_argument("--epsilon", type=_FLOAT, default=DEFAULT_EPSILON,
                            help="stop tolerance, a fraction of the window's std (default %(default)s)")
    window_fit.add_argument("--max-diff", type=_INT, default=DEFAULT_MAX_DIFF,
                            help="differencing cap (default %(default)s)")

    p_fit = sub.add_parser("fit", parents=[window_fit], help="fit a seasonal model on one window")
    p_fit.add_argument("--from", dest="window_from", required=True, metavar="ISO")
    p_fit.add_argument("--to", dest="window_to", required=True, metavar="ISO")
    p_fit.add_argument("--model-out", required=True, help="output model JSON path")
    p_fit.set_defaults(handler=cmd_fit)

    p_det = sub.add_parser(
        "detect", parents=[window_fit], help="score drift between two windows of one series"
    )
    p_det.add_argument("--ref-from", required=True, metavar="ISO")
    p_det.add_argument("--ref-to", required=True, metavar="ISO")
    p_det.add_argument("--cur-from", required=True, metavar="ISO")
    p_det.add_argument("--cur-to", required=True, metavar="ISO")
    p_det.add_argument(
        "--threshold",
        type=_FLOAT,
        default=DEFAULT_THRESHOLD,
        help=f"drift threshold on |z_curr - z_ref| (default {DEFAULT_THRESHOLD})",
    )
    p_det.add_argument(
        "--reuse-model",
        action="store_true",
        help="deseasonalize the current window with the reference model",
    )
    p_det.add_argument("--report-out", required=True, help="output report JSON path")
    p_det.set_defaults(handler=cmd_detect)

    p_rep = sub.add_parser("report", help="pretty-print a drift report")
    p_rep.add_argument("--report", required=True, help="report JSON path")
    p_rep.set_defaults(handler=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if "numpy" not in sys.modules:  # a caller that has loaded numpy keeps its BLAS threads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: byte {exc.start}: {exc.reason}", file=sys.stderr)
        return 2
    except UtddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2
    except OSError as exc:
        name = exc.filename if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}: {name}".rstrip(": "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
