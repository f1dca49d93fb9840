"""The public surface: every exported name resolves and removed names stay gone."""

import argparse
import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import utdd
from utdd.cli import main
from utdd.series import parse_utc
from utdd.stationarity import ols
from utdd.verdict import DEFAULT_EPSILON, DEFAULT_MAX_DIFF

ROOT = Path(__file__).resolve().parent.parent

# Names that duplicated other code and were removed; each has a replacement.
REMOVED = {
    "utdd": ("utdd", "training_residual",  # run_utdd(...).report; WindowFit.residual
             "ResidualStats", "residual_stats",  # compute_zscore reads the residual itself
             "ols", "OlsFit",  # utdd.stationarity.ols returns the t-ratio adf_test reads
             "schwert_lags",  # adf_test(...).lags_used
             "predict_embedding"),  # EmbeddingModel.lookup[codes]
    "utdd.drift": ("utdd", "report_to_dict",  # save_report
                   "check_epsilon", "check_threshold"),  # utdd.verdict.check_positive
    "utdd.embeddings": ("training_residual", "_stage_spec", "predict_embedding",
                        "check_epsilon",  # utdd.verdict.check_positive
                        "model_to_dict", "model_from_dict"),  # save_model, load_model
    "utdd.verdict": ("check_threshold",  # check_positive
                     "report_from_dict",  # load_report
                     "check_max_diff"),  # check_count
    "utdd.stationarity": ("OlsFit", "schwert_lags",
                          "_second_pass"),  # inlined in ols
    "utdd.series": ("_first_failure", "json_scalar", "write_json",  # utdd.jsondoc
                    "ResidualStats", "residual_stats",
                    "read_timestamp_table",  # read_series_csv; np.loadtxt for the fit CSVs
                    "is_flat"),  # not spread(values)
    "utdd.simulate": ("sim_config_to_dict", "_drift_cut_us",
                      "sim_config_from_dict"),  # load_sim_config
}


def test_exported_names_resolve_and_removed_names_are_gone():
    names = [f"utdd.{info.name}" for info in pkgutil.iter_modules(utdd.__path__)]
    modules = [utdd] + [importlib.import_module(name) for name in names if name != "utdd.__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
    for module_name, removed in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in removed:
            assert not hasattr(module, name), f"{module_name}.{name} is back"
            assert name not in getattr(module, "__all__", ())
    assert not hasattr(utdd.TimeSeries, "timestamps")
    assert "residual_curr" not in utdd.DriftReport.__dataclass_fields__


def test_features_are_calendar_kinds_and_stages_dense_lookups():
    assert [f.name for f in fields(utdd.FeatureSpec)] == ["kind", "holiday_dates"]
    assert "exogenous" not in utdd.FEATURE_KINDS
    assert len(utdd.FEATURE_KINDS) == 5
    assert [f.name for f in fields(utdd.EmbeddingModel)] == ["feature", "lookup", "sse_reduction"]
    assert [f.name for f in fields(utdd.BoostedModel)] == ["stages", "epsilon", "k_diffs"]
    assert [f.name for f in fields(utdd.SeasonalComponentConfig)] == ["s", "sigma_omega"]
    assert not hasattr(utdd.EmbeddingModel, "table")
    assert not hasattr(utdd.BoostedModel, "degenerate")
    assert "degenerate" not in utdd.BoostedModel.__dataclass_fields__


def test_pyproject_states_the_package_version_and_command():
    # read with a regex: Python 3.10 has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    tables = dict(re.findall(r"^\[([\w.]+)\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S))
    assert re.findall(r'^version = "(.*)"$', tables["project"], re.M) == [utdd.__version__]
    [script] = re.findall(r'^utdd = "(.*)"$', tables["project.scripts"], re.M)
    assert script == "utdd.cli:main"
    module, name = script.split(":")
    assert callable(getattr(importlib.import_module(module), name))


def test_readme_lists_exactly_the_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("The package exports exactly these pieces:"):]
    section = section[: section.index("\n\n", section.index("\n- "))]
    assert set(re.findall(r"`(\w+)`", section)) == set(utdd.__all__)


def _same_lines(found, want):
    """Lines equal token by token, decimal fractions within 1e-12 relative."""
    assert len(found) == len(want), (found, want)
    for found_line, want_line in zip(found, want):
        assert len(found_line.split()) == len(want_line.split()), (found_line, want_line)
        for got, token in zip(found_line.split(), want_line.split()):
            if re.fullmatch(r"-?\d+\.\d+(e[-+]?\d+)?", token):
                assert float(got) == pytest.approx(float(token), rel=1e-12, abs=0), found_line
            else:
                assert got == token, (found_line, want_line)


def test_readme_round_trip_prints_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = {lang: re.findall(rf"```{lang}\n(.*?)```", text, re.S)
              for lang in ("sh", "text", "json", "python")}
    shell = "".join(blocks["sh"]).replace("\\\n", " ").splitlines()
    simulate, detect, fit = (shlex.split(line)[1:] for line in shell if line.startswith("utdd "))
    simulated = re.search(r"^# (simulated .*)$", text, re.M).group(1)
    detect_code = int(re.search(r"^echo \$\?\s+# (\d+)", text, re.M).group(1))
    want = json.loads(blocks["json"][0])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "fixture.json", tmp_path / "configs")

    assert main(simulate) == 0
    assert capsys.readouterr().out.splitlines()[0] == simulated
    assert main(detect) == detect_code == 1
    capsys.readouterr()
    found = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert set(found) == set(want)
    for key in ("version", "k_diffs", "threshold", "drifted"):
        assert found[key] == want[key], key
    for key in ("z_ref", "z_curr", "delta"):
        assert found[key] == pytest.approx(want[key], rel=1e-12, abs=0), key
    assert main(fit) == 0
    _same_lines(capsys.readouterr().out.splitlines(), blocks["text"][0].splitlines())

    library = blocks["python"][0]
    exec(compile(library, "README.md", "exec"), {})
    drifted, delta = capsys.readouterr().out.split()
    shown_drifted, shown_delta = re.search(r"# (\w+) ([\d.]+)$", library, re.M).groups()
    assert drifted == shown_drifted == str(want["drifted"])
    assert float(delta) == pytest.approx(want["delta"], rel=1e-12, abs=0)
    assert f"{float(delta):.{len(shown_delta) - 2}f}" == shown_delta


def test_adf_test_takes_the_series_only():
    # the lag order is Schwert's rule, reported in lags_used; ols(x, L) fits any other
    assert list(inspect.signature(utdd.adf_test).parameters) == ["series"]


def test_ols_returns_one_float_and_stays_unexported():
    # adf_test reads only the lagged level's t-ratio; no coefficients or standard errors are returned
    x = np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
    assert type(ols(x, 1)) is float
    assert "ols" not in utdd.stationarity.__all__


def bench_tracer():
    """``bench/tracer.py``, imported read only."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_bench_probe_resolves():
    """A refactor that moves a probed call must move its probe too, or traced runs break."""
    tracer = bench_tracer()
    for module_name, attribute, _, _ in tracer.CLI_PROBES + tracer.LIBRARY_PROBES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"


def test_every_probe_behind_the_cli_2y_spans_fires(tmp_path, monkeypatch):
    """The contract the traced bench run checks, here without the bench: simulate and
    detect on the fixture call every probe whose span the cli-2y workload expects."""
    tracer = bench_tracer()
    calls = Counter()

    def counting(original, span):
        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls[span] += 1
            return original(*args, **kwargs)

        return counted

    probes = dict.fromkeys(tracer.CLI_PROBES + tracer.CORE_PROBES)
    for module_name, attribute, span, _ in probes:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attribute, counting(getattr(module, attribute), span))
    monkeypatch.setenv("UTDD_SEED", "1")
    series, report = str(tmp_path / "fixture.csv"), str(tmp_path / "report.json")
    assert main(["simulate", "--config", str(ROOT / "configs" / "fixture.json"),
                 "--out", series]) == 0
    assert main(["detect", "--input", series,
                 "--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-10-01T00:00:00Z",
                 "--cur-from", "2020-09-01T00:00:00Z", "--cur-to", "2020-11-01T00:00:00Z",
                 "--report-out", report]) in (0, 1)
    # the child process opens these two spans itself; every other one has a probe
    expected = tracer.EXPECTED_SPANS["cli-2y"] - {"cli.import", "cli.main"}
    assert expected <= {span for _, _, span, _ in probes}
    assert {span for span in expected if not calls[span]} == set(), calls


@pytest.mark.parametrize("trace", ["0", "1"])
def test_traced_bench_smoke_run_is_correct(tmp_path, trace):
    """Every expected span fires and every oracle check passes, which a probe that
    merely resolves does not show: a call routed through a local binding skips its probe.
    Untraced, the run also measures setup, peak RSS and the untraced latencies."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0.1",
         "--trace", trace, "--out", str(tmp_path / "bench.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_jsondoc_imports_only_the_standard_library_and_errors():
    # so do verdict and the module level of cli: report, --help and usage errors need no numpy;
    # each may import errors and the modules checked before it
    allowed = ["errors"]
    for name in ("jsondoc", "verdict", "cli"):
        tree = ast.parse((ROOT / "src" / "utdd" / f"{name}.py").read_text())
        for node in tree.body if name == "cli" else ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    assert node.module in allowed, (name, ast.unparse(node))
                    continue
                names = [node.module]
            else:
                continue
            for module in names:
                assert module.split(".")[0] in sys.stdlib_module_names, (name, ast.unparse(node))
        allowed.append(name)


def test_no_module_imports_another_modules_underscore_name():
    # a name that two modules share is part of the defining module's public surface
    for path in sorted((ROOT / "src" / "utdd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("utdd")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, ast.unparse(node))


def test_package_namespace_is_exactly_all():
    namespace = {}
    exec("from utdd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(utdd.__all__)
    # a fresh process has resolved no export yet, so dir() must list them itself
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", "import json, utdd; print(json.dumps(dir(utdd)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert set(utdd.__all__) <= set(json.loads(done.stdout))
    for module_name, removed in REMOVED.items():
        module = importlib.import_module(module_name)
        for name in removed:
            with pytest.raises(AttributeError):
                getattr(module, name)


def _max_diff(args, value):
    return argparse.Namespace(**{**vars(args), "max_diff": value})


# Every place the package takes a count: (parameter name, smallest valid int, call on the value).
COUNT_SITES = {
    "cli-fit-max-diff": ("max_diff", 0, lambda v, a: utdd.cli.cmd_fit(_max_diff(a, v))),
    "cli-detect-max-diff": ("max_diff", 0, lambda v, a: utdd.cli.cmd_detect(_max_diff(a, v))),
    "ndiffs-max-diff": ("max_diff", 0, lambda v, a: utdd.ndiffs(a.series, max_diff=v)),
    "run-utdd-max-diff": ("max_diff", 0, lambda v, a: utdd.run_utdd(
        a.series.window(*a.ref), a.series.window(*a.cur), a.feats, max_diff=v)),
    "diff-order": ("difference order", 0, lambda v, a: utdd.diff(a.series, v)),
    "boosted-fit-k-diffs": ("k_diffs", 0, lambda v, a: utdd.boosted_fit(
        a.series, a.feats, k_diffs=v)),
    "boosted-model-k-diffs": ("k_diffs", 0, lambda v, a: utdd.BoostedModel((), 0.0, v)),
    "drift-report-k-diffs": ("k_diffs", 0, lambda v, a: utdd.DriftReport(
        v, 0.5, 0.75, 0.25, 0.1, True)),
    "sim-config-n": ("n", 1, lambda v, a: utdd.SimConfig(a.series.start, 3600.0, v)),
    "sim-config-seed": ("seed", 0, lambda v, a: utdd.SimConfig(
        a.series.start, 3600.0, 24, seed=v)),
    "seasonal-s": ("seasonal length s", 2, lambda v, a: utdd.SeasonalComponentConfig(v)),
}


@pytest.fixture(scope="module")
def count_args(tmp_path_factory):
    """``fit`` and ``detect`` arguments on the fixture CSV, with the series and windows they name."""
    out = tmp_path_factory.mktemp("counts")
    config = str(ROOT / "configs" / "fixture.json")
    assert main(["simulate", "--config", config, "--out", str(out / "fixture.csv")]) == 0
    ref = ("2020-08-01T00:00:00Z", "2020-10-01T00:00:00Z")
    cur = ("2020-09-01T00:00:00Z", "2020-11-01T00:00:00Z")
    return argparse.Namespace(
        input=str(out / "fixture.csv"), features="day_of_week,hour_of_day", holidays=None,
        epsilon=DEFAULT_EPSILON, max_diff=DEFAULT_MAX_DIFF, threshold=0.1, reuse_model=False,
        window_from=ref[0], window_to=ref[1], model_out=str(out / "model.json"),
        ref_from=ref[0], ref_to=ref[1], cur_from=cur[0], cur_to=cur[1],
        report_out=str(out / "report.json"),
        series=utdd.read_series_csv(out / "fixture.csv"),
        ref=tuple(map(parse_utc, ref)), cur=tuple(map(parse_utc, cur)),
        feats=(utdd.FeatureSpec("day_of_week"), utdd.FeatureSpec("hour_of_day")),
    )


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_is_an_int_of_at_least_its_minimum(site, count_args):
    # one rule, verdict.check_count: a float is not truncated, and a bool, a string,
    # None and a numpy integer are no count, as none of them is a JSON integer
    name, minimum, call = COUNT_SITES[site]
    for value in (1.5, 0.9, True, "2", None, np.int64(1)):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(utdd.InvalidArgumentError, match=f"^{re.escape(message)}$"):
            call(value, count_args)
    bound = f"at least {minimum}" if minimum else "non-negative"
    with pytest.raises(utdd.InvalidArgumentError, match=f"^{re.escape(name)} must be {bound}$"):
        call(minimum - 1, count_args)
    call(minimum, count_args)
