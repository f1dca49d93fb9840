"""The public surface: every exported name resolves and removed names stay gone."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import utdd
from utdd.stationarity import ols

ROOT = Path(__file__).resolve().parent.parent

# Names that duplicated other code and were removed; each has a replacement.
REMOVED = {
    "utdd": ("utdd", "training_residual",  # run_utdd(...).report; WindowFit.residual
             "ResidualStats", "residual_stats",  # compute_zscore reads the residual itself
             "ols", "OlsFit",  # utdd.stationarity.ols returns the t-ratio adf_test reads
             "schwert_lags",  # adf_test(...).lags_used
             "predict_embedding"),  # EmbeddingModel.lookup[codes]
    "utdd.drift": ("utdd", "report_to_dict"),  # save_report
    "utdd.embeddings": ("training_residual", "_stage_spec", "predict_embedding"),
    "utdd.stationarity": ("OlsFit", "schwert_lags"),
    "utdd.series": ("_first_failure", "json_scalar", "write_json",  # utdd.jsondoc
                    "ResidualStats", "residual_stats"),
    "utdd.simulate": ("sim_config_to_dict", "_drift_cut_us"),
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
    assert not hasattr(utdd.EmbeddingModel, "table")
    assert not hasattr(utdd.BoostedModel, "degenerate")
    assert "degenerate" not in utdd.BoostedModel.__dataclass_fields__


def test_readme_lists_exactly_the_exported_names():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("The package exports exactly these pieces:"):]
    section = section[: section.index("\n\n", section.index("\n- "))]
    assert set(re.findall(r"`(\w+)`", section)) == set(utdd.__all__)


def test_ols_returns_one_float_and_stays_unexported():
    # adf_test reads only the lagged level's t-ratio; no coefficients or standard errors are returned
    x = np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3])
    assert type(ols(x, 1)) is float
    assert "ols" not in utdd.stationarity.__all__


def test_every_bench_probe_resolves():
    """A refactor that moves a probed call must move its probe too, or traced runs break."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attribute, _, _ in tracer.CLI_PROBES + tracer.LIBRARY_PROBES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"


def test_traced_bench_smoke_run_is_correct(tmp_path):
    """Every expected span fires and every oracle check passes, which a probe that
    merely resolves does not show: a call routed through a local binding skips its probe."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--seconds", "0.1",
         "--trace", "1", "--out", str(tmp_path / "bench.json")],
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
