"""The public surface: every exported name resolves and removed names stay gone."""

import importlib
import pkgutil
from dataclasses import fields

import utdd

# Names that duplicated other code and were removed; each has a replacement.
REMOVED = {
    "utdd": ("utdd", "training_residual"),  # run_utdd(...).report; WindowFit.residual
    "utdd.drift": ("utdd",),
    "utdd.embeddings": ("training_residual", "_stage_spec"),
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
    assert [f.name for f in fields(utdd.EmbeddingModel)] == [
        "feature", "lookup", "global_mean", "sse_reduction"
    ]
    assert not hasattr(utdd.EmbeddingModel, "table")
    assert not hasattr(utdd.BoostedModel, "degenerate")
    assert "degenerate" not in utdd.BoostedModel.__dataclass_fields__
