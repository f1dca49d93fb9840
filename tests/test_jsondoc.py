"""The config, model and report readers refuse the same faults in the same way."""

import copy
import functools
import json
import operator
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from utdd import (
    FeatureSpec, InvalidArgumentError, TimeSeries, boosted_fit, load_model, load_report,
    load_sim_config, save_model,
)
from utdd.cli import main
from utdd.jsondoc import json_scalar

NAN, INF = float("nan"), float("inf")
DELETE = object()

CONFIG = {
    "start": "2020-08-01T00:00:00Z",
    "step_seconds": 3600,
    "n": 48,
    "trend": {"level": 1.0, "slope": 0.0},
    "components": [{"s": 24}, {"s": 4, "sigma_omega": 0.01}],
    "holidays": ["2020-08-10"],
    "drift": {"at": "2020-08-02T00:00:00Z", "noise_scale": 2.0},
}
REPORT = {"version": 2, "k_diffs": 1, "z_ref": 0.5, "z_curr": 0.75, "delta": 0.25,
          "threshold": 0.1, "drifted": True}


def _model():
    t = np.arange(24 * 28)
    values = np.random.default_rng(3).normal(size=t.size) + np.sin(2 * np.pi * t / 24)
    series = TimeSeries(datetime(2020, 8, 3, tzinfo=timezone.utc), 3600.0, values + t // 24 % 7)
    features = (FeatureSpec("day_of_week"), FeatureSpec("hour_of_day"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(boosted_fit(series, features, k_diffs=0), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(doc["stages"]) == 2
    return doc


# loader, a valid document, and the subcommand that reads the file (no command reads a model)
DOCS = {
    "config": (load_sim_config, CONFIG, "simulate"),
    "model": (load_model, _model(), None),
    "report": (load_report, REPORT, "report"),
}

# (document, path of keys and indices, value put there or DELETE, path in the message)
FAULTS = [
    ("config", (), [CONFIG], "document"),
    ("config", (), 5, "document"),
    ("config", ("components", 0, "sigma"), 1, "components[0].sigma"),
    ("config", ("drift", "when"), "x", "drift.when"),
    ("config", ("drift", "at"), DELETE, "drift.at"),
    ("config", ("n",), DELETE, "n"),
    ("config", ("components", 1, "sigma_omega"), "x", "components[1].sigma_omega"),
    ("config", ("trend", "slope"), NAN, "trend.slope"),
    ("config", ("sigma_eps",), INF, "sigma_eps"),
    ("config", ("components", 1, "sigma_omega"), -INF, "components[1].sigma_omega"),
    ("config", ("trend",), [1.0, 0.0], "trend"),
    ("config", ("components",), {"s": 24}, "components"),
    ("config", ("components", 0), [24], "components[0]"),
    ("config", ("holidays", 0), 20200810, "holidays[0]"),
    ("model", (), [], "document"),
    ("model", ("extra",), 1, "extra"),
    ("model", ("stages", 0, "feature", "extra"), 1, "stages[0].feature.extra"),
    ("model", ("stages", 0, "feature", "kind"), DELETE, "stages[0].feature.kind"),
    ("model", ("stages", 1, "lookup", 3), "x", "stages[1].lookup[3]"),
    ("model", ("stages", 1, "lookup", 3), NAN, "stages[1].lookup[3]"),
    ("model", ("epsilon",), INF, "epsilon"),
    ("model", ("stages", 1, "sse_reduction"), INF, "stages[1].sse_reduction"),
    ("model", ("stages", 0, "sse_reduction"), -INF, "stages[0].sse_reduction"),
    ("model", ("stages", 1, "feature"), [1, 2], "stages[1].feature"),
    ("model", ("stages",), {"0": 1}, "stages"),
    ("model", ("stages", 0, "lookup"), {"0": 1.0}, "stages[0].lookup"),
    ("report", (), [REPORT], "document"),
    ("report", ("extra",), 1, "extra"),
    ("report", ("z_ref",), DELETE, "z_ref"),
    ("report", ("drifted",), "no", "drifted"),
    ("report", ("z_ref",), NAN, "z_ref"),
    ("report", ("threshold",), INF, "threshold"),
    ("report", ("delta",), -INF, "delta"),
    # the seed draws every initial state, so no key sets one
    ("config", ("components", 1, "init_gamma"), [1.0, 2.0], "components[1].init_gamma"),
    ("config", ("components", 0, "init_gamma_star"), [0.0] * 12, "components[0].init_gamma_star"),
]


def changed(doc, path, value):
    """A deep copy of ``doc`` with ``value`` put at ``path`` (or the key there deleted)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = functools.reduce(operator.getitem, parents, doc)
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


def loaded(tmp_path, name, doc):
    """``doc`` written to a file under ``tmp_path`` and read by the loader of ``name``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    return DOCS[name][0](path)


def test_the_unchanged_documents_are_read(tmp_path):
    for name, (_, doc, _) in DOCS.items():
        loaded(tmp_path, name, doc)


@pytest.mark.parametrize("name, path, value, where", FAULTS)
def test_each_reader_names_the_faulty_path(tmp_path, name, path, value, where):
    with pytest.raises(InvalidArgumentError) as err:
        loaded(tmp_path, name, changed(DOCS[name][1], path, value))
    assert str(err.value).startswith(f"{where}: "), str(err.value)


@pytest.mark.parametrize("name, path, value, where", [f for f in FAULTS if DOCS[f[0]][2]])
def test_cli_exits_2_with_the_path_on_one_error_line(tmp_path, capsys, name, path, value, where):
    _, doc, command = DOCS[name]
    src = tmp_path / "doc.json"
    src.write_text(json.dumps(changed(doc, path, value)))  # NaN and Infinity as Python writes them
    out = tmp_path / "x.csv"
    argv = ["simulate", "--config", str(src), "--out", str(out)] if command == "simulate" else [
        "report", "--report", str(src)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_library_loaders_refuse_text_that_is_not_json(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{\n  "version": 2,\n  oops\n}\n')
    for load in (load_sim_config, load_model, load_report):
        with pytest.raises(InvalidArgumentError) as err:
            load(path)
        assert str(err.value) == "line 3: Expecting property name enclosed in double quotes"


def test_json_scalar_types_compare_exactly_and_floats_are_finite():
    assert json_scalar(3, "float") == 3.0 and type(json_scalar(3, "float")) is float
    assert json_scalar(3, "int") == 3
    assert json_scalar(False, "bool") is False
    assert json_scalar("x", "string") == "x"
    for value, kind in ((True, "int"), (1.0, "int"), (1, "bool"), ("1", "float"), (None, "float"),
                        (NAN, "float"), (INF, "float"), (-INF, "float"), (10**400, "float"),
                        (1, "string")):
        with pytest.raises(TypeError):
            json_scalar(value, kind)
