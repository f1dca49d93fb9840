"""Tests for categorical embedding stages and the boosted seasonal fit."""

import copy
import json
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from utdd import (
    FeatureSpec,
    InvalidArgumentError,
    TimeSeries,
    boosted_fit,
    boosted_predict,
    diff,
    extract_feature,
    fit_embedding,
    load_model,
    save_model,
)
from utdd.embeddings import MODEL_FORMAT_VERSION, model_from_dict, model_to_dict

UTC = timezone.utc
MONDAY = datetime(2020, 8, 3, tzinfo=UTC)

DOW = FeatureSpec("day_of_week")
HOD = FeatureSpec("hour_of_day")


def hourly(values, start=MONDAY):
    return TimeSeries(start, 3600.0, np.asarray(values, dtype=float))


def weeks(n_weeks, seed=0, sigma=0.5, dow_scale=2.0, hod_scale=3.0):
    """Balanced panel of whole weeks with additive day and hour effects."""
    rng = np.random.default_rng(seed)
    n = 168 * n_weeks
    t = np.arange(n)
    dow_eff = rng.normal(0, dow_scale, 7)[(t // 24) % 7]
    hod_eff = hod_scale * np.sin(2 * np.pi * (t % 24) / 24)
    y = 5.0 + dow_eff + hod_eff + rng.normal(0, sigma, n)
    return hourly(y)


# ---------------------------------------------------------------------------
# a single embedding stage
# ---------------------------------------------------------------------------

def test_fit_embedding_group_means_by_hand():
    spec = FeatureSpec("is_weekend")
    m = fit_embedding([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0], spec)
    assert m.lookup.tolist() == [1.5, 3.5]
    # baseline SSE 5.0, fitted SSE 1.0
    assert_allclose(m.sse_reduction, 4.0)


def test_fit_embedding_unseen_category_falls_back_to_global_mean():
    spec = FeatureSpec("day_of_week")
    m = fit_embedding([0, 0, 1], [2.0, 4.0, 9.0], spec)
    assert m.lookup.tolist() == [3.0, 9.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    assert_array_equal(m.lookup[[0, 1, 2]], [3.0, 9.0, 5.0])
    with pytest.raises(ValueError):
        m.lookup[2] = 0.0  # read-only


def test_fit_embedding_validation():
    spec = FeatureSpec("is_weekend")
    with pytest.raises(InvalidArgumentError):
        fit_embedding([0, 1], [1.0], spec)
    with pytest.raises(InvalidArgumentError):
        fit_embedding([0], [1.0], spec)
    with pytest.raises(InvalidArgumentError):
        fit_embedding([0, 2], [1.0, 2.0], spec)
    with pytest.raises(InvalidArgumentError):
        fit_embedding([0, -1], [1.0, 2.0], spec)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_fit_embedding_residual_means_vanish(seed):
    # group means are the least-squares optimum: residual group means are zero
    rng = np.random.default_rng(seed)
    n = 200
    codes = rng.integers(0, 7, n)
    target = rng.normal(0, 3, n)
    spec = FeatureSpec("day_of_week")
    m = fit_embedding(codes, target, spec)
    resid = target - m.lookup[codes]
    for c in np.unique(codes):
        assert abs(resid[codes == c].mean()) < 1e-12


# ---------------------------------------------------------------------------
# boosted fitting
# ---------------------------------------------------------------------------

def test_boosted_fit_recovers_additive_effects():
    s = weeks(10, seed=1, sigma=0.5)
    model = boosted_fit(s, (DOW, HOD), k_diffs=0)
    assert [st_.feature.kind for st_ in model.stages] == ["day_of_week", "hour_of_day"]
    resid = s.values - boosted_predict(model, s)
    assert resid.std() <= 1.1 * 0.5
    assert abs(resid.mean()) < 1e-12


def test_boosted_fit_stops_at_first_weak_stage():
    # the first stage below epsilon terminates fitting: later features are
    # never attempted, even if they would have helped
    s = weeks(6, seed=2, sigma=0.2)
    empty_holiday = FeatureSpec("is_holiday", holiday_dates=frozenset())
    model = boosted_fit(s, (DOW, empty_holiday, HOD), k_diffs=0)
    assert [st_.feature.kind for st_ in model.stages] == ["day_of_week"]
    # the same data without the blocking feature fits both calendar stages
    full = boosted_fit(s, (DOW, HOD), k_diffs=0)
    assert len(full.stages) == 2
    assert (s.values - boosted_predict(full, s)).std() < (s.values - boosted_predict(model, s)).std()


def test_boosted_fit_huge_epsilon_gives_empty_model():
    s = weeks(4, seed=3)
    model = boosted_fit(s, (DOW, HOD), epsilon=1e9, k_diffs=0)
    assert model.stages == ()
    grid = hourly(np.zeros(24))
    assert_array_equal(boosted_predict(model, grid), np.zeros(24))


def test_boosted_fit_default_epsilon_is_relative():
    s = weeks(4, seed=4)
    model = boosted_fit(s, (DOW, HOD), k_diffs=0)
    assert_allclose(model.epsilon, 1e-3 * s.values.std())
    d = diff(s, 1)
    model1 = boosted_fit(s, (DOW, HOD), k_diffs=1)
    assert_allclose(model1.epsilon, 1e-3 * d.values.std())


def test_boosted_fit_with_differencing_replays_consistently():
    s = weeks(6, seed=5)
    model = boosted_fit(s, (DOW, HOD), k_diffs=1)
    assert model.k_diffs == 1
    d = diff(s, 1)
    resid = d.values - boosted_predict(model, d)
    assert resid.shape == (len(s) - 1,)
    assert abs(resid.mean()) < 1e-12


def test_boosted_predict_on_heldout_grid():
    s = weeks(8, seed=6, sigma=0.3)
    model = boosted_fit(s, (DOW, HOD), k_diffs=0)
    # predictions depend only on the calendar, so a later balanced week
    # scores the same seasonal profile
    later = hourly(np.zeros(168), start=MONDAY + timedelta(days=35))
    pred = boosted_predict(model, later)
    first_week = boosted_predict(model, hourly(np.zeros(168)))
    assert_allclose(pred, first_week, atol=1e-12)


def test_boosted_fit_degenerate_constant_series():
    s = hourly(np.full(400, 2.5))
    model = boosted_fit(s, (DOW, HOD), k_diffs=0)
    assert model.stages == ()
    assert model.epsilon == 0.0


def test_boosted_fit_refuses_a_negative_differencing_order():
    # diff refuses it; boosted_fit keeps no check of its own
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        boosted_fit(weeks(4, seed=7), (DOW, HOD), k_diffs=-1)


def test_boosted_fit_validation():
    s = weeks(4, seed=7)
    with pytest.raises(InvalidArgumentError):
        boosted_fit(s, (), k_diffs=0)
    with pytest.raises(InvalidArgumentError):
        boosted_fit(s, (DOW, HOD), epsilon=0.0, k_diffs=0)
    with pytest.raises(InvalidArgumentError):
        boosted_fit(s, (DOW, HOD), epsilon=-1.0, k_diffs=0)
    # 40 points cannot support an hour-of-day table (needs 2 * 24)
    with pytest.raises(InvalidArgumentError):
        boosted_fit(hourly(np.arange(40.0)), (HOD,), k_diffs=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_model_json_roundtrip_is_exact(tmp_path):
    s = weeks(6, seed=9)
    holidays = frozenset([date(2020, 8, 10), date(2020, 8, 24)])
    feats = (DOW, HOD, FeatureSpec("is_holiday", holiday_dates=holidays))
    model = boosted_fit(s, feats, k_diffs=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.epsilon == model.epsilon
    assert back.k_diffs == model.k_diffs
    assert len(back.stages) == len(model.stages)
    for a, b in zip(model.stages, back.stages):
        assert a.feature == b.feature
        assert_array_equal(a.lookup, b.lookup)
        assert a.sse_reduction == b.sse_reduction
    grid = hourly(np.zeros(500))
    assert_array_equal(boosted_predict(back, grid), boosted_predict(model, grid))


def test_model_version_is_checked():
    s = weeks(4, seed=10)
    doc = model_to_dict(boosted_fit(s, (DOW,), k_diffs=0))
    assert doc["version"] == MODEL_FORMAT_VERSION
    doc["version"] = MODEL_FORMAT_VERSION + 1
    with pytest.raises(InvalidArgumentError):
        model_from_dict(doc)


def test_model_v3_stores_dense_lookups_and_refuses_v1():
    s = weeks(4, seed=11)
    model = boosted_fit(s, (DOW,), k_diffs=0)
    doc = model_to_dict(model)
    assert doc["version"] == MODEL_FORMAT_VERSION == 3
    assert list(doc) == ["version", "k_diffs", "epsilon", "stages"]
    assert list(doc["stages"][0]) == ["feature", "lookup", "sse_reduction"]
    assert doc["stages"][0]["feature"] == {"kind": "day_of_week"}
    assert doc["stages"][0]["lookup"] == model.stages[0].lookup.tolist()
    back = model_from_dict(json.loads(json.dumps(doc)))
    codes = extract_feature(s, DOW)
    assert_array_equal(back.stages[0].lookup[codes], model.stages[0].lookup[codes])
    # a version 1 document: codes-to-means dict per stage, cardinality per feature
    stage = doc["stages"][0]
    v1 = {
        **doc,
        "version": 1,
        "stages": [
            {
                "feature": {"kind": "day_of_week", "cardinality": 7},
                "table": {str(c): v for c, v in enumerate(stage["lookup"])},
                "global_mean": 0.0,
                "sse_reduction": stage["sse_reduction"],
            }
        ],
    }
    with pytest.raises(InvalidArgumentError, match="version 1"):
        model_from_dict(v1)
    short = copy.deepcopy(doc)
    short["stages"][0]["lookup"] = stage["lookup"][:6]
    with pytest.raises(InvalidArgumentError, match="needs 7 values"):
        model_from_dict(short)


def test_model_v3_refuses_the_v2_summary_fields():
    doc = model_to_dict(boosted_fit(weeks(4, seed=11), (DOW,), k_diffs=0))
    v2_stats = {"mean": 0.0, "std": 1.0, "n": 672}
    with pytest.raises(InvalidArgumentError, match="^ref_stats: unknown key$"):
        model_from_dict({**doc, "ref_stats": v2_stats})
    stale = copy.deepcopy(doc)
    stale["stages"][0]["global_mean"] = 5.0
    with pytest.raises(InvalidArgumentError, match=r"^stages\[0\]\.global_mean: unknown key$"):
        model_from_dict(stale)
    # a whole version 2 document is refused by its version, before any key is read
    v2 = {**stale, "version": 2, "ref_stats": v2_stats}
    with pytest.raises(InvalidArgumentError, match="version 2 is not supported; run utdd fit"):
        model_from_dict(v2)


def _malformed_model_docs():
    doc = model_to_dict(boosted_fit(weeks(4, seed=12), (DOW, HOD), k_diffs=0))
    assert len(doc["stages"]) == 2
    changes = {
        "no-epsilon": lambda d: d.pop("epsilon"),
        "ref_stats-list": lambda d: d.update(ref_stats=[1, 2]),  # a key that v3 dropped
        "k_diffs-text": lambda d: d.update(k_diffs="one"),
        "epsilon-null": lambda d: d.update(epsilon=None),
        "stages-number": lambda d: d.update(stages=5),
        "stage-text": lambda d: d.update(stages=["stage"]),
        "no-lookup": lambda d: d["stages"][0].pop("lookup"),
        "lookup-object": lambda d: d["stages"][0].update(lookup={"0": 1.0}),
        "lookup-text": lambda d: d["stages"][0].update(lookup=["x"] * 7),
        "lookup-nested": lambda d: d["stages"][0].update(lookup=[[1.0] * 7]),
        "lookup-number": lambda d: d["stages"][0].update(lookup=3.0),
        "lookup-long": lambda d: d["stages"][1].update(lookup=[0.0] * 25),
        "feature-list": lambda d: d["stages"][0].update(feature=["day_of_week"]),
        "feature-empty": lambda d: d["stages"][0].update(feature={}),
        "feature-exogenous": lambda d: d["stages"][0].update(feature={"kind": "exogenous"}),
        "holidays-on-dow": lambda d: d["stages"][0]["feature"].update(
            holiday_dates=["2020-01-01"]
        ),
        "global_mean-text": lambda d: d["stages"][0].update(global_mean="mean"),  # dropped too
        "k_diffs-fraction": lambda d: d.update(k_diffs=1.9),
        "k_diffs-bool": lambda d: d.update(k_diffs=True),
        "epsilon-text": lambda d: d.update(epsilon="nan"),
        "epsilon-nan": lambda d: d.update(epsilon=float("nan")),
        "lookup-number-text": lambda d: d["stages"][0].update(lookup=["1.0"] * 7),
        "k_diffs-negative": lambda d: d.update(k_diffs=-3),
        "epsilon-negative": lambda d: d.update(epsilon=-5.0),
    }
    params = [pytest.param([], id="list"), pytest.param("model", id="text")]
    for name, change in changes.items():
        out = copy.deepcopy(doc)
        change(out)
        params.append(pytest.param(out, id=name))
    return params


@pytest.mark.parametrize("doc", _malformed_model_docs())
def test_model_from_dict_refuses_malformed_documents(doc):
    with pytest.raises(InvalidArgumentError):
        model_from_dict(doc)


def test_model_dataclasses_refuse_what_boosted_fit_never_writes():
    model = boosted_fit(weeks(4, seed=13), (DOW,), k_diffs=0)
    stage = model.stages[0]
    for change in (dict(k_diffs=-3), dict(epsilon=-5.0), dict(epsilon=float("inf"))):
        with pytest.raises(InvalidArgumentError):
            replace(model, **change)
    for change in (dict(lookup=np.full(7, np.inf)), dict(lookup=np.full(7, np.nan)),
                   dict(sse_reduction=-1.0), dict(sse_reduction=float("inf"))):
        with pytest.raises(InvalidArgumentError):
            replace(stage, **change)
