"""Categorical embedding models and the boosted stagewise fitting loop.

An embedding model here is a per-category scalar lookup table fitted by group
means, which is the exact least-squares solution for one categorical feature
predicting a scalar target.  Boosting fits a sequence of such models, each on
the residual left by the previous stages, and stops as soon as a candidate
stage's root-mean-square contribution drops below the termination tolerance
(the triggering stage is discarded, not appended).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import date
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .series import (
    FeatureSpec,
    ResidualStats,
    TimeSeries,
    diff,
    extract_feature,
    is_flat,
    residual_stats,
    write_json,
)

__all__ = [
    "EmbeddingModel",
    "BoostedModel",
    "fit_embedding",
    "predict_embedding",
    "boosted_fit",
    "boosted_predict",
    "DEFAULT_FEATURE_ORDER",
    "MODEL_FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# Coarse-to-fine calendar structure; exogenous features follow in user order.
DEFAULT_FEATURE_ORDER = ("day_of_week", "hour_of_day", "is_holiday", "month_of_year")

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EmbeddingModel:
    """Scalar lookup table for one categorical feature.

    ``table`` maps each category seen in training to the training-target mean
    of that category; unseen categories fall back to ``global_mean``.
    ``sse_reduction`` is the training sum of squares explained relative to the
    global mean, always >= 0.
    """

    feature: FeatureSpec
    table: Mapping[int, float]
    global_mean: float
    sse_reduction: float


@dataclass(frozen=True)
class BoostedModel:
    """An ordered sequence of fitted embedding stages plus training metadata.

    ``k_diffs`` is the differencing order applied before fitting, ``epsilon``
    the resolved absolute termination tolerance, and ``ref_stats`` the mean /
    population std of the final training residual (its ``n`` equals the
    differenced training length).
    """

    stages: tuple[EmbeddingModel, ...]
    epsilon: float
    k_diffs: int
    ref_stats: ResidualStats

    @property
    def degenerate(self) -> bool:
        """True when the training residual had no variance; unusable for drift scoring."""
        return self.ref_stats.std == 0.0


def fit_embedding(
    codes: Sequence[int],
    target: Sequence[float],
    spec: FeatureSpec,
) -> EmbeddingModel:
    """Fit the per-category means of ``target`` grouped by ``codes``.

    Group means are the closed-form least-squares optimum, so predicting on
    the training codes returns each category's training mean exactly.
    """
    codes = np.asarray(codes, dtype=np.int64)
    target = np.asarray(target, dtype=np.float64)
    if codes.ndim != 1 or target.ndim != 1 or codes.size != target.size:
        raise InvalidArgumentError("codes and target must be 1-d sequences of equal length")
    if codes.size < 2:
        raise InvalidArgumentError("need at least two observations to fit an embedding")
    if codes.min() < 0 or codes.max() >= spec.cardinality:
        raise InvalidArgumentError(f"codes must lie in [0, {spec.cardinality})")

    counts = np.bincount(codes, minlength=spec.cardinality)
    sums = np.bincount(codes, weights=target, minlength=spec.cardinality)
    seen = np.nonzero(counts)[0]
    means = sums[seen] / counts[seen]
    table = {int(c): float(m) for c, m in zip(seen, means)}

    global_mean = float(target.mean())
    lookup = np.zeros(spec.cardinality)
    lookup[seen] = means
    prediction = lookup[codes]
    sse_baseline = float(((target - global_mean) ** 2).sum())
    sse_fitted = float(((target - prediction) ** 2).sum())
    return EmbeddingModel(
        feature=spec,
        table=table,
        global_mean=global_mean,
        sse_reduction=max(sse_baseline - sse_fitted, 0.0),
    )


def predict_embedding(model: EmbeddingModel, codes: Sequence[int]) -> np.ndarray:
    """Table lookup per code; categories unseen in training get the global mean."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise InvalidArgumentError("codes must be one-dimensional")
    if codes.size == 0:
        return np.zeros(0, dtype=np.float64)
    card = model.feature.cardinality
    if codes.min() < 0 or codes.max() >= card:
        raise InvalidArgumentError(f"codes must lie in [0, {card})")
    lookup = np.full(card, model.global_mean, dtype=np.float64)
    for code, value in model.table.items():
        lookup[code] = value
    return lookup[codes]


def _stage_spec(spec: FeatureSpec, raw_length: int, k_diffs: int) -> FeatureSpec:
    """Align an exogenous spec to the differenced grid when codes cover the raw series."""
    if (
        spec.kind == "exogenous"
        and spec.exogenous_codes is not None
        and len(spec.exogenous_codes) == raw_length
        and k_diffs > 0
    ):
        return replace(spec, exogenous_codes=spec.exogenous_codes[k_diffs:])
    return spec


def boosted_fit(
    series: TimeSeries,
    features: Sequence[FeatureSpec],
    epsilon: Optional[float] = None,
    k_diffs: int = 0,
) -> BoostedModel:
    """Fit embedding stages to ``diff(series, k_diffs)`` in the given feature order.

    Each stage fits the residual left by its predecessors; a stage whose RMS
    contribution falls below ``epsilon`` stops the loop and is discarded.
    ``epsilon`` defaults to ``1e-3`` times the population std of the
    differenced target (an absolute value may be passed instead).

    A target with no variance after differencing yields a degenerate model
    with zero stages; scoring drift against it is an error downstream.
    """
    features = list(features)
    if not features:
        raise InvalidArgumentError("need at least one candidate feature")
    if epsilon is not None and not epsilon > 0:
        raise InvalidArgumentError("epsilon must be positive")
    k_diffs = int(k_diffs)
    if k_diffs < 0:
        raise InvalidArgumentError("k_diffs must be non-negative")
    max_card = max(spec.cardinality for spec in features)
    if len(series) - k_diffs < 2 * max_card:
        raise InvalidArgumentError(
            f"series leaves {len(series) - k_diffs} points after differencing; "
            f"need at least {2 * max_card} (twice the largest cardinality)"
        )

    work = diff(series, k_diffs)
    residual = work.values.copy()
    if is_flat(residual):
        return BoostedModel(
            stages=(),
            epsilon=float(epsilon) if epsilon is not None else 0.0,
            k_diffs=k_diffs,
            ref_stats=ResidualStats(mean=float(residual.mean()), std=0.0, n=residual.size),
        )
    eps = float(epsilon) if epsilon is not None else 1e-3 * float(residual.std())

    stages: list[EmbeddingModel] = []
    for spec in features:
        spec = _stage_spec(spec, len(series), k_diffs)
        codes = extract_feature(work, spec)
        stage = fit_embedding(codes, residual, spec)
        contribution = predict_embedding(stage, codes)
        if float(np.sqrt(np.mean(contribution**2))) < eps:
            break
        stages.append(stage)
        residual = residual - contribution
    return BoostedModel(
        stages=tuple(stages),
        epsilon=eps,
        k_diffs=k_diffs,
        ref_stats=residual_stats(residual),
    )


def boosted_predict(model: BoostedModel, series_grid: TimeSeries) -> np.ndarray:
    """Sum of stage predictions over a time grid (the fitted seasonal component).

    The grid must allow every stage's codes to be derived: calendar features
    work on any grid, exogenous stages require their stored codes to cover the
    grid exactly.
    """
    out = np.zeros(len(series_grid), dtype=np.float64)
    for stage in model.stages:
        codes = extract_feature(series_grid, stage.feature)
        out += predict_embedding(stage, codes)
    return out


# ---------------------------------------------------------------------------
# JSON serialization.  Floats round-trip exactly (json uses repr), so a saved
# and reloaded model reproduces predictions bit for bit.
# ---------------------------------------------------------------------------


def _feature_to_dict(spec: FeatureSpec) -> dict:
    doc: dict = {"kind": spec.kind, "cardinality": spec.cardinality}
    if spec.holiday_dates is not None:
        doc["holiday_dates"] = [d.isoformat() for d in sorted(spec.holiday_dates)]
    if spec.exogenous_codes is not None:
        doc["exogenous_codes"] = list(spec.exogenous_codes)
    return doc


def _feature_from_dict(doc: Mapping) -> FeatureSpec:
    holidays = doc.get("holiday_dates")
    codes = doc.get("exogenous_codes")
    return FeatureSpec(
        kind=doc["kind"],
        cardinality=int(doc["cardinality"]),
        holiday_dates=(
            frozenset(date.fromisoformat(d) for d in holidays) if holidays is not None else None
        ),
        exogenous_codes=tuple(codes) if codes is not None else None,
    )


def model_to_dict(model: BoostedModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "k_diffs": model.k_diffs,
        "epsilon": model.epsilon,
        "ref_stats": {
            "mean": model.ref_stats.mean,
            "std": model.ref_stats.std,
            "n": model.ref_stats.n,
        },
        "stages": [
            {
                "feature": _feature_to_dict(stage.feature),
                "table": {str(code): value for code, value in sorted(stage.table.items())},
                "global_mean": stage.global_mean,
                "sse_reduction": stage.sse_reduction,
            }
            for stage in model.stages
        ],
    }


def model_from_dict(doc: Mapping) -> BoostedModel:
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise InvalidArgumentError(f"unsupported model format version {version!r}")
    stats = doc["ref_stats"]
    stages = tuple(
        EmbeddingModel(
            feature=_feature_from_dict(stage["feature"]),
            table={int(code): float(value) for code, value in stage["table"].items()},
            global_mean=float(stage["global_mean"]),
            sse_reduction=float(stage["sse_reduction"]),
        )
        for stage in doc["stages"]
    )
    return BoostedModel(
        stages=stages,
        epsilon=float(doc["epsilon"]),
        k_diffs=int(doc["k_diffs"]),
        ref_stats=ResidualStats(
            mean=float(stats["mean"]), std=float(stats["std"]), n=int(stats["n"])
        ),
    )


def save_model(model: BoostedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> BoostedModel:
    with open(path, "r") as fh:
        return model_from_dict(json.load(fh))
