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
import math
from dataclasses import dataclass
from datetime import date
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError
from .jsondoc import json_array, json_object, json_version, write_json
from .series import FeatureSpec, TimeSeries, diff, extract_feature, is_flat

__all__ = [
    "EmbeddingModel",
    "BoostedModel",
    "fit_embedding",
    "boosted_fit",
    "boosted_predict",
    "DEFAULT_FEATURE_ORDER",
    "MODEL_FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
]

# Coarse-to-fine calendar structure.
DEFAULT_FEATURE_ORDER = ("day_of_week", "hour_of_day", "is_holiday", "month_of_year")

MODEL_FORMAT_VERSION = 3


@dataclass(frozen=True)
class EmbeddingModel:
    """Scalar lookup table for one categorical feature.

    ``feature`` names the calendar feature whose codes index the table.
    ``lookup`` holds one value per category of the feature: the training-target
    mean of each category seen in training, the mean of the whole training
    target for the others.  It is made read-only at construction.
    ``sse_reduction`` is the training sum of squares explained relative to
    that whole-target mean, always >= 0.
    """

    feature: FeatureSpec
    lookup: np.ndarray
    sse_reduction: float

    def __post_init__(self) -> None:
        lookup = np.array(self.lookup, dtype=np.float64)
        card = self.feature.cardinality
        if lookup.shape != (card,):
            raise InvalidArgumentError(f"{self.feature.kind} lookup needs {card} values")
        if not np.isfinite(lookup).all():
            raise InvalidArgumentError("lookup values must be finite")
        if not 0 <= self.sse_reduction < math.inf:
            raise InvalidArgumentError("sse_reduction must be finite and non-negative")
        lookup.flags.writeable = False
        object.__setattr__(self, "lookup", lookup)


@dataclass(frozen=True)
class BoostedModel:
    """An ordered sequence of fitted embedding stages plus training metadata.

    ``stages`` are applied in order and their predictions summed.  ``epsilon``
    is the resolved absolute termination tolerance and ``k_diffs`` the
    differencing order applied before fitting.
    """

    stages: tuple[EmbeddingModel, ...]
    epsilon: float
    k_diffs: int

    def __post_init__(self) -> None:
        if self.k_diffs < 0 or not 0 <= self.epsilon < math.inf:
            raise InvalidArgumentError("k_diffs and epsilon must be non-negative and finite")


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
    global_mean = float(target.mean())
    lookup = np.full(spec.cardinality, global_mean)
    lookup[seen] = sums[seen] / counts[seen]
    prediction = lookup[codes]
    sse_baseline = float(((target - global_mean) ** 2).sum())
    sse_fitted = float(((target - prediction) ** 2).sum())
    return EmbeddingModel(
        feature=spec, lookup=lookup, sse_reduction=max(sse_baseline - sse_fitted, 0.0)
    )


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

    A target with no variance after differencing (:func:`is_flat`) yields a
    model with zero stages; :func:`compute_zscore` refuses to score its
    residual.
    """
    features = list(features)
    if not features:
        raise InvalidArgumentError("need at least one candidate feature")
    if epsilon is not None and not epsilon > 0:
        raise InvalidArgumentError("epsilon must be positive")
    k_diffs = int(k_diffs)
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
            stages=(), epsilon=float(epsilon) if epsilon is not None else 0.0, k_diffs=k_diffs
        )
    eps = float(epsilon) if epsilon is not None else 1e-3 * float(residual.std())

    stages: list[EmbeddingModel] = []
    for spec in features:
        codes = extract_feature(work, spec)
        stage = fit_embedding(codes, residual, spec)
        contribution = stage.lookup[codes]
        if float(np.sqrt(np.mean(contribution**2))) < eps:
            break
        stages.append(stage)
        residual = residual - contribution
    return BoostedModel(stages=tuple(stages), epsilon=eps, k_diffs=k_diffs)


def boosted_predict(model: BoostedModel, series_grid: TimeSeries) -> np.ndarray:
    """Sum of stage predictions over any time grid (the fitted seasonal component)."""
    out = np.zeros(len(series_grid), dtype=np.float64)
    for stage in model.stages:
        # extract_feature's codes lie below the cardinality, the length of every lookup
        out += stage.lookup[extract_feature(series_grid, stage.feature)]
    return out


# ---------------------------------------------------------------------------
# JSON serialization.  Floats round-trip exactly (json uses repr), so a saved
# and reloaded model reproduces predictions bit for bit.
# ---------------------------------------------------------------------------


def _feature_to_dict(spec: FeatureSpec) -> dict:
    doc: dict = {"kind": spec.kind}
    if spec.holiday_dates is not None:
        doc["holiday_dates"] = [d.isoformat() for d in sorted(spec.holiday_dates)]
    return doc


def model_to_dict(model: BoostedModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "k_diffs": model.k_diffs,
        "epsilon": model.epsilon,
        "stages": [
            {
                "feature": _feature_to_dict(stage.feature),
                "lookup": stage.lookup.tolist(),
                "sse_reduction": stage.sse_reduction,
            }
            for stage in model.stages
        ],
    }


_FEATURE = {"kind": "string", "holiday_dates": json_array(date.fromisoformat)}
_STAGE = {
    "feature": lambda doc: FeatureSpec(**json_object(doc, _FEATURE, ("kind",))),
    "lookup": json_array("float"),
    "sse_reduction": "float",
}
_MODEL = {
    "k_diffs": "int",
    "epsilon": "float",
    "stages": json_array(lambda doc: EmbeddingModel(**json_object(doc, _STAGE, _STAGE))),
}


def model_from_dict(doc) -> BoostedModel:
    """Rebuild a model from :func:`model_to_dict` output, refusing anything else."""
    body = json_version(doc, MODEL_FORMAT_VERSION, "utdd fit")
    return BoostedModel(**json_object(body, _MODEL, _MODEL))


def save_model(model: BoostedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> BoostedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
