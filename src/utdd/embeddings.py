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
from dataclasses import dataclass
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

# Coarse-to-fine calendar structure.
DEFAULT_FEATURE_ORDER = ("day_of_week", "hour_of_day", "is_holiday", "month_of_year")

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class EmbeddingModel:
    """Scalar lookup table for one categorical feature.

    ``lookup`` holds one value per category of the feature: the training-target
    mean of each category seen in training, ``global_mean`` for the others.
    It is made read-only at construction.  ``sse_reduction`` is the training
    sum of squares explained relative to the global mean, always >= 0.
    """

    feature: FeatureSpec
    lookup: np.ndarray
    global_mean: float
    sse_reduction: float

    def __post_init__(self) -> None:
        lookup = np.array(self.lookup, dtype=np.float64)
        card = self.feature.cardinality
        if lookup.shape != (card,):
            raise InvalidArgumentError(f"{self.feature.kind} lookup needs {card} values")
        lookup.flags.writeable = False
        object.__setattr__(self, "lookup", lookup)


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
        feature=spec,
        lookup=lookup,
        global_mean=global_mean,
        sse_reduction=max(sse_baseline - sse_fitted, 0.0),
    )


def predict_embedding(model: EmbeddingModel, codes: Sequence[int]) -> np.ndarray:
    """Table lookup per code; categories unseen in training get the global mean."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 1:
        raise InvalidArgumentError("codes must be one-dimensional")
    card = model.feature.cardinality
    if codes.size and (codes.min() < 0 or codes.max() >= card):
        raise InvalidArgumentError(f"codes must lie in [0, {card})")
    return model.lookup[codes]


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

    A target with no variance after differencing yields a model with zero
    stages and ``ref_stats.std == 0.0``; :func:`compute_zscore` refuses to
    score its residual.
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
    """Sum of stage predictions over any time grid (the fitted seasonal component)."""
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
    doc: dict = {"kind": spec.kind}
    if spec.holiday_dates is not None:
        doc["holiday_dates"] = [d.isoformat() for d in sorted(spec.holiday_dates)]
    return doc


def _feature_from_dict(doc: Mapping) -> FeatureSpec:
    if "holiday_dates" not in doc:
        return FeatureSpec(doc["kind"])
    return FeatureSpec(doc["kind"], frozenset(map(date.fromisoformat, doc["holiday_dates"])))


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
                "lookup": stage.lookup.tolist(),
                "global_mean": stage.global_mean,
                "sse_reduction": stage.sse_reduction,
            }
            for stage in model.stages
        ],
    }


def model_from_dict(doc) -> BoostedModel:
    """Rebuild a model from :func:`model_to_dict` output, refusing anything else."""
    if not isinstance(doc, dict):
        raise InvalidArgumentError("model must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise InvalidArgumentError(
            f"unsupported model format version {version!r}; "
            f"run utdd fit again to write a version {MODEL_FORMAT_VERSION} model"
        )
    try:
        stats = doc["ref_stats"]
        stages = tuple(
            EmbeddingModel(
                feature=_feature_from_dict(stage["feature"]),
                lookup=stage["lookup"],
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
    except KeyError as exc:
        raise InvalidArgumentError(f"model is missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed model: {exc}") from None


def save_model(model: BoostedModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> BoostedModel:
    with open(path, "r") as fh:
        return model_from_dict(json.load(fh))
