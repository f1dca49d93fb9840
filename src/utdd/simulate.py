"""Synthetic seasonal series: trend + trigonometric seasonal recursions + noise.

Each seasonal component of length ``s`` is a sum of ``p = floor(s/2)``
harmonic pairs advanced by the noisy rotation

    g[j, t+1]  =  g[j, t] cos(l_j) + h[j, t] sin(l_j) + w[j, t]
    h[j, t+1]  = -g[j, t] sin(l_j) + h[j, t] cos(l_j) + w*[j, t]

with ``l_j = 2*pi*j/s`` and ``w, w* ~ N(0, sigma_omega^2)``; the component's
value at step ``t`` is ``sum_j g[j, t]``.  For even ``s`` the top harmonic
``j = p`` has ``l_p = pi`` and is advanced by the same literal recursion (no
half-frequency special case).

The step loop advances every harmonic of every component as one stacked
``(sum p, 2)`` state of ``(g, h)`` rows, a few whole-array operations per
step.  It is still the literal recursion above, evaluated term by term in the
same order, so the output is bit for bit that of a per-harmonic scalar loop
(no closed form, whose rounding would differ).

Reproducibility contract: all randomness comes from one numpy PCG64 generator
(``numpy.random.default_rng(seed)``) producing standard normals via numpy's
ziggurat, consumed in a fixed slot order -- first any missing initial harmonic
states (per component: gamma then gamma-star), then per step: for each
component in declared order the interleaved pairs ``w_1, w*_1, ..., w_p,
w*_p``, then the observation noise draw.  Draws are made (and scaled) even
when their sigma is zero, so changing a sigma never shifts another slot's
draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, datetime
from functools import partial
from typing import Mapping, Optional

import numpy as np

from .errors import InvalidArgumentError
from .series import FeatureSpec, TimeSeries, extract_feature, json_scalar, parse_utc, utc_us

__all__ = [
    "SeasonalComponentConfig",
    "DriftInjection",
    "TrendConfig",
    "SimConfig",
    "simulate_series",
    "sim_config_from_dict",
    "load_sim_config",
]


@dataclass(frozen=True)
class SeasonalComponentConfig:
    """One seasonal component: length ``s`` in steps, harmonic noise, initial state.

    ``init_gamma`` / ``init_gamma_star`` must have length ``p = s // 2`` when
    given; missing ones are drawn N(0, 1) from the simulation generator.
    """

    s: int
    sigma_omega: float = 0.0
    init_gamma: Optional[tuple] = None
    init_gamma_star: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.s < 2:
            raise InvalidArgumentError("seasonal length s must be at least 2")
        if not self.sigma_omega >= 0:
            raise InvalidArgumentError("sigma_omega must be non-negative")
        for name in ("init_gamma", "init_gamma_star"):
            init = getattr(self, name)
            if init is None:
                continue
            init = tuple(float(v) for v in init)
            if len(init) != self.p:
                raise InvalidArgumentError(f"{name} must have length p = {self.p}")
            object.__setattr__(self, name, init)

    @property
    def p(self) -> int:
        return self.s // 2


@dataclass(frozen=True)
class TrendConfig:
    """Deterministic trend ``level + slope * t`` (t in steps)."""

    level: float = 0.0
    slope: float = 0.0


@dataclass(frozen=True)
class DriftInjection:
    """Structural change applied from ``at`` onward (timestamps >= at).

    ``level_shift`` adds to the mean, ``noise_scale`` multiplies the
    observation noise, ``seasonal_scale`` multiplies the (weekend-scaled)
    seasonal sum.  Scaling reuses the same seeded draws, so a drifted and a
    clean run of one seed differ only by these factors.
    """

    at: datetime
    level_shift: float = 0.0
    noise_scale: float = 1.0
    seasonal_scale: float = 1.0


@dataclass(frozen=True)
class SimConfig:
    """Full generator configuration; see the module docstring for the RNG contract."""

    start: datetime
    step: float
    n: int
    trend: TrendConfig = TrendConfig()
    components: tuple = ()
    sigma_eps: float = 0.0
    weekend_scale: float = 1.0
    holiday_offset: float = 0.0
    holidays: frozenset = frozenset()
    seed: int = 0
    drift: Optional[DriftInjection] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidArgumentError("n must be at least 1")
        if not self.sigma_eps >= 0:
            raise InvalidArgumentError("sigma_eps must be non-negative")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be non-negative")
        object.__setattr__(self, "components", tuple(self.components))
        holidays = frozenset(
            d.date() if isinstance(d, datetime) else d for d in self.holidays
        )
        object.__setattr__(self, "holidays", holidays)


def simulate_series(cfg: SimConfig) -> TimeSeries:
    """Generate the configured series: trend + scaled seasonal sum + calendar effects + noise.

    ``x_t = trend(t) + weekend_scale(t) * sum_i gamma_i(t) + holiday_offset(t)
    + eps_t`` with the optional drift injection applied from its cut-over
    timestamp onward.  Bit-identical for identical configs and seeds.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    comps = cfg.components

    gamma: list = []
    gamma_star: list = []
    for comp in comps:
        gamma.extend(
            comp.init_gamma if comp.init_gamma is not None else rng.standard_normal(comp.p)
        )
        gamma_star.extend(
            comp.init_gamma_star
            if comp.init_gamma_star is not None
            else rng.standard_normal(comp.p)
        )

    # one row per step: [comp 0: w1, w*1, ..., wp, w*p] ... [comp k] [eps]
    bounds = np.cumsum([0] + [comp.p for comp in comps])
    total_p = int(bounds[-1])
    noise = rng.standard_normal(n * (2 * total_p + 1)).reshape(n, 2 * total_p + 1)
    for comp, lo, hi in zip(comps, bounds, bounds[1:]):
        noise[:, 2 * lo : 2 * hi] *= comp.sigma_omega
    eps = noise[:, -1]
    eps *= cfg.sigma_eps

    state = np.column_stack([gamma, gamma_star]).astype(np.float64)
    gammas = _gamma_history(comps, state, noise[:, : 2 * total_p])
    seasonal = np.zeros(n, dtype=np.float64)
    for lo, hi in zip(bounds, bounds[1:]):
        seasonal += gammas[:, lo:hi].sum(axis=1)

    grid = TimeSeries(cfg.start, cfg.step, np.zeros(n))
    weekend = extract_feature(grid, FeatureSpec("is_weekend")).astype(np.float64)
    scale = np.where(weekend > 0, cfg.weekend_scale, 1.0)
    if cfg.holidays:
        holiday = extract_feature(
            grid, FeatureSpec("is_holiday", holiday_dates=cfg.holidays)
        ).astype(np.float64)
    else:
        holiday = np.zeros(n)

    t_idx = np.arange(n, dtype=np.float64)
    level_shift = np.zeros(n)
    seasonal_scale = np.ones(n)
    noise_scale = np.ones(n)
    if cfg.drift is not None:
        cut = np.searchsorted(grid.epoch_us(), utc_us(cfg.drift.at), side="left")
        level_shift[cut:] = cfg.drift.level_shift
        seasonal_scale[cut:] = cfg.drift.seasonal_scale
        noise_scale[cut:] = cfg.drift.noise_scale

    values = (
        cfg.trend.level
        + cfg.trend.slope * t_idx
        + seasonal_scale * scale * seasonal
        + cfg.holiday_offset * holiday
        + level_shift
        + noise_scale * eps
    )
    return TimeSeries(cfg.start, cfg.step, values)


def _gamma_history(comps, state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Advance every harmonic of every component at once; return gamma per step.

    ``state`` is a C-ordered ``(total_p, 2)`` array, advanced in place: one
    ``(gamma, gamma-star)`` row per harmonic, the components' harmonics one
    after another.  ``draws`` is ``(n, 2 * total_p)``, each step's scaled
    ``w_1, w*_1, ..., w_p, w*_p`` pairs in the same order.  Row ``t`` of the
    result is gamma before step ``t``'s update.
    """
    n, total_p = draws.shape[0], state.shape[0]
    lam = np.array([2.0 * np.pi * j / comp.s for comp in comps for j in range(1, comp.p + 1)])
    cos = np.stack([np.cos(lam), np.cos(lam)], axis=1)
    sin = np.stack([np.sin(lam), -np.sin(lam)], axis=1)
    swapped = state[:, ::-1]
    rotated = np.empty_like(state)
    history = np.empty((n, total_p))
    # (g, h) <- (g cos + h sin, h cos - g sin) + (w, w*), one ufunc per term
    for gamma, w in zip(history, draws.reshape(n, total_p, 2)):
        gamma[:] = state[:, 0]
        np.multiply(swapped, sin, rotated)
        np.multiply(state, cos, state)
        np.add(state, rotated, state)
        np.add(state, w, state)
    return history


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "start",
    "step_seconds",
    "n",
    "trend",
    "components",
    "sigma_eps",
    "weekend_scale",
    "holiday_offset",
    "holidays",
    "seed",
    "drift",
}


def _reject_unknown(doc, allowed: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{where} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidArgumentError(f"unknown {where} key(s): {', '.join(sorted(unknown))}")


def _value(doc: Mapping, key: str, convert, default=None, prefix: str = ""):
    """``convert(doc[key])``, or ``default`` when the key is absent."""
    if key not in doc:
        return default
    try:
        return convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bad '{prefix}{key}': {exc}") from None


def _utc(text) -> datetime:
    if not isinstance(text, str):
        raise TypeError(f"expected ISO-8601 text, got {text!r}")
    return parse_utc(text)


_int, _float = partial(json_scalar, kind="int"), partial(json_scalar, kind="float")


def _floats(values) -> tuple:
    return tuple(map(_float, values))


def sim_config_from_dict(doc: Mapping) -> SimConfig:
    """Build a :class:`SimConfig` from a parsed JSON document."""
    _reject_unknown(doc, _TOP_KEYS, "config")
    for key in ("start", "step_seconds", "n"):
        if key not in doc:
            raise InvalidArgumentError(f"config requires {key!r}")
    start = _value(doc, "start", _utc)

    trend_doc = doc.get("trend", {})
    _reject_unknown(trend_doc, {"level", "slope"}, "trend")
    trend = TrendConfig(
        level=_value(trend_doc, "level", _float, 0.0, "trend."),
        slope=_value(trend_doc, "slope", _float, 0.0, "trend."),
    )

    components = []
    comp_docs = doc.get("components", [])
    if not isinstance(comp_docs, list):
        raise InvalidArgumentError("components must be a JSON array")
    for i, comp in enumerate(comp_docs):
        where = f"components[{i}]"
        _reject_unknown(comp, {"s", "sigma_omega", "init_gamma", "init_gamma_star"}, where)
        if "s" not in comp:
            raise InvalidArgumentError(f"{where} requires 's'")
        components.append(
            SeasonalComponentConfig(
                s=_value(comp, "s", _int, None, f"{where}."),
                sigma_omega=_value(comp, "sigma_omega", _float, 0.0, f"{where}."),
                init_gamma=_value(comp, "init_gamma", _floats, None, f"{where}."),
                init_gamma_star=_value(comp, "init_gamma_star", _floats, None, f"{where}."),
            )
        )

    drift_doc = doc.get("drift")
    drift = None
    if drift_doc is not None:
        _reject_unknown(
            drift_doc, {"at", "level_shift", "noise_scale", "seasonal_scale"}, "drift"
        )
        if "at" not in drift_doc:
            raise InvalidArgumentError("drift requires 'at'")
        drift = DriftInjection(
            at=_value(drift_doc, "at", _utc, None, "drift."),
            level_shift=_value(drift_doc, "level_shift", _float, 0.0, "drift."),
            noise_scale=_value(drift_doc, "noise_scale", _float, 1.0, "drift."),
            seasonal_scale=_value(drift_doc, "seasonal_scale", _float, 1.0, "drift."),
        )

    try:
        holidays = frozenset(date.fromisoformat(d) for d in doc.get("holidays", []))
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"bad holiday date: {exc}") from None

    return SimConfig(
        start=start,
        step=_value(doc, "step_seconds", _float),
        n=_value(doc, "n", _int),
        trend=trend,
        components=tuple(components),
        sigma_eps=_value(doc, "sigma_eps", _float, 0.0),
        weekend_scale=_value(doc, "weekend_scale", _float, 1.0),
        holiday_offset=_value(doc, "holiday_offset", _float, 0.0),
        holidays=holidays,
        seed=_value(doc, "seed", _int, 0),
        drift=drift,
    )


def load_sim_config(path) -> SimConfig:
    """Load and validate a simulation config from a JSON file."""
    with open(path, "r") as fh:
        doc = json.load(fh)
    return sim_config_from_dict(doc)
