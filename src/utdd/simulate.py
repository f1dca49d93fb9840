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
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .jsondoc import json_array, json_object, json_scalar
from .series import (
    FeatureSpec, TimeSeries, _coerce_utc, check_grid, extract_feature, parse_utc, utc_us,
)

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
    """Full generator configuration; see the module docstring for the RNG contract.

    ``start`` is kept in UTC and ``step`` in whole microseconds, as the simulated series has them.
    """

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
        object.__setattr__(self, "start", _coerce_utc(self.start))
        object.__setattr__(self, "step", check_grid(self.start, self.step, self.n) / 1e6)
        if not self.sigma_eps >= 0:
            raise InvalidArgumentError("sigma_eps must be non-negative")
        if self.seed < 0:
            raise InvalidArgumentError("seed must be non-negative")
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "holidays", FeatureSpec("is_holiday", self.holidays).holiday_dates)


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
    weekend = extract_feature(grid, FeatureSpec("is_weekend"))
    scale = np.where(weekend > 0, cfg.weekend_scale, 1.0)
    holiday = extract_feature(grid, FeatureSpec("is_holiday", holiday_dates=cfg.holidays))

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

def _utc(text) -> datetime:
    return parse_utc(json_scalar(text, "string"))


_FLOATS = json_array("float")
_COMPONENT = {"s": "int", "sigma_omega": "float", "init_gamma": _FLOATS, "init_gamma_star": _FLOATS}
_DRIFT = {"at": _utc, "level_shift": "float", "noise_scale": "float", "seasonal_scale": "float"}
_CONFIG = {
    "start": _utc,
    "step_seconds": "float",
    "n": "int",
    "trend": lambda doc: TrendConfig(**json_object(doc, {"level": "float", "slope": "float"})),
    "components": json_array(
        lambda doc: SeasonalComponentConfig(**json_object(doc, _COMPONENT, ("s",)))
    ),
    "sigma_eps": "float",
    "weekend_scale": "float",
    "holiday_offset": "float",
    "holidays": json_array(date.fromisoformat),
    "seed": "int",
    "drift": lambda doc: DriftInjection(**json_object(doc, _DRIFT, ("at",))),
}


def sim_config_from_dict(doc) -> SimConfig:
    """Build a :class:`SimConfig` from a parsed JSON document; absent keys take its defaults."""
    values = json_object(doc, _CONFIG, ("start", "step_seconds", "n"))
    return SimConfig(step=values.pop("step_seconds"), **values)


def load_sim_config(path) -> SimConfig:
    """Load and validate a simulation config from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return sim_config_from_dict(json.load(fh))
