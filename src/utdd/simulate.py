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
(no closed form, whose rounding would differ).  Steps are drawn and advanced
one block of ``_BLOCK_STEPS`` at a time, carrying the state from block to
block, so memory is O(n + block * sum p) rather than O(n * sum p).  A
generator gives the same stream in one call or in several, and each step's
arithmetic is the same in any block, so the output does not depend on the
block size.

Reproducibility contract: all randomness comes from one numpy PCG64 generator
(``numpy.random.default_rng(seed)``) producing standard normals via numpy's
ziggurat, consumed in a fixed slot order -- first the initial harmonic states
(per component: gamma then gamma-star), then per step: for each
component in declared order the interleaved pairs ``w_1, w*_1, ..., w_p,
w*_p``, then the observation noise draw.  Draws are made (and scaled) even
when their sigma is zero, so changing a sigma never shifts another slot's
draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError
from .jsondoc import json_array, json_object, json_scalar, read_json
from .series import (
    FeatureSpec, TimeSeries, check_grid, coerce_utc, extract_feature, parse_utc, utc_us,
)
from .verdict import check_count

__all__ = [
    "SeasonalComponentConfig",
    "DriftInjection",
    "TrendConfig",
    "SimConfig",
    "simulate_series",
    "load_sim_config",
]

# Steps drawn and advanced at a time; the output does not depend on it.
_BLOCK_STEPS = 256


@dataclass(frozen=True)
class SeasonalComponentConfig:
    """One seasonal component: length ``s`` in steps and harmonic noise.

    Its initial state is drawn N(0, 1) from the simulation generator.
    """

    s: int
    sigma_omega: float = 0.0

    def __post_init__(self) -> None:
        check_count(self.s, "seasonal length s", minimum=2)
        if not self.sigma_omega >= 0:
            raise InvalidArgumentError("sigma_omega must be non-negative")

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
        check_count(self.n, "n", minimum=1)
        object.__setattr__(self, "start", coerce_utc(self.start))
        object.__setattr__(self, "step", check_grid(self.start, self.step, self.n) / 1e6)
        if not self.sigma_eps >= 0:
            raise InvalidArgumentError("sigma_eps must be non-negative")
        check_count(self.seed, "seed")
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
    # the n-length outputs come first, so a series too long to hold fails before any draw
    eps = np.empty(n, dtype=np.float64)
    seasonal = np.zeros(n, dtype=np.float64)

    # one row per step: [comp 0: w1, w*1, ..., wp, w*p] ... [comp k] [eps]
    bounds = np.cumsum([0] + [comp.p for comp in comps])
    total_p = int(bounds[-1])
    state = np.empty((total_p, 2))
    for comp, lo, hi in zip(comps, bounds, bounds[1:]):
        state[lo:hi] = rng.standard_normal((2, comp.p)).T  # gamma's p draws, then gamma-star's
    for first in range(0, n, _BLOCK_STEPS):
        rows = slice(first, min(first + _BLOCK_STEPS, n))
        noise = rng.standard_normal((rows.stop - first, 2 * total_p + 1))
        for comp, lo, hi in zip(comps, bounds, bounds[1:]):
            noise[:, 2 * lo : 2 * hi] *= comp.sigma_omega
        eps[rows] = noise[:, -1]
        gammas = _gamma_history(comps, state, noise[:, : 2 * total_p])
        for lo, hi in zip(bounds, bounds[1:]):
            seasonal[rows] += gammas[:, lo:hi].sum(axis=1)
    eps *= cfg.sigma_eps

    grid = TimeSeries(cfg.start, cfg.step, np.zeros(n))
    scale = np.where(extract_feature(grid, FeatureSpec("is_weekend")) > 0, cfg.weekend_scale, 1.0)
    holiday = extract_feature(grid, FeatureSpec("is_holiday", holiday_dates=cfg.holidays))
    drift = cfg.drift
    if drift is not None:
        cut = np.searchsorted(grid.epoch_us(), utc_us(drift.at), side="left")
        scale[cut:] *= drift.seasonal_scale
        eps[cut:] *= drift.noise_scale

    # the formula's terms, added in place in its order, so each sum rounds as the formula's does
    values = cfg.trend.slope * np.arange(n, dtype=np.float64)
    values += cfg.trend.level
    seasonal *= scale
    values += seasonal
    values += cfg.holiday_offset * holiday
    if drift is not None:
        values[cut:] += drift.level_shift
    values += eps
    return TimeSeries(cfg.start, cfg.step, values)


def _gamma_history(comps, state: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Advance every harmonic of every component through one block; return gamma per step.

    ``state`` is a C-ordered ``(total_p, 2)`` array, advanced in place: one
    ``(gamma, gamma-star)`` row per harmonic, the components' harmonics one
    after another.  ``draws`` is ``(rows, 2 * total_p)``, each step's scaled
    ``w_1, w*_1, ..., w_p, w*_p`` pairs in the same order, for the block's
    rows only, so the history takes ``rows * total_p`` floats.  Row ``t`` of
    the result is gamma before the block's step ``t`` updates ``state``.
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


_COMPONENT = {"s": "int", "sigma_omega": "float"}
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


def load_sim_config(path) -> SimConfig:
    """The :class:`SimConfig` in the JSON file at ``path``; absent keys take its defaults."""
    values = json_object(read_json(path), _CONFIG, ("start", "step_seconds", "n"))
    return SimConfig(step=values.pop("step_seconds"), **values)
