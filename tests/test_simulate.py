"""Tests for the seasonal series generator and its reproducibility contract."""

import json
import tracemalloc
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from utdd import (
    DriftInjection,
    FeatureSpec,
    InvalidArgumentError,
    SeasonalComponentConfig,
    SimConfig,
    TimeSeries,
    TrendConfig,
    extract_feature,
    load_sim_config,
    simulate_series,
)
from utdd import simulate
from utdd.simulate import _BLOCK_STEPS

UTC = timezone.utc
T0 = datetime(2020, 8, 1, tzinfo=UTC)
OCT = datetime(2020, 10, 1, tzinfo=UTC)
TWO_YEAR_CONFIG = Path(__file__).resolve().parent.parent / "bench" / "two_year.json"


def base_cfg(**kw):
    defaults = dict(
        start=T0,
        step=3600.0,
        n=240,
        components=(SeasonalComponentConfig(24, 0.01),),
        sigma_eps=0.3,
        seed=7,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def loaded(tmp_path, doc):
    """``doc`` written to a file under ``tmp_path`` and read by :func:`load_sim_config`."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return load_sim_config(path)


def base_doc():
    """The JSON document of ``base_cfg()``."""
    return {
        "start": "2020-08-01T00:00:00Z",
        "step_seconds": 3600,
        "n": 240,
        "components": [{"s": 24, "sigma_omega": 0.01}],
        "sigma_eps": 0.3,
        "seed": 7,
    }


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_component_config_validation():
    with pytest.raises(InvalidArgumentError):
        SeasonalComponentConfig(1)
    with pytest.raises(InvalidArgumentError):
        SeasonalComponentConfig(24, -0.1)
    assert SeasonalComponentConfig(7, 0.0).p == 3


def test_sim_config_validation():
    with pytest.raises(InvalidArgumentError):
        base_cfg(n=0)
    with pytest.raises(InvalidArgumentError):
        base_cfg(sigma_eps=-1.0)


def test_sim_config_keeps_the_grid_it_simulates(tmp_path):
    # the step is the whole-microsecond step of the series, the start is UTC
    cfg = loaded(tmp_path, {**base_doc(), "step_seconds": 1 / 3, "n": 50})
    assert cfg.step == simulate_series(cfg).step == 0.333333
    naive = base_cfg(start=datetime(2020, 8, 1))
    assert naive.start == T0 and naive.start.tzinfo is UTC
    assert simulate_series(naive).start == naive.start
    east = base_cfg(start=datetime(2020, 8, 1, 2, tzinfo=timezone(timedelta(hours=2))))
    assert east.start == T0 and east.start.tzinfo is UTC


def test_sim_config_refuses_holidays_that_are_not_dates():
    cfg = base_cfg(holidays=[datetime(2020, 8, 3, 12, tzinfo=UTC), date(2020, 8, 4)])
    assert cfg.holidays == frozenset([date(2020, 8, 3), date(2020, 8, 4)])
    with pytest.raises(InvalidArgumentError, match="calendar dates"):
        base_cfg(holidays=frozenset(["2020-08-03"]))


def test_config_from_document_setting_every_key(tmp_path):
    doc = {
        "start": "2020-08-01T00:00:00Z",
        "step_seconds": 3600,
        "n": 240,
        "trend": {"level": 3.0, "slope": 0.01},
        "components": [
            {"s": 24, "sigma_omega": 0.01},
            {"s": 7},
        ],
        "sigma_eps": 0.3,
        "weekend_scale": 0.8,
        "holiday_offset": -2.0,
        "holidays": ["2020-08-10"],
        "seed": 7,
        "drift": {
            "at": "2020-10-01T00:00:00Z",
            "level_shift": 1.0,
            "noise_scale": 2.0,
            "seasonal_scale": 1.5,
        },
    }
    assert loaded(tmp_path, doc) == base_cfg(
        trend=TrendConfig(level=3.0, slope=0.01),
        components=(
            SeasonalComponentConfig(24, 0.01),
            SeasonalComponentConfig(7),
        ),
        weekend_scale=0.8,
        holiday_offset=-2.0,
        holidays=frozenset([date(2020, 8, 10)]),
        drift=DriftInjection(at=OCT, level_shift=1.0, noise_scale=2.0, seasonal_scale=1.5),
    )


def test_config_rejects_unknown_keys(tmp_path):
    doc = base_doc()
    doc["typo"] = 1
    with pytest.raises(InvalidArgumentError):
        loaded(tmp_path, doc)

    doc = base_doc()
    doc["trend"] = {"level": 0.0, "slop": 1}
    with pytest.raises(InvalidArgumentError):
        loaded(tmp_path, doc)

    doc = base_doc()
    doc["components"][0]["sigma"] = 1
    with pytest.raises(InvalidArgumentError):
        loaded(tmp_path, doc)

    doc = base_doc()
    doc["drift"] = {"at": "2020-10-01T00:00:00Z", "when": "2020-10-01T00:00:00Z"}
    with pytest.raises(InvalidArgumentError):
        loaded(tmp_path, doc)


def test_config_requires_core_fields(tmp_path):
    for missing in ("start", "step_seconds", "n"):
        doc = base_doc()
        del doc[missing]
        with pytest.raises(InvalidArgumentError):
            loaded(tmp_path, doc)
    doc = base_doc()
    doc["holidays"] = ["not-a-date"]
    with pytest.raises(InvalidArgumentError):
        loaded(tmp_path, doc)


def test_load_sim_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc()))
    assert load_sim_config(path) == base_cfg()


# ---------------------------------------------------------------------------
# the generator itself
# ---------------------------------------------------------------------------

def test_simulation_is_deterministic():
    a = simulate_series(base_cfg())
    b = simulate_series(base_cfg())
    assert_array_equal(a.values, b.values)
    assert a.start == b.start and a.step == b.step


def one_component(comp, n, seed):
    cfg = SimConfig(start=T0, step=3600.0, n=n, components=(comp,), seed=seed)
    return simulate_series(cfg).values


def scalar_replay(cfg):
    # the documented consumption order, replayed one scalar draw at a time:
    # the initial states (gamma then gamma-star per component), then per
    # step each component's interleaved harmonic pairs, then the noise draw
    rng = np.random.default_rng(cfg.seed)
    states = []
    for comp in cfg.components:
        g = np.array([rng.standard_normal() for _ in range(comp.p)])
        h = np.array([rng.standard_normal() for _ in range(comp.p)])
        states.append([g, h])
    want = np.empty(cfg.n)
    for t in range(cfg.n):
        total = 0.0
        for comp, state in zip(cfg.components, states):
            g, h = state
            total += g.sum()
            lam = 2 * np.pi * np.arange(1, comp.p + 1) / comp.s
            w = np.array([rng.standard_normal() for _ in range(2 * comp.p)]) * comp.sigma_omega
            state[0] = g * np.cos(lam) + h * np.sin(lam) + w[0::2]
            state[1] = -g * np.sin(lam) + h * np.cos(lam) + w[1::2]
        eps = rng.standard_normal() * cfg.sigma_eps
        want[t] = cfg.trend.level + cfg.trend.slope * t + total + eps
    return want


def test_draw_order_matches_scalar_replay():
    cfg = SimConfig(
        start=T0,
        step=3600.0,
        n=60,
        components=(SeasonalComponentConfig(24, 0.02), SeasonalComponentConfig(7, 0.01)),
        sigma_eps=0.3,
        trend=TrendConfig(level=2.0, slope=0.01),
        seed=99,
    )
    assert_array_equal(simulate_series(cfg).values, scalar_replay(cfg))
    # the last of 2 * _BLOCK_STEPS + 1 steps is a block of one row
    cfg = replace(cfg, n=2 * _BLOCK_STEPS + 1)
    assert_array_equal(simulate_series(cfg).values, scalar_replay(cfg))
    # with no seasonal component every step still draws its noise
    cfg = replace(cfg, components=(), sigma_eps=0.7)
    assert_array_equal(simulate_series(cfg).values, scalar_replay(cfg))


def bench_shape_cfg():
    # the benchmark's component lengths: s = 2 has the lambda = pi harmonic,
    # s = 168 dominates the 96 stacked harmonics; two full weekly periods
    return SimConfig(
        start=T0,
        step=3600.0,
        n=2 * 168,
        components=tuple(
            SeasonalComponentConfig(s, sigma)
            for s, sigma in ((2, 0.03), (7, 0.02), (24, 0.002), (168, 0.001))
        ),
        sigma_eps=0.5,
        trend=TrendConfig(level=50.0, slope=0.001),
        seed=2019,
    )


def test_draw_order_matches_scalar_replay_at_bench_shape():
    cfg = bench_shape_cfg()
    assert_array_equal(simulate_series(cfg).values, scalar_replay(cfg))


def test_simulation_does_not_depend_on_the_block_size(monkeypatch):
    cfg = bench_shape_cfg()
    want = simulate_series(cfg).values
    for steps in (1, 7, 256, 1024):
        monkeypatch.setattr(simulate, "_BLOCK_STEPS", steps)
        assert simulate_series(cfg).values.tobytes() == want.tobytes(), steps


def test_simulation_memory_grows_with_steps_not_harmonics():
    # two years hourly with 96 harmonics: a whole-run draw matrix alone would take 27 MB,
    # and blocks of 1,024 steps peaked at 4.23 MB
    cfg = load_sim_config(TWO_YEAR_CONFIG)
    simulate_series(replace(cfg, n=1))  # numpy imports numpy.random on first use; trace the run alone
    tracemalloc.start()
    try:
        simulate_series(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_component_draw_order_matches_scalar_replay():
    # one component with no observation noise: the series is the component,
    # and each step still consumes the (zero-scaled) noise draw after its pairs
    comp = SeasonalComponentConfig(7, 0.05)
    got = one_component(comp, 40, seed=3)

    rng = np.random.default_rng(3)
    g = np.array([rng.standard_normal() for _ in range(3)])
    h = np.array([rng.standard_normal() for _ in range(3)])
    lam = 2 * np.pi * np.arange(1, 4) / 7
    want = np.empty(40)
    for t in range(40):
        want[t] = g.sum()
        w = np.array([rng.standard_normal() for _ in range(6)]) * 0.05
        g, h = g * np.cos(lam) + h * np.sin(lam) + w[0::2], -g * np.sin(lam) + h * np.cos(lam) + w[1::2]
        rng.standard_normal()
    assert_array_equal(got, want)


def test_zero_noise_component_is_periodic():
    out = one_component(SeasonalComponentConfig(24, 0.0), 24 * 6, seed=11)
    assert_allclose(out[24:], out[:-24], atol=1e-9)


def test_single_harmonic_is_a_cosine():
    # with no noise each harmonic j is g_j cos(l_j t) + h_j sin(l_j t) from its
    # initial pair; the seed's first 2p draws are every gamma, then every gamma-star
    g, h = np.random.default_rng(0).standard_normal(24).reshape(2, 12)
    out = one_component(SeasonalComponentConfig(24, 0.0), 240, seed=0)
    lt = 2 * np.pi * np.outer(np.arange(240), np.arange(1, 13)) / 24
    assert_allclose(out, np.cos(lt) @ g + np.sin(lt) @ h, atol=1e-9)


def test_zero_noise_rotation_conserves_energy():
    # with p=1 the hidden pair can be reconstructed from consecutive outputs;
    # its squared norm must stay that of the seeded initial pair
    g0, h0 = np.random.default_rng(0).standard_normal(2)
    out = one_component(SeasonalComponentConfig(3, 0.0), 50, seed=0)
    lam = 2 * np.pi / 3
    g = out
    h = (out[1:] - out[:-1] * np.cos(lam)) / np.sin(lam)
    energy = g[:-1] ** 2 + h**2
    assert_allclose(energy, g0**2 + h0**2, atol=1e-9)


def test_sigma_scaling_is_linear_in_the_draws():
    # the same seed always consumes the same draws, so sigma scales linearly
    base = simulate_series(base_cfg(sigma_eps=0.0)).values
    one = simulate_series(base_cfg(sigma_eps=1.0)).values
    half = simulate_series(base_cfg(sigma_eps=0.5)).values
    assert_allclose(half - base, 0.5 * (one - base), rtol=0, atol=1e-12)


def test_weekend_scale_multiplies_only_weekend_points():
    cfg1 = base_cfg(sigma_eps=0.0, weekend_scale=1.0, n=336)
    cfg2 = base_cfg(sigma_eps=0.0, weekend_scale=0.5, n=336)
    full = simulate_series(cfg1)
    scaled = simulate_series(cfg2)
    weekend = extract_feature(full, FeatureSpec("is_weekend")) == 1
    assert_array_equal(scaled.values[~weekend], full.values[~weekend])
    assert_allclose(scaled.values[weekend], 0.5 * full.values[weekend], atol=1e-12)


def test_holiday_offset_adds_on_holiday_points_only():
    hols = frozenset([date(2020, 8, 10)])
    plain = simulate_series(base_cfg(sigma_eps=0.0, n=360))
    offset = simulate_series(base_cfg(sigma_eps=0.0, n=360, holidays=hols, holiday_offset=-3.0))
    mask = extract_feature(plain, FeatureSpec("is_holiday", holiday_dates=hols)) == 1
    assert mask.sum() == 24
    assert_array_equal(offset.values[~mask], plain.values[~mask])
    assert_allclose(offset.values[mask], plain.values[mask] - 3.0, atol=1e-12)


def test_drift_cut_is_inclusive_and_exact():
    # the second start is far from 1970 with an odd microsecond, where a
    # float POSIX timestamp of the cut-over lands 1 us after the grid point
    for start in (T0, datetime(2300, 1, 1, microsecond=1, tzinfo=UTC)):
        at = start + timedelta(days=2, hours=12)
        clean = simulate_series(base_cfg(start=start, n=120))
        drift = DriftInjection(at=at, level_shift=2.0)
        shifted = simulate_series(base_cfg(start=start, n=120, drift=drift))
        cut = 2 * 24 + 12  # hours from the start to the cut-over
        assert_array_equal(shifted.values[:cut], clean.values[:cut])
        assert_allclose(shifted.values[cut:], clean.values[cut:] + 2.0, atol=0)
        assert clean.timestamp(cut) == at


def test_drift_scales_noise_and_seasonal():
    cfg_clean = base_cfg(sigma_eps=0.0, trend=TrendConfig(level=4.0))
    seasonal = simulate_series(cfg_clean).values - 4.0
    drift = DriftInjection(at=T0, seasonal_scale=1.5)
    scaled = simulate_series(base_cfg(sigma_eps=0.0, trend=TrendConfig(level=4.0), drift=drift))
    assert_allclose(scaled.values - 4.0, 1.5 * seasonal, atol=1e-12)

    noise = simulate_series(base_cfg(components=(), sigma_eps=1.0)).values
    louder = simulate_series(
        base_cfg(components=(), sigma_eps=1.0, drift=DriftInjection(at=T0, noise_scale=3.0))
    ).values
    assert_allclose(louder, 3.0 * noise, atol=0)


def test_trend_only_series():
    cfg = base_cfg(components=(), sigma_eps=0.0, trend=TrendConfig(level=1.0, slope=0.5), n=10)
    out = simulate_series(cfg)
    assert_allclose(out.values, 1.0 + 0.5 * np.arange(10), atol=0)


def test_simulate_component_rejects_bad_n():
    with pytest.raises(InvalidArgumentError):
        one_component(SeasonalComponentConfig(24), 0, seed=0)
