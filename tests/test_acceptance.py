"""Acceptance gate: every release criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (visible even without ``-s``) and then
asserts, so a full run gives a one-page scoreboard.  All randomness uses
fixed seed lists; the Monte Carlo bounds below were chosen with comfortable
margins over the measured behavior.
"""

import json
import time
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from utdd import (
    DriftInjection,
    FeatureSpec,
    SeasonalComponentConfig,
    SimConfig,
    TimeSeries,
    TrendConfig,
    boosted_fit,
    boosted_predict,
    compute_zscore,
    extract_feature,
    load_model,
    load_sim_config,
    run_utdd,
    save_model,
    simulate_series,
)
from utdd.cli import main
from utdd.series import read_timestamp_table
from utdd.stationarity import adf_test, ndiffs

UTC = timezone.utc
T0 = datetime(2020, 8, 1, tzinfo=UTC)
SEP = datetime(2020, 9, 1, tzinfo=UTC)
OCT = datetime(2020, 10, 1, tzinfo=UTC)
NOV = datetime(2020, 11, 1, tzinfo=UTC)

FIXTURE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "fixture.json")
FEATS = (FeatureSpec("day_of_week"), FeatureSpec("hour_of_day"))


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_stationarity_power(capsys):
    # 200 fixed seeds, n=500: >=90% correct on both i.i.d. noise and random
    # walks, under 10 seconds total
    t0 = time.monotonic()
    noise_ok = walk_ok = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        noise_ok += adf_test(rng.standard_normal(500)).stationary
        walk_ok += not adf_test(np.cumsum(rng.standard_normal(500))).stationary
    elapsed = time.monotonic() - t0
    ok = noise_ok >= 180 and walk_ok >= 180 and elapsed < 10.0
    report(
        capsys,
        "stationarity power",
        ok,
        f"noise {noise_ok}/200 stationary, walks {walk_ok}/200 non-stationary, {elapsed:.1f}s",
    )


def test_differencing_order_selection(capsys):
    # 100 fixed seeds: k=0 / k=1 / k=2 each recovered in >=85% of runs;
    # the ramp is exact every time via the zero-variance shortcut
    counts = {0: 0, 1: 0, 2: 0}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(500)
        counts[0] += ndiffs(TimeSeries(T0, 3600.0, e)).k == 0
        counts[1] += ndiffs(TimeSeries(T0, 3600.0, np.cumsum(e))).k == 1
        counts[2] += ndiffs(TimeSeries(T0, 3600.0, np.cumsum(np.cumsum(e)))).k == 2
    ramp_k = ndiffs(TimeSeries(T0, 3600.0, np.arange(200.0))).k
    ok = all(c >= 85 for c in counts.values()) and ramp_k == 1
    report(
        capsys,
        "differencing order selection",
        ok,
        f"noise {counts[0]}/100, walk {counts[1]}/100, twice-integrated {counts[2]}/100, ramp k={ramp_k}",
    )


def test_boosting_recovery(capsys):
    # additive day/hour effects plus N(0, 0.25): the fitted residual's
    # population std is within 10% of the true noise level in >=19/20 seeds,
    # and every fitted stage leaves zero per-category residual means
    sigma = 0.5
    std_ok = 0
    worst_mean = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 1680  # ten whole weeks, so both calendar tables are balanced
        t = np.arange(n)
        y = (
            5.0
            + rng.normal(0, 2.0, 7)[(t // 24) % 7]
            + 3.0 * np.sin(2 * np.pi * (t % 24) / 24)
            + rng.normal(0, sigma, n)
        )
        series = TimeSeries(datetime(2020, 8, 3, tzinfo=UTC), 3600.0, y)
        model = boosted_fit(series, FEATS, k_diffs=0)
        resid = series.values - boosted_predict(model, series)
        std_ok += resid.std() <= 1.1 * sigma
        for stage in model.stages:
            codes = extract_feature(series, stage.feature)
            sums = np.bincount(codes, weights=resid, minlength=stage.feature.cardinality)
            cnts = np.bincount(codes, minlength=stage.feature.cardinality)
            worst_mean = max(worst_mean, np.abs(sums[cnts > 0] / cnts[cnts > 0]).max())
    ok = std_ok >= 19 and worst_mean < 1e-10
    report(
        capsys,
        "boosting recovery",
        ok,
        f"residual std within 1.1x noise in {std_ok}/20 seeds, "
        f"largest per-category residual mean {worst_mean:.1e}",
    )


def test_simulator_exactness(capsys):
    # zero-noise output repeats exactly at every configured period, per-period
    # energy is conserved, and a single harmonic reproduces a pure cosine
    period_err = 0.0
    energy_err = 0.0
    for s in (2, 7, 24, 168):
        cfg = SimConfig(
            start=T0,
            step=3600.0,
            n=4 * s,
            components=(SeasonalComponentConfig(s, 0.0),),
            seed=s,
        )
        out = simulate_series(cfg).values
        period_err = max(period_err, np.abs(out[s:] - out[:-s]).max())
        windows = out.reshape(4, s)
        energy = (windows**2).sum(axis=1)
        energy_err = max(energy_err, np.abs(energy - energy[0]).max() / max(energy[0], 1.0))
    p = 12
    single = SeasonalComponentConfig(
        24, 0.0, init_gamma=(1.0,) + (0.0,) * (p - 1), init_gamma_star=(0.0,) * p
    )
    out = simulate_series(
        SimConfig(start=T0, step=3600.0, n=240, components=(single,), seed=0)
    ).values
    cos_err = np.abs(out - np.cos(2 * np.pi * np.arange(240) / 24)).max()
    ok = period_err < 1e-9 and energy_err < 1e-9 and cos_err < 1e-9
    report(
        capsys,
        "simulator exactness",
        ok,
        f"periodicity {period_err:.1e}, energy drift {energy_err:.1e}, cosine {cos_err:.1e}",
    )


def test_zscore_analytics(capsys):
    # 50,000 standard-normal draws land inside [0.788, 0.808] around
    # sqrt(2/pi); affine transforms leave the statistic unchanged to 1e-10
    rng = np.random.default_rng(0)
    z = compute_zscore(rng.standard_normal(50_000))
    r = rng.standard_normal(2_000)
    drift_under_affine = abs(compute_zscore(3.7 * r - 11.3) - compute_zscore(r))
    ok = 0.788 <= z <= 0.808 and drift_under_affine < 1e-10
    report(
        capsys,
        "z-statistic analytics",
        ok,
        f"z={z:.4f} (target sqrt(2/pi)={np.sqrt(2/np.pi):.4f}), affine drift {drift_under_affine:.1e}",
    )


def _mc_series(seed, noise_scale):
    drift = DriftInjection(at=SEP, noise_scale=noise_scale) if noise_scale != 1.0 else None
    cfg = SimConfig(
        start=T0,
        step=3600.0,
        n=1464,
        components=(SeasonalComponentConfig(24, 0.003),),
        sigma_eps=0.3,
        weekend_scale=0.9,
        holidays=frozenset(
            [date(2020, 8, 10), date(2020, 8, 24), date(2020, 9, 7), date(2020, 9, 21)]
        ),
        holiday_offset=-7.0,
        trend=TrendConfig(level=10.0),
        seed=seed,
        drift=drift,
    )
    return simulate_series(cfg)


def test_drift_operating_characteristics(capsys):
    # month-vs-month windows over 100 fixed seeds: <=5% false positives on
    # clean pairs, >=90% detections when the current window's noise std is
    # inflated 3x, each sweep under a minute
    t0 = time.monotonic()
    false_pos = 0
    for seed in range(100):
        s = _mc_series(seed, 1.0)
        false_pos += run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS).report.drifted
    fp_elapsed = time.monotonic() - t0

    t0 = time.monotonic()
    detected = 0
    for seed in range(100):
        s = _mc_series(seed, 3.0)
        detected += run_utdd(s.window(T0, SEP), s.window(SEP, OCT), FEATS).report.drifted
    det_elapsed = time.monotonic() - t0

    ok = false_pos <= 5 and detected >= 90 and fp_elapsed < 60.0 and det_elapsed < 60.0
    report(
        capsys,
        "drift operating characteristics",
        ok,
        f"false positives {false_pos}/100, detections {detected}/100, "
        f"{fp_elapsed:.1f}s + {det_elapsed:.1f}s",
    )


def test_fixture_scores_in_expected_band(capsys):
    # pinned regression band for the bundled fixture: the two window scores
    # sit near 0.53 / 0.65 (the shape this detector produces on data with
    # calendar structure) and their gap clears the default threshold
    s = simulate_series(load_sim_config(FIXTURE_CONFIG))
    res = run_utdd(
        s.window(T0, OCT),
        s.window(SEP, NOV),
        (
            FeatureSpec("day_of_week"),
            FeatureSpec("hour_of_day"),
            FeatureSpec("is_holiday", holiday_dates=frozenset()),
            FeatureSpec("month_of_year"),
        ),
    )
    z_ref, z_curr = res.report.z_ref, res.report.z_curr
    ok = abs(z_ref - 0.53) < 0.15 and abs(z_curr - 0.65) < 0.15 and res.report.drifted
    report(
        capsys,
        "fixture score band",
        ok,
        f"z_ref={z_ref:.3f} (band 0.53±0.15), z_curr={z_curr:.3f} (band 0.65±0.15), "
        f"delta={res.report.delta:.3f}",
    )


def test_cli_end_to_end(capsys, tmp_path):
    # simulate the fixture, detect the injected drift (exit 1) with all four
    # plot tables sized to their windows, then self-compare (exit 0, delta 0)
    csv_path = tmp_path / "fixture.csv"
    sim_code = main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(csv_path)])
    rows = len(csv_path.read_text().splitlines()) - 1 if csv_path.exists() else 0

    report_out = tmp_path / "report.json"
    ref = ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-10-01T00:00:00Z"]
    cur = ["--cur-from", "2020-09-01T00:00:00Z", "--cur-to", "2020-11-01T00:00:00Z"]
    detect_code = main(
        ["detect", "--input", str(csv_path), *ref, *cur, "--report-out", str(report_out)]
    )
    doc = json.loads(report_out.read_text()) if report_out.exists() else {}
    k = doc.get("k_diffs", -1)
    table_rows = []
    for name in ("report_ref_fit.csv", "report_cur_fit.csv",
                 "report_ref_residual.csv", "report_cur_residual.csv"):
        path = tmp_path / name
        table_rows.append(len(read_timestamp_table(path)[1]) if path.exists() else 0)

    self_out = tmp_path / "self.json"
    self_code = main(
        ["detect", "--input", str(csv_path), *ref,
         "--cur-from", "2020-08-01T00:00:00Z", "--cur-to", "2020-10-01T00:00:00Z",
         "--report-out", str(self_out)]
    )
    self_doc = json.loads(self_out.read_text()) if self_out.exists() else {}

    ok = (
        sim_code == 0
        and rows == 2208
        and detect_code == 1
        and doc.get("drifted") is True
        and all(r == 1464 - k for r in table_rows)
        and self_code == 0
        and self_doc.get("delta") == 0.0
    )
    report(
        capsys,
        "command-line end to end",
        ok,
        f"simulate exit {sim_code} ({rows} rows), detect exit {detect_code} "
        f"(tables {table_rows}), self-comparison exit {self_code} "
        f"(delta {self_doc.get('delta')!r})",
    )


def test_model_serialization_roundtrip(capsys, tmp_path):
    # a saved-and-reloaded model predicts bit-identically on 1,000 random grids
    rng = np.random.default_rng(12)
    n = 1680
    t = np.arange(n)
    y = (
        rng.normal(0, 2.0, 7)[(t // 24) % 7]
        + 3.0 * np.sin(2 * np.pi * (t % 24) / 24)
        + rng.normal(0, 0.5, n)
    )
    series = TimeSeries(datetime(2020, 8, 3, tzinfo=UTC), 3600.0, y)
    holidays = frozenset([date(2020, 8, 10), date(2020, 9, 7)])
    model = boosted_fit(
        series,
        FEATS + (FeatureSpec("is_holiday", holiday_dates=holidays),),
        k_diffs=0,
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)

    mismatches = 0
    for _ in range(1000):
        offset_hours = int(rng.integers(0, 24 * 400))
        length = int(rng.integers(2, 64))
        grid = TimeSeries(
            datetime(2020, 1, 1, tzinfo=UTC) + timedelta(hours=offset_hours),
            3600.0,
            np.zeros(length),
        )
        if not np.array_equal(boosted_predict(model, grid), boosted_predict(back, grid)):
            mismatches += 1
    ok = mismatches == 0
    report(
        capsys,
        "model serialization roundtrip",
        ok,
        f"{1000 - mismatches}/1000 random grids predicted bit-identically",
    )
