"""End-to-end tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from utdd import boosted_predict, diff, load_model, read_series_csv
from utdd.cli import main
from utdd.series import read_timestamp_table, write_series_csv

FIXTURE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "fixture.json")

REF = ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-10-01T00:00:00Z"]
CUR = ["--cur-from", "2020-09-01T00:00:00Z", "--cur-to", "2020-11-01T00:00:00Z"]


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "fixture.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 0
    return out


def utf16(text):
    """``text`` as UTF-16 with a little-endian byte-order mark (starts ``\\xff\\xfe``)."""
    return b"\xff\xfe" + text.encode("utf-16-le")


def assert_one_error_line(err):
    assert err.startswith("error:") and err.count("\n") == 1, err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fixture(fixture_csv, capsys):
    text = fixture_csv.read_text().splitlines()
    assert text[0] == "timestamp,value"
    assert len(text) == 1 + 2208
    assert text[1].startswith("2020-08-01T00:00:00Z,")
    assert text[-1].startswith("2020-10-31T23:00:00Z,")


def test_simulate_prints_summary(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "2208 points" in printed
    assert "seed 20200801" in printed
    assert "2020-08-01T00:00:00Z" in printed


def test_simulate_seed_env_override(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("UTDD_SEED", "12345")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(a)]) == 0
    assert "seed 12345" in capsys.readouterr().out
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("UTDD_SEED", "999")
    c = tmp_path / "c.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()


def test_simulate_single_row_config(tmp_path):
    cfg = {"start": "2020-08-01T00:00:00Z", "step_seconds": 3600, "n": 1}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "one.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_simulate_missing_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", "x.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "start": "2020-08-01T00:00:00Z",\n  oops\n}\n')
    assert main(["simulate", "--config", str(path), "--out", "x.csv"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"start": "2020-08-01T00:00:00Z", "step_seconds": 1, "n": 5, "x": 1}))
    assert main(["simulate", "--config", str(path), "--out", "x.csv"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_simulate_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UTDD_SEED", "not-a-number")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(tmp_path / "x.csv")]) == 2
    assert "UTDD_SEED" in capsys.readouterr().err
    monkeypatch.setenv("UTDD_SEED", "-1")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(tmp_path / "x.csv")]) == 2
    assert_one_error_line(capsys.readouterr().err)


MINIMAL_CONFIG = {"start": "2020-08-01T00:00:00Z", "step_seconds": 3600, "n": 48}


@pytest.mark.parametrize(
    "content",
    [
        json.dumps([]).encode(),
        json.dumps({**MINIMAL_CONFIG, "n": "abc"}).encode(),
        json.dumps({**MINIMAL_CONFIG, "trend": 5}).encode(),
        json.dumps({**MINIMAL_CONFIG, "components": [{"s": 24, "init_gamma": 5}]}).encode(),
        json.dumps({**MINIMAL_CONFIG, "drift": {"at": "bad"}}).encode(),
        json.dumps({**MINIMAL_CONFIG, "start": 5}).encode(),
        json.dumps({**MINIMAL_CONFIG, "seed": -1}).encode(),
        utf16(json.dumps(MINIMAL_CONFIG)),
    ],
    ids=["list", "n-text", "trend-number", "init_gamma-number", "drift-at-text",
         "start-number", "seed-negative", "utf16"],
)
def test_simulate_malformed_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_writes_model_and_summary(fixture_csv, tmp_path, capsys):
    model_out = tmp_path / "model.json"
    code = main(
        ["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
         "--to", "2020-10-01T00:00:00Z", "--features", "day_of_week,hour_of_day",
         "--model-out", str(model_out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "k_diffs" in printed and "stages" in printed and "sse_reduction" in printed

    # the printed summary and the stored model agree with a fresh replay
    model = load_model(model_out)
    series = read_series_csv(fixture_csv)
    window = series.window(*_parse_window("2020-08-01T00:00:00Z", "2020-10-01T00:00:00Z"))
    grid = diff(window, model.k_diffs)
    resid = grid.values - boosted_predict(model, grid)
    assert_allclose(resid.mean(), model.ref_stats.mean, atol=1e-10)
    assert_allclose(resid.std(), model.ref_stats.std, atol=1e-10)
    printed_std = float(_summary_value(printed, "ref_std"))
    assert_allclose(printed_std, resid.std(), atol=1e-10)


def _parse_window(a, b):
    from utdd.series import parse_utc

    return parse_utc(a), parse_utc(b)


def _summary_value(printed, key):
    for line in printed.splitlines():
        if line.startswith(key):
            return line.split()[-1]
    raise AssertionError(f"{key} not in output")


def test_fit_huge_epsilon_warns(fixture_csv, tmp_path, capsys):
    model_out = tmp_path / "empty.json"
    code = main(
        ["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
         "--to", "2020-10-01T00:00:00Z", "--features", "day_of_week",
         "--epsilon", "1e9", "--model-out", str(model_out)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert load_model(model_out).stages == ()


def test_fit_window_with_holidays(fixture_csv, tmp_path):
    model_out = tmp_path / "hol.json"
    code = main(
        ["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
         "--to", "2020-10-01T00:00:00Z", "--features", "day_of_week,hour_of_day,is_holiday",
         "--holidays", "2020-08-10,2020-08-24,2020-09-07,2020-09-21",
         "--model-out", str(model_out)]
    )
    assert code == 0
    model = load_model(model_out)
    kinds = [s.feature.kind for s in model.stages]
    assert "is_holiday" in kinds


def test_fit_errors(fixture_csv, tmp_path, capsys):
    args = ["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
            "--to", "2020-10-01T00:00:00Z", "--model-out", str(tmp_path / "m.json")]
    assert main(args + ["--features", "exogenous"]) == 2
    assert "unknown feature kind 'exogenous'" in capsys.readouterr().err
    assert main(args + ["--features", "day_of_week,,hour_of_day"]) == 2
    assert main(args + ["--features", "no_such"]) == 2
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--from", "2020-08-01T00:00:00Z", "--to", "2020-10-01T00:00:00Z",
                 "--features", "day_of_week", "--model-out", str(tmp_path / "m.json")]) == 2
    # window too small
    assert main(["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
                 "--to", "2020-08-01T10:00:00Z", "--features", "day_of_week",
                 "--model-out", str(tmp_path / "m.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# detect / report
# ---------------------------------------------------------------------------

def test_detect_fixture_drift(fixture_csv, tmp_path, capsys):
    report_out = tmp_path / "report.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--report-out", str(report_out)])
    assert code == 1
    doc = json.loads(report_out.read_text())
    assert doc["drifted"] is True
    assert doc["delta"] >= doc["threshold"] == 0.1
    assert doc["k_diffs"] in (0, 1)

    printed = capsys.readouterr().out
    assert "drifted" in printed and "true" in printed

    # one seasonal-fit and one residual table per window, rows match windows
    k = doc["k_diffs"]
    expect = {"report_ref_fit.csv": 1464 - k, "report_cur_fit.csv": 1464 - k,
              "report_ref_residual.csv": 1464 - k, "report_cur_residual.csv": 1464 - k}
    for name, rows in expect.items():
        cols, ts, data = read_timestamp_table(tmp_path / name)
        assert len(ts) == rows, name
        if "fit" in name:
            assert cols == ["observed", "seasonal", "residual"]
            assert_allclose(data[:, 0], data[:, 1] + data[:, 2], atol=0)
        else:
            assert cols == ["residual"]


def test_detect_self_comparison_is_exactly_zero(fixture_csv, tmp_path):
    report_out = tmp_path / "self.json"
    code = main(["detect", "--input", str(fixture_csv), *REF,
                 "--cur-from", "2020-08-01T00:00:00Z", "--cur-to", "2020-10-01T00:00:00Z",
                 "--report-out", str(report_out)])
    assert code == 0
    doc = json.loads(report_out.read_text())
    assert doc["delta"] == 0.0
    assert doc["drifted"] is False


def test_detect_threshold_flag(fixture_csv, tmp_path):
    report_out = tmp_path / "loose.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--threshold", "0.5", "--report-out", str(report_out)])
    assert code == 0
    assert json.loads(report_out.read_text())["threshold"] == 0.5


def test_detect_reuse_model_flag(fixture_csv, tmp_path):
    report_out = tmp_path / "reuse.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--reuse-model", "--report-out", str(report_out)])
    assert code in (0, 1)
    assert report_out.exists()


def test_detect_error_paths(fixture_csv, tmp_path, capsys):
    base = ["detect", "--input", str(fixture_csv), "--report-out", str(tmp_path / "r.json")]
    # inverted window
    assert main(base + ["--ref-from", "2020-10-01T00:00:00Z", "--ref-to", "2020-08-01T00:00:00Z",
                        *CUR]) == 2
    # window too short
    assert main(base + ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-08-01T05:00:00Z",
                        *CUR]) == 2
    # window entirely outside the data
    assert main(base + ["--ref-from", "2021-01-01T00:00:00Z", "--ref-to", "2021-02-01T00:00:00Z",
                        *CUR]) == 2
    # unparseable bound
    assert main(base + ["--ref-from", "yesterday", "--ref-to", "2020-10-01T00:00:00Z", *CUR]) == 2
    # bad threshold
    assert main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--threshold", "0", "--report-out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()
    # missing output directory: the error names the report, not a temporary file
    missing = tmp_path / "missing" / "r.json"
    assert main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--report-out", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: No such file or directory: {missing}\n"
    utf16_csv = tmp_path / "utf16.csv"
    utf16_csv.write_bytes(utf16(fixture_csv.read_text()))
    assert main(["detect", "--input", str(utf16_csv), *REF, *CUR,
                 "--report-out", str(tmp_path / "r.json")]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_report_mirrors_verdict(fixture_csv, tmp_path, capsys):
    drift_report = tmp_path / "drift.json"
    assert main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--report-out", str(drift_report)]) == 1
    capsys.readouterr()

    assert main(["report", "--report", str(drift_report)]) == 1
    printed = capsys.readouterr().out
    for key in ("z_ref", "z_curr", "delta", "threshold", "drifted", "k_diffs"):
        assert key in printed

    clean_report = tmp_path / "clean.json"
    assert main(["detect", "--input", str(fixture_csv), *REF,
                 "--cur-from", "2020-08-01T00:00:00Z", "--cur-to", "2020-10-01T00:00:00Z",
                 "--report-out", str(clean_report)]) == 0
    capsys.readouterr()
    assert main(["report", "--report", str(clean_report)]) == 0


def test_report_errors(tmp_path, capsys):
    assert main(["report", "--report", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--report", str(bad)]) == 2
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"z_ref": 0.5}))
    assert main(["report", "--report", str(partial)]) == 2
    # exit 1 would claim drift, so a report that cannot be read exits 2
    good = {"version": 2, "k_diffs": 0, "z_ref": 0.5, "z_curr": 0.5, "delta": 0.0,
            "threshold": 0.1, "drifted": False}
    old_format = {k: v for k, v in good.items() if k != "version"}
    for doc in (5, {**old_format, "residual_curr": [0.1, -0.1]}, {**good, "drifted": "no"},
                {**good, "k_diffs": "0"}, {**good, "z_ref": "0.5"}):
        partial.write_text(json.dumps(doc))
        assert main(["report", "--report", str(partial)]) == 2, doc
    partial.write_text(json.dumps(good))
    assert main(["report", "--report", str(partial)]) == 0
    capsys.readouterr()
    # a UTF-16 file is not read as a report, and its decode error is not a verdict
    partial.write_bytes(utf16(json.dumps(good)))
    assert main(["report", "--report", str(partial)]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_series_csv_from_cli_round_trips(fixture_csv, tmp_path):
    series = read_series_csv(fixture_csv)
    again = tmp_path / "again.csv"
    write_series_csv(series, again)
    assert again.read_bytes() == fixture_csv.read_bytes()
