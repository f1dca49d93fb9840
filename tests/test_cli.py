"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import utdd
from utdd import load_model, read_series_csv
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


def test_simulate_at_a_third_of_a_second_then_fit(tmp_path, capsys):
    # 1/3 s rounds once to 333,333 microseconds, so every gap in the CSV is the same
    cfg = {"start": "2020-08-01T00:00:00Z", "step_seconds": 1 / 3, "n": 100, "sigma_eps": 1.0}
    path, out, model = tmp_path / "third.json", tmp_path / "third.csv", tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert "2020-08-01T00:00:32.999967Z" in capsys.readouterr().out
    _, stamps, _ = read_timestamp_table(out)
    assert set(np.diff(stamps).tolist()) == {333_333}
    code = main(["fit", "--input", str(out), "--from", "2020-08-01T00:00:00Z",
                 "--to", "2020-08-01T00:01:00Z", "--features", "hour_of_day",
                 "--model-out", str(model)])
    assert code == 0, capsys.readouterr().err
    assert load_model(model).stages


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


def test_simulate_refuses_a_series_that_ends_past_year_9999(tmp_path, capsys):
    path, out = tmp_path / "late.json", tmp_path / "late.csv"
    late = {"start": "9999-12-30T00:00:00Z", "step_seconds": 3600, "n": 48}
    path.write_text(json.dumps(late))
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1] == "9999-12-31T23:00:00Z,0.0"
    out.unlink()
    capsys.readouterr()
    # refused before any array is built, however large n is
    for n in (49, 10**21):
        path.write_text(json.dumps({**late, "n": n}))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()


def test_simulate_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UTDD_SEED", "not-a-number")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(tmp_path / "x.csv")]) == 2
    assert "UTDD_SEED" in capsys.readouterr().err
    monkeypatch.setenv("UTDD_SEED", "-1")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(tmp_path / "x.csv")]) == 2
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "seed", ["1_0", "\u0663", " 7", "7 "],
    ids=["underscore", "arabic-indic-3", "lead-space", "trail-space"],
)
def test_simulate_refuses_a_seed_outside_the_ascii_number_syntax(tmp_path, monkeypatch, capsys,
                                                                    seed):
    # int() alone would read 1_0 as 10 and the Arabic-Indic digit three as 3
    monkeypatch.setenv("UTDD_SEED", seed)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "UTDD_SEED" in err
    assert not out.exists()
    monkeypatch.setenv("UTDD_SEED", "+7")
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 0
    assert "seed 7" in capsys.readouterr().out


MINIMAL_CONFIG = {"start": "2020-08-01T00:00:00Z", "step_seconds": 3600, "n": 48}
# exit 1 would claim drift, so input too large to hold or to parse exits 2
PAST_MEMORY = {"start": "1970-01-01T00:00:00Z", "step_seconds": 1e-6, "n": 10**17}  # 711 PiB
NESTED_DEEP = "[" * 3000 + "]" * 3000


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
        json.dumps({**MINIMAL_CONFIG, "n": 48.7}).encode(),
        json.dumps({**MINIMAL_CONFIG, "components": [{"s": "24"}]}).encode(),
        json.dumps({**MINIMAL_CONFIG, "seed": True}).encode(),
        json.dumps({**MINIMAL_CONFIG, "components": [{"s": 4, "init_gamma": "12"}]}).encode(),
        json.dumps({**MINIMAL_CONFIG, "sigma_eps": "0.3"}).encode(),
        json.dumps({**MINIMAL_CONFIG, "step_seconds": float("nan")}).encode(),
        json.dumps({**MINIMAL_CONFIG, "step_seconds": 1e-7}).encode(),
        json.dumps(PAST_MEMORY).encode(),
        NESTED_DEEP.encode(),
    ],
    ids=["list", "n-text", "trend-number", "init_gamma-number", "drift-at-text",
         "start-number", "seed-negative", "utf16", "n-fraction", "s-text", "seed-bool",
         "init_gamma-text", "sigma_eps-text", "step-nan", "step-rounds-to-0-us", "past-memory",
         "nested-deep"],
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
    printed = capsys.readouterr().out.splitlines()

    # the printed summary is the stored model, one key per line
    model = load_model(model_out)
    summary = dict(line.split(None, 1) for line in printed[:-1])
    assert list(summary) == ["k_diffs", "epsilon", "stages"] + [
        f"stage[{i}]" for i in range(len(model.stages))
    ]
    assert printed[-1] == f"wrote {model_out}"
    assert int(summary["k_diffs"]) == model.k_diffs
    assert float(summary["epsilon"]) == model.epsilon
    assert int(summary["stages"]) == len(model.stages) == 2
    for i, stage in enumerate(model.stages):
        kind, label, value = summary[f"stage[{i}]"].split()
        assert (kind, label) == (stage.feature.kind, "sse_reduction")
        assert float(value) == stage.sse_reduction


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
    capsys.readouterr()
    assert main(["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
                 "--to", "2020-08-01T10:00:00Z", "--features", "day_of_week",
                 "--model-out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "error: series has 10 points; need at least 30\n"


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
    capsys.readouterr()
    assert main(base + ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-08-01T05:00:00Z",
                        *CUR]) == 2
    assert capsys.readouterr().err == "error: reference window has 5 points; need at least 30\n"
    # window entirely outside the data
    assert main(base + ["--ref-from", "2021-01-01T00:00:00Z", "--ref-to", "2021-02-01T00:00:00Z",
                        *CUR]) == 2
    # unparseable bound
    assert main(base + ["--ref-from", "yesterday", "--ref-to", "2020-10-01T00:00:00Z", *CUR]) == 2
    # a bound that exists in its own offset but not in UTC
    capsys.readouterr()
    assert main(base + ["--ref-from", "0001-01-01T00:00:00+02:00",
                        "--ref-to", "2020-10-01T00:00:00Z", *CUR]) == 2
    assert_one_error_line(capsys.readouterr().err)
    # bad threshold; an infinite one would also write a report that is not JSON
    for threshold in ("0", "inf"):
        assert main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                     "--threshold", threshold, "--report-out", str(tmp_path / "r.json")]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not (tmp_path / "r.json").exists()
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


@pytest.mark.parametrize(
    "flag, value",
    [("--max-diff", "0_1"), ("--threshold", "1_0"), ("--epsilon", " 1"), ("--epsilon", "1e-3 "),
     ("--max-diff", "\u0663"), ("--threshold", "\uff10.5")],
    ids=["max-diff-underscore", "threshold-underscore", "epsilon-lead-space",
         "epsilon-trail-space", "max-diff-arabic-indic", "threshold-fullwidth"],
)
def test_detect_refuses_numbers_outside_the_ascii_syntax(fixture_csv, tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--input", str(fixture_csv), *REF, *CUR, flag, value,
              "--report-out", str(out / "r.json")])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_detect_accepts_ascii_numbers_in_every_spelling(fixture_csv, tmp_path):
    report_out = tmp_path / "r.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR, "--threshold", ".5",
                 "--epsilon", "1e-3", "--max-diff", "+7", "--report-out", str(report_out)])
    assert code == 0
    assert json.loads(report_out.read_text())["threshold"] == 0.5


def test_detect_refuses_a_bad_holiday_date(fixture_csv, tmp_path, capsys):
    report_out = tmp_path / "r.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR,
                 "--holidays", "2020-08-10,2020-13-01", "--report-out", str(report_out)])
    assert code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err.startswith("error: --holidays:")
    assert not report_out.exists()


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
    capsys.readouterr()
    for doc in (5, {**old_format, "residual_curr": [0.1, -0.1]}, {**good, "drifted": "no"},
                {**good, "k_diffs": "0"}, {**good, "k_diffs": -3}, {**good, "z_ref": "0.5"}):
        partial.write_text(json.dumps(doc))
        assert main(["report", "--report", str(partial)]) == 2, doc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err)
    partial.write_text(json.dumps(good))
    assert main(["report", "--report", str(partial)]) == 0
    capsys.readouterr()
    # a verdict that does not follow from the stored numbers is not printed as one
    partial.write_text(json.dumps({**good, "delta": 5.0}))
    assert main(["report", "--report", str(partial)]) == 2
    assert capsys.readouterr().out == ""
    # a UTF-16 file is not read as a report, and its decode error is not a verdict
    partial.write_bytes(utf16(json.dumps(good)))
    assert main(["report", "--report", str(partial)]) == 2
    assert_one_error_line(capsys.readouterr().err)
    partial.write_text(NESTED_DEEP)
    assert main(["report", "--report", str(partial)]) == 2
    assert_one_error_line(capsys.readouterr().err)


def test_every_command_names_its_text_encoding(tmp_path):
    # EncodingWarning marks an open() that would follow the locale, not UTF-8
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(utdd.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")])}
    csv, report, model = (str(tmp_path / name) for name in ("s.csv", "r.json", "m.json"))
    runs = [
        (["simulate", "--config", FIXTURE_CONFIG, "--out", csv], 0),
        (["detect", "--input", csv, *REF, *CUR, "--report-out", report], 1),
        (["report", "--report", report], 1),
        (["fit", "--input", csv, "--from", REF[1], "--to", REF[3],
          "--features", "day_of_week,hour_of_day", "--model-out", model], 0),
    ]
    for argv, code in runs:
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "utdd", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert (done.returncode, done.stderr) == (code, ""), argv


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
