"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import utdd
import utdd.drift
from utdd import load_model, read_series_csv, save_model
from utdd.cli import main
from utdd.series import parse_utc, write_series_csv

FIXTURE_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "fixture.json")

REF = ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", "2020-10-01T00:00:00Z"]
CUR = ["--cur-from", "2020-09-01T00:00:00Z", "--cur-to", "2020-11-01T00:00:00Z"]


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "fixture.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 0
    return out


def child_env():
    """The environment for a ``python -m utdd`` child process that imports this package."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(utdd.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH", "")])}


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
    assert read_series_csv(out).step == 0.333_333  # the reader refuses any other gap
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
    err = capsys.readouterr().err
    assert err == "error: line 3: Expecting property name enclosed in double quotes\n"


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
    "seed, message",
    [
        ("-1", "seed must be non-negative"),  # an integer: the config's count rule names it
        ("1.5", "UTDD_SEED must be an integer, got '1.5'"),
        ("abc", "UTDD_SEED must be an integer, got 'abc'"),
    ],
    ids=["negative", "float", "word"],
)
def test_simulate_names_the_fault_of_an_env_seed(tmp_path, monkeypatch, capsys, seed, message):
    monkeypatch.setenv("UTDD_SEED", seed)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", FIXTURE_CONFIG, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
        json.dumps({**MINIMAL_CONFIG, "holidays": 5}).encode(),
        json.dumps({**MINIMAL_CONFIG, "drift": {"at": "bad"}}).encode(),
        json.dumps({**MINIMAL_CONFIG, "start": 5}).encode(),
        json.dumps({**MINIMAL_CONFIG, "seed": -1}).encode(),
        utf16(json.dumps(MINIMAL_CONFIG)),
        json.dumps({**MINIMAL_CONFIG, "n": 48.7}).encode(),
        json.dumps({**MINIMAL_CONFIG, "components": [{"s": "24"}]}).encode(),
        json.dumps({**MINIMAL_CONFIG, "seed": True}).encode(),
        json.dumps({**MINIMAL_CONFIG, "components": [{"s": 4, "sigma_omega": "12"}]}).encode(),
        json.dumps({**MINIMAL_CONFIG, "sigma_eps": "0.3"}).encode(),
        json.dumps({**MINIMAL_CONFIG, "step_seconds": float("nan")}).encode(),
        json.dumps({**MINIMAL_CONFIG, "step_seconds": 1e-7}).encode(),
        json.dumps(PAST_MEMORY).encode(),
        NESTED_DEEP.encode(),
    ],
    ids=["list", "n-text", "trend-number", "holidays-number", "drift-at-text",
         "start-number", "seed-negative", "utf16", "n-fraction", "s-text", "seed-bool",
         "sigma_omega-text", "sigma_eps-text", "step-nan", "step-rounds-to-0-us", "past-memory",
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


def test_fit_refuses_an_infinite_epsilon_before_fitting(fixture_csv, tmp_path, capsys, monkeypatch):
    def no_ndiffs(*args, **kwargs):
        raise AssertionError("ndiffs ran before the epsilon check")

    monkeypatch.setattr(utdd.drift, "ndiffs", no_ndiffs)
    model_out = tmp_path / "m.json"
    code = main(["fit", "--input", str(fixture_csv), "--from", "2020-08-01T00:00:00Z",
                 "--to", "2020-10-01T00:00:00Z", "--features", "day_of_week", "--epsilon", "inf",
                 "--model-out", str(model_out)])
    assert code == 2
    assert capsys.readouterr().err == "error: epsilon must be positive and finite\n"
    assert not model_out.exists()


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


FIT_WINDOW = ["--from", "2020-08-01T00:00:00Z", "--to", "2020-10-01T00:00:00Z"]
HOLIDAYS = "2020-08-10,2020-08-24,2020-09-07,2020-09-21"


@pytest.mark.parametrize(
    "flags, features, kwargs",
    [
        (["--features", "day_of_week,hour_of_day"], ("day_of_week", "hour_of_day"), {}),
        (["--features", ",".join(utdd.DEFAULT_FEATURE_ORDER), "--holidays", HOLIDAYS],
         utdd.DEFAULT_FEATURE_ORDER, {}),
        (["--features", "day_of_week,hour_of_day", "--epsilon", "1e-3"],
         ("day_of_week", "hour_of_day"), {"epsilon": 1e-3}),
        (["--features", "day_of_week,hour_of_day", "--max-diff", "0"],
         ("day_of_week", "hour_of_day"), {"max_diff": 0}),
        ([], utdd.DEFAULT_FEATURE_ORDER, {}),
    ],
    ids=["readme", "holidays", "epsilon", "max-diff-0", "defaults"],
)
def test_fit_saves_the_reference_model_of_run_utdd(fixture_csv, tmp_path, capsys, flags, features,
                                                     kwargs):
    # utdd fit and run_utdd fit a reference window by one path; a second copy drifts apart
    model_out = tmp_path / "model.json"
    assert main(["fit", "--input", str(fixture_csv), *FIT_WINDOW, *flags,
                 "--model-out", str(model_out)]) == 0
    capsys.readouterr()
    series = read_series_csv(fixture_csv)
    start, end = (parse_utc(text) for text in FIT_WINDOW[1::2])
    reference = series.window(start, end)
    days = HOLIDAYS.split(",") if "--holidays" in flags else []
    holidays = frozenset(date.fromisoformat(day) for day in days)
    specs = [utdd.FeatureSpec(kind, holiday_dates=holidays if kind == "is_holiday" else None)
             for kind in features]
    result = utdd.run_utdd(reference, reference, specs, **kwargs)
    # the document of the loaded model is that of run_utdd's
    save_model(load_model(model_out), tmp_path / "loaded.json")
    save_model(result.reference.model, tmp_path / "run_utdd.json")
    assert (tmp_path / "loaded.json").read_bytes() == (tmp_path / "run_utdd.json").read_bytes()


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
        header, *lines = (tmp_path / name).read_text().splitlines()
        columns = header.split(",")[1:]
        data = np.loadtxt(lines, delimiter=",", usecols=range(1, len(columns) + 1), ndmin=2)
        assert len(data) == rows, name
        if "fit" in name:
            assert columns == ["observed", "seasonal", "residual"]
            assert_allclose(data[:, 0], data[:, 1] + data[:, 2], atol=0)
        else:
            assert columns == ["residual"]


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
    # one data row gives no step
    one_row = tmp_path / "one.csv"
    one_row.write_text("\n".join(fixture_csv.read_text().splitlines()[:2]) + "\n")
    assert main(["detect", "--input", str(one_row), *REF, *CUR,
                 "--report-out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: one data row gives no step; need two or more\n"
    assert not (tmp_path / "r.json").exists()


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


def test_detect_refuses_an_infinite_epsilon_before_fitting(fixture_csv, tmp_path, capsys):
    report_out = tmp_path / "r.json"
    code = main(["detect", "--input", str(fixture_csv), *REF, *CUR, "--epsilon", "inf",
                 "--report-out", str(report_out)])
    assert code == 2
    assert capsys.readouterr().err == "error: epsilon must be positive and finite\n"
    assert not report_out.exists()


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


@pytest.mark.parametrize("command", ["fit", "detect"])
@pytest.mark.parametrize(
    "flags, message",
    [
        # no stage would read the dates, so the run would silently ignore them
        (["--features", "day_of_week,hour_of_day", "--holidays", "2020-08-10"],
         "--holidays is given, but --features lists no is_holiday"),
        # the second copy would contribute about 0 and stop boosting before hour_of_day
        (["--features", "day_of_week,day_of_week,hour_of_day"],
         "each candidate feature may be listed once"),
        # 30 points of a sinusoid reach difference 10 of 12, too short for an ADF test
        (["--features", "day_of_week", "--max-diff", "12"],
         "max_diff 12: difference 10: "
         "20 points leave 11 usable observations for 10 regressors; need at least 12"),
    ],
    ids=["holidays-without-is-holiday", "repeated-feature", "max-diff-past-adf-bound"],
)
def test_fit_and_detect_refuse_flags_that_would_mislead(tmp_path, capsys, command, flags, message):
    # two 30-point hourly windows, the first a sinusoid that never tests stationary
    series = tmp_path / "sin.csv"
    write_series_csv(utdd.TimeSeries(parse_utc("2020-08-01T00:00:00Z"), 3600.0,
                                     np.sin(np.arange(60) / 3.0)), series)
    cut, end = "2020-08-02T06:00:00Z", "2020-08-03T12:00:00Z"
    out = tmp_path / "out"
    out.mkdir()
    if command == "fit":
        windows = ["--from", "2020-08-01T00:00:00Z", "--to", cut, "--model-out"]
    else:
        windows = ["--ref-from", "2020-08-01T00:00:00Z", "--ref-to", cut,
                   "--cur-from", cut, "--cur-to", end, "--report-out"]
    code = main([command, "--input", str(series), *flags, *windows, str(out / "out.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert err == f"error: {message}\n"
    assert list(out.iterdir()) == []


HOLIDAYS_WITHOUT_IS_HOLIDAY = (["--features", "day_of_week", "--holidays", "2020-08-01"],
                               "--holidays is given, but --features lists no is_holiday")


@pytest.mark.parametrize(
    "command, flags, message",
    [
        pytest.param("fit", *HOLIDAYS_WITHOUT_IS_HOLIDAY, id="fit"),
        pytest.param("detect", *HOLIDAYS_WITHOUT_IS_HOLIDAY, id="detect"),
        pytest.param("fit", ["--epsilon", "0"], "epsilon must be positive and finite",
                     id="fit-epsilon"),
        pytest.param("detect", ["--epsilon", "inf"], "epsilon must be positive and finite",
                     id="detect-epsilon"),
        pytest.param("fit", ["--max-diff", "-1"], "max_diff must be non-negative",
                     id="fit-max-diff"),
        pytest.param("detect", ["--max-diff", "-1"], "max_diff must be non-negative",
                     id="detect-max-diff"),
        pytest.param("detect", ["--threshold", "0"], "threshold must be positive and finite",
                     id="detect-threshold"),
        pytest.param("fit", ["--to", "garbage"],
                     "--from/--to: Invalid isoformat string: 'garbage'", id="fit-window"),
        pytest.param("detect", ["--ref-from", "garbage"],
                     "--ref-from/--ref-to: Invalid isoformat string: 'garbage'",
                     id="detect-window"),
        pytest.param("detect", ["--cur-to", "garbage"],
                     "--cur-from/--cur-to: Invalid isoformat string: 'garbage'",
                     id="detect-current-window"),
        pytest.param("fit", ["--to", "2020-08-01T00:00:00Z"],
                     "--from/--to: window end must be after window start", id="fit-inverted"),
        pytest.param("detect", ["--ref-from", "2020-10-01T00:00:00Z", "--ref-to",
                                "2020-08-01T00:00:00Z"],
                     "--ref-from/--ref-to: window end must be after window start",
                     id="detect-inverted"),
    ],
)
def test_fit_and_detect_refuse_flags_before_reading_the_input(tmp_path, capsys, command, flags,
                                                               message):
    # the refused flag is named, not the input that was never opened
    if command == "fit":
        windows = ["--from", "2020-08-01T00:00:00Z", "--to", "2020-10-01T00:00:00Z", "--model-out"]
    else:
        windows = [*REF, *CUR, "--report-out"]
    # a flag given twice takes its last value, so ``flags`` replaces a window bound
    code = main([command, "--input", str(tmp_path / "missing.csv"), *windows,
                 str(tmp_path / "out.json"), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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
    env = child_env()
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


# Appended to code that sets ``code``: prints it, the loaded modules among numpy
# and the utdd submodules, and OPENBLAS_NUM_THREADS.
_LOADED = """
import json, os, sys
modules = sorted(name for name in sys.modules if name == "numpy" or name.startswith("utdd."))
print(json.dumps([code, modules, os.environ.get("OPENBLAS_NUM_THREADS")]))
"""
_RUN_UTDD = """
import runpy
try:
    runpy.run_module("utdd", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
"""


def loaded_modules(cwd, *argv, blas_threads=None):
    """The exit code of a fresh ``python -m utdd ARGV...`` process, the modules it loaded and
    its OPENBLAS_NUM_THREADS at exit; with no ARGV, code None and what ``import utdd`` leaves.
    The process starts with OPENBLAS_NUM_THREADS set to ``blas_threads``, or unset."""
    run = _RUN_UTDD if argv else "import utdd\ncode = None"
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", run + _LOADED, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)
    code, modules, threads = json.loads(done.stdout.splitlines()[-1])
    return code, set(modules), threads


def test_each_command_imports_only_what_it_runs(fixture_csv, tmp_path):
    # one process per command: report, --help and usage errors start without numpy
    code, detected, _ = loaded_modules(tmp_path, "detect", "--input", str(fixture_csv), *REF,
                                       *CUR, "--report-out", "r.json")
    assert code == 1 and "utdd.drift" in detected and "utdd.simulate" not in detected
    code, simulated, _ = loaded_modules(tmp_path, "simulate", "--config", FIXTURE_CONFIG,
                                     "--out", "s.csv")
    assert code == 0 and {"numpy", "utdd.simulate"} <= simulated
    assert not simulated & {"utdd.drift", "utdd.stationarity", "utdd.embeddings"}
    for argv, expected in [((), None), (("report", "--report", "r.json"), 1), (("--help",), 0),
                           (("detect", "--help"), 0), (("detect", "--input", "s.csv"), 2),
                           (("--report", "r.json"), 2)]:
        code, modules, _ = loaded_modules(tmp_path, *argv)
        assert code == expected and "numpy" not in modules, (argv, modules)


def test_commands_run_openblas_on_one_thread_unless_told_otherwise(fixture_csv, tmp_path,
                                                                   monkeypatch):
    detect = ("detect", "--input", str(fixture_csv), *REF, *CUR, "--report-out", "r.json")
    code, modules, threads = loaded_modules(tmp_path, *detect)
    assert (code, threads) == (1, "1") and "numpy" in modules
    code, _, threads = loaded_modules(tmp_path, *detect, blas_threads="3")
    assert (code, threads) == (1, "3")
    # importing the package sets nothing, and neither does main once numpy is loaded
    assert loaded_modules(tmp_path)[2] is None
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert main(["report", "--report", str(tmp_path / "r.json")]) == 1
    assert "OPENBLAS_NUM_THREADS" not in os.environ


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
