"""End-to-end CLI tests chaining the subcommands on the committed corpus."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentindex.cli import main


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def chain_dir(tmp_path, golden_dir):
    """Run filter -> score -> aggregate on the golden inputs once."""
    filtered = tmp_path / "filtered.jsonl"
    removed = tmp_path / "removed.jsonl"
    assert run(["filter", "--articles", golden_dir / "articles.jsonl",
                "--config", golden_dir / "filter_config.json",
                "--out", filtered, "--removed", removed]) == 0
    scored = tmp_path / "scored.jsonl"
    assert run(["score", "--articles", filtered, "--provider", "lexicon",
                "--provider-file", golden_dir / "lexicon.json", "--out", scored]) == 0
    daily = tmp_path / "daily.csv"
    assert run(["aggregate", "--scored", scored, "--prices", golden_dir / "prices.csv",
                "--config", golden_dir / "aggregation_config.json", "--out", daily]) == 0
    return tmp_path


class TestPipelineChain:
    def test_filter_removes_expected_count(self, chain_dir, golden_dir):
        kept = (chain_dir / "filtered.jsonl").read_text().splitlines()
        removed = (chain_dir / "removed.jsonl").read_text().splitlines()
        raw = (golden_dir / "articles.jsonl").read_text().splitlines()
        assert len(kept) + len(removed) == len(raw)
        assert len(removed) == 4  # one per hygiene rule in the fixture

    def test_aggregate_matches_committed_bytes(self, chain_dir, golden_dir):
        got = (chain_dir / "daily.csv").read_bytes()
        expected = (golden_dir / "expected_daily_sentiment.csv").read_bytes()
        assert got == expected

    def test_backtest_and_report(self, chain_dir, golden_dir):
        out = chain_dir / "bt"
        assert run(["backtest", "--prices", golden_dir / "prices.csv",
                    "--sentiments", chain_dir / "daily.csv",
                    "--config", golden_dir / "backtest_config.json",
                    "--out", out]) == 0
        levels = (out / "levels.csv").read_text().splitlines()
        expected = (golden_dir / "expected_levels.csv").read_text().splitlines()
        assert len(levels) == len(expected)
        for got_line, exp_line in zip(levels[1:], expected[1:]):
            gd, gi, gb = got_line.split(",")
            ed, ei, eb = exp_line.split(",")
            assert gd == ed
            assert abs(float(gi) - float(ei)) <= 1e-9 * float(ei)
            assert abs(float(gb) - float(eb)) <= 1e-9 * float(eb)
        summary = json.loads((out / "summary.json").read_text())
        expected_summary = json.loads((golden_dir / "expected_summary.json").read_text())
        assert summary["trade_stats"] == expected_summary["trade_stats"]

        rep = chain_dir / "rep"
        assert run(["report", "--in", out, "--out", rep]) == 0
        assert (rep / "report.svg").is_file() and (rep / "report.csv").is_file()


class TestOptimizeCommand:
    def test_one_shot_solve(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "company,sentiment\nalpha,0.8\nbeta,0.4\ngamma,-0.2\ndelta_ag,-0.6\n")
        (tmp_path / "prior.csv").write_text(
            "company,weight\nalpha,0.0\nbeta,0.0\ngamma,0.0\ndelta_ag,0.0\n")
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"delta": 0.0, "cap": 0.3, "budget_lo": 0.5, "budget_hi": 0.9}))
        out = tmp_path / "w.csv"
        assert run(["optimize", "--sentiments", tmp_path / "s.csv",
                    "--prior", tmp_path / "prior.csv",
                    "--config", tmp_path / "cfg.json", "--out", out]) == 0
        rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert float(rows["alpha"]) == 0.3
        assert float(rows["beta"]) == 0.3
        assert float(rows["gamma"]) == 0.0
        assert float(rows["delta_ag"]) == 0.0

    def test_infeasible_config_exits_nonzero(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("company,sentiment\nalpha,0.8\n")
        (tmp_path / "prior.csv").write_text("company,weight\nalpha,0.0\n")
        (tmp_path / "cfg.json").write_text(json.dumps({"cap": 0.1, "budget_lo": 0.99}))
        code = run(["optimize", "--sentiments", tmp_path / "s.csv",
                    "--prior", tmp_path / "prior.csv",
                    "--config", tmp_path / "cfg.json", "--out", tmp_path / "w.csv"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestErrorHandling:
    def test_non_finite_close_exits_one(self, chain_dir, golden_dir, capsys):
        lines = (golden_dir / "prices.csv").read_text().splitlines()
        d, company, _ = lines[5].split(",")
        lines[5] = f"{d},{company},nan"
        prices = chain_dir / "prices_nan.csv"
        prices.write_text("\n".join(lines) + "\n")
        out = chain_dir / "bt"
        code = run(["backtest", "--prices", prices, "--sentiments", chain_dir / "daily.csv",
                    "--config", golden_dir / "backtest_config.json", "--out", out])
        assert code == 1
        assert "line 6: non-finite close nan" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sentiment_on_last_date_exits_one(self, chain_dir, golden_dir, capsys):
        # no solve reads the last date's signal at lag 1, so only the loader can catch it
        daily = chain_dir / "daily.csv"
        lines = daily.read_text().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["nan"])
        daily.write_text("\n".join(lines) + "\n")
        out = chain_dir / "bt"
        code = run(["backtest", "--prices", golden_dir / "prices.csv", "--sentiments", daily,
                    "--config", golden_dir / "backtest_config.json", "--out", out])
        assert code == 1
        assert f"line {len(lines)}: non-finite adjusted nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:2] + ["2021-01-01,nan"] + rows[2:], "line 3: benchmark level nan for 2021-01-01"),
        (lambda rows: rows[:3] + ["2021-01-01,0.0"] + rows[3:], "line 4: benchmark level 0.0 for 2021-01-01"),
        (lambda rows: rows + [rows[1]], "duplicate benchmark row for"),
    ], ids=["nan", "zero", "duplicate"])
    def test_bad_benchmark_exits_one(self, chain_dir, golden_dir, capsys, edit, message):
        dates = sorted({line.split(",")[0] for line in
                        (golden_dir / "prices.csv").read_text().splitlines()[1:]})
        rows = ["date,level"] + [f"{d},{1000.0 + i}" for i, d in enumerate(dates)]
        bench = chain_dir / "bench.csv"
        bench.write_text("\n".join(edit(rows)) + "\n")
        out = chain_dir / "bt"
        code = run(["backtest", "--prices", golden_dir / "prices.csv",
                    "--sentiments", chain_dir / "daily.csv", "--benchmark", bench,
                    "--config", golden_dir / "backtest_config.json", "--out", out])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sentiments, message", [
        ("company,sentiment\nalpha,0.8\nalpha,0.4\n", "line 3: duplicate row for alpha"),
        ("company,sentiment\nalpha,0.8\nbeta,inf\n", "line 3: non-finite sentiment inf for beta"),
    ], ids=["duplicate", "inf"])
    def test_bad_weights_csv_exits_one(self, tmp_path, capsys, sentiments, message):
        (tmp_path / "s.csv").write_text(sentiments)
        (tmp_path / "prior.csv").write_text("company,weight\nalpha,0.0\nbeta,0.0\n")
        (tmp_path / "cfg.json").write_text(json.dumps({"cap": 0.5, "budget_lo": 0.5}))
        code = run(["optimize", "--sentiments", tmp_path / "s.csv", "--prior", tmp_path / "prior.csv",
                    "--config", tmp_path / "cfg.json", "--out", tmp_path / "w.csv"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    @pytest.mark.parametrize("command, config", [
        ("filter", [1]), ("score", [1]), ("aggregate", [1]), ("optimize", [1]),
        ("backtest", [1]), ("backtest", {"optimizer": [1]}),
    ], ids=["filter", "score", "aggregate", "optimize", "backtest", "backtest-optimizer-block"])
    def test_config_not_an_object_exits_one(self, tmp_path, golden_dir, capsys, command, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (tmp_path / "w.csv").write_text("company,weight\nalpha,0.0\n")
        g = golden_dir
        argv = {
            "filter": ["--articles", g / "articles.jsonl", "--config", path],
            "score": ["--articles", g / "articles.jsonl", "--provider", "lexicon",
                      "--provider-file", path],
            "aggregate": ["--scored", tmp_path / "none.jsonl", "--prices", g / "prices.csv",
                          "--config", path],
            "optimize": ["--sentiments", tmp_path / "w.csv", "--prior", tmp_path / "w.csv",
                         "--config", path],
            "backtest": ["--prices", g / "prices.csv", "--sentiments", tmp_path / "none.csv",
                         "--config", path],
        }[command]
        assert run([command, *argv, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert str(path) in err and "must be a JSON object, got list" in err
        assert not (tmp_path / "out").exists()

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = run(["filter", "--articles", tmp_path / "nope.jsonl",
                    "--config", tmp_path / "nope.json", "--out", tmp_path / "out.jsonl"])
        assert code == 1
        assert "filter" in capsys.readouterr().err

    def test_unknown_provider_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["score", "--articles", tmp_path / "a.jsonl", "--provider", "magic",
                 "--provider-file", tmp_path / "x", "--out", tmp_path / "out"])
        assert exc.value.code == 2

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestPrescoredProviderPath:
    def test_prescored_roundtrip(self, tmp_path):
        articles = tmp_path / "a.jsonl"
        articles.write_text(json.dumps({
            "id": "a1", "company_id": "puma", "source": "wire",
            "published_at": "2021-03-01T10:00:00+01:00",
            "headline": "puma meldet zahlen", "language": "de"}) + "\n")
        prescored = tmp_path / "p.jsonl"
        prescored.write_text(json.dumps(
            {"id": "a1", "p_negative": 0.7, "p_neutral": 0.2, "p_positive": 0.1}) + "\n")
        out = tmp_path / "scored.jsonl"
        assert run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--out", out]) == 0
        record = json.loads(out.read_text())
        assert record["score"] == -0.7
        assert record["company_id"] == "puma" and record["source"] == "wire"

    def test_missing_id_exits_one(self, tmp_path, capsys):
        articles = tmp_path / "a.jsonl"
        articles.write_text(json.dumps({
            "id": "a2", "company_id": "puma", "source": "wire",
            "published_at": "2021-03-01T10:00:00+01:00",
            "headline": "puma meldet zahlen", "language": "de"}) + "\n")
        prescored = tmp_path / "p.jsonl"
        prescored.write_text("")
        code = run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--out", tmp_path / "out"])
        assert code == 1
        assert "a2" in capsys.readouterr().err

    def test_repeated_id_exits_one(self, tmp_path, capsys):
        articles = tmp_path / "a.jsonl"
        articles.write_text(json.dumps({
            "id": "a1", "company_id": "puma", "source": "wire",
            "published_at": "2021-03-01T10:00:00+01:00",
            "headline": "puma meldet zahlen", "language": "de"}) + "\n")
        prescored = tmp_path / "p.jsonl"
        prescored.write_text(2 * (json.dumps(
            {"id": "a1", "p_negative": 0.7, "p_neutral": 0.2, "p_positive": 0.1}) + "\n"))
        out = tmp_path / "scored.jsonl"
        code = run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{prescored}: line 2: duplicate id 'a1'" in err
        assert not out.exists()

    def test_expectation_mode_flag(self, tmp_path):
        articles = tmp_path / "a.jsonl"
        articles.write_text(json.dumps({
            "id": "a1", "company_id": "puma", "source": "wire",
            "published_at": "2021-03-01T10:00:00+01:00",
            "headline": "puma meldet zahlen", "language": "de"}) + "\n")
        prescored = tmp_path / "p.jsonl"
        prescored.write_text(json.dumps(
            {"id": "a1", "p_negative": 0.2, "p_neutral": 0.3, "p_positive": 0.5}) + "\n")
        out = tmp_path / "scored.jsonl"
        assert run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--mode", "expectation", "--out", out]) == 0
        assert json.loads(out.read_text())["score"] == pytest.approx(0.3)


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, sentindex.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_each_command_loads_only_its_stage_modules(tmp_path, golden_dir):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys; from sentindex.cli import main; code = main(sys.argv[1:]); "
             "print(code, *sorted(m for m in sys.modules if m.startswith('sentindex.')))")
    g, t = golden_dir, tmp_path
    chain = [
        ("filter", {"cli", "corpus", "inputs"},
         ["--articles", g / "articles.jsonl", "--config", g / "filter_config.json",
          "--out", t / "kept.jsonl"]),
        ("score", {"cli", "corpus", "inputs", "sentiment"},
         ["--articles", t / "kept.jsonl", "--provider", "lexicon", "--provider-file", g / "lexicon.json",
          "--out", t / "scored.jsonl"]),
        ("aggregate", {"cli", "corpus", "inputs", "sentiment", "aggregation", "backtest", "optimizer"},
         ["--scored", t / "scored.jsonl", "--prices", g / "prices.csv",
          "--config", g / "aggregation_config.json", "--out", t / "daily.csv"]),
        ("backtest", {"cli", "inputs", "aggregation", "backtest", "optimizer"},
         ["--prices", g / "prices.csv", "--sentiments", t / "daily.csv",
          "--config", g / "backtest_config.json", "--out", t / "bt"]),
        ("report", {"cli", "report"}, ["--in", t / "bt", "--out", t / "rep"]),
    ]
    for command, modules, argv in chain:
        done = subprocess.run([sys.executable, "-c", probe, command, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        code, *loaded = done.stdout.split()
        assert (command, code, set(loaded)) == (command, "0", {f"sentindex.{m}" for m in modules})


class TestStrictInputs:
    @pytest.mark.parametrize("command, config, message", [
        ("optimize", {"delta": None}, "'delta' must be a finite number, got None"),
        ("optimize", {"cap": "0.1"}, "'cap' must be a finite number, got str"),
        ("optimize", {"delta": float("nan")}, "'delta' must be a finite number, got nan"),
        ("filter", {"exclusions": [1]}, "'exclusions' must be a JSON object, got list"),
        ("score", {"gut": {}}, "'gut' must be a finite number, got dict"),
        ("aggregate", {"cutoff_local_time": 17}, "'cutoff_local_time' must be a string, got 17"),
        ("backtest", {"signal_lag_days": 1.5}, "'signal_lag_days' must be an integer, got 1.5"),
        ("backtest", {"tc_rate": float("inf")}, "'tc_rate' must be a finite number, got inf"),
        ("backtest", {"optimizer": {"budget_lo": [0.5]}}, "'optimizer': 'budget_lo' must be a finite number, got list"),
        ("filter", {"max-headline-tokens": 5}, "unknown key 'max-headline-tokens'"),
        ("aggregate", {"market_timezone": "Europe/Berlin", "cutoff": "17:00"}, "unknown key 'cutoff'"),
        ("optimize", {"delta": 1.0, "Cap": 0.1}, "unknown key 'Cap'"),
        ("backtest", {"tc-rate": 0.001}, "unknown key 'tc-rate'"),
        ("backtest", {"optimizer": {"budget-lo": 0.5}}, "'optimizer': unknown key 'budget-lo'"),
    ], ids=["optimize-null", "optimize-string", "optimize-nan", "filter-exclusions", "score-lexicon",
            "aggregate-cutoff", "backtest-lag", "backtest-inf", "backtest-optimizer-value",
            "filter-unknown-key", "aggregate-unknown-key", "optimize-unknown-key", "backtest-unknown-key",
            "backtest-optimizer-unknown-key"])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, golden_dir, capsys,
                                                   command, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (tmp_path / "w.csv").write_text("company,weight\nalpha,0.0\n")
        g = golden_dir
        argv = {
            "filter": ["--articles", g / "articles.jsonl", "--config", path],
            "score": ["--articles", g / "articles.jsonl", "--provider", "lexicon",
                      "--provider-file", path],
            "aggregate": ["--scored", tmp_path / "none.jsonl", "--prices", g / "prices.csv",
                          "--config", path],
            "optimize": ["--sentiments", tmp_path / "w.csv", "--prior", tmp_path / "w.csv",
                         "--config", path],
            "backtest": ["--prices", g / "prices.csv", "--sentiments", tmp_path / "none.csv",
                         "--config", path],
        }[command]
        assert run([command, *argv, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{path}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"delta": 0.5', "invalid JSON (Expecting ',' delimiter"),
        ('{"delta": ' + "[" * 100_000, "invalid JSON (nested too deeply"),
    ], ids=["truncated", "nested"])
    def test_config_that_is_not_json_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        (tmp_path / "w.csv").write_text("company,weight\nalpha,0.0\n")
        assert run(["optimize", "--sentiments", tmp_path / "w.csv", "--prior", tmp_path / "w.csv",
                    "--config", path, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{path}: {message}" in err

    def test_lone_surrogate_article_is_skipped(self, tmp_path, golden_dir, capsys):
        lines = (golden_dir / "articles.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[5])
        record["headline"] += " \ud800"
        lines[5] = json.dumps(record)
        articles = tmp_path / "articles.jsonl"
        articles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = ["--config", golden_dir / "filter_config.json"]
        assert run(["filter", "--articles", golden_dir / "articles.jsonl", *config,
                    "--out", tmp_path / "all.jsonl"]) == 0
        assert run(["filter", "--articles", articles, *config, "--out", tmp_path / "kept.jsonl"]) == 0
        assert "filter: line 6: lone surrogate escape in a text field" in capsys.readouterr().err
        full = (tmp_path / "all.jsonl").read_text(encoding="utf-8").splitlines()
        expected = [line for line in full if json.loads(line)["id"] != record["id"]]
        assert len(expected) == len(full) - 1
        assert (tmp_path / "kept.jsonl").read_text(encoding="utf-8").splitlines() == expected

    def test_non_finite_score_exits_one(self, chain_dir, golden_dir, capsys):
        scored = chain_dir / "scored.jsonl"
        lines = scored.read_text().splitlines()
        record = json.loads(lines[4])
        record["score"] = float("nan")
        lines[4] = json.dumps(record)
        scored.write_text("\n".join(lines) + "\n")
        out = chain_dir / "daily_nan.csv"
        code = run(["aggregate", "--scored", scored, "--prices", golden_dir / "prices.csv",
                    "--config", golden_dir / "aggregation_config.json", "--out", out])
        assert code == 1
        assert f"{scored}: line 5: 'score' must be a finite number, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["aggregate", "score"])
    def test_non_object_line_exits_one(self, tmp_path, golden_dir, capsys, command):
        data = tmp_path / "data.jsonl"
        data.write_text("[1]\n")
        argv = {
            "aggregate": ["--scored", data, "--prices", golden_dir / "prices.csv",
                          "--config", golden_dir / "aggregation_config.json"],
            "score": ["--articles", golden_dir / "articles.jsonl", "--provider", "prescored",
                      "--provider-file", data],
        }[command]
        assert run([command, *argv, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{data}: line 1: not a JSON object (list)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("defect, message", [
        ("short", "line 4: too few fields"),
        ("date", "line 4: month must be in 1..12"),
        ("number", "line 4: could not convert string to float: 'abc'"),
        ("header", "{what} CSV lacks a"),
    ], ids=["short", "date", "number", "header"])
    @pytest.mark.parametrize("target", ["prices", "sentiments", "benchmark"])
    def test_malformed_csv_row_names_file_and_line(self, chain_dir, golden_dir, capsys,
                                                    target, defect, message):
        prices = (golden_dir / "prices.csv").read_text().splitlines()
        dates = sorted({line.split(",")[0] for line in prices[1:]})
        files = {
            "prices": prices,
            "sentiments": (chain_dir / "daily.csv").read_text().splitlines(),
            "benchmark": ["date,level"] + [f"{d},{1000.0 + i}" for i, d in enumerate(dates)],
        }
        lineno = 0 if defect == "header" else 3
        fields = files[target][lineno].split(",")
        if defect == "short":
            fields.pop()
        elif defect == "date":
            fields[0] = "2021-13-05"
        else:
            fields[-1] = "abc"
        files[target][lineno] = ",".join(fields)
        paths = {name: chain_dir / f"{name}.csv" for name in files}
        for name, lines in files.items():
            paths[name].write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = chain_dir / "bt"
        code = run(["backtest", "--prices", paths["prices"], "--sentiments", paths["sentiments"],
                    "--benchmark", paths["benchmark"], "--config", golden_dir / "backtest_config.json",
                    "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        what = {"prices": "price", "sentiments": "sentiment", "benchmark": "benchmark"}[target]
        assert "Traceback" not in err and f"{paths[target]}: {message.format(what=what)}" in err
        assert not out.exists()

    def test_unknown_company_is_counted_and_dropped(self, chain_dir, golden_dir, capsys):
        lines = (chain_dir / "scored.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record.update(id="unknown-1", company_id="keinewerke")
        scored = chain_dir / "scored_unknown.jsonl"
        scored.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        capsys.readouterr()
        out = chain_dir / "daily_unknown.csv"
        assert run(["aggregate", "--scored", scored, "--prices", golden_dir / "prices.csv",
                    "--config", golden_dir / "aggregation_config.json", "--out", out]) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.endswith("after the final trading date, 1 for unknown companies"), summary
        assert out.read_bytes() == (chain_dir / "daily.csv").read_bytes()


# the CLI fuzz gate: lines of arbitrary JSON, junk text and almost-valid records
json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
stamp_st = st.one_of(
    st.sampled_from(["2021-03-01T10:00:00+01:00", "2021-03-12T17:00:00+01:00", "2021-02-01T09:00:00Z",
                     "2021-03-01T10:00:00", "0001-01-01T00:00:00+05:00", "9999-12-31T23:30:00+00:00",
                     "9999-12-31T16:30:00-00:00"]),
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31),
                 timezones=st.builds(timezone, st.timedeltas(min_value=timedelta(hours=-23),
                                                             max_value=timedelta(hours=23)))
                 ).map(datetime.isoformat))
ARTICLE = {"id": "a1", "company_id": "adlerwerke", "source": "wire",
           "published_at": "2021-03-01T10:00:00+01:00", "headline": "adlerwerke kurssprung",
           "body": None, "language": "de"}
SCORED = {"id": "a1", "company_id": "adlerwerke", "source": "wire",
          "published_at": "2021-03-01T10:00:00+01:00", "score": 0.5}
PRESCORED = {"id": "a1", "p_negative": 0.2, "p_neutral": 0.3, "p_positive": 0.5}


def record_st(base: dict):
    """base with its id and stamp drawn from a few, and maybe one field replaced or dropped."""
    def build(aid, stamp, edit):
        record = {**base, "id": aid}
        if "published_at" in record:
            record["published_at"] = stamp
        if edit is not None:
            key, value, drop = edit
            if drop:
                del record[key]
            else:
                record[key] = value
        return json.dumps(record)
    edit = st.tuples(st.sampled_from(sorted(base)), st.one_of(json_st, st.floats()), st.booleans())
    return st.builds(build, st.sampled_from(["a1", "a2", "a3"]), stamp_st, st.none() | edit)


def lines_st(base: dict):
    line = st.one_of(json_st.map(json.dumps), st.text(max_size=12), record_st(base),
                     record_st(base).map(lambda x: f"{x}\n{x}"), st.just(json.dumps(base)))
    return st.lists(line, max_size=6).map(lambda lines: "".join(f"{x}\n" for x in lines))


def _assert_finite(path: Path) -> None:
    """Every number in a written JSON-lines or CSV file is finite."""
    if not path.exists():
        return
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        for row in text.splitlines()[1:]:
            _, _, *numbers = row.split(",")
            assert all(math.isfinite(float(x)) for x in numbers), row
        return
    for line in text.splitlines():
        record = json.loads(line, parse_constant=lambda name: pytest.fail(f"{name} in {path.name}"))
        if "score" in record:
            assert math.isfinite(record["score"]), line


@settings(max_examples=80, deadline=None)
@given(articles=lines_st(ARTICLE), prescored=lines_st(PRESCORED), scored=lines_st(SCORED))
def test_fuzzed_inputs_exit_zero_or_one(articles, prescored, scored):
    g = Path(__file__).resolve().parent / "golden"
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in (("articles.jsonl", articles), ("prescored.jsonl", prescored),
                           ("scored.jsonl", scored)):
            (d / name).write_text(text, encoding="utf-8")
        aggregate = ["--prices", g / "prices.csv", "--config", g / "aggregation_config.json"]
        codes = [
            run(["filter", "--articles", d / "articles.jsonl", "--config", g / "filter_config.json",
                 "--out", d / "kept.jsonl", "--removed", d / "removed.jsonl"]),
            run(["score", "--articles", d / "articles.jsonl", "--provider", "lexicon",
                 "--provider-file", g / "lexicon.json", "--out", d / "lexicon_scored.jsonl"]),
            run(["score", "--articles", d / "articles.jsonl", "--provider", "prescored",
                 "--provider-file", d / "prescored.jsonl", "--mode", "expectation",
                 "--out", d / "prescored_scored.jsonl"]),
            run(["aggregate", "--scored", d / "scored.jsonl", *aggregate, "--out", d / "daily.csv"]),
            run(["aggregate", "--scored", d / "lexicon_scored.jsonl", *aggregate,
                 "--out", d / "chain_daily.csv"]),
        ]
        assert set(codes) <= {0, 1}, codes
        for path in d.iterdir():
            if path.name not in ("articles.jsonl", "prescored.jsonl", "scored.jsonl"):
                _assert_finite(path)
