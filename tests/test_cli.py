"""End-to-end CLI tests chaining the subcommands on the committed corpus."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
