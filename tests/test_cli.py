"""End-to-end CLI tests chaining the subcommands on the committed corpus."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentindex import aggregation, corpus, sentiment
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

    def test_aggregate_never_builds_the_dense_rows(self, chain_dir, golden_dir, monkeypatch):
        def refuse(result):
            raise AssertionError("aggregate built AggregationResult.rows")

        monkeypatch.setattr(aggregation.AggregationResult, "rows", property(refuse))
        out = chain_dir / "daily_guarded.csv"
        assert run(["aggregate", "--scored", chain_dir / "scored.jsonl", "--prices", golden_dir / "prices.csv",
                    "--config", golden_dir / "aggregation_config.json", "--out", out]) == 0
        assert out.read_bytes() == (chain_dir / "daily.csv").read_bytes()

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
        tc_rate = json.loads((golden_dir / "backtest_config.json").read_text())["tc_rate"]
        trades = [line.split(",") for line in (out / "trades.csv").read_text().splitlines()[1:]]
        assert any(float(delta) < 0 for _, _, delta, _ in trades)
        assert all(float(cost) == tc_rate * abs(float(delta)) for _, _, delta, cost in trades)

        rep = chain_dir / "rep"
        assert run(["report", "--in", out, "--out", rep]) == 0
        assert (rep / "report.svg").is_file() and (rep / "report.csv").is_file()

    def test_chain_on_one_date(self, chain_dir, golden_dir):
        """Cut to its first date, the chain still runs, and each series is one point mid-chart."""
        header, *rows = (golden_dir / "prices.csv").read_text().splitlines()
        first = rows[0].split(",")[0]
        prices = chain_dir / "prices1.csv"
        prices.write_text("\n".join([header, *(row for row in rows if row.startswith(first + ","))]) + "\n")
        assert run(["aggregate", "--scored", chain_dir / "scored.jsonl", "--prices", prices, "--config",
                    golden_dir / "aggregation_config.json", "--out", chain_dir / "daily1.csv"]) == 0
        assert run(["backtest", "--prices", prices, "--sentiments", chain_dir / "daily1.csv",
                    "--config", golden_dir / "backtest_config.json", "--out", chain_dir / "bt1"]) == 0
        assert json.loads((chain_dir / "bt1" / "summary.json").read_text())["trading_days"] == 1
        assert run(["report", "--in", chain_dir / "bt1", "--out", chain_dir / "rep1"]) == 0
        points = re.findall(r'<polyline points="([^"]*)"', (chain_dir / "rep1" / "report.svg").read_text())
        assert len(points) == 2 and all(re.fullmatch(r"480\.00,[\d.]+", p) for p in points), points


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
        # a tiny close overflows the next day's return, or the annualized return
        for close, message in [
            ("nan", "line 6: non-finite close nan"),
            ("5e-324", "levels are not finite on 2021-03-02: nan, inf"),
            ("1e-300", "annualized return of levels 99.95049999999999 to 3.632759128198721e+302 overflows"),
        ]:
            lines = (golden_dir / "prices.csv").read_text().splitlines()
            d, company, _ = lines[5].split(",")
            lines[5] = f"{d},{company},{close}"
            prices = chain_dir / "prices_nan.csv"
            prices.write_text("\n".join(lines) + "\n")
            out = chain_dir / "bt"
            code = run(["backtest", "--prices", prices, "--sentiments", chain_dir / "daily.csv",
                        "--config", golden_dir / "backtest_config.json", "--out", out])
            assert code == 1
            err = capsys.readouterr().err
            assert "Traceback" not in err and message in err
            assert not out.exists()

    def test_costs_that_wipe_out_the_portfolio_exit_one(self, tmp_path, capsys):
        """A day whose costs take the level to zero or below exits 1 and writes nothing."""
        dates = ["2021-03-01", "2021-03-02", "2021-03-03", "2021-03-04", "2021-03-05", "2021-03-08"]
        (tmp_path / "prices.csv").write_text(
            "date,company,close\n" + "".join(f"{d},{c},100.0\n" for d in dates for c in "ab"))
        # the signal swaps every day, so the whole book turns over at a 90 % cost rate
        (tmp_path / "daily.csv").write_text("date,company,adjusted\n" + "".join(
            f"{d},{c},{1.0 if (i + j) % 2 == 0 else -1.0}\n"
            for i, d in enumerate(dates) for j, c in enumerate("ab")))
        (tmp_path / "config.json").write_text(json.dumps({"tc_rate": 0.9, "signal_lag_days": 0, "optimizer": {
            "delta": 0.0, "cap": 1.0, "budget_lo": 0.99, "budget_hi": 0.999}}))
        out = tmp_path / "bt"
        code = run(["backtest", "--prices", tmp_path / "prices.csv", "--sentiments", tmp_path / "daily.csv",
                    "--config", tmp_path / "config.json", "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "sentindex backtest: portfolio wiped out on 2021-03-02: gross return 0.0, cost 1.7982\n"
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

    @pytest.mark.parametrize("name, what, column", [("prices", "price", "close"),
                                                    ("daily", "sentiment", "adjusted")])
    def test_grid_gap_exits_one(self, chain_dir, golden_dir, capsys, name, what, column):
        # no solve reads the last date's sentiment at lag 1, so only the loader can catch its gap
        paths = {"prices": golden_dir / "prices.csv", "daily": chain_dir / "daily.csv"}
        lines = paths[name].read_text().splitlines()
        d, company = lines.pop().split(",")[:2]
        paths[name] = chain_dir / f"{name}_gap.csv"
        paths[name].write_text("\n".join(lines) + "\n")
        out = chain_dir / "bt"
        code = run(["backtest", "--prices", paths["prices"], "--sentiments", paths["daily"],
                    "--config", golden_dir / "backtest_config.json", "--out", out])
        assert code == 1
        message = f"{paths[name]}: {what} CSV has a gap: no {column} for ({company}, {d})"
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows[:2] + ["2021-01-01,nan"] + rows[2:], "line 3: benchmark level nan for 2021-01-01"),
        (lambda rows: rows[:3] + ["2021-01-01,0.0"] + rows[3:], "line 4: benchmark level 0.0 for 2021-01-01"),
        (lambda rows: rows + [rows[1]], "duplicate benchmark row for"),
        (lambda rows: rows[:2] + rows[3:], "benchmark series lacks 2021-03-02"),
    ], ids=["nan", "zero", "duplicate", "lacking"])
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

    def test_bad_probabilities_exit_one_naming_file_and_line(self, tmp_path, capsys):
        """A bad row fails score even when no article asks for its id."""
        articles = tmp_path / "a.jsonl"
        articles.write_text(json.dumps({
            "id": "a1", "company_id": "puma", "source": "wire",
            "published_at": "2021-03-01T10:00:00+01:00",
            "headline": "puma meldet zahlen", "language": "de"}) + "\n")
        prescored = tmp_path / "p.jsonl"
        prescored.write_text("".join(json.dumps(row) + "\n" for row in (
            {"id": "a1", "p_negative": 0.7, "p_neutral": 0.2, "p_positive": 0.1},
            {"id": "filtered-out", "p_negative": 0.2, "p_neutral": 0.3, "p_positive": 0.4})))
        out = tmp_path / "scored.jsonl"
        code = run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (f"sentindex score: {prescored}: line 2: class probabilities "
                                           "sum to 0.9, not 1: (0.2, 0.3, 0.4)\n")
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


def _article(aid: str, headline: str = "puma meldet zahlen") -> str:
    return json.dumps({"id": aid, "company_id": "puma", "source": "wire",
                       "published_at": "2021-03-01T10:00:00+01:00", "headline": headline}) + "\n"


def _prescored(*ids: str) -> str:
    return "".join(json.dumps({"id": aid, "p_negative": 0.7, "p_neutral": 0.2, "p_positive": 0.1}) + "\n"
                   for aid in ids)


class TestScoreFailures:
    """score writes beside --out and moves the file onto it only once every article is scored."""

    def test_missing_id_on_last_article_leaves_output_intact(self, tmp_path, capsys):
        articles, prescored, out = tmp_path / "a.jsonl", tmp_path / "p.jsonl", tmp_path / "scored.jsonl"
        articles.write_text(_article("a1") + "{not json\n" + _article("a2") + _article("a3"))
        prescored.write_text(_prescored("a1", "a2"))
        out.write_bytes(b"an earlier run\n")
        code = run(["score", "--articles", articles, "--provider", "prescored",
                    "--provider-file", prescored, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == ("score: line 2: invalid JSON (Expecting property name enclosed in "
                                           "double quotes)\n"
                                           "sentindex score: no pre-scored entry for article id 'a3'\n")
        assert out.read_bytes() == b"an earlier run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "p.jsonl", "scored.jsonl"]

    def test_out_may_be_the_articles_file(self, tmp_path, capsys):
        articles, prescored, out = tmp_path / "a.jsonl", tmp_path / "p.jsonl", tmp_path / "scored.jsonl"
        articles.write_text(_article("a1") + _article("a2"))
        prescored.write_text(_prescored("a1", "a2"))
        argv = ["score", "--articles", articles, "--provider", "prescored", "--provider-file", prescored]
        assert run([*argv, "--out", out]) == 0
        assert run([*argv, "--out", articles]) == 0
        assert articles.read_bytes() == out.read_bytes()
        assert capsys.readouterr().err == 2 * "score: wrote 2 records\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "p.jsonl", "scored.jsonl"]

    def test_missing_output_directory_names_out(self, tmp_path, capsys):
        articles, out = tmp_path / "a.jsonl", tmp_path / "missing" / "scored.jsonl"
        articles.write_text(_article("a1"))
        code = run(["score", "--articles", articles, "--provider", "lexicon",
                    "--provider-file", GOLDEN / "lexicon.json", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"sentindex score: [Errno 2] No such file or directory: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl"]

    @pytest.mark.parametrize("provider, text, message", [
        ("prescored", _prescored("a1", "a1"), "line 2: duplicate id 'a1'"),
        ("lexicon", '{"gut": 2}', "lexicon values outside [-1, 1]: {'gut': 2.0}"),
    ], ids=["prescored", "lexicon"])
    def test_provider_failure_prints_only_the_error(self, tmp_path, capsys, provider, text, message):
        """The provider loads before any article is read, so no diagnostic comes before its error."""
        articles, path, out = tmp_path / "a.jsonl", tmp_path / "provider", tmp_path / "scored.jsonl"
        articles.write_text("[1]\n" + _article("a1") + "{not json\n")
        path.write_text(text)
        code = run(["score", "--articles", articles, "--provider", provider, "--provider-file", path,
                    "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"sentindex score: {path}: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.jsonl", "provider"]


def test_cli_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, sentindex.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_each_command_loads_only_its_stage_modules(tmp_path, golden_dir):
    """Each command imports its own stage modules, and neither dataclasses nor inspect.

    The probe compares with the modules loaded before sentindex is imported, so
    that what site imports at start-up does not count.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = ("import sys; before = set(sys.modules); from sentindex.cli import main; code = main(sys.argv[1:]); "
             "print(code, *sorted(m for m in set(sys.modules) - before "
             "if m.startswith('sentindex.') or m in ('dataclasses', 'inspect')))")
    g, t = golden_dir, tmp_path
    (t / "signal.csv").write_text("company,sentiment\nalpha,0.8\nbeta,0.4\ngamma,-0.2\n", encoding="utf-8")
    (t / "prior.csv").write_text("company,weight\nalpha,0.0\nbeta,0.0\ngamma,0.0\n", encoding="utf-8")
    (t / "opt.json").write_text('{"cap": 0.5, "budget_lo": 0.5, "budget_hi": 0.9}', encoding="utf-8")
    chain = [
        ("filter", {"cli", "corpus", "inputs"},
         ["--articles", g / "articles.jsonl", "--config", g / "filter_config.json",
          "--out", t / "kept.jsonl"]),
        ("score", {"cli", "corpus", "inputs", "sentiment"},
         ["--articles", t / "kept.jsonl", "--provider", "lexicon", "--provider-file", g / "lexicon.json",
          "--out", t / "scored.jsonl"]),
        ("aggregate", {"cli", "inputs", "grids", "sentiment", "aggregation"},
         ["--scored", t / "scored.jsonl", "--prices", g / "prices.csv",
          "--config", g / "aggregation_config.json", "--out", t / "daily.csv"]),
        ("optimize", {"cli", "inputs", "optimizer"},
         ["--sentiments", t / "signal.csv", "--prior", t / "prior.csv", "--config", t / "opt.json",
          "--out", t / "weights.csv"]),
        ("backtest", {"cli", "inputs", "grids", "backtest", "optimizer"},
         ["--prices", g / "prices.csv", "--sentiments", t / "daily.csv",
          "--config", g / "backtest_config.json", "--out", t / "bt"]),
        ("report", {"cli", "inputs", "report"}, ["--in", t / "bt", "--out", t / "rep"]),
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
        ("filter", {"max_headline_tokens": 2.0}, "'max_headline_tokens' must be an integer, got 2.0"),
        ("filter", {"auto_generated_phrases": "x"}, "'auto_generated_phrases' must be a list of strings, got str"),
        ("backtest", {"initial_level": True}, "'initial_level' must be a finite number, got True"),
        ("aggregate", {"market_timezone": None}, "'market_timezone' must be a string, got None"),
    ], ids=["optimize-null", "optimize-string", "optimize-nan", "filter-exclusions", "score-lexicon",
            "aggregate-cutoff", "backtest-lag", "backtest-inf", "backtest-optimizer-value",
            "filter-unknown-key", "aggregate-unknown-key", "optimize-unknown-key", "backtest-unknown-key",
            "backtest-optimizer-unknown-key", "filter-int-kind", "filter-list-kind", "backtest-float-kind",
            "aggregate-str-kind"])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, golden_dir, capsys,
                                                   command, config, message):
        self._config_exits_one(tmp_path, golden_dir, capsys, command, json.dumps(config), message)

    @pytest.mark.parametrize("command, text, message", [
        ("backtest", '{"tc_rate": 2.0}', "tc_rate must be in [0, 1), got 2.0"),
        ("backtest", '{"optimizer": {"cap": 1.5}}', "'optimizer': cap must be in (0, 1], got 1.5"),
        ("optimize", '{"delta": -1}', "delta must be nonnegative, got -1.0"),
        ("score", '{"gut": 0.5, "schlecht": -2}', "lexicon values outside [-1, 1]: {'schlecht': -2.0}"),
        ("aggregate", '{"market_timezone": "Mars/Olympus"}',
         "market_timezone must name a known time zone, got 'Mars/Olympus'"),
        ("aggregate", '{"market_timezone": "../etc"}', "market_timezone must name a known time zone, got '../etc'"),
        ("aggregate", '{"cutoff_local_time": "25:00"}', "cutoff_local_time must be HH:MM, got '25:00'"),
        *[("aggregate", json.dumps({"cutoff_local_time": cutoff}), f"cutoff_local_time must be HH:MM, got {cutoff!r}")
          for cutoff in ("1_7:00", " 17:00", "+17:00", "\u0661\u0667:\u0660\u0660")],
        ("filter", '{"max_headline_tokens": 0}', "max_headline_tokens must be >= 1, got 0"),
        ("filter", '{"exclusions": {"adlerwerke": ["tierpark", "Tierpark"]}}',
         "exclusion keyword 'Tierpark' of 'adlerwerke' must be lower case and not empty"),
        ("filter", '{"auto_generated_phrases": [""]}', "auto-generated phrase '' must be lower case and not empty"),
        *[(command, '{"x": ' + "7" * 5000 + "}",
           "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits")
          for command in ("filter", "score", "aggregate", "optimize", "backtest")],
    ], ids=["backtest-range", "backtest-optimizer-range", "optimize-range", "score-lexicon-range", "aggregate-zone",
            "aggregate-zone-path", "aggregate-cutoff", "aggregate-cutoff-underscore", "aggregate-cutoff-space",
            "aggregate-cutoff-plus", "aggregate-cutoff-arabic-digits", "filter-tokens", "filter-keyword-case",
            "filter-phrase-empty", "filter-huge-int", "score-huge-int", "aggregate-huge-int",
            "optimize-huge-int", "backtest-huge-int"])
    def test_config_error_after_kind_check_names_file(self, tmp_path, golden_dir, capsys, command, text, message):
        self._config_exits_one(tmp_path, golden_dir, capsys, command, text, message)

    @staticmethod
    def _config_exits_one(tmp_path, golden_dir, capsys, command, text, message):
        """command exits 1 on a config file of text, naming the file and then message."""
        path = tmp_path / "config.json"
        path.write_text(text)
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

    def test_huge_integer_article_is_skipped(self, tmp_path, golden_dir, capsys):
        lines = (golden_dir / "articles.jsonl").read_text(encoding="utf-8").splitlines()
        lines.insert(3, '{"id": "x", "n": ' + "7" * 5000 + "}")
        articles = tmp_path / "articles.jsonl"
        articles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = ["--config", golden_dir / "filter_config.json"]
        assert run(["filter", "--articles", golden_dir / "articles.jsonl", *config,
                    "--out", tmp_path / "all.jsonl"]) == 0
        capsys.readouterr()
        assert run(["filter", "--articles", articles, *config, "--out", tmp_path / "kept.jsonl"]) == 0
        assert capsys.readouterr().err.startswith(
            "filter: line 4: invalid JSON (Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5000 digits)\n")
        assert (tmp_path / "kept.jsonl").read_bytes() == (tmp_path / "all.jsonl").read_bytes()

    @pytest.mark.parametrize("text, message", [
        ('{"delta": 0.5', "invalid JSON (Expecting ',' delimiter"),
        ('{"delta": ' + "[" * 100_000, "invalid JSON (nested too deeply"),
        ('{\n"delta": "\udcff"}', "line 2: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"),
    ], ids=["truncated", "nested", "utf8"])
    def test_config_that_is_not_json_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text, errors="surrogateescape")
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

    @pytest.mark.parametrize("command, line, message", [
        ("aggregate", "[1]", "line 1: not a JSON object (list)"),
        ("score", "[1]", "line 1: not a JSON object (list)"),
        ("aggregate", '{"id": "\udcff"}', "line 1: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
        ("aggregate", '{"score": ' + "7" * 5000 + "}", "line 1: invalid JSON (Exceeds the limit (4300 digits)"),
        ("score", '{"p_neutral": ' + "7" * 5000 + "}", "line 1: invalid JSON (Exceeds the limit (4300 digits)"),
        ("aggregate", json.dumps({"id": "a1", "company_id": "adlerwerke", "source": "wire",
                                  "published_at": "2021-03-01X10:00:00+01:00", "score": 0.5}),
         "line 1: bad published_at (not a date, then T, t or a space, then a time with a fraction only after the"
         " seconds)"),
    ], ids=["aggregate", "score", "aggregate-utf8", "aggregate-huge-int", "score-huge-int", "aggregate-stamp"])
    def test_non_object_line_exits_one(self, tmp_path, golden_dir, capsys, command, line, message):
        data = tmp_path / "data.jsonl"
        data.write_text(f"{line}\n", errors="surrogateescape")
        argv = {
            "aggregate": ["--scored", data, "--prices", golden_dir / "prices.csv",
                          "--config", golden_dir / "aggregation_config.json"],
            "score": ["--articles", golden_dir / "articles.jsonl", "--provider", "prescored",
                      "--provider-file", data],
        }[command]
        assert run([command, *argv, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{data}: {message}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target, defect, message", [
        pytest.param(target, defect, message, id=f"{target}-{defect}")
        for target in ("prices", "sentiments", "benchmark", "levels", "weights")
        for defect, message in (
            ("short", "line 4: too few fields"),
            ("date", "line 4: month must be in 1..12"),
            ("number", "line 4: could not convert string to float: 'abc'"),
            ("header", "{what} CSV lacks a"),
            ("empty", "no data rows" if target == "levels" else "{what} CSV contains no rows"),
            ("utf8", "line 4: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # line 3 ends at a bare \r, which ends a line as in a text-mode read
            ("utf8-cr", "line 4: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # the last line, past the first 8 KiB chunk that the strict read decodes
            ("utf8-late", "line 361: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            # line 4 repeats line 3, whose fields fill the message
            ("repeat", "line 4: " + {"prices": "duplicate price row for ({1}, {0})",
                                     "sentiments": "duplicate sentiment row for ({1}, {0})",
                                     "benchmark": "duplicate benchmark row for {0}",
                                     "levels": "date {0} does not follow {0}",
                                     "weights": "duplicate row for {0}"}[target]),
        )
        if (target, defect) != ("weights", "date")  # a weights row has no date
        # an empty benchmark lacks the first date, and the optimizer reads no empty grid
        and (defect != "empty" or target in ("prices", "sentiments", "levels"))
        and (defect != "utf8-late" or target in ("prices", "sentiments"))  # the files of 8 KiB or more
    ])
    def test_malformed_csv_row_names_file_and_line(self, chain_dir, golden_dir, capsys,
                                                    target, defect, message):
        prices = (golden_dir / "prices.csv").read_text().splitlines()
        dates = sorted({line.split(",")[0] for line in prices[1:]})
        files = {
            "prices": prices,
            "sentiments": (chain_dir / "daily.csv").read_text().splitlines(),
            "benchmark": ["date,level"] + [f"{d},{1000.0 + i}" for i, d in enumerate(dates)],
            "levels": (golden_dir / "expected_levels.csv").read_text().splitlines(),
            "weights": ["company,sentiment", "alpha,0.8", "beta,0.4", "gamma,-0.2", "delta,0.1"],
        }
        lineno = {"header": 0, "empty": 0, "utf8-late": 360}.get(defect, 3)
        assert defect != "utf8-late" or len("\n".join(files[target][:lineno])) > 8192
        fields = files[target][lineno].split(",")
        if defect == "empty":
            del files[target][1:]
        elif defect == "short":
            fields.pop()
        elif defect == "date":
            fields[0] = "2021-13-05"
        elif defect.startswith("utf8"):
            fields[0] = "\udcff" + fields[0]  # written as the byte 0xff
        elif defect == "repeat":
            fields = files[target][lineno - 1].split(",")
        elif defect != "empty":
            fields[-1] = "abc"
        files[target][lineno] = ",".join(fields)
        if defect == "utf8-cr":
            files[target][2:4] = ["\r".join(files[target][2:4])]
        paths = {name: chain_dir / f"{name}.csv" for name in files}
        for name, lines in files.items():
            paths[name].write_text("\n".join(lines) + "\n", errors="surrogateescape")
        run_dir = chain_dir / "run"
        run_dir.mkdir()
        paths["levels"].replace(run_dir / "levels.csv")
        paths["levels"] = run_dir / "levels.csv"
        for name in ("trades.csv", "summary.json"):
            (run_dir / name).write_bytes((golden_dir / f"expected_{name}").read_bytes())
        (chain_dir / "optimizer.json").write_text("{}")
        capsys.readouterr()
        out = chain_dir / "out"
        argv = {
            "levels": ["report", "--in", run_dir],
            "weights": ["optimize", "--sentiments", paths["weights"], "--prior", paths["weights"],
                        "--config", chain_dir / "optimizer.json"],
        }.get(target, ["backtest", "--prices", paths["prices"], "--sentiments", paths["sentiments"],
                       "--benchmark", paths["benchmark"], "--config", golden_dir / "backtest_config.json"])
        code = run([*argv, "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        what = {"prices": "price", "sentiments": "sentiment", "benchmark": "benchmark",
                "levels": "levels", "weights": "sentiment"}[target]
        assert "Traceback" not in err and f"{paths[target]}: {message.format(*fields, what=what)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        ("aggregate", "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
        ("score", "line 2: not a JSON object (list)"),
        # line 2 fails the check of the block reader, which gives the file to the general reader
        ("backtest", "line 2: nonpositive close -1.0 for ({1}, {0})"),
    ], ids=["aggregate", "score", "backtest"])
    def test_first_fault_in_file_order_is_named(self, chain_dir, golden_dir, capsys, command, message):
        """Line 2 holds a fault and line 3 a byte that is not UTF-8, both in the first 8 KiB of the file:
        the earlier line is named, whatever its fault."""
        if command == "aggregate":
            data = chain_dir / "scored.jsonl"
            lines = data.read_text().splitlines()
            lines[1] = "{broken"
        elif command == "score":
            data = chain_dir / "prescored.jsonl"
            lines = _prescored("a1", "a2", "a3", "a4").splitlines()
            lines[1] = "[1]"
        else:
            data = chain_dir / "prices.csv"
            lines = (golden_dir / "prices.csv").read_text().splitlines()
            lines[1] = lines[1].rsplit(",", 1)[0] + ",-1"
        lines[2] = "\udcff" + lines[2]  # written as the byte 0xff
        data.write_text("\n".join(lines) + "\n", errors="surrogateescape")
        assert data.read_bytes().index(b"\xff") < 8192
        argv = {
            "aggregate": ["--scored", data, "--prices", golden_dir / "prices.csv",
                          "--config", golden_dir / "aggregation_config.json"],
            "score": ["--articles", chain_dir / "filtered.jsonl", "--provider", "prescored",
                      "--provider-file", data],
            "backtest": ["--prices", data, "--sentiments", chain_dir / "daily.csv",
                         "--config", golden_dir / "backtest_config.json"],
        }[command]
        capsys.readouterr()
        assert run([command, *argv, "--out", chain_dir / "out"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"{data}: {message.format(*lines[1].split(','))}" in err
        assert not (chain_dir / "out").exists()

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

    @pytest.mark.parametrize("edit, message", [
        ({"annualized_return_index": "x"}, "'annualized_return_index' must be a finite number, got str"),
        ({"final_index_level": None}, "'final_index_level' must be a finite number, got None"),
        ({"trade_stats": "x"}, "'trade_stats' must be a JSON object, got str"),
        ({"annualized_return_index": 1e307},
         "'annualized_return_index' is not finite as a percentage, got 1e+307"),
        ({"end_date": ...}, "missing field 'end_date'"),  # ... drops the key
        ({"start_date": "2021-13-01"}, "'start_date' must be an ISO date, got '2021-13-01'"),
        ({"trading_days": 30.0}, "'trading_days' must be an integer, got 30.0"),
        ({"trade_stats": {"total_trades": 1, "single_trade_days": 1, "max_trades_per_day": 1,
                          "trades_per_day": {"1": True}}},
         "'trade_stats': 'trades_per_day': '1' must be an integer, got True"),
        ({"trade_stats": {"total_trades": 1, "single_trade_days": 1, "max_trades_per_day": 1,
                          "trades_per_day": {"+1": 1}}},
         "'trade_stats': 'trades_per_day': key '+1' is not a decimal integer"),
        # of several bad fields, the first in report.csv's order is named
        ({"final_index_level": None, "trading_days": 1.5}, "'trading_days' must be an integer, got 1.5"),
    ], ids=["string-return", "null-level", "string-stats", "percent-overflow", "missing-date", "bad-date",
            "float-count", "bool-count", "signed-key", "two-bad-fields"])
    def test_bad_summary_exits_one(self, tmp_path, golden_dir, capsys, edit, message):
        """A summary.json field that the report prints is checked: exit 1, the file and key named, no file."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        for name in ("levels.csv", "trades.csv"):
            (run_dir / name).write_bytes((golden_dir / f"expected_{name}").read_bytes())
        summary = {**json.loads((golden_dir / "expected_summary.json").read_text()), **edit}
        (run_dir / "summary.json").write_text(json.dumps({k: v for k, v in summary.items() if v is not ...}))
        capsys.readouterr()
        assert run(["report", "--in", run_dir, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err == f"sentindex report: {run_dir / 'summary.json'}: {message}\n"
        assert not (tmp_path / "out").exists()


class Huge(int):
    """An integer of more digits than int() turns into text or back by default; only its repr is short."""

    def __repr__(self) -> str:
        return "10 ** 4400"


HUGE = Huge(10 ** 4400)


def dumps(obj) -> str:
    """json.dumps that also writes HUGE, which json.loads then rejects."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj)
    finally:
        sys.set_int_max_str_digits(limit)


# the CLI fuzz gate: lines of arbitrary JSON, junk text and almost-valid records
json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(HUGE) | st.floats() | st.text(max_size=6),
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
        return dumps(record)
    edit = st.tuples(st.sampled_from(sorted(base)), st.one_of(json_st, st.floats()), st.booleans())
    return st.builds(build, st.sampled_from(["a1", "a2", "a3"]), stamp_st, st.none() | edit)


def lines_st(base: dict):
    line = st.one_of(json_st.map(dumps), st.text(max_size=12), record_st(base),
                     record_st(base).map(lambda x: f"{x}\n{x}"), st.just(json.dumps(base)))
    return st.lists(line, max_size=6).map(lambda lines: "".join(f"{x}\n" for x in lines))


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_DATES = sorted({line[:10] for line in (GOLDEN / "prices.csv").read_text().splitlines()[1:]})
# the CSV inputs of optimize, backtest and report, each a valid file to start from
CSV_INPUTS = {
    "prices.csv": (GOLDEN / "prices.csv").read_text(),
    "daily.csv": (GOLDEN / "expected_daily_sentiment.csv").read_text(),
    "benchmark.csv": "date,level\n" + "".join(f"{d},{1000.0 + i}\n" for i, d in enumerate(GOLDEN_DATES)),
    "signal.csv": "company,sentiment\nalpha,0.8\nbeta,0.4\ngamma,-0.2\ndelta,0.0\n",
    "prior.csv": "company,weight\nalpha,0.0\nbeta,0.3\ngamma,0.5\ndelta,0.1\n",
    "run/levels.csv": (GOLDEN / "expected_levels.csv").read_text(),
    "run/trades.csv": (GOLDEN / "expected_trades.csv").read_text(),
}
field_st = st.one_of(
    st.sampled_from(["nan", "-inf", "1e309", "5e-324", "1.7976931348623157e308", "-1e308", "0", "",
                     "abc", "2021-13-05", GOLDEN_DATES[-1]]),
    st.floats().map(repr), st.text(max_size=6))


def csv_st(text: str):
    """text with up to two line edits: a field replaced, or the line dropped, repeated, cut short or
    preceded by a blank line."""
    def build(edits):
        lines = text.splitlines()
        for kind, at, column, value in edits:
            i = at % len(lines)
            fields = lines[i].split(",")
            if kind == "field":
                fields[column % len(fields)] = value
                lines[i] = ",".join(fields)
            elif kind == "drop":
                del lines[i]
            elif kind == "repeat":
                lines.insert(i, lines[i])
            elif kind == "cut":
                lines[i] = ",".join(fields[:-1])
            else:
                lines.insert(i, " ")
        return "".join(f"{x}\n" for x in lines)
    edit = st.tuples(st.sampled_from(["field", "field", "field", "drop", "repeat", "cut", "blank"]),
                     st.integers(0, 400), st.integers(0, 5), field_st)
    return st.lists(edit, max_size=2).map(build)


# the four JSON configs, each a valid object to start from
CONFIGS = {name: json.loads((GOLDEN / name).read_text())
           for name in ("filter_config.json", "aggregation_config.json", "backtest_config.json")}
CONFIGS["optimizer.json"] = CONFIGS["backtest_config.json"]["optimizer"]
SUMMARY = json.loads((GOLDEN / "expected_summary.json").read_text())
number_st = st.one_of(
    st.sampled_from([-1, 0, -0.0, 1, 2, 0.5, 0.999, 1e-300, 5e-324, 1e308, -1e308, 1.7976931348623157e308,
                     2**63, 10**30, 10**400, HUGE]),
    st.integers(), st.floats())
zone_or_time_st = st.one_of(
    st.sampled_from(["UTC", "Etc/GMT-14", "Pacific/Kiritimati", "Mars/Olympus", "", "Europe/", "../etc",
                     "/Europe/Berlin", "zone.tab", "\x00", "00:00", "23:59", "24:00", "17", "17:00:00", "-1:30",
                     "7:5", ":", "17:60", " 17:00", "1_7:00", "99999999999999999999:00", "17:-0"]),
    st.text(max_size=8))


def config_st(base: dict):
    """base as JSON text with up to two edits: a value of a wrong kind or a number out of range, an
    unknown key, a bad market_timezone or cutoff_local_time, or one value of a nested object edited."""
    keys = sorted(base)
    edits = [st.tuples(st.sampled_from(keys), json_st | number_st), st.tuples(st.text(max_size=6), json_st)]
    if "market_timezone" in base:
        edits.append(st.tuples(st.sampled_from(["market_timezone", "cutoff_local_time"]), zone_or_time_st))
    for key in keys:
        if type(base[key]) is dict:  # the backtest's optimizer block or the filter's exclusions
            edits.append(st.tuples(st.just(key), st.builds(
                lambda inner, value, key=key: {**base[key], inner: value},
                st.sampled_from(sorted(base[key])) | st.text(max_size=6),
                number_st | json_st | st.lists(st.text(max_size=4), max_size=2))))
    return st.lists(st.one_of(edits), max_size=2).map(lambda changes: dumps({**base, **dict(changes)}))


def _assert_finite(path: Path) -> None:
    """Every number in a written JSON, JSON-lines, CSV or SVG file is finite."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".svg":
        assert not re.search(r"\b(nan|inf)\b", text), path.name
    elif path.suffix == ".csv":
        header, *rows = text.splitlines()
        numeric = [i for i, name in enumerate(header.split(",")) if name not in ("date", "company", "metric")]
        for row in rows:
            fields = row.split(",")
            if path.name == "report.csv" and fields[0].endswith("_date"):
                continue
            assert all(math.isfinite(float(fields[i])) for i in numeric), (path.name, row)
    else:
        for line in [text] if path.suffix == ".json" else text.splitlines():
            json.loads(line, parse_constant=lambda name: pytest.fail(f"{name} in {path.name}"),
                       parse_float=lambda x: math.isfinite(float(x)) or pytest.fail(f"{x} in {path.name}"))


VALID_CONFIGS = {name: json.dumps(base) for name, base in CONFIGS.items()}


@settings(max_examples=80, deadline=None)
# an hour too large for datetime.time raised OverflowError, which the CLI let through as a traceback
@example(articles="", prescored="", scored="", csvs=CSV_INPUTS, summary=json.dumps(SUMMARY),
         configs={**VALID_CONFIGS, "aggregation_config.json":
                  json.dumps({**CONFIGS["aggregation_config.json"], "cutoff_local_time": "99999999999999999999:00"})})
# report multiplied a string return by 100.0 and died with a TypeError traceback
@example(articles="", prescored="", scored="", csvs=CSV_INPUTS, configs=VALID_CONFIGS,
         summary=json.dumps({**SUMMARY, "annualized_return_index": "x"}))
@given(articles=lines_st(ARTICLE), prescored=lines_st(PRESCORED), scored=lines_st(SCORED),
       csvs=st.fixed_dictionaries({name: csv_st(text) for name, text in CSV_INPUTS.items()}),
       configs=st.fixed_dictionaries({name: config_st(base) for name, base in CONFIGS.items()}),
       summary=config_st(SUMMARY))
def test_fuzzed_inputs_exit_zero_or_one(articles, prescored, scored, csvs, configs, summary):
    g = GOLDEN
    with tempfile.TemporaryDirectory() as tmp:
        d, out = Path(tmp) / "in", Path(tmp) / "out"
        (d / "run").mkdir(parents=True)
        out.mkdir()
        inputs = {"articles.jsonl": articles, "prescored.jsonl": prescored, "scored.jsonl": scored,
                  **csvs, **configs, "run/summary.json": summary}
        for name, text in inputs.items():
            (d / name).write_text(text, encoding="utf-8")
        aggregate = ["--prices", g / "prices.csv", "--config", d / "aggregation_config.json"]
        codes = [
            run(["filter", "--articles", d / "articles.jsonl", "--config", d / "filter_config.json",
                 "--out", out / "kept.jsonl", "--removed", out / "removed.jsonl"]),
            run(["score", "--articles", d / "articles.jsonl", "--provider", "lexicon",
                 "--provider-file", g / "lexicon.json", "--out", out / "lexicon_scored.jsonl"]),
            run(["score", "--articles", d / "articles.jsonl", "--provider", "prescored",
                 "--provider-file", d / "prescored.jsonl", "--mode", "expectation",
                 "--out", out / "prescored_scored.jsonl"]),
            run(["aggregate", "--scored", d / "scored.jsonl", *aggregate, "--out", out / "daily.csv"]),
            run(["aggregate", "--scored", out / "lexicon_scored.jsonl", *aggregate,
                 "--out", out / "chain_daily.csv"]),
            run(["optimize", "--sentiments", d / "signal.csv", "--prior", d / "prior.csv",
                 "--config", d / "optimizer.json", "--out", out / "weights.csv"]),
            run(["backtest", "--prices", d / "prices.csv", "--sentiments", d / "daily.csv",
                 "--benchmark", d / "benchmark.csv", "--config", d / "backtest_config.json",
                 "--out", out / "bt"]),
            run(["backtest", "--prices", d / "prices.csv", "--sentiments", d / "daily.csv",
                 "--config", d / "backtest_config.json", "--out", out / "bt_basket"]),
            run(["report", "--in", d / "run", "--out", out / "report"]),
        ]
        assert set(codes) <= {0, 1}, codes
        # a bad line of articles.jsonl is a diagnostic, so only an edited config fails filter
        assert codes[0] == 0 or configs["filter_config.json"] != json.dumps(CONFIGS["filter_config.json"]), codes
        for path in out.rglob("*"):
            if path.is_file():
                _assert_finite(path)


SCORE_STAMPS = st.one_of(
    stamp_st,
    st.sampled_from(["2021-03-01T10:00:00Z", "2021-03-01T10:00:00z", "2021-03-01T10:00:00-00:00",
                     "2021-03-01T10:00:00+05:75", "2021-03-01T10:00:00.5+01:00", "2021-03-01 10:00:00+01:00",
                     "2021-W09-1T10:00:00+01:00", "20210301T100000+0100", "2021-03-01T10:00:00+05:30:30"]))
LEXICON_WORDS = sorted(json.loads((GOLDEN / "lexicon.json").read_text()))[:12]


@st.composite
def score_case_st(draw) -> tuple[str, str]:
    """An article file of valid lines, with canonical and other stamps, and bad ones; and a pre-scored
    file for the ids, which may lack one."""
    ids = ["a1", "a2", "a3", "a4", "a5"]
    valid = st.builds(
        lambda aid, stamp, words, ascii: json.dumps(
            {"id": aid, "company_id": "adlerwerke", "source": "wire", "published_at": stamp,
             "headline": " ".join(["adlerwerke", *words, "ä"])}, ensure_ascii=ascii),
        st.sampled_from(ids), SCORE_STAMPS, st.lists(st.sampled_from(LEXICON_WORDS), max_size=3), st.booleans())
    lines = draw(st.lists(st.one_of(valid, valid, record_st(ARTICLE), st.text(max_size=12)), max_size=8))
    probabilities = st.sampled_from([(0.7, 0.2, 0.1), (0.2, 0.3, 0.5), (0.25, 0.5, 0.25), (0.0, 0.0, 1.0)])
    table = draw(st.dictionaries(st.sampled_from(ids), probabilities))
    prescored = "".join(json.dumps({"id": aid, "p_negative": n, "p_neutral": u, "p_positive": p}) + "\n"
                        for aid, (n, u, p) in table.items())
    return "".join(f"{x}\n" for x in lines), prescored


@settings(max_examples=80, deadline=None)
@given(case=score_case_st(), provider=st.sampled_from(["prescored", "lexicon"]),
       mode=st.sampled_from(["winner", "expectation"]))
def test_score_writes_what_the_library_writes(case, provider, mode):
    """The streaming command writes the bytes of write_scored(score_articles(load_articles(...))),
    and on success the stderr of the library's diagnostics and count."""
    articles_text, prescored_text = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        articles = d / "articles.jsonl"
        articles.write_text(articles_text, encoding="utf-8")
        (d / "prescored.jsonl").write_text(prescored_text, encoding="utf-8")
        provider_file = d / "prescored.jsonl" if provider == "prescored" else GOLDEN / "lexicon.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["score", "--articles", articles, "--provider", provider, "--provider-file", provider_file,
                        "--mode", mode, "--out", d / "cli.jsonl"])
        load = corpus.load_articles(articles)
        if provider == "prescored":
            source = sentiment.PrescoredProvider.from_file(provider_file)
        else:
            source = sentiment.LexiconProvider.from_file(provider_file)
        diagnostics = [f"score: {x}\n" for x in load.diagnostics]
        try:
            scored = sentiment.score_articles(load.articles, source, mode)
        except LookupError as exc:
            assert code == 1
            *printed, last = err.getvalue().splitlines(keepends=True)
            assert printed == diagnostics[:len(printed)] and last == f"sentindex score: {exc}\n"
            assert sorted(p.name for p in d.iterdir()) == ["articles.jsonl", "prescored.jsonl"]
            return
        sentiment.write_scored(d / "library.jsonl", scored)
        assert code == 0
        assert (d / "cli.jsonl").read_bytes() == (d / "library.jsonl").read_bytes()
        assert err.getvalue() == "".join(diagnostics) + f"score: wrote {len(scored)} records\n"
