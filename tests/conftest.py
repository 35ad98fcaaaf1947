"""Shared fixtures: the committed golden corpus run end to end, once per session."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import pytest

from sentindex import aggregation, backtest, corpus, grids, sentiment

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class GoldenRun:
    prices: grids.Grid
    filter_result: corpus.FilterResult
    aggregation_result: aggregation.AggregationResult
    sentiments: grids.Grid  # adjusted
    backtest_config: backtest.BacktestConfig
    result: backtest.BacktestResult
    expected_levels: list[tuple[str, float, float]]
    expected_trades: list[tuple[str, str, float, float]]
    expected_summary: dict


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN


@pytest.fixture(scope="session")
def golden_run() -> GoldenRun:
    filter_config = corpus.load_filter_config(GOLDEN / "filter_config.json")
    loaded = corpus.load_articles(GOLDEN / "articles.jsonl")
    assert not loaded.diagnostics, loaded.diagnostics
    filter_result = corpus.run_filter_pipeline(loaded.articles, filter_config)

    provider = sentiment.LexiconProvider.from_file(GOLDEN / "lexicon.json")
    scored = sentiment.score_articles(filter_result.kept, provider)

    prices = grids.load_prices(GOLDEN / "prices.csv")
    agg_config = aggregation.load_aggregation_config(GOLDEN / "aggregation_config.json")
    calendar = aggregation.TradingCalendar(
        dates=prices.dates, timezone=agg_config.market_timezone, cutoff=agg_config.cutoff)
    agg = aggregation.aggregate_daily(scored, list(prices.companies), calendar, agg_config)
    sentiments = agg.grid()

    cfg = backtest.load_backtest_config(GOLDEN / "backtest_config.json")
    result = backtest.run_backtest(prices, sentiments, cfg)

    expected_levels = []
    with open(GOLDEN / "expected_levels.csv") as fh:
        for row in csv.DictReader(fh):
            expected_levels.append(
                (row["date"], float(row["index_level"]), float(row["benchmark_level"])))
    expected_trades = []
    with open(GOLDEN / "expected_trades.csv") as fh:
        for row in csv.DictReader(fh):
            expected_trades.append(
                (row["date"], row["company"], float(row["delta_weight"]), float(row["cost"])))
    expected_summary = json.loads((GOLDEN / "expected_summary.json").read_text())

    return GoldenRun(
        prices=prices,
        filter_result=filter_result,
        aggregation_result=agg,
        sentiments=sentiments,
        backtest_config=cfg,
        result=result,
        expected_levels=expected_levels,
        expected_trades=expected_trades,
        expected_summary=expected_summary,
    )
