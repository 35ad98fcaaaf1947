"""The sentindex chain run in one process, with spans around each layer call.

``run_chain`` makes the same library calls as the five CLI commands, in the
same order and with the same outputs, so its files must equal the CLI's byte
for byte. With a real tracer it also wraps the two names that the package
calls per item, ``sentindex.aggregation.effective_trading_date`` and
``sentindex.backtest.optimize_weights``, to time each call as a child span.
The wrappers are removed when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from sentindex import aggregation, backtest, corpus, report, sentiment
from tracing import Tracer


@dataclass
class ChainResult:
    load: corpus.LoadReport
    filtered: corpus.FilterResult
    rescore_load: corpus.LoadReport
    scored: list[sentiment.ScoredArticle]
    grid: aggregation.AggregationResult
    prices: backtest.PriceSeries
    config: backtest.BacktestConfig
    result: backtest.BacktestResult
    svg_bytes: int


@contextmanager
def _timed_calls(tracer, module, attr: str, span_name: str):
    """Replace ``module.attr`` with a wrapper recording one span per call."""
    original = getattr(module, attr)
    clock, record = time.perf_counter_ns, tracer.record

    def wrapper(*args, **kwargs):
        start = clock()
        value = original(*args, **kwargs)
        record(span_name, start, clock())
        return value

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def _wrapped(tracer):
    if not isinstance(tracer, Tracer) or tracer.memory:
        yield
        return
    with _timed_calls(tracer, aggregation, "effective_trading_date", "aggregation.calendar_map"), \
            _timed_calls(tracer, backtest, "optimize_weights", "optimizer.solve"):
        yield


def run_chain(inputs: Path, out: Path, provider_name: str, mode: str, tracer) -> ChainResult:
    out.mkdir(parents=True, exist_ok=True)
    span = tracer.span
    with _wrapped(tracer), span("pass"):
        with span("cmd.filter"):
            filter_config = corpus.load_filter_config(inputs / "filter_config.json")
            with span("corpus.load_articles"):
                load = corpus.load_articles(inputs / "articles.jsonl")
            with span("corpus.filter"):
                filtered = corpus.run_filter_pipeline(load.articles, filter_config)
            with span("corpus.write_articles"):
                corpus.write_articles(out / "kept.jsonl", filtered.kept)
                corpus.write_articles(out / "removed.jsonl", filtered.removed)

        with span("cmd.score"):
            with span("corpus.load_articles"):
                rescore_load = corpus.load_articles(out / "kept.jsonl")
            with span("sentiment.provider_load"):
                if provider_name == "prescored":
                    provider = sentiment.PrescoredProvider.from_file(inputs / "prescored.jsonl")
                else:
                    provider = sentiment.LexiconProvider.from_file(inputs / "lexicon.json")
            with span("sentiment.score"):
                scored = sentiment.score_articles(rescore_load.articles, provider, mode=mode)
            with span("sentiment.write_scored"):
                sentiment.write_scored(out / "scored.jsonl", scored)

        with span("cmd.aggregate"):
            agg_config = aggregation.load_aggregation_config(inputs / "aggregation_config.json")
            with span("backtest.load_prices"):
                prices = backtest.load_prices(inputs / "prices.csv")
            calendar = aggregation.TradingCalendar(
                dates=prices.dates, timezone=agg_config.market_timezone, cutoff=agg_config.cutoff)
            with span("sentiment.load_scored"):
                loaded_scored = sentiment.load_scored(out / "scored.jsonl")
            with span("aggregation.aggregate"):
                grid = aggregation.aggregate_daily(
                    loaded_scored, list(prices.companies), calendar, agg_config)
            with span("aggregation.write_csv"):
                aggregation.write_daily_sentiment_csv(out / "daily.csv", grid)

        with span("cmd.backtest"):
            config = backtest.load_backtest_config(inputs / "backtest_config.json")
            with span("backtest.load_prices"):
                prices = backtest.load_prices(inputs / "prices.csv")
            with span("aggregation.load_csv"):
                sentiments = aggregation.load_daily_sentiment_csv(out / "daily.csv")
            bench_path = inputs / "benchmark.csv"
            bench = None
            if bench_path.is_file():
                with span("backtest.load_benchmark"):
                    bench = backtest.load_benchmark_levels(bench_path)
            with span("backtest.run"):
                result = backtest.run_backtest(prices, sentiments, config, benchmark=bench)
            with span("backtest.write"):
                backtest.write_backtest_outputs(out / "run", result, config)

        with span("cmd.report"):
            with span("report.render"):
                written = report.render_report(report.ReportSpec(
                    input_dir=out / "run", output_dir=out / "report", formats=("svg", "csv")))
    svg = next(p for p in written if p.suffix == ".svg")
    return ChainResult(load, filtered, rescore_load, scored, grid, prices, config, result,
                       svg.stat().st_size)
