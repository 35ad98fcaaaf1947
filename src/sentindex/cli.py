"""Command-line front end: filter, score, aggregate, optimize, backtest, report.

Each subcommand reads and writes plain files so stages can be chained in a
shell pipeline. Diagnostics go to stderr; data only to the named outputs.
Exit codes: 0 success, 1 runtime failure, 2 usage errors (argparse).

Each command imports the stage modules it runs and no others: a process
compiles every module it imports when no bytecode is cached, and on small
inputs that start-up is most of a command's time.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_filter(args: argparse.Namespace) -> int:
    from . import corpus

    config = corpus.load_filter_config(args.config)
    load = corpus.load_articles(args.articles)
    for diagnostic in load.diagnostics:
        print(f"filter: {diagnostic}", file=sys.stderr)
    result = corpus.run_filter_pipeline(load.articles, config)
    corpus.write_articles(args.out, result.survivors, result.headlines)  # the lines of result.kept
    if args.removed:
        corpus.write_articles(args.removed, result.removed)
    for stage, removed in result.removed_by_stage.items():
        print(f"filter: removed {len(removed)} by {stage}", file=sys.stderr)
    print(f"filter: kept {len(result.survivors)} of {len(load.articles)} articles", file=sys.stderr)
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    from . import corpus, sentiment

    if args.provider == "prescored":
        provider = sentiment.PrescoredProvider.from_file(args.provider_file)
    else:
        provider = sentiment.LexiconProvider.from_file(args.provider_file)
    # each diagnostic is printed as its line is read, and each article written as it is scored
    articles = corpus.read_articles(
        args.articles, lambda diagnostic: print(f"score: {diagnostic}", file=sys.stderr))
    count = sentiment.score_to_file(args.out, articles, provider, mode=args.mode)
    print(f"score: wrote {count} records", file=sys.stderr)
    return 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    from . import aggregation, grids, sentiment

    config = aggregation.load_aggregation_config(args.config)
    dates, companies = grids.load_prices(args.prices)[:2]  # every close is checked, none kept
    calendar = aggregation.TradingCalendar(
        dates=dates, timezone=config.market_timezone, cutoff=config.cutoff)
    # the records are read as they are aggregated; diagnostics are printed only once the file is read
    scored = sentiment.read_scored(args.scored)
    result = aggregation.aggregate_daily(scored, list(companies), calendar, config)
    for diagnostic in result.diagnostics:
        print(f"aggregate: {diagnostic}", file=sys.stderr)
    aggregation.write_daily_sentiment_csv(args.out, result)
    print(
        f"aggregate: wrote {len(result.dates) * len(result.companies)} rows, "
        f"dropped {result.dropped_after_range} after the final trading date, "
        f"{result.dropped_unknown_company} for unknown companies",
        file=sys.stderr)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from . import optimizer

    cfg = optimizer.load_optimizer_config(args.config)
    s = optimizer.load_weights_csv(args.sentiments, "sentiment")
    prior = optimizer.load_weights_csv(args.prior, "weight")
    weights = optimizer.optimize_weights(s, prior, cfg)
    optimizer.write_weights_csv(args.out, weights)
    trades = optimizer.trades_from_moves(  # weights has prior's keys, sorted
        list(weights), [w - prior[k] for k, w in weights.items()], cfg.trade_epsilon)
    print(f"optimize: {len(trades)} trades from the prior", file=sys.stderr)
    return 0


def _cmd_backtest(args: argparse.Namespace) -> int:
    from . import backtest, grids

    cfg = backtest.load_backtest_config(args.config)
    prices = grids.load_prices(args.prices)
    sentiments = grids.load_daily_sentiment_csv(args.sentiments)
    benchmark = backtest.load_benchmark_levels(args.benchmark) if args.benchmark else None
    result = backtest.run_backtest(prices, sentiments, cfg, benchmark=benchmark)
    backtest.write_backtest_outputs(args.out, result, cfg)
    stats = result.summary["trade_stats"]
    print(
        f"backtest: final level {result.summary['final_index_level']:.4f}, "
        f"{stats['total_trades']} trades", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from datetime import date
    from pathlib import Path

    from . import report

    spec = report.ReportSpec(
        input_dir=Path(args.input_dir),
        output_dir=Path(args.out),
        formats=tuple(args.format.split(",")),
        date_from=date.fromisoformat(args.date_from) if args.date_from else None,
        date_to=date.fromisoformat(args.date_to) if args.date_to else None,
    )
    written = report.render_report(spec)
    for path in written:
        print(f"report: wrote {path}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentindex",
        description="News-sentiment index construction and backtesting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="apply relevance and hygiene filters to articles")
    p.add_argument("--articles", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--removed")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("score", help="score filtered articles with a provider")
    p.add_argument("--articles", required=True)
    p.add_argument("--provider", required=True, choices=("prescored", "lexicon"))
    p.add_argument("--provider-file", required=True)
    p.add_argument("--mode", default="winner", choices=("winner", "expectation"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("aggregate", help="build the daily per-company sentiment grid")
    p.add_argument("--scored", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("optimize", help="solve one weight problem from CSV inputs")
    p.add_argument("--sentiments", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("backtest", help="run the daily backtest loop")
    p.add_argument("--prices", required=True)
    p.add_argument("--sentiments", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--benchmark")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("report", help="render chart and summary from backtest output")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="svg,csv")
    p.add_argument("--from", dest="date_from")
    p.add_argument("--to", dest="date_to")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, LookupError) as exc:
        print(f"sentindex {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
