"""The straight-line daily aggregation and its writer, kept as bit-exact references for tests.

This is the earlier ``sentindex.aggregation.aggregate_daily`` with its two
helpers: a linear calendar scan per article, the whole source history summed
again every day, and one frozen dataclass per grid cell, every cell held. It
is slow but easy to read, and the package's version must reproduce its rows
field for field. ``write_daily_sentiment_csv`` is the earlier writer, one
formatted line per row, which the package's writer must match byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path

from sentindex.aggregation import AggregationConfig, TradingCalendar
from sentindex.sentiment import ScoredArticle


@dataclass(frozen=True)
class DailySentiment:
    company_id: str
    trading_date: date
    raw_mean: float
    adjusted: float
    article_count: int
    unique_sources: int
    adjustment: float


@dataclass
class AggregationResult:
    rows: list[DailySentiment]  # ordered by (trading date, company id)
    diagnostics: list[str] = field(default_factory=list)
    dropped_after_range: int = 0


def effective_trading_date(
    published_at: datetime, calendar: TradingCalendar
) -> tuple[date | None, str | None]:
    local = published_at.astimezone(calendar.tzinfo)
    day = local.date()
    if local.time() >= calendar.cutoff:
        day += timedelta(days=1)
    if day < calendar.dates[0]:
        return calendar.dates[0], f"published {published_at.isoformat()} precedes the calendar"
    for trading_date in calendar.dates:
        if trading_date >= day:
            return trading_date, None
    return None, f"published {published_at.isoformat()} falls after the final trading date"


def source_adjustment(u_today: int, prior_counts: list[int]) -> float:
    if u_today < 1:
        raise ValueError(f"u_today must be >= 1, got {u_today}")
    if not prior_counts:
        return 1.0
    m = sum(prior_counts) / len(prior_counts)
    if u_today < m:
        return u_today / m
    return 1.0


def aggregate_daily(
    scored: list[ScoredArticle],
    universe: list[str],
    calendar: TradingCalendar,
    config: AggregationConfig | None = None,
) -> AggregationResult:
    config = config or AggregationConfig()
    result = AggregationResult(rows=[])
    groups: dict[tuple[str, date], dict] = {}
    for record in scored:
        trading_date, diagnostic = effective_trading_date(record.published_at, calendar)
        if diagnostic is not None:
            result.diagnostics.append(f"article {record.id}: {diagnostic}")
        if trading_date is None:
            result.dropped_after_range += 1
            continue
        group = groups.setdefault((record.company_id, trading_date), {"scores": [], "sources": set()})
        group["scores"].append(record.score)
        group["sources"].add(record.source)

    by_key: dict[tuple[str, date], DailySentiment] = {}
    for company in sorted(universe):
        history: list[int] = []
        for trading_date in calendar.dates:
            group = groups.get((company, trading_date))
            if group:
                scores = group["scores"]
                total = 0.0  # left to right, as Python 3.11's sum() adds floats; 3.12's sum() compensates
                for score in scores:
                    total += score
                raw = total / len(scores)
                u = len(group["sources"])
                adj = source_adjustment(u, history)
                row = DailySentiment(
                    company_id=company, trading_date=trading_date,
                    raw_mean=raw, adjusted=raw * adj,
                    article_count=len(scores), unique_sources=u, adjustment=adj,
                )
                history.append(u)
            else:
                row = DailySentiment(
                    company_id=company, trading_date=trading_date,
                    raw_mean=0.0, adjusted=0.0,
                    article_count=0, unique_sources=0, adjustment=1.0,
                )
                if config.adjustment_history == "all_days":
                    history.append(0)
            by_key[(company, trading_date)] = row
    result.rows = [
        by_key[(company, trading_date)]
        for trading_date in calendar.dates
        for company in sorted(universe)
    ]
    return result


def write_daily_sentiment_csv(path: str | Path, result) -> None:
    """One line per row of result.rows, floats as repr()."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,company,raw_mean,unique_sources,adjustment,adjusted\n")
        for row in result.rows:
            fh.write(f"{row.trading_date.isoformat()},{row.company_id},{row.raw_mean!r},"
                     f"{row.unique_sources},{row.adjustment!r},{row.adjusted!r}\n")
