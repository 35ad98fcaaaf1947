"""Daily sentiment aggregation: cutoff calendar mapping, means, source adjustment.

Scored articles are pushed onto trading days (publications at or after the
local cutoff count for the next day, weekends roll forward), averaged per
company and day with zero-fill for quiet days, then shrunk toward zero when
today's unique-source count falls below the company's historical mean.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple
from zoneinfo import ZoneInfo

from .inputs import config_from_dict, load_json_object
# kept here only because perfbench/inproc.py calls aggregation.load_daily_sentiment_csv
from .inputs import load_daily_sentiment_csv  # noqa: F401

if TYPE_CHECKING:
    from .sentiment import ScoredArticle

HISTORY_MODES = ("nonzero_days", "all_days")


@dataclass(frozen=True)
class TradingCalendar:
    dates: tuple[date, ...]
    timezone: str = "Europe/Berlin"
    cutoff: time = time(17, 0)

    def __post_init__(self) -> None:
        if not self.dates:
            raise ValueError("calendar has no trading dates")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("trading dates must be strictly increasing")
        ZoneInfo(self.timezone)  # fail fast on unknown zone names

    @property
    def tzinfo(self) -> ZoneInfo:
        return ZoneInfo(self.timezone)


@dataclass(frozen=True)
class AggregationConfig:
    market_timezone: str = "Europe/Berlin"
    cutoff_local_time: str = "17:00"
    adjustment_history: str = "nonzero_days"

    def __post_init__(self) -> None:
        try:
            ZoneInfo(self.market_timezone)
        except (LookupError, ValueError, OSError):
            raise ValueError(f"market_timezone must name a known time zone, got {self.market_timezone!r}") from None
        if self.adjustment_history not in HISTORY_MODES:
            raise ValueError(
                f"adjustment_history must be one of {HISTORY_MODES}, got {self.adjustment_history!r}")
        try:
            self.cutoff
        except (ValueError, OverflowError) as exc:  # time() overflows on an hour of 20 digits
            raise ValueError(
                f"cutoff_local_time must be HH:MM, got {self.cutoff_local_time!r} ({exc})") from None

    @property
    def cutoff(self) -> time:
        hh, mm = self.cutoff_local_time.split(":")
        return time(int(hh), int(mm))


def load_aggregation_config(path: str | Path) -> AggregationConfig:
    return config_from_dict(AggregationConfig, load_json_object(path), path)


class DailySentiment(NamedTuple):
    company_id: str
    trading_date: date
    raw_mean: float
    adjusted: float
    article_count: int
    unique_sources: int
    adjustment: float


def effective_trading_date(
    published_at: datetime, calendar: TradingCalendar
) -> tuple[date | None, str | None]:
    """Map a publication instant to its trading date.

    Returns (trading date, diagnostic). At or after the cutoff in market local
    time advances to the next calendar day; the result then rolls forward to
    the first trading date on or after it. Before-range timestamps land on the
    first trading date with a diagnostic; after-range ones return (None,
    diagnostic) and must be dropped by the caller.
    """
    try:
        local = published_at.astimezone(calendar.tzinfo)
        day = local.date()
        if local.time() >= calendar.cutoff:
            day += timedelta(days=1)
    except OverflowError:
        # only instants within a day of the ends of years 1 to 9999 leave the
        # date range here, and they precede or follow any calendar
        day = date.min if published_at.year == 1 else date.max
    dates = calendar.dates
    if day < dates[0]:
        return dates[0], f"published {published_at.isoformat()} precedes the calendar"
    i = bisect_left(dates, day)
    if i < len(dates):
        return dates[i], None
    return None, f"published {published_at.isoformat()} falls after the final trading date"


def _shrink(u_today: int, prior_total: int, prior_days: int) -> float:
    # the running total and count are exactly sum(history) and len(history),
    # and int / int is correctly rounded, so the mean matches bit for bit
    if not prior_days:
        return 1.0
    m = prior_total / prior_days
    if u_today < m:
        return u_today / m
    return 1.0


@dataclass
class AggregationResult:
    rows: list[DailySentiment]  # ordered by (trading date, company id)
    diagnostics: list[str] = field(default_factory=list)
    dropped_after_range: int = 0
    dropped_unknown_company: int = 0  # on a trading date, but not in the universe


def aggregate_daily(
    scored: list[ScoredArticle],
    universe: list[str],
    calendar: TradingCalendar,
    config: AggregationConfig | None = None,
) -> AggregationResult:
    """Build the complete (company, trading date) sentiment grid.

    Per company and date: raw mean of article scores in input order, unique
    source count, adjustment from the company's source history before that
    date, adjusted = raw * adjustment. Companies and dates with no articles
    get all-zero rows, so the grid always has |universe| * |dates| entries.
    Articles of a company outside the universe are counted and dropped.
    """
    config = config or AggregationConfig()
    all_days = config.adjustment_history == "all_days"
    result = AggregationResult(rows=[])
    # company -> trading date -> (scores in input order, sources)
    groups: dict[str, dict[date, tuple[list[float], set[str]]]] = {}
    for record in scored:
        trading_date, diagnostic = effective_trading_date(record.published_at, calendar)
        if diagnostic is not None:
            result.diagnostics.append(f"article {record.id}: {diagnostic}")
        if trading_date is None:
            result.dropped_after_range += 1
            continue
        by_date = groups.setdefault(record.company_id, {})
        group = by_date.get(trading_date)
        if group is None:
            group = by_date[trading_date] = ([], set())
        group[0].append(record.score)
        group[1].add(record.source)

    # one column of rows per company, each scanned once in date order with a
    # running source history; zip(*columns) turns them into date-major rows
    columns: list[list[DailySentiment]] = []
    for company in sorted(universe):
        by_date = groups.get(company, {})
        prior_total = prior_days = 0
        column = []
        for trading_date in calendar.dates:
            group = by_date.get(trading_date)
            if group is None:
                column.append(DailySentiment(company, trading_date, 0.0, 0.0, 0, 0, 1.0))
                if all_days:
                    prior_days += 1
                continue
            scores, sources = group
            raw = sum(scores) / len(scores)
            u = len(sources)
            adj = _shrink(u, prior_total, prior_days)
            column.append(DailySentiment(company, trading_date, raw, raw * adj, len(scores), u, adj))
            prior_total += u
            prior_days += 1
        columns.append(column)
    result.rows = [row for rows_of_date in zip(*columns) for row in rows_of_date]
    known = set(universe)
    result.dropped_unknown_company = sum(
        len(scores) for company, by_date in groups.items() if company not in known
        for scores, _ in by_date.values())
    return result


def write_daily_sentiment_csv(path: str | Path, result: AggregationResult) -> None:
    # repr() keeps the shortest round-trippable float text, so re-reading the
    # file reproduces the values bit for bit
    iso: dict[date, str] = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,company,raw_mean,unique_sources,adjustment,adjusted\n")
        for company, trading_date, raw, adjusted, _, u, adj in result.rows:
            day = iso.get(trading_date)
            if day is None:
                day = iso[trading_date] = trading_date.isoformat()
            fh.write(f"{day},{company},{raw!r},{u},{adj!r},{adjusted!r}\n")

