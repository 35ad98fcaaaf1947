"""Daily sentiment aggregation: cutoff calendar mapping, means, source adjustment.

Scored articles are pushed onto trading days (publications at or after the
local cutoff count for the next day, weekends roll forward), averaged per
company and day with zero-fill for quiet days, then shrunk toward zero when
today's unique-source count falls below the company's historical mean.
"""

from __future__ import annotations

from bisect import bisect_left
from datetime import date, datetime, time, timedelta
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple
from zoneinfo import ZoneInfo

from .grids import Grid
# kept here only because perfbench/inproc.py calls aggregation.load_daily_sentiment_csv
from .grids import load_daily_sentiment_csv  # noqa: F401
from .inputs import config_from_dict, load_json_object, record

if TYPE_CHECKING:
    from .sentiment import ScoredArticle

HISTORY_MODES = ("nonzero_days", "all_days")


@record
class TradingCalendar(NamedTuple):
    dates: tuple[date, ...]
    timezone: str = "Europe/Berlin"
    cutoff: time = time(17, 0)

    def _check(self) -> None:
        if not self.dates:
            raise ValueError("calendar has no trading dates")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("trading dates must be strictly increasing")
        ZoneInfo(self.timezone)  # fail fast on unknown zone names

    @property
    def tzinfo(self) -> ZoneInfo:
        return ZoneInfo(self.timezone)


@record
class AggregationConfig(NamedTuple):
    market_timezone: str = "Europe/Berlin"
    cutoff_local_time: str = "17:00"
    adjustment_history: str = "nonzero_days"

    def _check(self) -> None:
        try:
            ZoneInfo(self.market_timezone)
        except (LookupError, ValueError, OSError):
            raise ValueError(f"market_timezone must name a known time zone, got {self.market_timezone!r}") from None
        if self.adjustment_history not in HISTORY_MODES:
            raise ValueError(
                f"adjustment_history must be one of {HISTORY_MODES}, got {self.adjustment_history!r}")
        try:
            self.cutoff
        except ValueError as exc:
            raise ValueError(
                f"cutoff_local_time must be HH:MM, got {self.cutoff_local_time!r} ({exc})") from None

    @property
    def cutoff(self) -> time:
        hh, colon, mm = self.cutoff_local_time.partition(":")
        # int() alone would also take "1_7", " 17", "+17" and other scripts' digits
        if not (colon and all(0 < len(f) <= 2 and f.isascii() and f.isdigit() for f in (hh, mm))):
            raise ValueError("want an hour and a minute of 1 or 2 ASCII digits each, joined by ':'")
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
    diagnostic) and must be dropped by the caller. A naive published_at
    raises ValueError, as the host's local zone would decide its date.
    """
    if published_at.utcoffset() is None:
        raise ValueError(f"published_at {published_at.isoformat()} lacks a UTC offset")
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


class AggregationResult:
    def __init__(self, dates: tuple[date, ...], companies: tuple[str, ...],
                 cells: list[dict[int, DailySentiment]]) -> None:
        self.dates = dates
        self.companies = companies  # sorted
        self.cells = cells  # per date: company index -> a cell with articles
        self.diagnostics: list[str] = []
        self.dropped_after_range = 0
        self.dropped_unknown_company = 0  # on a trading date, but not in the universe

    @property
    def rows(self) -> list[DailySentiment]:
        """Every cell ordered by (trading date, company id), a quiet one as a zero row.

        A zero row has mean, adjusted value and counts 0 and adjustment 1.0. The list is
        built anew on each access, for library callers; the aggregate command never builds it.
        """
        return [cells[j] if j in cells else DailySentiment(c, d, 0.0, 0.0, 0, 0, 1.0)
                for d, cells in zip(self.dates, self.cells) for j, c in enumerate(self.companies)]

    def grid(self) -> Grid:
        """The adjusted values, 0.0 on quiet cells: the Grid that loading the written CSV gives."""
        rows = [[0.0] * len(self.companies) for _ in self.dates]
        for row, cells in zip(rows, self.cells):
            for j, cell in cells.items():
                row[j] = cell.adjusted
        return Grid(self.dates, self.companies, rows)


def aggregate_daily(
    scored: list[ScoredArticle],
    universe: list[str],
    calendar: TradingCalendar,
    config: AggregationConfig | None = None,
) -> AggregationResult:
    """Build the (company, trading date) sentiment grid, holding only the cells with articles.

    Per company and date: raw mean of article scores in input order, unique
    source count, adjustment from the company's source history before that
    date, adjusted = raw * adjustment. A company's dates without articles are
    quiet cells: they are not held, they read as zero in rows, grid() and the
    written CSV, and under all_days they count as days of zero sources.
    Articles of a company outside the universe are counted and dropped; a
    company named twice in the universe raises ValueError.
    """
    config = config or AggregationConfig()
    all_days = config.adjustment_history == "all_days"
    companies = tuple(sorted(universe))
    for a, b in zip(companies, companies[1:]):
        if a == b:  # its rows would be written twice
            raise ValueError(f"universe repeats company {a!r}")
    result = AggregationResult(calendar.dates, companies, [{} for _ in calendar.dates])
    # universe company -> trading date -> (scores in input order, sources)
    groups: dict[str, dict[date, tuple[list[float], set[str]]]] = {company: {} for company in companies}
    for record in scored:
        trading_date, diagnostic = effective_trading_date(record.published_at, calendar)
        if diagnostic is not None:
            result.diagnostics.append(f"article {record.id}: {diagnostic}")
        if trading_date is None:
            result.dropped_after_range += 1
            continue
        by_date = groups.get(record.company_id)
        if by_date is None:
            result.dropped_unknown_company += 1
            continue
        group = by_date.get(trading_date)
        if group is None:
            group = by_date[trading_date] = ([], set())
        group[0].append(record.score)
        group[1].add(record.source)

    # each company's article days in date order, with a running source total;
    # under all_days every earlier date is a prior day, so their count is the index
    index = {d: i for i, d in enumerate(calendar.dates)}
    for j, company in enumerate(result.companies):
        prior_total = prior_days = 0
        for trading_date, (scores, sources) in sorted(groups[company].items()):
            i = index[trading_date]
            raw = sum(scores) / len(scores)
            u = len(sources)
            adj = _shrink(u, prior_total, i if all_days else prior_days)
            result.cells[i][j] = DailySentiment(
                company, trading_date, raw, raw * adj, len(scores), u, adj)
            prior_total += u
            prior_days += 1
    return result


def write_daily_sentiment_csv(path: str | Path, result: AggregationResult) -> None:
    # repr() keeps the shortest round-trippable float text, so re-reading the
    # file reproduces the values bit for bit; a quiet cell's text is fixed
    quiet = [f",{company},0.0,0,1.0,0.0\n" for company in result.companies]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,company,raw_mean,unique_sources,adjustment,adjusted\n")
        for trading_date, cells in zip(result.dates, result.cells):
            day = trading_date.isoformat()
            lines = [day + text for text in quiet]
            for j, (company, _, raw, adjusted, _, u, adj) in cells.items():
                lines[j] = f"{day},{company},{raw!r},{u},{adj!r},{adjusted!r}\n"
            fh.write("".join(lines))
