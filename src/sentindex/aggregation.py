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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple
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
        if not isinstance(self.cutoff, time) or self.cutoff.tzinfo is not None:  # compared with naive local times
            raise ValueError(f"cutoff must be a datetime.time without tzinfo, got {self.cutoff!r}")

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
    i, diagnostic = _trading_index(published_at, calendar.dates, calendar.tzinfo, calendar.cutoff)
    return (None if i is None else calendar.dates[i]), diagnostic


def _trading_index(
    published_at: datetime, dates: tuple[date, ...], zone: ZoneInfo, cutoff: time
) -> tuple[int | None, str | None]:
    # effective_trading_date on the calendar's parts, read once by a caller that maps many instants;
    # gives the index of the trading date in dates
    if published_at.utcoffset() is None:
        raise ValueError(f"published_at {published_at.isoformat()} lacks a UTC offset")
    try:
        local = published_at.astimezone(zone)
        day = local.date()
        if local.time() >= cutoff:
            day += timedelta(days=1)
    except OverflowError:
        # only instants within a day of the ends of years 1 to 9999 leave the
        # date range here, and they precede or follow any calendar
        day = date.min if published_at.year == 1 else date.max
    if day < dates[0]:
        return 0, f"published {published_at.isoformat()} precedes the calendar"
    i = bisect_left(dates, day)
    if i < len(dates):
        return i, None
    return None, f"published {published_at.isoformat()} falls after the final trading date"


def _shrink(u_today: int, prior_total: int, prior_days: int) -> float:
    # int / int is correctly rounded, so a running total and count give the mean of the history bit for bit
    if not prior_days:
        return 1.0
    m = prior_total / prior_days
    if u_today < m:
        return u_today / m
    return 1.0


@record
class AggregationResult(NamedTuple):
    dates: tuple[date, ...]
    companies: tuple[str, ...]  # sorted
    # per date: company index -> the running record of a cell with articles, [score sum started from 0.0,
    # article count, sources], the sources one source while there is one and a set from the second on
    cells: list[dict[int, list]]
    diagnostics: list[str] = []
    dropped_after_range: int = 0
    dropped_unknown_company: int = 0  # on a trading date, but not in the universe
    adjustment_history: str = "nonzero_days"  # the history mode the cells are shrunk under

    def _check(self) -> None:
        if self.adjustment_history not in HISTORY_MODES:
            raise ValueError(
                f"adjustment_history must be one of {HISTORY_MODES}, got {self.adjustment_history!r}")

    def _walk(self) -> Iterator[list[tuple[int, float, float, int, int, float]]]:
        """Per date, its cells with articles as (company index, raw mean, adjusted, article count, unique
        sources, adjustment), the adjustment from the company's source history before that date.

        Raw mean is the sum over the count; adjusted is raw * adjustment, raw itself at 1.0. A quiet cell
        is not listed; under all_days it counts as a day of zero sources. Each date's list is built as the
        walk reaches it, from the cells alone, so every walk gives the same values.
        """
        all_days = self.adjustment_history == "all_days"
        # under all_days every earlier date is a prior day, so their count is the date's index
        prior_total, prior_days = [0] * len(self.companies), [0] * len(self.companies)
        for i, day in enumerate(self.cells):
            values = []
            for j, (total, count, sources) in day.items():
                raw = total / count
                u = len(sources) if type(sources) is set else 1
                adj = _shrink(u, prior_total[j], i if all_days else prior_days[j])
                values.append((j, raw, raw if adj == 1.0 else raw * adj, count, u, adj))
                prior_total[j] += u
                prior_days[j] += 1
            yield values

    @property
    def rows(self) -> list[DailySentiment]:
        """Every cell ordered by (trading date, company id), a quiet one as a zero row.

        A zero row has mean, adjusted value and counts 0 and adjustment 1.0. The list is
        built anew on each access, for library callers; the aggregate command never builds it.
        """
        rows = []
        for d, values in zip(self.dates, self._walk()):
            held = {j: DailySentiment(self.companies[j], d, *cell) for j, *cell in values}
            rows += [held.get(j) or DailySentiment(c, d, 0.0, 0.0, 0, 0, 1.0) for j, c in enumerate(self.companies)]
        return rows

    def grid(self) -> Grid:
        """The adjusted values, 0.0 on quiet cells: the Grid that loading the written CSV gives."""
        rows = [[0.0] * len(self.companies) for _ in self.dates]
        for row, values in zip(rows, self._walk()):
            for j, _, adjusted, *_ in values:
                row[j] = adjusted
        return Grid(self.dates, self.companies, rows)


def aggregate_daily(
    scored: Iterable[ScoredArticle],
    universe: list[str],
    calendar: TradingCalendar,
    config: AggregationConfig | None = None,
) -> AggregationResult:
    """Build the (company, trading date) sentiment grid, holding a running record per cell with articles.

    Per company and date: raw mean of article scores added in input order from
    0.0 (no sum(), whose floats differ from Python 3.12), unique source count,
    adjustment from the company's source history before that date, adjusted =
    raw * adjustment (raw itself at 1.0); AggregationResult._walk derives them from
    the records. A company's dates without articles are quiet cells: they are not
    held, they read as zero in rows, grid() and the written CSV, and under all_days
    they count as days of zero sources. Articles of a company outside the universe
    are counted and dropped; a company named twice in the universe raises
    ValueError. scored is iterated once, so it may be a generator such as
    sentiment.read_scored.
    """
    config = config or AggregationConfig()
    companies = tuple(sorted(universe))
    for a, b in zip(companies, companies[1:]):
        if a == b:  # its rows would be written twice
            raise ValueError(f"universe repeats company {a!r}")
    column = {company: j for j, company in enumerate(companies)}
    dates, zone, cutoff = calendar.dates, calendar.tzinfo, calendar.cutoff  # tzinfo is a ZoneInfo call
    cells: list[dict] = [{} for _ in dates]
    diagnostics, after_range, unknown = [], 0, 0
    for record in scored:
        i, diagnostic = _trading_index(record.published_at, dates, zone, cutoff)
        if diagnostic is not None:
            diagnostics.append(f"article {record.id}: {diagnostic}")
        if i is None:
            after_range += 1
            continue
        j = column.get(record.company_id)
        if j is None:
            unknown += 1
            continue
        day = cells[i]
        cell = day.get(j)
        if cell is None:
            day[j] = [0.0 + record.score, 1, record.source]  # 0.0 + turns a lone -0.0 into 0.0
            continue
        cell[0] += record.score
        cell[1] += 1
        sources = cell[2]
        if type(sources) is set:
            sources.add(record.source)
        elif sources != record.source:
            cell[2] = {sources, record.source}
    return AggregationResult(dates, companies, cells, diagnostics, after_range, unknown, config.adjustment_history)


def write_daily_sentiment_csv(path: str | Path, result: AggregationResult) -> None:
    # repr() keeps the shortest round-trippable float text, so re-reading the file reproduces the values
    # bit for bit. Each date's lines are printed as the walk reaches the date. A row's text is kept without
    # its date (a quiet one's is fixed) and the date joined before each; an adjusted value that is the raw
    # mean object itself (see AggregationResult._walk) reuses its text
    companies = result.companies
    quiet = [f",{company},0.0,0,1.0,0.0\n" for company in companies]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,company,raw_mean,unique_sources,adjustment,adjusted\n")
        for trading_date, values in zip(result.dates, result._walk()):
            texts = quiet.copy()
            for j, raw, adjusted, _, u, adj in values:
                text = repr(raw)
                texts[j] = f",{companies[j]},{text},{u},{adj!r},{text if adjusted is raw else repr(adjusted)}\n"
            if texts:  # an empty universe writes the header alone
                day = trading_date.isoformat()
                fh.write(day + day.join(texts))
