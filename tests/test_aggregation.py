"""Unit and property tests for calendar mapping and daily aggregation."""

from __future__ import annotations

import random
import tempfile
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggregation_reference
from dict_adapters import source_adjustment
from sentindex.aggregation import (
    HISTORY_MODES,
    AggregationConfig,
    DailySentiment,
    TradingCalendar,
    aggregate_daily,
    effective_trading_date,
    write_daily_sentiment_csv,
)
from sentindex.grids import Grid, load_daily_sentiment_csv
from sentindex.sentiment import ScoredArticle

BERLIN = ZoneInfo("Europe/Berlin")

# Mon 2019-03-04 .. Fri 2019-03-15, weekdays only
WEEKDAYS = tuple(
    d for d in (date(2019, 3, 4) + timedelta(days=i) for i in range(12))
    if d.weekday() < 5
)
CAL = TradingCalendar(dates=WEEKDAYS, timezone="Europe/Berlin", cutoff=time(17, 0))


def record(company="puma", when=None, score=0.5, source="wire", id="a1"):
    when = when or datetime(2019, 3, 4, 10, 0, tzinfo=BERLIN)
    return ScoredArticle(id=id, company_id=company, source=source,
                         published_at=when, score=score)


class TestEffectiveTradingDate:
    def test_before_cutoff_same_day(self):
        d, diag = effective_trading_date(datetime(2019, 3, 4, 16, 59, tzinfo=BERLIN), CAL)
        assert d == date(2019, 3, 4) and diag is None

    def test_at_cutoff_next_day(self):
        d, diag = effective_trading_date(datetime(2019, 3, 4, 17, 0, tzinfo=BERLIN), CAL)
        assert d == date(2019, 3, 5) and diag is None

    def test_friday_evening_rolls_to_monday(self):
        d, diag = effective_trading_date(datetime(2019, 3, 8, 18, 0, tzinfo=BERLIN), CAL)
        assert d == date(2019, 3, 11) and diag is None

    def test_saturday_rolls_to_monday(self):
        d, _ = effective_trading_date(datetime(2019, 3, 9, 11, 0, tzinfo=BERLIN), CAL)
        assert d == date(2019, 3, 11)

    def test_timezone_conversion_applies_before_cutoff_check(self):
        # 16:30 UTC is 17:30 Berlin in March (CET): past the cutoff
        d, _ = effective_trading_date(datetime(2019, 3, 4, 16, 30, tzinfo=timezone.utc), CAL)
        assert d == date(2019, 3, 5)

    def test_naive_timestamp_rejected(self):
        # astimezone read a naive time in the host's zone, so 16:30 fell before or after the cutoff
        with pytest.raises(ValueError, match="published_at 2019-03-04T16:30:00 lacks a UTC offset"):
            effective_trading_date(datetime(2019, 3, 4, 16, 30), CAL)

    def test_before_range_lands_on_first_date_with_diagnostic(self):
        d, diag = effective_trading_date(datetime(2019, 2, 20, 9, 0, tzinfo=BERLIN), CAL)
        assert d == WEEKDAYS[0]
        assert diag is not None and "precedes" in diag

    def test_after_range_dropped_with_diagnostic(self):
        d, diag = effective_trading_date(datetime(2019, 3, 15, 17, 30, tzinfo=BERLIN), CAL)
        assert d is None and diag is not None

    @settings(max_examples=150, deadline=None)
    @given(st.datetimes(min_value=datetime(2019, 2, 25), max_value=datetime(2019, 3, 15)),
           st.integers(0, 72))
    def test_monotone_in_publication_time(self, base, hours):
        earlier = base.replace(tzinfo=BERLIN)
        later = earlier + timedelta(hours=hours)
        d1, _ = effective_trading_date(earlier, CAL)
        d2, _ = effective_trading_date(later, CAL)
        if d1 is not None and d2 is not None:
            assert d2 >= d1
        elif d1 is None:
            # once past the horizon, staying later must also be past it
            assert d2 is None


class TestSourceAdjustment:
    def test_below_mean_scales(self):
        assert source_adjustment(2, [4, 4, 4]) == 0.5

    def test_at_or_above_mean_is_one(self):
        assert source_adjustment(5, [4, 4, 4]) == 1.0
        assert source_adjustment(4, [4, 4, 4]) == 1.0

    def test_empty_history_is_one(self):
        assert source_adjustment(1, []) == 1.0

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            source_adjustment(0, [1])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20), st.lists(st.integers(0, 20), max_size=12))
    def test_always_in_unit_interval(self, u, prior):
        adj = source_adjustment(u, prior)
        assert 0.0 < adj <= 1.0


class TestAggregateDaily:
    UNIVERSE = ["adidas", "puma"]

    def test_mean_and_zero_fill(self):
        records = [
            record(score=0.6, id="a1", source="wire"),
            record(score=-0.2, id="a2", source="post"),
        ]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        rows = {(r.company_id, r.trading_date): r for r in result.rows}
        hit = rows[("puma", date(2019, 3, 4))]
        assert hit.raw_mean == pytest.approx(0.2)
        assert hit.article_count == 2 and hit.unique_sources == 2
        # grid is complete: every company on every trading date
        assert len(result.rows) == len(self.UNIVERSE) * len(CAL.dates)
        quiet = rows[("adidas", date(2019, 3, 4))]
        assert quiet.raw_mean == 0.0 and quiet.adjusted == 0.0 and quiet.unique_sources == 0

    def test_three_articles_two_sources(self):
        records = [
            record(score=0.3, id="a1", source="wire"),
            record(score=0.3, id="a2", source="wire"),
            record(score=0.3, id="a3", source="post"),
        ]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        row = {(r.company_id, r.trading_date): r for r in result.rows}[("puma", date(2019, 3, 4))]
        assert row.unique_sources == 2 and row.article_count == 3

    def test_adjustment_contractive_and_sign_preserving(self):
        # day 1: 4 sources; day 2: 1 source -> adjustment 0.25
        records = [record(score=0.8, id=f"a{i}", source=f"s{i}") for i in range(4)]
        records.append(record(score=0.8, id="b1", source="s0",
                              when=datetime(2019, 3, 5, 9, 0, tzinfo=BERLIN)))
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        rows = {(r.company_id, r.trading_date): r for r in result.rows}
        day2 = rows[("puma", date(2019, 3, 5))]
        assert day2.adjustment == 0.25
        assert day2.adjusted == pytest.approx(0.8 * 0.25)
        assert abs(day2.adjusted) <= abs(day2.raw_mean)

    def test_history_mode_changes_adjustment(self):
        # puma: 2 sources on Mon, nothing Tue, 1 source Wed
        records = [
            record(score=0.5, id="a1", source="wire"),
            record(score=0.5, id="a2", source="post"),
            record(score=0.5, id="a3", source="wire",
                   when=datetime(2019, 3, 6, 9, 0, tzinfo=BERLIN)),
        ]
        nonzero = aggregate_daily(records, self.UNIVERSE, CAL,
                                  AggregationConfig(adjustment_history="nonzero_days"))
        all_days = aggregate_daily(records, self.UNIVERSE, CAL,
                                   AggregationConfig(adjustment_history="all_days"))
        wed = date(2019, 3, 6)
        row_nonzero = {(r.company_id, r.trading_date): r for r in nonzero.rows}[("puma", wed)]
        row_all = {(r.company_id, r.trading_date): r for r in all_days.rows}[("puma", wed)]
        # nonzero mode: prior mean 2 -> 1/2; all-days mode: prior mean (2+0)/2 = 1 -> no shrink
        assert row_nonzero.adjustment == 0.5
        assert row_all.adjustment == 1.0

    def test_after_range_article_dropped_and_counted(self):
        records = [record(when=datetime(2019, 3, 15, 17, 30, tzinfo=BERLIN))]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        assert result.dropped_after_range == 1
        assert all(r.article_count == 0 for r in result.rows)

    def test_article_count_accounting(self):
        records = [
            record(id="a1"),
            record(id="a2", when=datetime(2019, 3, 15, 18, 0, tzinfo=BERLIN)),  # dropped
            record(id="a3", company="adidas"),
        ]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        counted = sum(r.article_count for r in result.rows)
        assert counted == len(records) - result.dropped_after_range

    def test_repeated_universe_company_rejected(self):
        # every row of the company was written twice, and the CSV reader rejected the file
        with pytest.raises(ValueError, match="universe repeats company 'puma'"):
            aggregate_daily([record()], ["puma", "adidas", "puma"], CAL)

    def test_rows_ordered_by_date_then_company(self):
        result = aggregate_daily([record()], self.UNIVERSE, CAL)
        keys = [(r.trading_date, r.company_id) for r in result.rows]
        assert keys == sorted(keys)

    def test_csv_roundtrip_exact(self, tmp_path):
        records = [record(score=1 / 3, id="a1"), record(score=0.1, id="a2", source="post")]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        path = tmp_path / "daily.csv"
        write_daily_sentiment_csv(path, result)
        assert bits(load_daily_sentiment_csv(path)) == bits(result.grid())

    def test_only_cells_with_articles_are_held(self):
        records = [record(id="a1"), record(id="a2", company="adidas",
                                            when=datetime(2019, 3, 6, 9, 0, tzinfo=BERLIN))]
        result = aggregate_daily(records, self.UNIVERSE, CAL)
        held = {(result.companies[j], result.dates[i])
                for i, cells in enumerate(result.cells) for j in cells}
        assert held == {("puma", date(2019, 3, 4)), ("adidas", date(2019, 3, 6))}

    def test_csv_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text(
            "date,company,raw_mean,unique_sources,adjustment,adjusted\n"
            "2019-03-04,puma,0.5,1,1.0,0.5\n"
            "2019-03-04,adidas,0.0,0,1.0,0.0\n"
            "2019-03-04,puma,0.25,1,1.0,0.25\n")
        with pytest.raises(ValueError, match=r"line 4: duplicate sentiment row for \(puma, 2019-03-04\)"):
            load_daily_sentiment_csv(path)

    def test_csv_rejects_gap(self, tmp_path):
        # a hole the backtest would never read is rejected too: aggregate writes a complete grid
        path = tmp_path / "daily.csv"
        path.write_text(
            "date,company,raw_mean,unique_sources,adjustment,adjusted\n"
            "2019-03-04,puma,0.5,1,1.0,0.5\n"
            "2019-03-04,adidas,0.0,0,1.0,0.0\n"
            "2019-03-05,adidas,0.0,0,1.0,0.0\n")
        with pytest.raises(ValueError) as info:
            load_daily_sentiment_csv(path)
        assert str(info.value) == f"{path}: sentiment CSV has a gap: no adjusted for (puma, 2019-03-05)"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "daily.csv"
        path.write_text(
            "date,company,raw_mean,unique_sources,adjustment,adjusted\n"
            "2019-03-04,puma,0.5,1,1.0,0.5\n"
            f"2019-03-05,puma,0.5,1,1.0,{value}\n")
        with pytest.raises(ValueError, match=rf"line 3: non-finite adjusted {value} for \(puma, 2019-03-05\)"):
            load_daily_sentiment_csv(path)

    def test_bad_history_mode_rejected(self):
        with pytest.raises(ValueError, match="adjustment_history"):
            AggregationConfig(adjustment_history="sometimes")

    def test_calendar_requires_increasing_dates(self):
        with pytest.raises(ValueError):
            TradingCalendar(dates=(date(2019, 3, 5), date(2019, 3, 4)))

    def test_calendar_rejects_unknown_zone(self):
        with pytest.raises(Exception):
            TradingCalendar(dates=WEEKDAYS, timezone="Mars/Olympus")

    @pytest.mark.parametrize("cutoff", [time(17, 0, tzinfo=timezone.utc), "17:00", datetime(2019, 3, 4, 17)],
                             ids=["aware", "text", "datetime"])
    def test_calendar_rejects_a_cutoff_that_is_no_naive_time(self, cutoff):
        # the cutoff is compared with a naive market-local time, which only a naive datetime.time compares with
        with pytest.raises(ValueError, match=r"^cutoff must be a datetime.time without tzinfo, got "):
            TradingCalendar(dates=WEEKDAYS, cutoff=cutoff)


def bits(grid: Grid) -> tuple:
    """A Grid with each value as float.hex(), so that == compares bit for bit."""
    return grid.dates, grid.companies, [[value.hex() for value in row] for row in grid.rows]


def test_grid_matches_written_csv_on_golden_fixture(golden_run, tmp_path):
    path = tmp_path / "daily.csv"
    write_daily_sentiment_csv(path, golden_run.aggregation_result)
    assert bits(golden_run.aggregation_result.grid()) == bits(load_daily_sentiment_csv(path))


SCORES = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1 / 3, 5e-324]), st.floats(-1.0, 1.0))


@st.composite
def cases(draw) -> tuple[list[ScoredArticle], list[str], TradingCalendar]:
    """Articles around a calendar of one to eight of 14 consecutive days.

    Articles fall before, inside and after the calendar. Company "nil" gets
    only pairs of scores x and -x at the same instant, so each of its cells
    averages to exactly 0.0; company "quiet" gets no article at all.
    """
    first = date(2019, 3, 4)
    offsets = sorted(draw(st.sets(st.integers(0, 13), min_size=1, max_size=8)))
    calendar = TradingCalendar(dates=tuple(first + timedelta(days=i) for i in offsets),
                               timezone="Europe/Berlin", cutoff=time(17, 0))
    active = draw(st.lists(st.sampled_from(["adler", "biber", "dachs"]), min_size=1, unique=True))
    start = datetime.combine(first, time(), tzinfo=BERLIN)
    hours = st.integers(-48, 16 * 24)
    drawn = draw(st.lists(
        st.tuples(st.sampled_from(active), hours, st.sampled_from(["wire", "post", "blog"]), SCORES),
        max_size=40))
    for hour, x, sources in draw(st.lists(
            st.tuples(hours, SCORES, st.sampled_from([("wire", "post"), ("wire", "wire")])),
            min_size=1, max_size=3)):
        drawn += [("nil", hour, sources[0], x), ("nil", hour, sources[1], -x)]
    articles = [ScoredArticle(id=f"a{i}", company_id=company, source=source,
                              published_at=start + timedelta(hours=hour), score=score)
                for i, (company, hour, source, score) in enumerate(drawn)]
    return articles, active + ["nil", "quiet"], calendar


@settings(max_examples=150, deadline=None)
@given(cases())
def test_writer_and_grid_match_references(case):
    # the file's bytes match the earlier per-row writer's, and grid() matches the file read back
    articles, universe, calendar = case
    with tempfile.TemporaryDirectory() as tmp:
        for mode in HISTORY_MODES:
            config = AggregationConfig(adjustment_history=mode)
            got, want = Path(tmp) / f"got-{mode}.csv", Path(tmp) / f"want-{mode}.csv"
            result = aggregate_daily(articles, universe, calendar, config)
            write_daily_sentiment_csv(got, result)
            aggregation_reference.write_daily_sentiment_csv(
                want, aggregation_reference.aggregate_daily(articles, universe, calendar, config))
            assert got.read_bytes() == want.read_bytes()
            assert bits(result.grid()) == bits(load_daily_sentiment_csv(got))


def random_case(seed: int) -> tuple[list[ScoredArticle], list[str], TradingCalendar]:
    """Seeded articles, universe and holiday calendar for the reference comparison.

    Timestamps fall before, inside and after the calendar, on weekends and
    holidays, in several UTC offsets, and exactly at the local cutoff or one
    microsecond before it. Some articles name a company outside the universe.
    """
    rng = random.Random(seed)
    zone = rng.choice(["Europe/Berlin", "America/New_York"])
    market = ZoneInfo(zone)
    first = date(2019, 1, 7) + timedelta(days=rng.randrange(700))
    days = [first + timedelta(days=i) for i in range(rng.randrange(10, 60))]
    dates = tuple(d for d in days if d.weekday() < 5 and rng.random() > 0.1)
    calendar = TradingCalendar(dates=dates, timezone=zone, cutoff=time(17, 0))
    universe = [f"c{i:02d}" for i in rng.sample(range(20), rng.randrange(1, 9))]
    companies = universe + ["outside"]
    offsets = [timezone.utc, timezone(timedelta(hours=1)), timezone(timedelta(hours=-5)),
               timezone(timedelta(hours=5, minutes=30)), market]
    span = (days[-1] - days[0]).days + 6
    articles = []
    for i in range(rng.randrange(0, 400)):
        day = days[0] + timedelta(days=rng.randrange(-3, span))
        kind = rng.random()
        if kind < 0.15:
            when = datetime.combine(day, time(17, 0), tzinfo=market)
        elif kind < 0.25:
            when = datetime.combine(day, time(16, 59, 59, 999999), tzinfo=market)
        else:
            local = datetime.combine(day, time()) + timedelta(seconds=rng.randrange(86400))
            when = local.replace(tzinfo=rng.choice(offsets))
        articles.append(ScoredArticle(
            id=f"a{i}", company_id=rng.choice(companies), source=f"s{rng.randrange(6)}",
            published_at=when, score=rng.choice([0.0, 1 / 3, rng.uniform(-1.0, 1.0)])))
    return articles, universe, calendar


@pytest.mark.parametrize("mode", HISTORY_MODES)
@pytest.mark.parametrize("seed", range(12))
def test_matches_reference_bit_for_bit(seed, mode):
    articles, universe, calendar = random_case(seed)
    config = AggregationConfig(market_timezone=calendar.timezone, adjustment_history=mode)
    got = aggregate_daily(articles, universe, calendar, config)
    want = aggregation_reference.aggregate_daily(articles, universe, calendar, config)
    assert len(got.rows) == len(want.rows) == len(universe) * len(calendar.dates)
    for new, old in zip(got.rows, want.rows):
        for name in DailySentiment._fields:
            a, b = getattr(new, name), getattr(old, name)
            assert a == b and repr(a) == repr(b), (name, new, old)
    assert got.diagnostics == want.diagnostics
    assert got.dropped_after_range == want.dropped_after_range
    for record in articles:
        assert (effective_trading_date(record.published_at, calendar)
                == aggregation_reference.effective_trading_date(record.published_at, calendar))


@pytest.mark.parametrize("stamp, expected, message", [
    (datetime(1, 1, 1, 2, 0, tzinfo=timezone(timedelta(hours=5))), WEEKDAYS[0], "precedes the calendar"),
    (datetime(9999, 12, 31, 23, 30, tzinfo=timezone.utc), None, "falls after the final trading date"),
    (datetime(9999, 12, 31, 16, 30, tzinfo=timezone.utc), None, "falls after the final trading date"),
], ids=["year-1", "year-9999-utc", "year-9999-after-cutoff"])
def test_timestamps_at_the_ends_of_the_date_range_fall_outside_the_calendar(stamp, expected, message):
    # converting these to market time, or moving them past the cutoff, leaves the date range
    d, diag = effective_trading_date(stamp, CAL)
    assert d == expected and message in diag
