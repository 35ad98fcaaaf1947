"""The shared input readers: CSV quoting and headers, where a JSON error lies and timestamp texts;
the config and result records."""

from __future__ import annotations

import copy
import json
import math
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentindex.aggregation import AggregationConfig, AggregationResult, TradingCalendar
from sentindex.backtest import BacktestConfig, load_benchmark_levels
from sentindex.corpus import FilterConfig, LoadReport
from sentindex.grids import load_daily_sentiment_csv, load_prices
from sentindex.inputs import isoformat_text, load_json_object, parse_timestamp
from sentindex.optimizer import OptimizerConfig
from sentindex.report import ReportSpec

READERS = {
    "price": (load_prices, "date,company,close", "2021-03-01,a,10.0", '2021-03-02,{},11.0'),
    "sentiment": (load_daily_sentiment_csv, "date,company,raw_mean,unique_sources,adjustment,adjusted",
                  "2021-03-01,a,0.5,1,1.0,0.5", '2021-03-02,{},0.5,1,1.0,0.5'),
    "benchmark": (load_benchmark_levels, "date,level", "2021-03-01,5000.0", '2021-03-02,{}'),
}


@pytest.mark.parametrize("what", READERS)
@pytest.mark.parametrize("field", ['"a,b"', '"ab"', '"5100.0"'], ids=["comma", "plain", "number"])
def test_quoted_field_rejected(tmp_path, what, field):
    load, header, good, quoted = READERS[what]
    path = tmp_path / f"{what}.csv"
    path.write_text(f"{header}\n{good}\n{quoted.format(field)}\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: line 3: quoted fields are not supported"


@pytest.mark.parametrize("what", READERS)
def test_repeated_required_column_rejected(tmp_path, what):
    load, header, good, _ = READERS[what]
    column = header.split(",")[-1]
    path = tmp_path / f"{what}.csv"
    path.write_text(f"{header},{column}\n{good},-5\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {what} CSV repeats the {column!r} column"


def test_repeated_other_column_allowed(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("note,date,note,level\nx,2021-03-01,y,5000.0\n")
    assert load_benchmark_levels(path) == {date(2021, 3, 1): 5000.0}


@pytest.mark.parametrize("what", READERS)
def test_named_columns_read_in_any_order(tmp_path, what):
    """Each reader takes its columns by name: reversed and with a column added before the others (level,extra,date
    for the benchmark), the file gives the same values, and a line that lacks the last column is too short."""
    load, header, good, _ = READERS[what]
    path = tmp_path / f"{what}.csv"
    path.write_text(f"{header}\n{good}\n")
    expected = load(path)

    def reordered(line: str, extra: str) -> str:
        fields = line.split(",")[::-1]
        return ",".join([fields[0], extra, *fields[1:]])

    path.write_text(f"{reordered(header, 'extra')}\n{reordered(good, 'x')}\n")
    assert load(path) == expected
    short = reordered(good, "x").rpartition(",")[0]
    path.write_text(f"{reordered(header, 'extra')}\n{reordered(good, 'x')}\n{short}\n")
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: line 3: too few fields"


@pytest.mark.parametrize("text, line, at, message", [
    ('{\n  "tc_rate": 0.001,\n  "signal_lag_days": ' + "7" * 5000 + "\n}\n", 3, "7" * 5000,
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"),
    # a long fraction or exponent is no integer literal, and a long key is a string
    ('{"n' + "7" * 5000 + '": 1.' + "7" * 5000 + ',\n "x": 1' + "7" * 5000 + "e2,\n\n"
     ' "signal_lag_days": -' + "7" * 5000 + "}", 4, "-",
     "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"),
    # brackets inside a string do not nest
    ('{"optimizer": {"cap": "[[{"},\n "x": ' + "[" * 100_000 + "]" * 100_000 + "}", 2, "[]",
     "nested too deeply"),
], ids=["long-integer", "long-integer-after-others", "deep-list"])
def test_json_error_names_its_position(tmp_path, text, line, at, message):
    path = tmp_path / "backtest_config.json"
    path.write_text(text)
    expected = json.JSONDecodeError(message, text, text.index(at))
    assert expected.lineno == line
    with pytest.raises(ValueError) as info:
        load_json_object(path)
    assert str(info.value) == f"{path}: invalid JSON ({expected})"


@pytest.mark.parametrize("build, name", [
    (lambda: LoadReport(articles=[]), "diagnostics"),
    (FilterConfig, "exclusions"),
    (lambda: AggregationResult((), (), []), "diagnostics"),
], ids=["load-report", "filter-config", "aggregation-result"])
def test_default_list_or_dict_is_not_shared(build, name):
    first, second = build(), build()
    assert getattr(first, name) == getattr(second, name)
    assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls, good, bad, message", [
    (OptimizerConfig, {}, {"cap": 1.5}, "cap must be in (0, 1], got 1.5"),
    (BacktestConfig, {}, {"signal_lag_days": -1}, "signal_lag_days must be >= 0, got -1"),
    (BacktestConfig, {}, {"initial_level": 0.0}, "initial_level must be positive, got 0.0"),
    # nan fails every comparison, so each check is written to be false for it
    (OptimizerConfig, {}, {"delta": math.nan}, "delta must be nonnegative, got nan"),
    (OptimizerConfig, {}, {"trade_epsilon": math.nan}, "trade_epsilon must be nonnegative, got nan"),
    (BacktestConfig, {}, {"initial_level": math.nan}, "initial_level must be positive, got nan"),
    (BacktestConfig, {}, {"initial_level": math.inf}, "initial_level must be finite, got inf"),
    (AggregationConfig, {}, {"adjustment_history": "weekly"},
     "adjustment_history must be one of ('nonzero_days', 'all_days'), got 'weekly'"),
    (TradingCalendar, {"dates": (date(2021, 3, 1), date(2021, 3, 2))},
     {"dates": (date(2021, 3, 2), date(2021, 3, 1))}, "trading dates must be strictly increasing"),
    (TradingCalendar, {"dates": (date(2021, 3, 1),)}, {"dates": ()}, "calendar has no trading dates"),
    (FilterConfig, {}, {"auto_generated_phrases": ("Auto",)},
     "auto-generated phrase 'Auto' must be lower case and not empty"),
    (ReportSpec, {"input_dir": Path("in"), "output_dir": Path("out")}, {"formats": ("svg", "pdf")},
     "unknown report formats: ['pdf']"),
], ids=["optimizer", "backtest", "backtest-level", "optimizer-nan-delta", "optimizer-nan-epsilon",
        "backtest-nan-level", "backtest-inf-level", "aggregation", "calendar", "empty-calendar", "filter",
        "report"])
def test_config_is_checked_on_every_construction(cls, good, bad, message):
    config = cls(**good)
    assert copy.deepcopy(config) == config._replace() == config
    with pytest.raises(ValueError) as built:
        cls(**{**good, **bad})
    with pytest.raises(ValueError) as replaced:
        config._replace(**bad)
    assert str(built.value) == str(replaced.value) == message


# a character in place of one of YYYY-MM-DDTHH:MM:SS±HH:MM: digits of other scripts and the
# separators of the other forms that fromisoformat reads
_STAMP_NOISE = st.sampled_from("09+-:.,TtZzW \u0661\uff11\u00b2")
_MINUTE_ZONES = st.builds(timezone, st.integers(-1439, 1439).map(lambda m: timedelta(minutes=m)))


@st.composite
def stamp_text_st(draw) -> str:
    """A timestamp as isoformat() writes one at whole seconds and an offset of whole minutes, with
    one to three characters replaced, dropped or inserted."""
    ts = draw(st.datetimes(timezones=_MINUTE_ZONES)).replace(microsecond=0)
    chars = list(ts.isoformat())
    for _ in range(draw(st.integers(1, 3))):
        # two edits in three fall on a separator or the offset's minutes
        at = st.sampled_from([4, 7, 10, 13, 16, 19, 22, 23])
        i = draw(st.one_of(at, at, st.integers(0, len(chars))))
        c = draw(_STAMP_NOISE)
        action = draw(st.sampled_from(["replace", "drop", "insert"]))
        if action == "insert" or i == len(chars):
            chars.insert(i, c)
        elif action == "replace":
            chars[i] = c
        else:
            del chars[i]
    return "".join(chars)


@settings(max_examples=400)
@example("2021-07-23T10:00:00-00:00")
@example("2021-07-23T10:00:00+05:75")
@given(stamp_text_st())
def test_isoformat_text_is_isoformat(text):
    """Whatever text parse_timestamp reads, isoformat_text gives its isoformat(): a text taken as is
    must read back to itself."""
    try:
        ts = parse_timestamp(text)
    except ValueError:
        return
    assert isoformat_text(text, ts) == ts.isoformat()


@given(st.datetimes(timezones=_MINUTE_ZONES))
def test_isoformat_text_takes_what_isoformat_writes(ts):
    """At whole seconds and an offset of whole minutes, -00:00 aside, isoformat() is taken as written."""
    text = ts.replace(microsecond=0).isoformat()
    assert isoformat_text(text, parse_timestamp(text)) is text


@pytest.mark.parametrize("text, taken", [
    ("2021-07-23T10:00:00+01:00", True),
    ("2021-07-23T23:59:59-23:59", True),
    ("0999-07-23T10:00:00+00:00", True),
    ("2021-07-23T10:00:00Z", False),
    ("2021-07-23T10:00:00z", False),
    ("2021-07-23T10:00:00-00:00", False),
    ("2021-07-23T10:00:00+05:75", False),
    ("2021-07-23T10:00:00+05:30:30", False),
    ("2021-07-23T10:00:00.5+01:00", False),
    ("2021-07-23T10:00:00.000+01:00", False),
    ("2021-07-23 10:00:00+01:00", False),
    ("2021-07-23t10:00:00+01:00", False),
    ("2021-W29-5T10:00:00+01:00", False),
    ("20210723T100000+0100", False),
    ("20210723T100000.000+01:00", False),
    ("2021-07-23T10:00+01:00", False),
    ("2021W295 10:00:00+01:00", False),
    ("2021-W29t10:00:00+01:00", False),
    ("2021W29T10:00:00+01:00", False),
    ("20210723 100000+0100", False),
], ids=["canonical", "extremes", "early-year", "Z", "z", "minus-zero", "minutes-75", "offset-seconds",
        "fraction", "zero-fraction", "space", "lower-t", "week-date", "basic", "basic-fraction", "no-seconds",
        "basic-week-space", "week-no-day-lower-t", "basic-week-no-day", "basic-space"])
def test_isoformat_text_edges(text, taken):
    ts = parse_timestamp(text)
    got = isoformat_text(text, ts)
    assert got == ts.isoformat()
    assert (got is text) == taken


# each form of a date that fromisoformat reads, as a function of a date; a week without its day is its Monday
_DATE_FORMS = {
    "extended": lambda d: (d.isoformat(), d),
    "basic": lambda d: (d.isoformat().replace("-", ""), d),
    "week": lambda d: ("{:04}-W{:02}-{}".format(*d.isocalendar()), d),
    "basic-week": lambda d: ("{:04}W{:02}{}".format(*d.isocalendar()), d),
    "week-no-day": lambda d: ("{:04}-W{:02}".format(*d.isocalendar()),
                              date.fromisocalendar(*d.isocalendar()[:2], 1)),
    "basic-week-no-day": lambda d: ("{:04}W{:02}".format(*d.isocalendar()),
                                    date.fromisocalendar(*d.isocalendar()[:2], 1)),
}


@settings(max_examples=400)
@example(datetime(2021, 3, 1, 10, tzinfo=timezone(timedelta(hours=1))), "extended", "X")
@example(datetime(2000, 1, 1, tzinfo=timezone.utc), "extended", "0")
@example(datetime(2021, 3, 1, 10, tzinfo=timezone.utc), "basic", "5")
@given(st.datetimes(timezones=_MINUTE_ZONES), st.sampled_from(sorted(_DATE_FORMS)),
       st.sampled_from("Tt 0-W:+.XZ\u00e4\u0661") | st.characters())
def test_timestamp_date_and_time_parted_only_by_t_or_space(ts, form, separator):
    """Of a date in any form fromisoformat reads, then one character, then the time and its offset,
    parse_timestamp reads the instant when the character is T, t or a space, and rejects the text
    otherwise, though fromisoformat takes any character there."""
    day_text, day = _DATE_FORMS[form](ts.date())
    text = day_text + separator + ts.timetz().isoformat()
    if separator in ("T", "t", " "):
        got = parse_timestamp(text)
        assert got == ts.replace(year=day.year, month=day.month, day=day.day)
        assert got.utcoffset() == ts.utcoffset()
    else:
        with pytest.raises(ValueError):
            parse_timestamp(text)


@pytest.mark.parametrize("text", [
    "2021-03-01X10:00:00+01:00",
    "2000-01-01000:00:00+00:00",
    "2021-03-01\u00e410:00:00+01:00",
    "2021-03-01-10:00:00+01:00",
    "2021-03-01_10:00:00Z",
    "20210301510 +01:00",
    "20210301X100000+0100",
    "2021-W09-1X10:00:00+01:00",
    "2021W091X10:00:00+01:00",
    "2021-W09X10:00:00+01:00",
    "2021W09X10:00+01:00",
], ids=["letter", "digit", "non-ascii", "hyphen", "underscore-z", "digit-then-space", "basic", "week",
        "basic-week", "week-no-day", "basic-week-no-day"])
def test_timestamp_other_separator_rejected(text):
    """fromisoformat reads each of these, as it takes any character between the date and the time."""
    datetime.fromisoformat(text.replace("Z", "+00:00"))
    with pytest.raises(ValueError) as info:
        parse_timestamp(text)
    assert str(info.value) == "date and time are not parted by T, t or a space"
