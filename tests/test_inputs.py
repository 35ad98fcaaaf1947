"""The shared input readers: CSV quoting and headers, and where a JSON error lies; the config and result records."""

from __future__ import annotations

import copy
import json
import math
from datetime import date
from pathlib import Path

import pytest

from sentindex.aggregation import AggregationConfig, AggregationResult, TradingCalendar
from sentindex.backtest import BacktestConfig, load_benchmark_levels
from sentindex.corpus import FilterConfig, LoadReport
from sentindex.grids import load_daily_sentiment_csv, load_prices
from sentindex.inputs import load_json_object
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
        "backtest-nan-level", "aggregation", "calendar", "empty-calendar", "filter",
        "report"])
def test_config_is_checked_on_every_construction(cls, good, bad, message):
    config = cls(**good)
    assert copy.deepcopy(config) == config._replace() == config
    with pytest.raises(ValueError) as built:
        cls(**{**good, **bad})
    with pytest.raises(ValueError) as replaced:
        config._replace(**bad)
    assert str(built.value) == str(replaced.value) == message
