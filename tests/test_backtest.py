"""Unit tests for returns, drift, costs, the day loop, and summaries."""

from __future__ import annotations

import json
import math
import random
import re
from datetime import date, datetime, timedelta

import numpy as np
import pytest

import backtest_reference
from backtest_reference import outcome
from dict_adapters import (
    drift_weights,
    grid,
    price,
    simple_return,
    transaction_costs,
)
from sentindex import backtest
from sentindex.backtest import (
    BacktestConfig,
    DayRecord,
    annualized_return,
    load_benchmark_levels,
    run_backtest,
    trade_statistics,
    write_backtest_outputs,
)
from sentindex.grids import Grid, load_prices
from sentindex.optimizer import OptimizerConfig, trades_from_moves


def make_prices(companies, closes_by_date):
    """closes_by_date: {date: [close per company]}"""
    closes = {}
    for d, row in closes_by_date.items():
        for c, p in zip(companies, row):
            closes[(c, d)] = p
    return grid(closes, sorted(closes_by_date), sorted(companies))


def weekdays(start, n):
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


class TestSimpleReturn:
    def test_gain(self):
        assert simple_return(105.0, 100.0) == pytest.approx(0.05)

    def test_flat(self):
        assert simple_return(100.0, 100.0) == 0.0

    def test_loss(self):
        assert simple_return(50.0, 100.0) == -0.5

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            simple_return(0.0, 100.0)
        with pytest.raises(ValueError):
            simple_return(100.0, -1.0)


class TestDriftWeights:
    def test_zero_returns_identity(self):
        w = {"a": 0.4, "b": 0.5}
        drifted, r_gross = drift_weights(w, {"a": 0.0, "b": 0.0})
        assert drifted == w and r_gross == 0.0

    def test_symmetric_returns(self):
        drifted, r_gross = drift_weights({"a": 0.5, "b": 0.5}, {"a": 0.1, "b": -0.1})
        assert r_gross == 0.0
        assert drifted["a"] == pytest.approx(0.55)
        assert drifted["b"] == pytest.approx(0.45)

    def test_near_full_investment_breaches_band(self):
        drifted, _ = drift_weights({"a": 0.999}, {"a": 0.2})
        assert drifted["a"] == pytest.approx(0.999 * 1.2 / 1.1998)
        assert drifted["a"] > 0.999  # forces a rebalance at the next solve

    def test_sum_conservation(self):
        w = {"a": 0.3, "b": 0.4, "c": 0.2}
        r = {"a": 0.05, "b": -0.02, "c": 0.11}
        drifted, r_gross = drift_weights(w, r)
        lhs = sum(drifted.values()) * (1.0 + r_gross)
        rhs = sum(w[k] * (1.0 + r[k]) for k in sorted(w))
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_wipeout_rejected(self):
        with pytest.raises(ValueError, match="wiped"):
            drift_weights({"a": 1.0}, {"a": -1.0})

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            drift_weights({"a": 0.5}, {"b": 0.0})


class TestTransactionCosts:
    def test_no_trades_zero(self):
        total, per_name = transaction_costs({"a": 0.1}, {"a": 0.1}, 0.0005)
        assert total == 0.0 and per_name == {"a": 0.0}

    def test_single_trade(self):
        total, _ = transaction_costs({"a": 0.12}, {"a": 0.10}, 0.0005)
        assert total == pytest.approx(0.0005 * 0.02)

    def test_initial_investment(self):
        new = {f"c{i}": 0.099 for i in range(10)}
        old = {f"c{i}": 0.0 for i in range(10)}
        total, _ = transaction_costs(new, old, 0.0005)
        assert total == pytest.approx(0.0005 * 0.99)


class TestAnnualizedReturn:
    def test_doubling_over_one_year(self):
        d0 = datetime(2020, 1, 1)
        d1 = d0 + timedelta(days=365, hours=6)  # 365.25 days
        assert annualized_return([100.0, 200.0], [d0, d1]) == pytest.approx(1.0, abs=1e-12)

    def test_flat_levels(self):
        assert annualized_return([100.0, 100.0], [date(2020, 1, 1), date(2020, 7, 1)]) == 0.0

    def test_square_root_case(self):
        d0 = datetime(2020, 1, 1)
        d1 = d0 + timedelta(days=730, hours=12)  # 730.5 days
        assert annualized_return([100.0, 144.0], [d0, d1]) == pytest.approx(0.2, abs=1e-12)

    def test_requires_positive_levels(self):
        with pytest.raises(ValueError):
            annualized_return([0.0, 100.0], [date(2020, 1, 1), date(2020, 2, 1)])

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            annualized_return([100.0], [date(2020, 1, 1)])

    @pytest.mark.parametrize("end", [date(2020, 1, 1), date(2019, 12, 31)])
    def test_requires_positive_span(self, end):
        with pytest.raises(ValueError, match="date span must be positive"):
            annualized_return([100.0, 110.0], [date(2020, 1, 1), end])


class TestTradeStatistics:
    @staticmethod
    def day(d, n_trades):
        return DayRecord(date=d, r_gross=0.0, drifted={}, weights={},
                         trades=[(f"c{i}", 0.01) for i in range(n_trades)],
                         cost=0.0, level=100.0, benchmark_level=100.0)

    def test_counts_exclude_initial_day(self):
        days = [self.day(date(2020, 1, 1), 10)]
        for i, k in enumerate((1, 2, 1, 3)):
            days.append(self.day(date(2020, 1, 2 + i), k))
        stats = trade_statistics(days)
        assert stats["total_trades"] == 7
        assert stats["trades_per_day"] == {"1": 2, "2": 1, "3": 1}
        assert stats["single_trade_days"] == 2
        assert stats["max_trades_per_day"] == 3
        assert stats["initial_trades"] == 10

    def test_initial_day_with_one_later_trade(self):
        days = [self.day(date(2020, 1, 1), 10), self.day(date(2020, 1, 2), 1)]
        assert trade_statistics(days)["total_trades"] == 1

    def test_empty(self):
        assert trade_statistics([])["total_trades"] == 0


def constant_price_run(n_days=5, tc_rate=0.0005):
    companies = [f"c{i + 1:02d}" for i in range(12)]
    dates = weekdays(date(2021, 3, 1), n_days)
    prices = make_prices(companies, {d: [50.0] * 12 for d in dates})
    sentiments = {(c, d): 0.0 for c in companies for d in dates}
    cfg = BacktestConfig(tc_rate=tc_rate)
    return run_backtest(prices, grid(sentiments), cfg)


class TestRunBacktest:
    def test_constant_prices_zero_sentiment(self):
        result = constant_price_run()
        expected = 100.0 * (1.0 - 0.0005 * 0.99)
        assert result.days[0].level == pytest.approx(expected, abs=1e-9)
        # nothing happens after the initial fill: level flat, no trades
        for day in result.days[1:]:
            assert day.level == result.days[0].level
            assert day.trades == []
        assert result.summary["trade_stats"]["total_trades"] == 0
        assert result.summary["trade_stats"]["initial_trades"] == 10

    def test_initial_fill_reaches_lower_budget(self):
        result = constant_price_run(n_days=2)
        held = result.days[0].weights
        assert sum(held.values()) == pytest.approx(0.99, abs=1e-12)
        assert max(held.values()) <= 0.10 + 1e-15

    def test_self_financing_each_day(self):
        rng = np.random.default_rng(3)
        companies = [f"c{i + 1:02d}" for i in range(12)]
        dates = weekdays(date(2021, 1, 4), 60)
        closes, level_row = {}, [float(p) for p in rng.uniform(20, 150, 12)]
        for d in dates:
            level_row = [round(p * (1.0 + float(rng.normal(0.0005, 0.01))), 2) for p in level_row]
            closes[d] = level_row
        prices = make_prices(companies, closes)
        sentiments = {(c, d): float(rng.uniform(-0.9, 0.9)) for c in companies for d in dates}
        result = run_backtest(prices, grid(sentiments), BacktestConfig())
        prev_level = 100.0
        for day in result.days:
            lhs = day.level / prev_level - 1.0
            rhs = day.r_gross - day.cost
            assert lhs == pytest.approx(rhs, abs=2e-13)
            prev_level = day.level

    def test_benchmark_reduction_single_dominant_name(self):
        # with no penalty, no cap, a pinned band, and zero costs the index
        # just tracks the max-sentiment name's price path
        companies = ["alpha", "beta", "gamma"]
        dates = weekdays(date(2021, 3, 1), 10)
        rng = np.random.default_rng(11)
        closes, row = {}, [40.0, 60.0, 80.0]
        for d in dates:
            row = [round(p * (1.0 + float(rng.normal(0, 0.01))), 2) for p in row]
            closes[d] = row
        prices = make_prices(companies, closes)
        sentiments = {(c, d): (1.0 if c == "beta" else 0.0) for c in companies for d in dates}
        cfg = BacktestConfig(
            tc_rate=0.0, signal_lag_days=1,
            optimizer=OptimizerConfig(delta=0.0, cap=1.0, budget_lo=1.0, budget_hi=1.0))
        result = run_backtest(prices, grid(sentiments), cfg)
        base = price(prices, "beta", dates[0])
        for i, day in enumerate(result.days):
            expected = 100.0 * price(prices, "beta", dates[i]) / base
            assert day.level == pytest.approx(expected, rel=1e-12)

    def test_supplied_benchmark_renormalized(self):
        result_dates = weekdays(date(2021, 3, 1), 3)
        companies = ["a", "b"]
        prices = make_prices(companies, {d: [10.0, 20.0] for d in result_dates})
        sentiments = {(c, d): 0.0 for c in companies for d in result_dates}
        benchmark = {d: 5000.0 + 100.0 * i for i, d in enumerate(result_dates)}
        cfg = BacktestConfig(optimizer=OptimizerConfig(cap=0.6, budget_lo=0.9, budget_hi=0.95))
        result = run_backtest(prices, grid(sentiments), cfg, benchmark=benchmark)
        assert result.days[0].benchmark_level == pytest.approx(100.0)
        assert result.days[1].benchmark_level == pytest.approx(100.0 * 5100.0 / 5000.0)

    @pytest.mark.parametrize("day, level", [(2, -5.0), (2, 0.0), (2, math.inf), (2, math.nan), (0, 0.0)])
    def test_supplied_benchmark_checked_on_every_date(self, day, level):
        dates = weekdays(date(2021, 3, 1), 3)
        prices = make_prices(["a", "b"], {d: [10.0, 20.0] for d in dates})
        sentiments = {(c, d): 0.0 for c in ("a", "b") for d in dates}
        benchmark = {d: 5000.0 + 100.0 * i for i, d in enumerate(dates)}
        benchmark[dates[day]] = level
        cfg = BacktestConfig(optimizer=OptimizerConfig(cap=0.6, budget_lo=0.9, budget_hi=0.95))
        message = f"benchmark level {level!r} for {dates[day]} is not finite and positive"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_backtest(prices, grid(sentiments), cfg, benchmark=benchmark)

    def test_costs_that_wipe_out_the_portfolio_raise(self):
        """A day whose costs exceed 1 plus its gross return raises instead of taking the level below zero."""
        companies = ["a", "b"]
        dates = weekdays(date(2021, 3, 1), 6)
        prices = make_prices(companies, {d: [100.0, 100.0] for d in dates})
        # the signal swaps every day, so the whole book turns over at a 90 % cost rate
        sentiments = {(c, d): 1.0 if (i + j) % 2 == 0 else -1.0
                      for i, d in enumerate(dates) for j, c in enumerate(companies)}
        cfg = BacktestConfig(tc_rate=0.9, signal_lag_days=0, optimizer=OptimizerConfig(
            delta=0.0, cap=1.0, budget_lo=0.99, budget_hi=0.999))
        with pytest.raises(ValueError, match=re.escape(
                f"portfolio wiped out on {dates[1]}: gross return 0.0, cost 1.7982")):
            run_backtest(prices, grid(sentiments), cfg)

    @pytest.mark.parametrize("rows", [[[10.0, 20.0]], [[10.0, 20.0], [10.0]]], ids=["one-row", "short-row"])
    def test_price_grid_of_wrong_shape_rejected(self, rows):
        dates = tuple(weekdays(date(2021, 3, 1), 2))
        sentiments = {(c, d): 0.0 for c in ("a", "b") for d in dates}
        with pytest.raises(ValueError, match=re.escape("price series needs 2 rows of 2 closes")):
            run_backtest(Grid(dates, ("a", "b"), rows), grid(sentiments), BacktestConfig())

    def test_missing_sentiment_named(self):
        companies = ["a", "b"]
        dates = weekdays(date(2021, 3, 1), 2)
        prices = make_prices(companies, {d: [10.0, 20.0] for d in dates})
        sentiments = {(c, dates[0]): 0.0 for c in companies}
        with pytest.raises(ValueError, match="'a'"):
            run_backtest(prices, grid(sentiments), BacktestConfig(
                optimizer=OptimizerConfig(cap=0.6, budget_lo=0.9, budget_hi=0.95)))

    def test_sentiment_grid_may_cover_more(self):
        # extra companies and dates in the sentiment grid are never read
        companies = ["a", "b", "c"]
        dates = weekdays(date(2021, 3, 1), 4)
        prices = make_prices(companies, {d: [10.0 + i, 20.0 - i, 30.0] for i, d in enumerate(dates)})
        sentiments = {(c, d): 0.1 * j - 0.05 * i for i, d in enumerate(dates) for j, c in enumerate(companies)}
        cfg = BacktestConfig(optimizer=OptimizerConfig(cap=0.5, budget_lo=0.9, budget_hi=0.95))
        want = run_backtest(prices, grid(sentiments), cfg)
        wider = {(c, d): 1.0 for c in ("0", "bb", "z", *companies) for d in (date(2021, 2, 26), *dates)}
        wider.update(sentiments)
        got = run_backtest(prices, grid(wider), cfg)
        assert repr(got.days) == repr(want.days) and got.summary == want.summary

    def test_missing_sentiment_date_named(self):
        companies = ["a", "b"]
        dates = weekdays(date(2021, 3, 1), 3)
        prices = make_prices(companies, {d: [10.0, 20.0] for d in dates})
        sentiments = {(c, d): 0.0 for c in companies for d in (dates[0], dates[2])}
        with pytest.raises(ValueError, match=rf"missing sentiment for \('a', {dates[1]}\)"):
            run_backtest(prices, grid(sentiments), BacktestConfig(
                optimizer=OptimizerConfig(cap=0.6, budget_lo=0.9, budget_hi=0.95)))

    def test_empty_date_range_rejected(self):
        prices = grid({}, (), ("a",))
        with pytest.raises(ValueError, match="empty"):
            run_backtest(prices, grid({}), BacktestConfig())

    def test_empty_universe_rejected(self):
        dates = weekdays(date(2021, 3, 1), 1)
        empty = grid({}, dates, ())
        with pytest.raises(ValueError, match="price series has no companies"):
            run_backtest(empty, empty, BacktestConfig(optimizer=OptimizerConfig(budget_lo=0.0, budget_hi=0.0)))

    @pytest.mark.parametrize("companies", [("b", "a"), ("a", "a"), ("a", "c", "b")])
    def test_companies_not_strictly_increasing_rejected(self, companies):
        dates = weekdays(date(2021, 3, 1), 2)
        closes = {(c, d): 10.0 for c in companies for d in dates}
        sentiments = {(c, d): 0.0 for c in companies for d in dates}
        with pytest.raises(ValueError, match="companies must be strictly increasing"):
            run_backtest(grid(closes, dates, companies), grid(sentiments), BacktestConfig())

    # the dates of the prices ran unsorted and wrote a levels.csv that report rejects; a
    # repeated sentiment date or company silently read its last row or column
    @pytest.mark.parametrize("target, axis, order", [
        ("price series", "dates", (0, 2, 1)), ("price series", "dates", (0, 1, 1, 2)),
        ("sentiment", "dates", (0, 2, 1)), ("sentiment", "dates", (0, 1, 1, 2)),
        ("sentiment", "companies", (1, 0)), ("sentiment", "companies", (0, 1, 0)),
    ], ids=["price-dates-unsorted", "price-dates-repeated", "sentiment-dates-unsorted",
            "sentiment-dates-repeated", "sentiment-companies-unsorted", "sentiment-companies-repeated"])
    def test_axes_not_strictly_increasing_rejected(self, target, axis, order):
        axes = {"dates": weekdays(date(2021, 3, 1), 3), "companies": ("a", "b")}
        values = {(c, d): 10.0 for c in axes["companies"] for d in axes["dates"]}
        bad = {axis: [axes[axis][k] for k in order]}
        prices = grid(values, **(bad if target == "price series" else {}))
        sentiments = grid(values, **(bad if target == "sentiment" else {}))
        with pytest.raises(ValueError, match=f"^{target} {axis} must be strictly increasing$"):
            run_backtest(prices, sentiments, BacktestConfig(
                optimizer=OptimizerConfig(cap=0.6, budget_lo=0.9, budget_hi=0.95)))

    def test_truncation_preserves_prefix(self):
        full = constant_price_run(n_days=6)
        truncated = constant_price_run(n_days=4)
        for i in range(4):
            assert truncated.days[i].level == full.days[i].level


class TestLoaders:
    def test_load_prices_roundtrip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,company,close\n"
            "2021-03-01,a,10.0\n2021-03-01,b,20.0\n"
            "2021-03-02,a,11.0\n2021-03-02,b,19.0\n")
        prices = load_prices(path)
        assert prices.dates == (date(2021, 3, 1), date(2021, 3, 2))
        assert prices.companies == ("a", "b")
        assert price(prices, "a", date(2021, 3, 2)) == 11.0
        assert prices.rows == [[10.0, 20.0], [11.0, 19.0]]

    def test_load_prices_rejects_gap(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "date,company,close\n"
            "2021-03-01,a,10.0\n2021-03-01,b,20.0\n2021-03-02,a,11.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: price CSV has a gap: no close for (b, 2021-03-02)")):
            load_prices(path)

    def test_load_prices_rejects_nonpositive(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,company,close\n2021-03-01,a,0.0\n")
        with pytest.raises(ValueError, match="nonpositive"):
            load_prices(path)

    @pytest.mark.parametrize("close", ["nan", "inf"])
    def test_load_prices_rejects_non_finite(self, tmp_path, close):
        path = tmp_path / "prices.csv"
        path.write_text(f"date,company,close\n2021-03-01,a,10.0\n2021-03-01,b,{close}\n")
        with pytest.raises(ValueError, match=rf"line 3: non-finite close {close} for \(b, 2021-03-01\)"):
            load_prices(path)

    def test_load_benchmark_roundtrip(self, tmp_path):
        path = tmp_path / "bench.csv"
        # columns are found by name and blank lines are skipped
        for text in ("date,level\n2021-03-01,5000.0\n2021-03-02,5100.5\n",
                     "note,level,date\n\nx,5000.0,2021-03-01\n \t\ny,5100.5,2021-03-02"):
            path.write_text(text)
            assert load_benchmark_levels(path) == {date(2021, 3, 1): 5000.0, date(2021, 3, 2): 5100.5}

    @pytest.mark.parametrize("level", ["nan", "inf", "0.0", "-5.0"])
    def test_load_benchmark_rejects_bad_level(self, tmp_path, level):
        path = tmp_path / "bench.csv"
        path.write_text(f"date,level\n2021-03-01,5000.0\n2021-03-02,{level}\n")
        with pytest.raises(ValueError, match=f"line 3: benchmark level {level} for 2021-03-02 is not finite"):
            load_benchmark_levels(path)

    def test_load_benchmark_rejects_duplicate_date(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text("date,level\n2021-03-01,5000.0\n2021-03-02,5100.0\n2021-03-01,4900.0\n")
        with pytest.raises(ValueError, match="line 4: duplicate benchmark row for 2021-03-01"):
            load_benchmark_levels(path)

    def test_write_outputs(self, tmp_path):
        result = constant_price_run(n_days=3)
        cfg = BacktestConfig()
        write_backtest_outputs(tmp_path / "out", result, cfg)
        levels = (tmp_path / "out" / "levels.csv").read_text().splitlines()
        assert levels[0] == "date,index_level,benchmark_level"
        assert len(levels) == 4
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["trading_days"] == 3
        trades = (tmp_path / "out" / "trades.csv").read_text().splitlines()
        assert trades[0] == "date,company,delta_weight,cost"
        assert len(trades) == 11  # header + ten initial fills


def backtest_case(rng: random.Random, lag: int, with_benchmark: bool):
    """A seeded backtest for the reference comparison.

    Returns the case twice: as run_backtest takes it, and keyed by (company,
    date) as the reference takes it, with the companies sorted as load_prices
    sorts them. Closes repeat exactly now and then, sentiments tie, and
    delta, tc_rate and trade_epsilon may be zero. A few cases lack a
    company's or a date's sentiments or have a budget_lo out of reach.
    """
    n = rng.randint(1, 25)
    names = [f"n{x}" for x in rng.sample(range(100), n)]
    dates = weekdays(date(2021, 1, 4) + timedelta(days=rng.randrange(300)), rng.randint(1, 40))
    closes, row = {}, {c: rng.uniform(5.0, 200.0) for c in names}
    for d in dates:
        for c in names:
            move = rng.choice([0.0, rng.gauss(0.0, 0.02), rng.gauss(0.0, 0.2)])
            row[c] = max(round(row[c] * (1.0 + move), rng.choice([2, 6])), 0.01)
            closes[(c, d)] = row[c]
    companies = sorted(names)
    ref_prices = backtest_reference.PriceSeries(
        dates=tuple(dates), companies=tuple(companies), closes=closes)
    ties = [0.0, 0.25, -0.25, 0.5, -0.5, 1.0]
    sentiments = {(c, d): rng.choice(ties) if rng.random() < 0.4 else rng.uniform(-1.0, 1.0)
                  for d in dates for c in names}
    if rng.random() < 0.05:  # a dense grid has no single hole: drop a whole company or date
        gone = rng.choice(rng.choice((names, dates)))
        sentiments = {key: value for key, value in sentiments.items() if gone not in key}
    cap = rng.choice([0.1, 0.25, 0.5, 1.0])
    reach = min(1.0, n * cap) if rng.random() > 0.05 else 1.0
    lo = rng.choice([reach, rng.uniform(0.0, reach)])
    cfg = BacktestConfig(
        tc_rate=rng.choice([0.0, 0.0005, 0.01]), signal_lag_days=lag,
        optimizer=OptimizerConfig(
            delta=rng.choice([0.0, 0.25, 1.0, rng.uniform(0.0, 2.0)]), cap=cap, budget_lo=lo,
            budget_hi=rng.choice([lo, rng.uniform(lo, 1.0)]),
            trade_epsilon=rng.choice([0.0, 1e-6, 1e-3])))
    benchmark = {d: rng.uniform(1000.0, 2000.0) for d in dates} if with_benchmark else None
    return ((grid(closes, dates, companies), grid(sentiments), cfg, benchmark),
            (ref_prices, sentiments, cfg, benchmark))


@pytest.mark.parametrize("with_benchmark", [False, True])
@pytest.mark.parametrize("lag", [0, 1, 3, 50])  # 50 is past every calendar drawn: each day solves on zeros
@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_bit_for_bit(seed, lag, with_benchmark):
    rng = random.Random(seed * 10 + lag)
    for _ in range(5):
        case, ref_case = backtest_case(rng, lag, with_benchmark)
        got, got_error = outcome(run_backtest, *case)
        want, want_error = outcome(backtest_reference.run_backtest, *ref_case)
        assert got_error == want_error
        if want is not None:
            assert_same_run(got, want)


def assert_same_run(got, want):
    """Every DayRecord field and the summary are equal, and print the same."""
    assert got.dates == want.dates and len(got.days) == len(want.days)
    for new, old in zip(got.days, want.days):
        for name in DayRecord._fields:
            a, b = getattr(new, name), getattr(old, name)
            assert a == b and repr(a) == repr(b), (name, new.date)
    assert got.summary == want.summary and repr(got.summary) == repr(want.summary)


def wide_case(rng: random.Random, lag: int, with_benchmark: bool):
    """A seeded backtest at the scale of a wide universe, for the reference comparison.

    200 to 600 companies over two to six dates. Most sentiments are zero,
    and some dates' rows are zero throughout; most closes repeat the day
    before exactly. The optimizer config is mostly a small turnover penalty
    with a tight cap, as in a wide universe, so each day trades many names.
    Returned twice, as backtest_case returns it.
    """
    n = rng.randint(200, 600)
    names = [f"n{x:04d}" for x in rng.sample(range(10 * n), n)]
    dates = weekdays(date(2021, 1, 4) + timedelta(days=rng.randrange(300)), rng.randint(2, 6))
    closes, row = {}, {c: round(rng.uniform(5.0, 200.0), 2) for c in names}
    for d in dates:
        for c in names:
            if rng.random() < 0.3:
                row[c] = max(round(row[c] * (1.0 + rng.gauss(0.0, 0.02)), 2), 0.01)
            closes[(c, d)] = row[c]
    companies = sorted(names)
    ref_prices = backtest_reference.PriceSeries(
        dates=tuple(dates), companies=tuple(companies), closes=closes)
    quiet = {d: rng.random() < 0.3 for d in dates}
    sentiments = {(c, d): 0.0 if quiet[d] or rng.random() < 0.9 else
                  rng.choice([0.25, -0.25, 0.5, rng.uniform(-1.0, 1.0)])
                  for d in dates for c in names}
    optimizer = rng.choice([
        OptimizerConfig(delta=0.002, cap=0.02, budget_lo=0.95, budget_hi=0.99),
        OptimizerConfig(delta=0.0, cap=0.02, budget_lo=0.95, budget_hi=0.95),
        OptimizerConfig(delta=rng.uniform(0.0, 0.01), cap=rng.choice([0.005, 0.02, 0.1]),
                        budget_lo=0.9, budget_hi=rng.uniform(0.9, 1.0),
                        trade_epsilon=rng.choice([0.0, 1e-6])),
    ])
    cfg = BacktestConfig(tc_rate=rng.choice([0.0, 0.0005]), signal_lag_days=lag, optimizer=optimizer)
    benchmark = {d: rng.uniform(1000.0, 2000.0) for d in dates} if with_benchmark else None
    return ((grid(closes, dates, companies), grid(sentiments), cfg, benchmark),
            (ref_prices, sentiments, cfg, benchmark))


@pytest.mark.parametrize("with_benchmark", [False, True])
@pytest.mark.parametrize("lag", [0, 1, 3])
def test_wide_universe_matches_reference_bit_for_bit(lag, with_benchmark):
    """The day loop's vector passes give the reference's records at hundreds of names."""
    rng = random.Random(7000 + 10 * lag + with_benchmark)
    for _ in range(3):
        case, ref_case = wide_case(rng, lag, with_benchmark)
        got, want = run_backtest(*case), backtest_reference.run_backtest(*ref_case)
        assert_same_run(got, want)


@pytest.mark.parametrize("day, row", [
    (2, [10.0, -1.0, 30.0]),
    (1, [math.nan, 0.0, 30.0]),
    (0, [10.0, 20.0, -5.0]),
    (1, [math.nan, 20.0, 30.0]),
])
def test_bad_close_matches_reference(day, row):
    """A bad close raises as the reference's does: a nonpositive one in the loop, a nan one in the summary."""
    companies = ("a", "b", "c")
    dates = weekdays(date(2021, 3, 1), 3)
    closes = {(c, d): p for d in dates for c, p in zip(companies, [10.0, 20.0, 30.0])}
    closes.update({(c, dates[day]): p for c, p in zip(companies, row)})
    sentiments = {(c, d): 0.1 for c in companies for d in dates}
    cfg = BacktestConfig(optimizer=OptimizerConfig(cap=0.5, budget_lo=0.9, budget_hi=0.95))
    got, got_error = outcome(run_backtest, grid(closes, dates, companies), grid(sentiments), cfg)
    want, want_error = outcome(backtest_reference.run_backtest,
                               backtest_reference.PriceSeries(dates, companies, closes), sentiments, cfg)
    assert got_error == want_error
    if want is not None:
        assert repr(got.days) == repr(want.days)

@pytest.mark.parametrize("seed", range(4))
def test_dict_helpers_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(200):
        names = [f"n{x}" for x in rng.sample(range(100), rng.randint(1, 30))]
        w = {k: rng.choice([0.0, 1.0, rng.uniform(0.0, 0.2)]) for k in names}
        r = {k: rng.choice([0.0, -1.0, rng.uniform(-0.5, 0.5)]) for k in rng.sample(names, len(names))}
        other = {k: rng.choice([w[k], 0.0, rng.uniform(0.0, 0.2)]) for k in names}
        if rng.random() < 0.05:
            other[names[0] + "x"] = 0.0
        tc_rate, eps = rng.choice([0.0, 0.0005]), rng.choice([0.0, 1e-6])
        for fn, ref, args in (
            (drift_weights, backtest_reference.drift_weights, (w, r)),
            (transaction_costs, backtest_reference.transaction_costs, (w, other, tc_rate)),
        ):
            got, want = outcome(fn, *args), outcome(ref, *args)
            assert got == want and repr(got) == repr(want), fn.__name__
        keys = sorted(w)
        if sorted(other) == keys:  # trades_from_moves takes keys its caller has matched
            got = trades_from_moves(keys, [w[k] - other[k] for k in keys], eps)
            assert repr(got) == repr(backtest_reference.extract_trades(w, other, eps))


@pytest.mark.parametrize("lag", [0, 1, 3, 31])  # the golden calendar has 30 dates
def test_each_solve_calls_the_module_global(golden_run, monkeypatch, lag):
    """The day loop solves through sentindex.backtest.optimize_weights, once per solved day.

    Wrapping that global is how a caller times each solve, so a loop that
    bypassed it would leave the solves untimed.
    """
    cfg = golden_run.backtest_config._replace(signal_lag_days=lag)
    want = run_backtest(golden_run.prices, golden_run.sentiments, cfg)
    priors = []
    solve = backtest.optimize_weights

    def counting(s, w_prev, opt):
        priors.append(w_prev)
        return solve(s, w_prev, opt)

    monkeypatch.setattr(backtest, "optimize_weights", counting)
    got = run_backtest(golden_run.prices, golden_run.sentiments, cfg)
    n = len(golden_run.prices.dates)
    solved = [day.drifted for i, day in enumerate(want.days) if i + 1 - lag < n]
    assert len(solved) == n - (lag == 0)
    assert priors == solved
    for new, old in zip(got.days, want.days, strict=True):
        for name in DayRecord._fields:
            a, b = getattr(new, name), getattr(old, name)
            assert a == b and repr(a) == repr(b), (name, new.date)
    assert got.summary == want.summary
