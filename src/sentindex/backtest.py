"""Daily backtest loop: returns, weight drift, rebalance, costs, index levels.

Each date t applies the returns earned by the weights held into t, drifts
those weights with prices, then solves for the next day's target against the
drifted prior using the lagged sentiment signal. Costs are charged on the
full turnover |target - drifted| at tc_rate and subtracted from the day's
gross return before compounding the level.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from datetime import date, datetime
from functools import partial
from operator import mul, sub
from pathlib import Path
from typing import NamedTuple

from .grids import Grid
# kept here only because perfbench/inproc.py calls backtest.load_prices
from .grids import load_prices  # noqa: F401
from .inputs import add_in_order, config_from_dict, load_json_object, read_csv, record
from .optimizer import OptimizerConfig, optimize_weights, trades_from_moves


def load_benchmark_levels(path: str | Path) -> dict[date, float]:
    """Read a date,level CSV; levels must be finite and positive, dates unique."""
    out: dict[date, float] = {}

    def row(text: str, level: str) -> None:
        d, level = date.fromisoformat(text), float(level)
        if not 0.0 < level < math.inf:  # also false for nan
            raise ValueError(f"benchmark level {level!r} for {d} is not finite and positive")
        if d in out:
            raise ValueError(f"duplicate benchmark row for {d}")
        out[d] = level

    read_csv(path, ("date", "level"), "benchmark", row)
    return out


@record
class BacktestConfig(NamedTuple):
    tc_rate: float = 0.0005
    signal_lag_days: int = 1
    initial_level: float = 100.0
    optimizer: OptimizerConfig = OptimizerConfig()

    def _check(self) -> None:
        if not (0.0 <= self.tc_rate < 1.0):
            raise ValueError(f"tc_rate must be in [0, 1), got {self.tc_rate}")
        if self.signal_lag_days < 0:
            raise ValueError(f"signal_lag_days must be >= 0, got {self.signal_lag_days}")
        if not self.initial_level > 0:  # also true for nan
            raise ValueError(f"initial_level must be positive, got {self.initial_level}")
        if self.initial_level == math.inf:
            raise ValueError(f"initial_level must be finite, got {self.initial_level}")


def load_backtest_config(path: str | Path) -> BacktestConfig:
    return config_from_dict(BacktestConfig, load_json_object(path), path,
                            optimizer=partial(config_from_dict, OptimizerConfig))


def _drift(w: list[float], r: list[float]) -> tuple[list[float], float]:
    r_gross = add_in_order(map(mul, w, r))
    denom = 1.0 + r_gross
    if denom <= 0:
        raise ValueError(f"portfolio wiped out: gross return {r_gross!r}")
    return [w_k * (1.0 + r_k) / denom for w_k, r_k in zip(w, r)], r_gross


def _cost(moves: Iterable[float], tc_rate: float) -> float:
    return tc_rate * add_in_order(map(abs, moves))


def annualized_return(levels: list[float], dates: list[date] | list[datetime]) -> float:
    """(L_end / L_start) ** (365.25 / elapsed_days) - 1 over the span."""
    if len(levels) < 2 or len(levels) != len(dates):
        raise ValueError("need at least two levels with matching dates")
    if levels[0] <= 0 or levels[-1] <= 0:
        raise ValueError(f"levels must be positive, got {levels[0]!r}, {levels[-1]!r}")
    elapsed_days = (dates[-1] - dates[0]).total_seconds() / 86400.0
    if elapsed_days <= 0:
        raise ValueError("date span must be positive")
    try:
        growth = (levels[-1] / levels[0]) ** (365.25 / elapsed_days)
    except OverflowError:
        growth = math.inf
    if growth == math.inf:
        raise ValueError(f"annualized return of levels {levels[0]!r} to {levels[-1]!r} overflows")
    return growth - 1.0


class DayRecord(NamedTuple):
    date: date
    r_gross: float
    drifted: dict[str, float]
    weights: dict[str, float]  # target held into the next date
    trades: list[tuple[str, float]]
    cost: float
    level: float
    benchmark_level: float


class BacktestResult(NamedTuple):
    dates: list[date]
    days: list[DayRecord]
    summary: dict


def run_backtest(
    prices: Grid,
    sentiments: Grid,
    cfg: BacktestConfig | None = None,
    benchmark: dict[date, float] | None = None,
) -> BacktestResult:
    """Run the full day loop and return per-day records plus the summary.

    Both axes of both grids must be strictly increasing, as the readers in
    grids give them. sentiments, as grids.load_daily_sentiment_csv returns it,
    covers the companies and dates of prices and may hold more. The first date
    starts from all-zero weights; its rebalance into the band is charged
    costs but excluded from trade-count statistics. The weights held from
    date i into date i+1 are solved on the sentiment row of date i+1-lag: on
    a zero row while that date comes before the first date, and not at all
    past the last date (lag 0's final date), where the drifted weights are
    held. A day whose costs take the level to zero or below raises
    ValueError naming the date. The benchmark is a supplied level series,
    finite and positive on every date of prices, renormalized to the
    initial level, or an equal-weight daily-rebalanced costless basket when
    absent.
    """
    cfg = cfg or BacktestConfig()
    dates = list(prices.dates)
    if not dates:
        raise ValueError("empty date range")
    companies = prices.companies
    if not companies:  # the basket's daily mean return needs one
        raise ValueError("price series has no companies")
    n = len(companies)
    if len(prices.rows) != len(dates) or any(len(row) != n for row in prices.rows):
        raise ValueError(f"price series needs {len(dates)} rows of {n} closes")
    # every vector follows the sorted companies, the order in which the dict
    # helpers sum; a repeated sentiment date or company would hide all but its last row or column
    for name, axis in (("price series dates", dates), ("price series companies", companies),
                       ("sentiment dates", sentiments.dates), ("sentiment companies", sentiments.companies)):
        if any(b <= a for a, b in zip(axis, axis[1:])):
            raise ValueError(f"{name} must be strictly increasing")
    signals = _signal_rows(sentiments, dates, companies, cfg.signal_lag_days)
    if benchmark is not None:
        for d in dates:
            if d not in benchmark:
                raise ValueError(f"benchmark series lacks {d}")
            if not 0.0 < benchmark[d] < math.inf:  # also false for nan, as in load_benchmark_levels
                raise ValueError(f"benchmark level {benchmark[d]!r} for {d} is not finite and positive")

    closes = prices.rows
    weights = [0.0] * n
    level = cfg.initial_level
    bench_level = cfg.initial_level
    days: list[DayRecord] = []

    for i, (d, signal) in enumerate(zip(dates, signals)):
        r = _returns(closes[i], closes[i - 1]) if i else [0.0] * n
        drifted_w, r_gross = _drift(weights, r)
        drifted = dict(zip(companies, drifted_w))
        # keyed by the loop's own key strings, so the solver's key checks
        # and lookups meet the same objects and compare by identity
        target = dict(drifted) if signal is None else optimize_weights(
            dict(zip(companies, signal)), drifted, cfg.optimizer)

        weights = list(target.values())  # keyed in the order of companies
        moves = list(map(sub, weights, drifted_w))
        cost = _cost(moves, cfg.tc_rate)
        growth = 1.0 + r_gross - cost
        if growth <= 0.0:  # costs can wipe out what _drift let through
            raise ValueError(f"portfolio wiped out on {d}: gross return {r_gross!r}, cost {cost!r}")
        level *= growth

        if benchmark is not None:
            bench_level = cfg.initial_level * benchmark[d] / benchmark[dates[0]]
        else:  # on the first date r is all zeros, and the factor exactly 1.0
            bench_level *= 1.0 + add_in_order(r) / n

        days.append(DayRecord(
            date=d, r_gross=r_gross, drifted=drifted,
            weights=target, trades=trades_from_moves(companies, moves, cfg.optimizer.trade_epsilon),
            cost=cost, level=level, benchmark_level=bench_level,
        ))

    summary = _summarize(days, dates, cfg)
    return BacktestResult(dates=dates, days=days, summary=summary)


def _signal_rows(sentiments: Grid, dates: list[date], companies: tuple[str, ...],
                 lag: int) -> list[list[float] | None]:
    """Per date i, the row over the companies that the weights held into date i+1 are solved on:
    the sentiment row of date i+1-lag, a shared zero row while that date comes before the first,
    and None (hold the drifted weights) past the last (lag 0 only). sentiments must cover them all."""
    row_of = dict(zip(sentiments.dates, sentiments.rows))
    col = {c: j for j, c in enumerate(sentiments.companies)}
    absent = [c for c in companies if c not in col]
    for d in dates:  # date-major, so the first missing (company, date) is named
        missing = companies if d not in row_of else absent
        if missing:
            raise ValueError(f"missing sentiment for ({missing[0]!r}, {d})")
    if sentiments.companies == companies:  # aggregate's output: no row is copied
        rows = [row_of[d] for d in dates]
    else:
        rows = [[row_of[d][col[c]] for c in companies] for d in dates]
    zero = [0.0] * len(companies)
    return [rows[k] if 0 <= k < len(rows) else zero if k < 0 else None
            for k in range(1 - lag, len(dates) + 1 - lag)]


def _returns(row: list[float], prev: list[float]) -> list[float]:
    """Simple returns (p - q) / q per company; a nonpositive close raises, naming the pair."""
    # min() skips a nan unless it comes first, and then returns it: either
    # way a nonpositive close makes this test fail
    if not (min(row, default=1.0) > 0.0 and min(prev, default=1.0) > 0.0):
        for p, q in zip(row, prev):
            if p <= 0 or q <= 0:
                raise ValueError(f"prices must be positive, got ({p!r}, {q!r})")
    return [(p - q) / q for p, q in zip(row, prev)]


def trade_statistics(days: list[DayRecord]) -> dict:
    """Trade counts excluding the initial investment date."""
    counts = [len(day.trades) for day in days[1:]]
    histogram: dict[str, int] = {}
    for k in counts:
        if k > 0:
            histogram[str(k)] = histogram.get(str(k), 0) + 1
    return {
        "total_trades": sum(counts),
        "single_trade_days": sum(1 for k in counts if k == 1),
        "max_trades_per_day": max(counts, default=0),
        "trades_per_day": dict(sorted(histogram.items())),
        "initial_trades": len(days[0].trades) if days else 0,
    }


def _summarize(days: list[DayRecord], dates: list[date], cfg: BacktestConfig) -> dict:
    for day in days:  # a return or a benchmark ratio that overflows makes a level inf or nan
        if not (math.isfinite(day.level) and math.isfinite(day.benchmark_level)):
            raise ValueError(f"levels are not finite on {day.date}: {day.level!r}, {day.benchmark_level!r}")
    levels = [day.level for day in days]
    bench = [day.benchmark_level for day in days]
    summary = {
        "start_date": dates[0].isoformat(),
        "end_date": dates[-1].isoformat(),
        "trading_days": len(dates),
        "initial_level": cfg.initial_level,
        "final_index_level": levels[-1],
        "final_benchmark_level": bench[-1],
        "total_transaction_cost": add_in_order(day.cost for day in days),
        "trade_stats": trade_statistics(days),
    }
    if len(dates) >= 2:
        summary["annualized_return_index"] = annualized_return(levels, dates)
        summary["annualized_return_benchmark"] = annualized_return(bench, dates)
    else:
        summary["annualized_return_index"] = 0.0
        summary["annualized_return_benchmark"] = 0.0
    return summary


def write_backtest_outputs(out_dir: str | Path, result: BacktestResult, cfg: BacktestConfig) -> None:
    """Write levels.csv, trades.csv and summary.json into out_dir, which is made if missing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "levels.csv", "w", encoding="utf-8") as fh:
        fh.write("date,index_level,benchmark_level\n")
        for day in result.days:
            fh.write(f"{day.date.isoformat()},{day.level!r},{day.benchmark_level!r}\n")
    with open(out / "trades.csv", "w", encoding="utf-8") as fh:
        fh.write("date,company,delta_weight,cost\n")
        tc_rate = cfg.tc_rate
        for day in result.days:
            # tc_rate * abs(delta) is _cost((delta,), tc_rate): the sum starts at 0.0, and 0.0 + x is x
            text = day.date.isoformat()
            fh.write("".join([f"{text},{company},{delta!r},{tc_rate * abs(delta)!r}\n"
                              for company, delta in day.trades]))
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
