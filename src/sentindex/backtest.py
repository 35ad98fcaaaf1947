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
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path

from .inputs import csv_columns, load_json_object
from .optimizer import (
    OptimizerConfig,
    optimize_weights,
    optimizer_config_from_dict,
    trades_from_moves,
)


@dataclass(frozen=True)
class PriceSeries:
    dates: tuple[date, ...]
    companies: tuple[str, ...]  # sorted
    closes: dict[tuple[str, date], float]

    def price(self, company: str, d: date) -> float:
        return self.closes[(company, d)]


def load_prices(path: str | Path) -> PriceSeries:
    """Read a date,company,close CSV into a gap-free grid.

    Every company must have a finite positive close for every date; a name
    with missing rows is rejected with its first gap named.
    """
    closes: dict[tuple[str, date], float] = {}
    parsed: dict[str, date] = {}  # date text -> date, so each text is parsed once
    companies: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        i_date, i_company, i_close = csv_columns(fh, ("date", "company", "close"), "price")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            text = parts[i_date]
            d = parsed.get(text)
            if d is None:
                d = parsed[text] = date.fromisoformat(text)
            company = parts[i_company]
            close = float(parts[i_close])
            if not math.isfinite(close):
                raise ValueError(f"line {lineno}: non-finite close {close!r} for {company}")
            if close <= 0:
                raise ValueError(f"line {lineno}: nonpositive close {close!r} for {company}")
            if (company, d) in closes:
                raise ValueError(f"line {lineno}: duplicate price row for ({company}, {d})")
            closes[(company, d)] = close
            companies.add(company)
    if not closes:
        raise ValueError("price CSV contains no rows")
    ordered_dates = tuple(sorted(set(parsed.values())))
    ordered_companies = tuple(sorted(companies))
    # rows are unique (company, date) pairs, so the grid is complete exactly
    # when their count fills it; only a short count needs the gap search
    if len(closes) != len(ordered_dates) * len(ordered_companies):
        for company in ordered_companies:
            for d in ordered_dates:
                if (company, d) not in closes:
                    raise ValueError(f"price series has a gap: no close for ({company}, {d})")
    return PriceSeries(dates=ordered_dates, companies=ordered_companies, closes=closes)


def load_benchmark_levels(path: str | Path) -> dict[date, float]:
    """Read a date,level CSV; levels must be finite and positive, dates unique."""
    out: dict[date, float] = {}
    with open(path, encoding="utf-8") as fh:
        i_date, i_level = csv_columns(fh, ("date", "level"), "benchmark")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            d, level = date.fromisoformat(parts[i_date]), float(parts[i_level])
            if not 0.0 < level < math.inf:  # also false for nan
                raise ValueError(
                    f"line {lineno}: benchmark level {level!r} for {d} is not finite and positive")
            if d in out:
                raise ValueError(f"line {lineno}: duplicate benchmark row for {d}")
            out[d] = level
    return out


@dataclass(frozen=True)
class BacktestConfig:
    tc_rate: float = 0.0005
    signal_lag_days: int = 1
    initial_level: float = 100.0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if not (0.0 <= self.tc_rate < 1.0):
            raise ValueError(f"tc_rate must be in [0, 1), got {self.tc_rate}")
        if self.signal_lag_days < 0:
            raise ValueError(f"signal_lag_days must be >= 0, got {self.signal_lag_days}")
        if self.initial_level <= 0:
            raise ValueError(f"initial_level must be positive, got {self.initial_level}")


def load_backtest_config(path: str | Path) -> BacktestConfig:
    obj = load_json_object(path)
    block = obj.get("optimizer", {})
    if not isinstance(block, dict):
        raise ValueError(f"{path}: 'optimizer' must be a JSON object, got {type(block).__name__}")
    defaults = BacktestConfig()
    return BacktestConfig(
        tc_rate=float(obj.get("tc_rate", defaults.tc_rate)),
        signal_lag_days=int(obj.get("signal_lag_days", defaults.signal_lag_days)),
        initial_level=float(obj.get("initial_level", defaults.initial_level)),
        optimizer=optimizer_config_from_dict(block),
    )


def simple_return(p_t: float, p_prev: float) -> float:
    if p_t <= 0 or p_prev <= 0:
        raise ValueError(f"prices must be positive, got ({p_t!r}, {p_prev!r})")
    return (p_t - p_prev) / p_prev


def drift_weights(
    w: dict[str, float], returns: dict[str, float]
) -> tuple[dict[str, float], float]:
    """Re-express weights after a day's returns; also return the gross return.

    w_drifted_i = w_i (1 + r_i) / (1 + sum_j w_j r_j). The cash remainder
    implicitly earns zero and is diluted by the same denominator. Raises when
    the portfolio return hits -100%.
    """
    keys = sorted(w)
    if sorted(returns) != keys:
        raise ValueError("weight and return key sets differ")
    drifted, r_gross = _drift([w[k] for k in keys], [returns[k] for k in keys])
    return dict(zip(keys, drifted)), r_gross


def _drift(w: list[float], r: list[float]) -> tuple[list[float], float]:
    r_gross = sum([w_k * r_k for w_k, r_k in zip(w, r)])
    denom = 1.0 + r_gross
    if denom <= 0:
        raise ValueError(f"portfolio wiped out: gross return {r_gross!r}")
    return [w_k * (1.0 + r_k) / denom for w_k, r_k in zip(w, r)], r_gross


def transaction_costs(
    w_new: dict[str, float], w_drifted: dict[str, float], tc_rate: float
) -> tuple[float, dict[str, float]]:
    """Total cost drag tc_rate * turnover, plus the per-name components."""
    keys = sorted(w_new)
    if sorted(w_drifted) != keys:
        raise ValueError("weight key sets differ")
    moves = [w_new[k] - w_drifted[k] for k in keys]
    return _cost(moves, tc_rate), {k: tc_rate * abs(m) for k, m in zip(keys, moves)}


def _cost(moves: list[float], tc_rate: float) -> float:
    return tc_rate * sum(map(abs, moves))


def annualized_return(levels: list[float], dates: list[date] | list[datetime]) -> float:
    """(L_end / L_start) ** (365.25 / elapsed_days) - 1 over the span."""
    if len(levels) < 2 or len(levels) != len(dates):
        raise ValueError("need at least two levels with matching dates")
    if levels[0] <= 0 or levels[-1] <= 0:
        raise ValueError(f"levels must be positive, got {levels[0]!r}, {levels[-1]!r}")
    elapsed_days = (dates[-1] - dates[0]).total_seconds() / 86400.0
    if elapsed_days <= 0:
        raise ValueError("date span must be positive")
    return (levels[-1] / levels[0]) ** (365.25 / elapsed_days) - 1.0


@dataclass
class DayRecord:
    date: date
    returns: dict[str, float]
    r_gross: float
    drifted: dict[str, float]
    weights: dict[str, float]  # target held into the next date
    trades: list[tuple[str, float]]
    cost: float
    level: float
    benchmark_level: float


@dataclass
class BacktestResult:
    dates: list[date]
    days: list[DayRecord]
    summary: dict


def run_backtest(
    prices: PriceSeries,
    sentiments: dict[tuple[str, date], float],
    cfg: BacktestConfig | None = None,
    benchmark: dict[date, float] | None = None,
) -> BacktestResult:
    """Run the full day loop and return per-day records plus the summary.

    The first date starts from all-zero weights; its rebalance into the band
    is charged costs but excluded from trade-count statistics. The signal for
    the weights held into date t+1 is the sentiment of date t+1-lag; dates
    before the sentiment history use a zero signal. The benchmark is a
    supplied level series renormalized to the initial level, or an
    equal-weight daily-rebalanced costless basket when absent.
    """
    cfg = cfg or BacktestConfig()
    dates = list(prices.dates)
    if not dates:
        raise ValueError("empty date range")
    companies = prices.companies
    # one fixed company order: weights, drift, moves and signals are lists
    # over the sorted keys, the order in which the dict helpers sum
    keys = sorted(companies)
    signals = []
    for d in dates:
        try:
            signals.append([sentiments[(k, d)] for k in keys])
        except KeyError:
            c = next(c for c in companies if (c, d) not in sentiments)
            raise ValueError(f"missing sentiment for ({c!r}, {d})") from None
    if benchmark is not None:
        for d in dates:
            if d not in benchmark:
                raise ValueError(f"benchmark series lacks {d}")
        if benchmark[dates[0]] <= 0:
            raise ValueError("benchmark must start positive")

    # closes and returns follow prices.companies, the order of the returns
    # record and of the equal-weight benchmark sum
    closes = [[prices.closes[(c, d)] for c in companies] for d in dates]
    weights = [0.0] * len(keys)
    level = cfg.initial_level
    bench_level = cfg.initial_level
    days: list[DayRecord] = []

    for i, d in enumerate(dates):
        r = list(map(simple_return, closes[i], closes[i - 1])) if i else [0.0] * len(companies)
        returns = dict(zip(companies, r))
        drifted_w, r_gross = _drift(weights, [returns[k] for k in keys])
        drifted = dict(zip(keys, drifted_w))

        # the target held into date i+1 uses the sentiment of date i+1-lag;
        # beyond the final date (lag 0 only) there is nothing to trade on
        signal_idx = i + 1 - cfg.signal_lag_days
        if signal_idx < 0:
            target = optimize_weights(dict.fromkeys(keys, 0.0), drifted, cfg.optimizer)
        elif signal_idx >= len(dates):
            target = dict(drifted)
        else:
            target = optimize_weights(dict(zip(keys, signals[signal_idx])), drifted, cfg.optimizer)

        weights = [target[k] for k in keys]
        moves = [w_k - d_k for w_k, d_k in zip(weights, drifted_w)]
        cost = _cost(moves, cfg.tc_rate)
        level *= 1.0 + r_gross - cost

        if benchmark is not None:
            bench_level = cfg.initial_level * benchmark[d] / benchmark[dates[0]]
        elif i > 0:
            bench_level *= 1.0 + sum(r) / len(companies)

        days.append(DayRecord(
            date=d, returns=returns, r_gross=r_gross, drifted=drifted, weights=target,
            trades=trades_from_moves(keys, moves, cfg.optimizer.trade_epsilon), cost=cost,
            level=level, benchmark_level=bench_level,
        ))

    summary = _summarize(days, dates, cfg)
    return BacktestResult(dates=dates, days=days, summary=summary)


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
    levels = [day.level for day in days]
    bench = [day.benchmark_level for day in days]
    summary = {
        "start_date": dates[0].isoformat(),
        "end_date": dates[-1].isoformat(),
        "trading_days": len(dates),
        "initial_level": cfg.initial_level,
        "final_index_level": levels[-1],
        "final_benchmark_level": bench[-1],
        "total_transaction_cost": sum(day.cost for day in days),
        "trade_stats": trade_statistics(days),
    }
    if len(dates) >= 2:
        summary["annualized_return_index"] = annualized_return(levels, dates)
        summary["annualized_return_benchmark"] = annualized_return(bench, dates)
    else:
        summary["annualized_return_index"] = 0.0
        summary["annualized_return_benchmark"] = 0.0
    return summary


def write_levels_csv(path: str | Path, result: BacktestResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,index_level,benchmark_level\n")
        for day in result.days:
            fh.write(f"{day.date.isoformat()},{day.level!r},{day.benchmark_level!r}\n")


def write_trades_csv(path: str | Path, result: BacktestResult, tc_rate: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,company,delta_weight,cost\n")
        for day in result.days:
            for company, delta in day.trades:
                fh.write(f"{day.date.isoformat()},{company},{delta!r},{tc_rate * abs(delta)!r}\n")


def write_summary_json(path: str | Path, result: BacktestResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_backtest_outputs(out_dir: str | Path, result: BacktestResult, cfg: BacktestConfig) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_levels_csv(out / "levels.csv", result)
    write_trades_csv(out / "trades.csv", result, cfg.tc_rate)
    write_summary_json(out / "summary.json", result)
