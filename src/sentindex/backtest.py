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

from .inputs import config_value, csv_columns, line_error, load_json_object, reject_unknown_keys
from .optimizer import (
    OptimizerConfig,
    optimize_weights,
    optimizer_config_from_dict,
    trades_from_moves,
)


@dataclass(frozen=True)
class PriceSeries:
    """Closes on a gap-free grid: rows[i][j] is the close of companies[j] on dates[i]."""

    dates: tuple[date, ...]
    companies: tuple[str, ...]  # sorted when loaded
    rows: list[list[float]]


def load_prices(path: str | Path) -> PriceSeries:
    """Read a date,company,close CSV into a gap-free grid.

    Every company must have a finite positive close for every date; a name
    with missing rows is rejected with its first gap named. A malformed row
    is rejected with the file and its line named.
    """
    by_date: dict[date, dict[str, float]] = {}  # date -> company -> close
    by_text: dict[str, dict[str, float]] = {}  # date text -> that date's closes, parsed once
    with open(path, encoding="utf-8") as fh:
        i_date, i_company, i_close = csv_columns(fh, ("date", "company", "close"), "price")
        for lineno, line in enumerate(fh, start=2):
            try:
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(",")
                text = parts[i_date]
                closes = by_text.get(text)
                if closes is None:
                    closes = by_text[text] = by_date.setdefault(date.fromisoformat(text), {})
                company = parts[i_company]
                close = float(parts[i_close])
                if not 0.0 < close < math.inf:  # also false for nan
                    kind = "non-finite" if not math.isfinite(close) else "nonpositive"
                    raise ValueError(f"{kind} close {close!r} for {company}")
                if company in closes:
                    raise ValueError(
                        f"duplicate price row for ({company}, {date.fromisoformat(text)})")
                closes[company] = close
            except (ValueError, IndexError) as exc:
                raise line_error(path, lineno, exc) from None
    if not by_date:
        raise ValueError(f"{path}: price CSV contains no rows")
    dates = tuple(sorted(by_date))
    companies = tuple(sorted(set().union(*by_date.values())))
    # each date holds a subset of the companies, so the grid is complete
    # exactly when every date holds all of them
    if any(len(closes) != len(companies) for closes in by_date.values()):
        for company in companies:
            for d in dates:
                if company not in by_date[d]:
                    raise ValueError(f"price series has a gap: no close for ({company}, {d})")
    rows = [[closes[c] for c in companies] for closes in map(by_date.__getitem__, dates)]
    return PriceSeries(dates=dates, companies=companies, rows=rows)


def load_benchmark_levels(path: str | Path) -> dict[date, float]:
    """Read a date,level CSV; levels must be finite and positive, dates unique."""
    out: dict[date, float] = {}
    with open(path, encoding="utf-8") as fh:
        i_date, i_level = csv_columns(fh, ("date", "level"), "benchmark")
        for lineno, line in enumerate(fh, start=2):
            try:
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split(",")
                d, level = date.fromisoformat(parts[i_date]), float(parts[i_level])
                if not 0.0 < level < math.inf:  # also false for nan
                    raise ValueError(f"benchmark level {level!r} for {d} is not finite and positive")
                if d in out:
                    raise ValueError(f"duplicate benchmark row for {d}")
                out[d] = level
            except (ValueError, IndexError) as exc:
                raise line_error(path, lineno, exc) from None
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
    reject_unknown_keys(obj, BacktestConfig, path)
    defaults = BacktestConfig()
    return BacktestConfig(
        tc_rate=config_value(obj, "tc_rate", float, defaults.tc_rate, path),
        signal_lag_days=config_value(obj, "signal_lag_days", int, defaults.signal_lag_days, path),
        initial_level=config_value(obj, "initial_level", float, defaults.initial_level, path),
        optimizer=optimizer_config_from_dict(
            config_value(obj, "optimizer", dict, {}, path), f"{path}: 'optimizer'"),
    )


def _drift(w: list[float], r: list[float]) -> tuple[list[float], float]:
    r_gross = sum([w_k * r_k for w_k, r_k in zip(w, r)])
    denom = 1.0 + r_gross
    if denom <= 0:
        raise ValueError(f"portfolio wiped out: gross return {r_gross!r}")
    return [w_k * (1.0 + r_k) / denom for w_k, r_k in zip(w, r)], r_gross


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
    sentiments: dict[date, dict[str, float]],
    cfg: BacktestConfig | None = None,
    benchmark: dict[date, float] | None = None,
) -> BacktestResult:
    """Run the full day loop and return per-day records plus the summary.

    sentiments maps each date to the adjusted sentiment of every company, as
    aggregation.load_daily_sentiment_csv returns it. The first date starts
    from all-zero weights; its rebalance into the band is charged costs but
    excluded from trade-count statistics. The signal for the weights held
    into date t+1 is the sentiment of date t+1-lag; dates before the
    sentiment history use a zero signal. The benchmark is a supplied level
    series renormalized to the initial level, or an equal-weight
    daily-rebalanced costless basket when absent.
    """
    cfg = cfg or BacktestConfig()
    dates = list(prices.dates)
    if not dates:
        raise ValueError("empty date range")
    companies = prices.companies
    n = len(companies)
    if len(prices.rows) != len(dates) or any(len(row) != n for row in prices.rows):
        raise ValueError(f"price series needs {len(dates)} rows of {n} closes")
    # weights, drift, moves and the solve follow the sorted keys, the order in
    # which the dict helpers sum; closes, returns and the equal-weight
    # benchmark follow prices.companies, and order maps the one onto the other
    keys = sorted(companies)
    order = sorted(range(n), key=companies.__getitem__)
    in_order = order == list(range(n))
    signals = [_signal(sentiments, d, companies, keys) for d in dates]
    if benchmark is not None:
        for d in dates:
            if d not in benchmark:
                raise ValueError(f"benchmark series lacks {d}")
        if benchmark[dates[0]] <= 0:
            raise ValueError("benchmark must start positive")

    closes = prices.rows
    weights = [0.0] * n
    level = cfg.initial_level
    bench_level = cfg.initial_level
    days: list[DayRecord] = []

    for i, d in enumerate(dates):
        r = _returns(closes[i], closes[i - 1]) if i else [0.0] * n
        drifted_w, r_gross = _drift(weights, r if in_order else [r[j] for j in order])
        drifted = dict(zip(keys, drifted_w))

        # the target held into date i+1 uses the sentiment of date i+1-lag;
        # beyond the final date (lag 0 only) there is nothing to trade on
        signal_idx = i + 1 - cfg.signal_lag_days
        if signal_idx < 0:
            target = optimize_weights(dict.fromkeys(keys, 0.0), drifted, cfg.optimizer)
        elif signal_idx >= len(dates):
            target = dict(drifted)
        else:
            target = optimize_weights(signals[signal_idx], drifted, cfg.optimizer)

        weights = [target[k] for k in keys]
        moves = [w_k - d_k for w_k, d_k in zip(weights, drifted_w)]
        cost = _cost(moves, cfg.tc_rate)
        level *= 1.0 + r_gross - cost

        if benchmark is not None:
            bench_level = cfg.initial_level * benchmark[d] / benchmark[dates[0]]
        elif i > 0:
            bench_level *= 1.0 + sum(r) / n

        days.append(DayRecord(
            date=d, returns=dict(zip(companies, r)), r_gross=r_gross, drifted=drifted,
            weights=target, trades=trades_from_moves(keys, moves, cfg.optimizer.trade_epsilon),
            cost=cost, level=level, benchmark_level=bench_level,
        ))

    summary = _summarize(days, dates, cfg)
    return BacktestResult(dates=dates, days=days, summary=summary)


def _signal(
    sentiments: dict[date, dict[str, float]], d: date, companies: tuple[str, ...], keys: list[str]
) -> dict[str, float]:
    """The sentiment map of date d over exactly the keys; a missing one is named."""
    # keyed by the loop's own key strings, so the solver's key checks and
    # lookups meet the same objects and compare by identity
    signal = sentiments.get(d, {})
    try:
        return {k: signal[k] for k in keys}
    except KeyError:
        c = next(c for c in companies if c not in signal)
        raise ValueError(f"missing sentiment for ({c!r}, {d})") from None


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
