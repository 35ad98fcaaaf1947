"""The dict-keyed solver and day loop, kept as a bit-exact reference for tests.

These are the earlier ``optimize_weights``, ``extract_trades``,
``drift_weights``, ``transaction_costs`` and ``run_backtest``: every vector a
dict, every helper sorting the company keys again, the segments sorted with a
key function and the fill scanning every segment. They are slow but easy to
read, and the package's versions must reproduce their results field for
field and their errors type for type and message for message. The
reference ``run_backtest`` takes the earlier ``PriceSeries``, whose closes
are keyed by (company, date), and sentiments keyed the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

from dict_adapters import simple_return
from sentindex.backtest import BacktestConfig, BacktestResult, DayRecord, _summarize
from sentindex.optimizer import InfeasibleProblemError, OptimizerConfig


@dataclass(frozen=True)
class PriceSeries:
    dates: tuple[date, ...]
    companies: tuple[str, ...]  # sorted
    closes: dict[tuple[str, date], float]

    def price(self, company: str, d: date) -> float:
        return self.closes[(company, d)]


def _check_keys(*vectors: dict[str, float]) -> list[str]:
    keys = sorted(vectors[0])
    for v in vectors[1:]:
        if sorted(v) != keys:
            raise ValueError(
                f"mismatched company keys: {sorted(vectors[0])} vs {sorted(v)}")
    return keys


def optimize_weights(
    s: dict[str, float], w_prev: dict[str, float], cfg: OptimizerConfig
) -> dict[str, float]:
    keys = _check_keys(s, w_prev)
    n = len(keys)
    if n * cfg.cap < cfg.budget_lo - 1e-12:
        required = math.ceil(cfg.budget_lo / cfg.cap)
        raise InfeasibleProblemError(
            f"{n} names at cap {cfg.cap} cannot reach budget_lo {cfg.budget_lo}; "
            f"need at least {required} names")
    for k in keys:
        if not math.isfinite(s[k]):
            raise ValueError(f"sentiment for {k!r} is not finite: {s[k]!r}")
        if w_prev[k] < 0:
            raise ValueError(f"prior weight for {k!r} is negative: {w_prev[k]!r}")

    segments: list[tuple[float, str, float, float]] = []
    for k in keys:
        anchor = min(w_prev[k], cfg.cap)
        if anchor > 0.0:
            segments.append((s[k] + cfg.delta, k, 0.0, anchor))
        if anchor < cfg.cap:
            segments.append((s[k] - cfg.delta, k, anchor, cfg.cap))
    segments.sort(key=lambda seg: (-seg[0], seg[1], seg[2]))

    w = {k: 0.0 for k in keys}
    total = 0.0
    for slope, company, lower, upper in segments:
        length = upper - lower
        budget = cfg.budget_hi if slope > 0.0 else cfg.budget_lo
        room = budget - total
        if room <= 0.0:
            continue
        if length <= room:
            w[company] = upper
            total += length
        else:
            w[company] = lower + room
            total = budget
    return w


def extract_trades(
    w_new: dict[str, float], w_prior: dict[str, float], trade_epsilon: float = 1e-6
) -> list[tuple[str, float]]:
    keys = _check_keys(w_new, w_prior)
    out = []
    for k in keys:
        delta = w_new[k] - w_prior[k]
        if abs(delta) > trade_epsilon:
            out.append((k, delta))
    return out


def drift_weights(
    w: dict[str, float], returns: dict[str, float]
) -> tuple[dict[str, float], float]:
    keys = sorted(w)
    if sorted(returns) != keys:
        raise ValueError("weight and return key sets differ")
    r_gross = sum(w[k] * returns[k] for k in keys)
    denom = 1.0 + r_gross
    if denom <= 0:
        raise ValueError(f"portfolio wiped out: gross return {r_gross!r}")
    return {k: w[k] * (1.0 + returns[k]) / denom for k in keys}, r_gross


def transaction_costs(
    w_new: dict[str, float], w_drifted: dict[str, float], tc_rate: float
) -> tuple[float, dict[str, float]]:
    keys = sorted(w_new)
    if sorted(w_drifted) != keys:
        raise ValueError("weight key sets differ")
    per_name = {k: tc_rate * abs(w_new[k] - w_drifted[k]) for k in keys}
    total = tc_rate * sum(abs(w_new[k] - w_drifted[k]) for k in keys)
    return total, per_name


def run_backtest(
    prices: PriceSeries,
    sentiments: dict[tuple[str, date], float],
    cfg: BacktestConfig | None = None,
    benchmark: dict[date, float] | None = None,
) -> BacktestResult:
    cfg = cfg or BacktestConfig()
    dates = list(prices.dates)
    if not dates:
        raise ValueError("empty date range")
    companies = prices.companies
    for d in dates:
        for c in companies:
            if (c, d) not in sentiments:
                raise ValueError(f"missing sentiment for ({c!r}, {d})")
    if benchmark is not None:
        for d in dates:
            if d not in benchmark:
                raise ValueError(f"benchmark series lacks {d}")
        if benchmark[dates[0]] <= 0:
            raise ValueError("benchmark must start positive")

    weights = {c: 0.0 for c in companies}
    level = cfg.initial_level
    bench_level = cfg.initial_level
    days: list[DayRecord] = []

    for i, d in enumerate(dates):
        if i == 0:
            returns = {c: 0.0 for c in companies}
        else:
            prev = dates[i - 1]
            returns = {
                c: simple_return(prices.price(c, d), prices.price(c, prev))
                for c in companies
            }
        drifted, r_gross = drift_weights(weights, returns)

        signal_idx = i + 1 - cfg.signal_lag_days
        if signal_idx < 0:
            signal = dict.fromkeys(companies, 0.0)
            target = optimize_weights(signal, drifted, cfg.optimizer)
        elif signal_idx >= len(dates):
            target = dict(drifted)
        else:
            signal = {c: sentiments[(c, dates[signal_idx])] for c in companies}
            target = optimize_weights(signal, drifted, cfg.optimizer)

        cost, _ = transaction_costs(target, drifted, cfg.tc_rate)
        trades = extract_trades(target, drifted, cfg.optimizer.trade_epsilon)
        level *= 1.0 + r_gross - cost

        if benchmark is not None:
            bench_level = cfg.initial_level * benchmark[d] / benchmark[dates[0]]
        elif i > 0:
            bench_level *= 1.0 + sum(returns[c] for c in companies) / len(companies)

        days.append(DayRecord(
            date=d, r_gross=r_gross, drifted=drifted,
            weights=target, trades=trades, cost=cost,
            level=level, benchmark_level=bench_level,
        ))
        weights = target

    summary = _summarize(days, dates, cfg)
    return BacktestResult(dates=dates, days=days, summary=summary)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args), None
    except (ValueError, LookupError) as exc:
        return None, (type(exc), str(exc))
