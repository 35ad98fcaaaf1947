"""Output checks, run outside the timed region.

None of them compares against a stored copy of today's output. The golden
workload is compared with the expected files of ``tests/golden``, which
``make_fixture.py`` derived with an independent scipy solve, at the
acceptance suite's tolerances. Everything else is recomputed here from the
inputs by a straight-line route (bisect for the calendar, running sums for
the source history, an LP for the optimum), checked against the generator's
plan, or checked against properties the method must have.

Each check is a function ``check(ctx)`` that raises ``CheckFailed``.
"""

from __future__ import annotations

import bisect
import json
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from functools import cached_property
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

from chain import OUTPUTS
from inproc import ChainResult

REL = 1e-12  # straight-line recomputations
GOLDEN_TOL = 1e-9  # the acceptance suite's golden tolerance
LP_TOL = 1e-9
LP_SAMPLE_DAYS = 5


class CheckFailed(AssertionError):
    pass


@dataclass
class Context:
    """What the checks look at; parsed files are cached on first use."""

    inputs: Path
    cli_out: Path  # outputs of a CLI pass
    inproc_out: Path  # outputs of the in-process run
    chain: ChainResult
    provider: str
    mode: str
    seed: int
    plan: dict | None  # generated workloads only
    golden: Path | None  # golden workload only: tests/golden

    @cached_property
    def prices(self) -> tuple[list[date], list[str], dict[tuple[str, date], float]]:
        _, rows = _csv_rows(self.inputs / "prices.csv")
        days = {d: date.fromisoformat(d) for d in {row[0] for row in rows}}
        closes = {(c, days[d]): float(p) for d, c, p in rows}
        return sorted(days.values()), sorted({c for _, c, _ in rows}), closes

    @cached_property
    def daily(self) -> list[list[str]]:
        header, rows = _csv_rows(self.cli_out / "daily.csv")
        _require(header == ["date", "company", "raw_mean", "unique_sources", "adjustment", "adjusted"],
                 f"daily.csv header {header}")
        return rows

    @cached_property
    def levels(self) -> list[tuple[str, float, float]]:
        header, rows = _csv_rows(self.cli_out / "run" / "levels.csv")
        _require(header == ["date", "index_level", "benchmark_level"], f"levels.csv header {header}")
        return [(d, float(li), float(lb)) for d, li, lb in rows]

    @cached_property
    def trades(self) -> list[tuple[str, str, float, float]]:
        header, rows = _csv_rows(self.cli_out / "run" / "trades.csv")
        _require(header == ["date", "company", "delta_weight", "cost"], f"trades.csv header {header}")
        return [(d, c, float(dw), float(cost)) for d, c, dw, cost in rows]

    @cached_property
    def signals(self) -> list[dict[str, float]]:
        """The signal each day's solve used: the sentiment of date t+1-lag."""
        dates, companies, _ = self.prices
        adjusted = {(d, c): float(a) for d, c, _, _, _, a in self.daily}
        lag = self.chain.config.signal_lag_days
        out = []
        for i in range(len(dates)):
            j = i + 1 - lag
            out.append({c: adjusted[(dates[j].isoformat(), c)] if j >= 0 else 0.0 for c in companies})
        return out

    @cached_property
    def replay(self) -> list[tuple[dict[str, float], float, dict[str, float], float]]:
        """Per day from prices and targets: (returns, gross return, drifted weights, turnover)."""
        dates, companies, closes = self.prices
        held = {c: 0.0 for c in companies}
        out = []
        for i, (d, day) in enumerate(zip(dates, self.chain.result.days)):
            r = {c: 0.0 if i == 0 else
                 (closes[(c, d)] - closes[(c, dates[i - 1])]) / closes[(c, dates[i - 1])]
                 for c in companies}
            gross = sum(held[c] * r[c] for c in companies)
            drifted = {c: held[c] * (1.0 + r[c]) / (1.0 + gross) for c in companies}
            turnover = sum(abs(day.weights[c] - drifted[c]) for c in companies)
            out.append((r, gross, drifted, turnover))
            held = day.weights
        return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _timestamp(raw: str) -> datetime:
    return datetime.fromisoformat(raw[:-1] + "+00:00" if raw[-1] in "Zz" else raw)


def _config(ctx: Context, name: str) -> dict:
    return json.loads((ctx.inputs / name).read_text(encoding="utf-8"))


# --- sentiment grid ----------------------------------------------------------

def check_grid_complete(ctx: Context) -> None:
    dates, companies, _ = ctx.prices
    got = [(r[0], r[1]) for r in ctx.daily]
    want = [(day, c) for day in map(date.isoformat, dates) for c in companies]
    _require(got == want, f"grid has {len(got)} rows, want {len(want)} in (date, company) order")


def _effective_index(ts: datetime, dates: list[date], tz: ZoneInfo, cutoff: time) -> int:
    local = ts.astimezone(tz)
    day = local.date() + timedelta(days=1 if local.time() >= cutoff else 0)
    return bisect.bisect_left(dates, day)  # len(dates): after the calendar


def check_grid_recomputed(ctx: Context) -> None:
    """Mean, unique sources and adjustment per cell, by a straight-line route."""
    dates, companies, _ = ctx.prices
    cfg = _config(ctx, "aggregation_config.json")
    tz = ZoneInfo(cfg.get("market_timezone", "Europe/Berlin"))
    hh, mm = cfg.get("cutoff_local_time", "17:00").split(":")
    cutoff = time(int(hh), int(mm))
    all_days = cfg.get("adjustment_history", "nonzero_days") == "all_days"
    cells: dict[tuple[str, int], tuple[list[float], set[str]]] = {}
    for obj in _jsonl(ctx.cli_out / "scored.jsonl"):
        i = _effective_index(_timestamp(obj["published_at"]), dates, tz, cutoff)
        if i < len(dates):
            scores, sources = cells.setdefault((obj["company_id"], i), ([], set()))
            scores.append(obj["score"])
            sources.add(obj["source"])
    want: dict[tuple[str, str], tuple[float, int, float]] = {}
    for c in companies:
        history_sum, history_len = 0, 0
        for i, d in enumerate(dates):
            cell = cells.get((c, i))
            if cell is None:
                want[(d.isoformat(), c)] = (0.0, 0, 1.0)
                history_len += all_days
                continue
            scores, sources = cell
            u = len(sources)
            mean_u = history_sum / history_len if history_len else None
            adj = u / mean_u if mean_u is not None and u < mean_u else 1.0
            want[(d.isoformat(), c)] = (sum(scores) / len(scores), u, adj)
            history_sum += u
            history_len += 1
    for d, c, raw, u, adj, adjusted in ctx.daily:
        w_raw, w_u, w_adj = want[(d, c)]
        _require(int(u) == w_u, f"{c} {d}: unique_sources {u}, recomputed {w_u}")
        for label, got, exp in (("raw_mean", float(raw), w_raw), ("adjustment", float(adj), w_adj),
                                ("adjusted", float(adjusted), w_raw * w_adj)):
            _require(abs(got - exp) <= REL, f"{c} {d}: {label} {got!r}, recomputed {exp!r}")


def check_scores_recomputed(ctx: Context) -> None:
    kept = _jsonl(ctx.cli_out / "kept.jsonl")
    scored = _jsonl(ctx.cli_out / "scored.jsonl")
    _require([k["id"] for k in kept] == [s["id"] for s in scored], "scored ids differ from kept ids")
    if ctx.provider == "lexicon":
        lexicon = json.loads((ctx.inputs / "lexicon.json").read_text(encoding="utf-8"))
    else:
        probs = {o["id"]: (o["p_negative"], o["p_neutral"], o["p_positive"])
                 for o in _jsonl(ctx.inputs / "prescored.jsonl")}
    for k, s in zip(kept, scored):
        if ctx.provider == "lexicon":
            hits = [lexicon[t] for t in k["headline"].split() if t in lexicon]
            x = sum(hits) / len(hits) if hits else 0.0
            p_neg, p_neu, p_pos = max(-x, 0.0), 1.0 - abs(x), max(x, 0.0)
        else:
            p_neg, p_neu, p_pos = probs[k["id"]]
        if ctx.mode == "expectation":
            want = p_pos - p_neg
        elif p_pos >= p_neu and p_pos >= p_neg:  # ties prefer positive, then neutral
            want = p_pos
        elif p_neu >= p_neg:
            want = 0.0
        else:
            want = -p_neg
        _require(abs(s["score"] - want) <= REL, f"article {k['id']}: score {s['score']!r}, want {want!r}")


# --- optimizer and backtest -------------------------------------------------

def check_targets_feasible(ctx: Context) -> None:
    opt = ctx.chain.config.optimizer
    for day in ctx.chain.result.days:
        w = day.weights
        _require(all(-REL <= v <= opt.cap + REL for v in w.values()), f"{day.date}: weight outside [0, cap]")
        total = sum(w[k] for k in sorted(w))
        _require(opt.budget_lo - REL <= total <= opt.budget_hi + REL,
                 f"{day.date}: total weight {total!r} outside the budget band")


def _objective(w: dict[str, float], s: dict[str, float], prev: dict[str, float], delta: float) -> float:
    keys = sorted(s)
    return sum(w[k] * s[k] for k in keys) - delta * sum(abs(prev[k] - w[k]) for k in keys)


def _lp_optimum(s: dict[str, float], prev: dict[str, float], opt) -> float:
    """Optimum of the weight problem as an LP with buy/sell slacks (HiGHS)."""
    import numpy as np
    from scipy.optimize import linprog

    keys = sorted(s)
    n = len(keys)
    c = np.concatenate([-np.array([s[k] for k in keys]), opt.delta * np.ones(2 * n)])
    a_eq = np.hstack([np.eye(n), -np.eye(n), np.eye(n)])
    a_ub = np.zeros((2, 3 * n))
    a_ub[0, :n], a_ub[1, :n] = -1.0, 1.0
    res = linprog(c, A_ub=a_ub, b_ub=[-opt.budget_lo, opt.budget_hi], A_eq=a_eq,
                  b_eq=np.array([prev[k] for k in keys]),
                  bounds=[(0.0, opt.cap)] * n + [(0.0, None)] * (2 * n), method="highs")
    if res.status != 0:
        raise CheckFailed(f"LP reference failed: {res.message}")
    return _objective({k: float(res.x[i]) for i, k in enumerate(keys)}, s, prev, opt.delta)


def check_lp_optimum(ctx: Context) -> None:
    """On a seeded sample of days, the greedy objective equals the LP optimum."""
    days = ctx.chain.result.days
    opt = ctx.chain.config.optimizer
    for i in sorted(random.Random(ctx.seed).sample(range(len(days)), min(LP_SAMPLE_DAYS, len(days)))):
        day = days[i]
        got = _objective(day.weights, ctx.signals[i], day.drifted, opt.delta)
        best = _lp_optimum(ctx.signals[i], day.drifted, opt)
        _require(abs(got - best) <= LP_TOL, f"{day.date}: objective {got!r}, LP optimum {best!r}")


def check_solver_replay(ctx: Context) -> None:
    """Re-solving each day's problem gives that day's target bit for bit."""
    from sentindex.optimizer import optimize_weights

    opt = ctx.chain.config.optimizer
    for day, signal in zip(ctx.chain.result.days, ctx.signals):
        _require(optimize_weights(signal, day.drifted, opt) == day.weights,
                 f"{day.date}: replayed solve differs from the target")


def check_level_recursion(ctx: Context) -> None:
    """L_t = L_{t-1} (1 + sum w r - tc sum |dw|), from prices and the day records."""
    tc = ctx.chain.config.tc_rate
    dates, _, _ = ctx.prices
    replay = ctx.replay
    levels = ctx.levels
    _require([d for d, _, _ in levels] == [d.isoformat() for d in dates], "levels.csv dates differ")
    prev = ctx.chain.config.initial_level
    for (d, level, _), (_, gross, _, turnover) in zip(levels, replay):
        want = prev * (1.0 + gross - tc * turnover)
        _require(_close(level, want, REL), f"{d}: level {level!r}, recursion gives {want!r}")
        prev = level


def check_trades(ctx: Context) -> None:
    """cost = tc |delta|, and the trades are the moves beyond epsilon."""
    tc = ctx.chain.config.tc_rate
    eps = ctx.chain.config.optimizer.trade_epsilon
    dates, _, _ = ctx.prices
    replay = ctx.replay
    want = []
    for d, day, (_, _, drifted, _) in zip(dates, ctx.chain.result.days, replay):
        for c in sorted(drifted):
            move = day.weights[c] - drifted[c]
            if abs(move) > eps:
                want.append((d.isoformat(), c, move))
    got = ctx.trades
    _require([(d, c) for d, c, _, _ in got] == [(d, c) for d, c, _ in want],
             f"trades.csv lists {len(got)} trades, recomputation gives {len(want)}")
    for (d, c, delta, cost), (_, _, move) in zip(got, want):
        _require(abs(delta - move) <= REL, f"{d} {c}: delta {delta!r}, recomputed {move!r}")
        _require(_close(cost, tc * abs(delta), REL), f"{d} {c}: cost {cost!r} is not tc*|delta|")


def check_summary_totals(ctx: Context) -> None:
    summary = json.loads((ctx.cli_out / "run" / "summary.json").read_text(encoding="utf-8"))
    cfg = ctx.chain.config
    levels = ctx.levels
    trades = ctx.trades
    per_day: dict[str, int] = {}
    for d, _, _, _ in trades:
        per_day[d] = per_day.get(d, 0) + 1
    first = levels[0][0]
    later = [per_day.get(d, 0) for d, _, _ in levels[1:]]
    histogram: dict[str, int] = {}
    for k in later:
        if k:
            histogram[str(k)] = histogram.get(str(k), 0) + 1
    stats = summary["trade_stats"]
    _require(stats["total_trades"] == sum(later), "total_trades differs from trades.csv")
    _require(stats["initial_trades"] == per_day.get(first, 0), "initial_trades differs from trades.csv")
    _require(stats["max_trades_per_day"] == max(later, default=0), "max_trades_per_day differs")
    _require(stats["single_trade_days"] == sum(1 for k in later if k == 1), "single_trade_days differs")
    _require(stats["trades_per_day"] == histogram, "trades_per_day histogram differs")
    replay = ctx.replay
    total_cost = sum(cfg.tc_rate * turnover for _, _, _, turnover in replay)
    _require(_close(summary["total_transaction_cost"], total_cost, REL),
             f"total cost {summary['total_transaction_cost']!r}, recomputed {total_cost!r}")
    listed = sum(cost for _, _, _, cost in trades)
    slack = cfg.tc_rate * cfg.optimizer.trade_epsilon * len(ctx.chain.prices.companies) * len(levels)
    _require(listed - REL <= summary["total_transaction_cost"] <= listed + slack,
             "total cost is not the listed trade costs plus sub-epsilon moves")
    _require(summary["final_index_level"] == levels[-1][1], "final_index_level differs from levels.csv")
    _require(summary["final_benchmark_level"] == levels[-1][2], "final_benchmark_level differs")
    _require(summary["trading_days"] == len(levels), "trading_days differs")
    span_days = (date.fromisoformat(levels[-1][0]) - date.fromisoformat(first)).days
    if span_days > 0:
        for key, col in (("annualized_return_index", 1), ("annualized_return_benchmark", 2)):
            want = (levels[-1][col] / levels[0][col]) ** (365.25 / span_days) - 1.0
            _require(_close(summary[key], want, REL), f"{key} {summary[key]!r}, recomputed {want!r}")


def check_benchmark_series(ctx: Context) -> None:
    """Supplied series renormalized to the initial level, else equal-weight costless."""
    initial = ctx.chain.config.initial_level
    levels = ctx.levels
    path = ctx.inputs / "benchmark.csv"
    if path.is_file():
        _, rows = _csv_rows(path)
        supplied = {d: float(v) for d, v in rows}
        base = supplied[levels[0][0]]
        want = [initial * supplied[d] / base for d, _, _ in levels]
    else:
        replay = ctx.replay
        want, level = [], initial
        for i, (r, _, _, _) in enumerate(replay):
            if i:
                level *= 1.0 + sum(r[c] for c in sorted(r)) / len(r)
            want.append(level)
    for (d, _, got), exp in zip(levels, want):
        _require(_close(got, exp, REL), f"{d}: benchmark level {got!r}, recomputed {exp!r}")


# --- report -----------------------------------------------------------------

def check_report(ctx: Context) -> None:
    summary = json.loads((ctx.cli_out / "run" / "summary.json").read_text(encoding="utf-8"))
    table = dict(line.split(",", 1) for line in
                 (ctx.cli_out / "report" / "report.csv").read_text(encoding="utf-8").splitlines()[1:])
    stats = summary["trade_stats"]
    exact = {"start_date": summary["start_date"], "end_date": summary["end_date"],
             "trading_days": str(summary["trading_days"]), "total_trades": str(stats["total_trades"]),
             "single_trade_days": str(stats["single_trade_days"]),
             "max_trades_per_day": str(stats["max_trades_per_day"])}
    exact.update({f"days_with_{k}_trades": str(v) for k, v in stats["trades_per_day"].items()})
    for key, value in exact.items():
        _require(table.get(key) == value, f"report.csv {key}={table.get(key)!r}, summary says {value!r}")
    rounded = {"final_index_level": (summary["final_index_level"], 0.005),
               "final_benchmark_level": (summary["final_benchmark_level"], 0.005),
               "annualized_return_index_pct": (100.0 * summary["annualized_return_index"], 0.005),
               "annualized_return_benchmark_pct": (100.0 * summary["annualized_return_benchmark"], 0.005),
               "total_transaction_cost": (summary["total_transaction_cost"], 5e-7)}
    for key, (value, half_unit) in rounded.items():
        _require(abs(float(table[key]) - value) <= half_unit * (1 + 1e-9),
                 f"report.csv {key}={table[key]}, summary says {value!r}")
    _require(len(table) == 11 + len(stats["trades_per_day"]), "report.csv has unexpected rows")
    root = ET.parse(ctx.cli_out / "report" / "report.svg").getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    n_dates = len(ctx.levels)
    _require(len(lines) == 2, f"report.svg has {len(lines)} polylines, want 2")
    for line in lines:
        points = line.get("points", "").split()
        _require(len(points) == n_dates, f"polyline has {len(points)} points for {n_dates} dates")


# --- determinism --------------------------------------------------------------

def check_inproc_equals_cli(ctx: Context) -> None:
    for name in OUTPUTS:
        _require((ctx.cli_out / name).read_bytes() == (ctx.inproc_out / name).read_bytes(),
                 f"{name}: the CLI and the in-process run wrote different bytes")


# --- against the generator's plan ---------------------------------------------

def _log_lines(ctx: Context, command: str) -> list[str]:
    return (ctx.cli_out / f"{command}.log").read_text(encoding="utf-8").splitlines()


def check_filter_plan(ctx: Context) -> None:
    plan = ctx.plan
    kept = _jsonl(ctx.cli_out / "kept.jsonl")
    _require(sorted(k["id"] for k in kept) == plan["kept_ids"],
             f"kept {len(kept)} articles, the plan keeps {len(plan['kept_ids'])}")
    _require(all(k["headline"] == k["headline"].lower() and k["body"] is None for k in kept),
             "kept articles are not normalized")
    by_stage = {stage: sorted(a.id for a in arts)
                for stage, arts in ctx.chain.filtered.removed_by_stage.items() if arts}
    _require(by_stage == plan["removed"], "removed ids per reason differ from the plan")
    logged = dict(re.fullmatch(r"filter: removed (\d+) by (\w+)", line).group(2, 1)
                  for line in _log_lines(ctx, "filter") if line.startswith("filter: removed"))
    want = {reason: str(plan["removed_counts"].get(reason, 0)) for reason in logged}
    _require(logged == want and set(plan["removed_counts"]) <= set(logged),
             f"filter reported removals {logged}, the plan says {plan['removed_counts']}")
    diagnostics = [line for line in _log_lines(ctx, "filter") if line.startswith("filter: line ")]
    _require(len(diagnostics) == plan["load_diagnostics"] == len(ctx.chain.load.diagnostics),
             f"{len(diagnostics)} load diagnostics, the plan plants {plan['load_diagnostics']}")


def check_calendar_plan(ctx: Context) -> None:
    """Each kept article lands where the generator put it; range counts match."""
    plan = ctx.plan
    dates, _, _ = ctx.prices
    cfg = _config(ctx, "aggregation_config.json")
    tz = ZoneInfo(cfg["market_timezone"])
    hh, mm = cfg["cutoff_local_time"].split(":")
    for obj in _jsonl(ctx.cli_out / "scored.jsonl"):
        i = _effective_index(_timestamp(obj["published_at"]), dates, tz, time(int(hh), int(mm)))
        got = dates[i].isoformat() if i < len(dates) else None
        _require(got == plan["expected_date"][obj["id"]],
                 f"article {obj['id']} lands on {got}, planted for {plan['expected_date'][obj['id']]}")
    log = _log_lines(ctx, "aggregate")
    _require(sum("precedes the calendar" in line for line in log) == plan["before_range"],
             "before-range diagnostics differ from the plan")
    _require(f"dropped {plan['after_range']} after the final trading date" in log[-1],
             f"aggregate reported {log[-1]!r}, the plan drops {plan['after_range']}")
    _require(ctx.chain.grid.dropped_after_range == plan["after_range"], "dropped_after_range differs")


def check_few_sources_shrink(ctx: Context) -> None:
    adjustment = {f"{c}|{d}": float(adj) for d, c, _, _, adj, _ in ctx.daily}
    for cell in ctx.plan["planted"]["few_sources_day"]:
        _require(adjustment[cell] < 1.0, f"{cell}: planted few-sources day is not shrunk")


# --- golden fixture -----------------------------------------------------------

def check_golden_expected(ctx: Context) -> None:
    g = ctx.golden
    _require((ctx.cli_out / "daily.csv").read_bytes() == (g / "expected_daily_sentiment.csv").read_bytes(),
             "daily.csv differs from expected_daily_sentiment.csv")
    _, want_levels = _csv_rows(g / "expected_levels.csv")
    got_levels = ctx.levels
    _require(len(got_levels) == len(want_levels), "level count differs from expected_levels.csv")
    for (d, li, lb), (wd, wi, wb) in zip(got_levels, want_levels):
        _require(d == wd and abs(li - float(wi)) <= GOLDEN_TOL * float(wi)
                 and abs(lb - float(wb)) <= GOLDEN_TOL * float(wb), f"{d}: level off the golden file")
    _, want_trades = _csv_rows(g / "expected_trades.csv")
    got_trades = ctx.trades
    _require([(d, c) for d, c, _, _ in got_trades] == [(d, c) for d, c, _, _ in want_trades],
             "trade list differs from expected_trades.csv")
    for (d, c, delta, _), (_, _, wdelta, _) in zip(got_trades, want_trades):
        _require(abs(delta - float(wdelta)) <= GOLDEN_TOL, f"{d} {c}: delta off the golden file")
    summary = json.loads((ctx.cli_out / "run" / "summary.json").read_text(encoding="utf-8"))
    want = json.loads((g / "expected_summary.json").read_text(encoding="utf-8"))
    _require(summary["trade_stats"] == want["trade_stats"], "trade_stats differ from the golden summary")
    for key, value in want.items():
        if isinstance(value, float):
            _require(_close(summary[key], value, GOLDEN_TOL), f"summary {key} off the golden file")
        elif key != "trade_stats":
            _require(summary[key] == value, f"summary {key} differs from the golden file")


COMMON = (check_grid_complete, check_grid_recomputed, check_scores_recomputed,
          check_targets_feasible, check_lp_optimum, check_solver_replay, check_level_recursion,
          check_trades, check_summary_totals, check_benchmark_series, check_report,
          check_inproc_equals_cli)
GENERATED = (check_filter_plan, check_calendar_plan, check_few_sources_shrink)
GOLDEN = (check_golden_expected,)


def checks_for(ctx: Context):
    return COMMON + (GOLDEN if ctx.golden else GENERATED)


def run_checks(ctx: Context) -> list[tuple[str, str | None]]:
    """Run every check; return (name, failure message or None) for each."""
    out = []
    for check in checks_for(ctx):
        try:
            check(ctx)
            out.append((check.__name__, None))
        except CheckFailed as exc:
            out.append((check.__name__, str(exc)))
    return out

