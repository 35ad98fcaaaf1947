"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import shutil
import time as time_mod
from datetime import date, timedelta

import numpy as np
import pytest

from dict_adapters import daily_maps, objective_value, price_series, source_adjustment
from grid_oracle import brute_force_oracle
from sentindex.backtest import BacktestConfig, PriceSeries, run_backtest
from sentindex.optimizer import (
    InfeasibleProblemError,
    OptimizerConfig,
    extract_trades,
    optimize_weights,
)
from sentindex.report import ReportSpec, render_report

GRID_STEP = 0.005


def _passed(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def vec(values):
    return {f"c{i + 1:02d}": float(v) for i, v in enumerate(values)}


def random_config(rng: np.random.Generator, n: int) -> OptimizerConfig:
    """Random feasible config whose budget_lo sits on the oracle grid."""
    # per-universe cap menu keeps the grid enumeration small
    cap_menu = {2: [0.5, 1.0], 3: [0.25, 0.4], 4: [0.1, 0.15]}
    cap = float(rng.choice(cap_menu[n]))
    max_units = int(round(min(1.0, n * cap) / GRID_STEP))
    lo_units = int(rng.integers(max(1, max_units // 3), max_units + 1))
    lo = lo_units * GRID_STEP
    hi = min(1.0, lo + float(rng.uniform(0.0, 0.25 * cap)))
    delta = float(rng.choice([0.0, 0.3, 1.0]))
    return OptimizerConfig(delta=delta, cap=cap, budget_lo=lo, budget_hi=hi)


def random_prior(rng: np.random.Generator, n: int, cfg: OptimizerConfig):
    kind = rng.integers(0, 3)
    if kind == 0:
        return vec([0.0] * n)
    raw = rng.uniform(0.0, cfg.cap, n)
    if kind == 2:
        raw[rng.integers(0, n)] *= 1.5  # drifted above the cap
    return vec(raw)


def feasible_interior_prior(rng: np.random.Generator, n: int, cfg: OptimizerConfig):
    """Prior strictly inside the band with every weight at or below cap."""
    target = cfg.budget_lo + 0.5 * (cfg.budget_hi - cfg.budget_lo)
    w = rng.uniform(0.5, 1.0, n)
    w = w * (target / w.sum())
    # push any cap excess onto names with headroom; converges because
    # n * cap >= budget_hi >= target
    for _ in range(200):
        over = w - cfg.cap
        excess = over[over > 0].sum()
        if excess <= 0:
            break
        w = np.minimum(w, cfg.cap)
        headroom = cfg.cap - w
        w = w + headroom * (excess / headroom.sum())
    assert (w <= cfg.cap + 1e-15).all()
    return vec(w)


def test_criterion_1_optimizer_matches_grid_oracle():
    rng = np.random.default_rng(2024)
    started = time_mod.perf_counter()
    instances = 0
    while instances < 500:
        n = int(rng.integers(2, 5))
        cfg = random_config(rng, n)
        s = vec(rng.uniform(-1.0, 1.0, n))
        prior = random_prior(rng, n, cfg)
        greedy = optimize_weights(s, prior, cfg)
        oracle = brute_force_oracle(s, prior, cfg, GRID_STEP)
        g = objective_value(greedy, s, prior, cfg.delta)
        o = objective_value(oracle, s, prior, cfg.delta)
        slack = n * GRID_STEP * (max(abs(v) for v in s.values()) + cfg.delta)
        assert g >= o - slack, (n, cfg, s, prior, g, o)
        instances += 1
    elapsed = time_mod.perf_counter() - started
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, f"{instances} random instances within the grid bound in {elapsed:.1f}s")


def test_criterion_2_feasibility_and_infeasible_rejection():
    rng = np.random.default_rng(99)
    calls = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        cap = float(rng.uniform(0.05, 1.0))
        lo = float(rng.uniform(0.0, min(1.0, n * cap)))
        hi = min(1.0, lo + float(rng.uniform(0.0, 0.2)))
        cfg = OptimizerConfig(delta=float(rng.choice([0.0, 0.3, 1.0])),
                              cap=cap, budget_lo=lo, budget_hi=hi)
        s = vec(rng.uniform(-1.0, 1.0, n))
        prior = random_prior(rng, n, cfg)
        w = optimize_weights(s, prior, cfg)
        values = [w[k] for k in sorted(w)]
        assert all(v >= 0.0 for v in values)
        assert all(v <= cfg.cap + 1e-12 for v in values)
        total = sum(values)
        assert cfg.budget_lo - 1e-12 <= total <= cfg.budget_hi + 1e-12
        calls += 1
    rejected = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        cap = float(rng.uniform(0.01, 0.1))
        lo = min(1.0, n * cap + float(rng.uniform(0.01, 0.3)))
        cfg = OptimizerConfig(cap=cap, budget_lo=lo, budget_hi=min(1.0, lo + 0.01))
        with pytest.raises(InfeasibleProblemError):
            optimize_weights(vec(rng.uniform(-1, 1, n)), vec([0.0] * n), cfg)
        rejected += 1
    _passed(2, f"{calls} solves feasible at 1e-12; {rejected} infeasible configs rejected")


def test_criterion_3_no_trade_theorem_exact():
    rng = np.random.default_rng(7)
    trials = 0
    for _ in range(1000):
        n = int(rng.choice([3, 5, 12]))
        if n == 3:
            cfg = OptimizerConfig(delta=1.0, cap=0.4, budget_lo=0.99, budget_hi=0.999)
        elif n == 5:
            cfg = OptimizerConfig(delta=1.0, cap=0.25, budget_lo=0.99, budget_hi=0.999)
        else:
            cfg = OptimizerConfig()
        prior = feasible_interior_prior(rng, n, cfg)
        s = vec(rng.uniform(-0.99, 0.99, n))  # spread strictly below 2 delta
        w = optimize_weights(s, prior, cfg)
        assert w == prior, "no-trade output must equal the prior bit for bit"
        trials += 1
    _passed(3, f"{trials} feasible priors held exactly at delta=1")


def test_criterion_4_backtest_identities_long_run():
    rng = np.random.default_rng(12)
    companies = [f"c{i + 1:02d}" for i in range(12)]
    dates, d = [], date(2020, 1, 6)
    while len(dates) < 250:
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    closes = {}
    row = rng.uniform(20.0, 180.0, 12)
    for day in dates:
        row = row * (1.0 + rng.normal(0.0003, 0.012, 12))
        row = np.maximum(row, 1.0)
        for c, p in zip(companies, row):
            closes[(c, day)] = float(p)
    prices = price_series(dates, companies, closes)
    sentiments = {
        (c, day): float(rng.uniform(-0.95, 0.95)) if rng.uniform() > 0.3 else 0.0
        for c in companies for day in dates
    }
    result = run_backtest(prices, daily_maps(sentiments), BacktestConfig())

    prev_level = 100.0
    prev_weights = {c: 0.0 for c in companies}
    for day in result.days:
        # self-financing: the level recursion equals gross return minus costs
        lhs = day.level / prev_level - 1.0
        rhs = day.r_gross - day.cost
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # drift conservation: drifted wealth equals grown held wealth
        grown = sum(prev_weights[c] * (1.0 + day.returns[c]) for c in companies)
        drifted_scaled = sum(day.drifted[c] for c in companies) * (1.0 + day.r_gross)
        assert abs(drifted_scaled - grown) <= 1e-12 * max(1.0, abs(grown))
        prev_level = day.level
        prev_weights = day.weights
    _passed(4, "self-financing and drift conservation at 1e-12 over 12x250 days")


def test_criterion_5_truncation_bit_identical(golden_run):
    rng = np.random.default_rng(5)
    full = golden_run.result
    dates = golden_run.prices.dates
    cut_points = sorted(rng.choice(np.arange(1, len(dates) - 1), size=20, replace=False))
    for cut in cut_points:
        kept_dates = dates[: cut + 1]
        prices = PriceSeries(
            dates=kept_dates,
            companies=golden_run.prices.companies,
            rows=golden_run.prices.rows[: cut + 1],
        )
        sentiments = {d: v for d, v in golden_run.sentiments.items() if d <= dates[cut]}
        truncated = run_backtest(prices, sentiments, golden_run.backtest_config)
        for i in range(cut + 1):
            assert truncated.days[i].level == full.days[i].level  # bit-identical
            assert truncated.days[i].benchmark_level == full.days[i].benchmark_level
            assert truncated.days[i].trades == full.days[i].trades
    _passed(5, "20 truncation points leave every prefix level bit-identical")


def test_criterion_6_golden_fixture_reproduced(golden_run):
    result = golden_run.result
    assert len(result.days) == len(golden_run.expected_levels)
    for day, (ds, exp_index, exp_bench) in zip(result.days, golden_run.expected_levels):
        assert day.date.isoformat() == ds
        assert abs(day.level - exp_index) <= 1e-9 * exp_index
        assert abs(day.benchmark_level - exp_bench) <= 1e-9 * exp_bench

    got_trades = [
        (day.date.isoformat(), company, delta)
        for day in result.days for company, delta in day.trades
    ]
    assert [(d, c) for d, c, _ in got_trades] == [
        (d, c) for d, c, _, _ in golden_run.expected_trades], "trade list differs"
    for (_, _, got_delta), (_, _, exp_delta, _) in zip(got_trades, golden_run.expected_trades):
        assert abs(got_delta - exp_delta) <= 1e-9
    assert result.summary["trade_stats"] == golden_run.expected_summary["trade_stats"]
    _passed(6, f"golden levels within 1e-9 and all {len(got_trades)} trades exact")


def test_criterion_7_aggregation_identities():
    from datetime import datetime, time
    from zoneinfo import ZoneInfo

    from sentindex.aggregation import TradingCalendar, aggregate_daily, effective_trading_date
    from sentindex.sentiment import ScoredArticle

    assert source_adjustment(2, [4, 4, 4]) == 0.5
    assert source_adjustment(5, [4, 4, 4]) == 1.0
    assert source_adjustment(4, [4, 4, 4]) == 1.0
    assert source_adjustment(1, []) == 1.0

    berlin = ZoneInfo("Europe/Berlin")
    weekdays = tuple(
        d for d in (date(2019, 3, 4) + timedelta(days=i) for i in range(10))
        if d.weekday() < 5)
    calendar = TradingCalendar(dates=weekdays, timezone="Europe/Berlin", cutoff=time(17, 0))
    before, _ = effective_trading_date(datetime(2019, 3, 4, 16, 59, tzinfo=berlin), calendar)
    at_cutoff, _ = effective_trading_date(datetime(2019, 3, 4, 17, 0, tzinfo=berlin), calendar)
    assert before == date(2019, 3, 4)
    assert at_cutoff == date(2019, 3, 5)

    universe = ["adler", "biber", "chamaeleon"]
    scored = [ScoredArticle(id="a1", company_id="adler", source="wire",
                            published_at=datetime(2019, 3, 5, 9, 0, tzinfo=berlin), score=0.4)]
    grid = aggregate_daily(scored, universe, calendar)
    assert len(grid.rows) == len(universe) * len(weekdays)  # zero-fill completeness
    nonzero = [r for r in grid.rows if r.article_count > 0]
    assert len(nonzero) == 1 and nonzero[0].adjusted == 0.4
    _passed(7, "adjustment, cutoff boundary, and zero-fill identities exact")


def test_criterion_8_cost_monotonicity(golden_run):
    base_cfg = golden_run.backtest_config
    free_cfg = BacktestConfig(
        tc_rate=0.0, signal_lag_days=base_cfg.signal_lag_days,
        initial_level=base_cfg.initial_level, optimizer=base_cfg.optimizer)
    with_costs = golden_run.result
    without_costs = run_backtest(golden_run.prices, golden_run.sentiments, free_cfg)
    dominated = 0
    for free_day, cost_day in zip(without_costs.days, with_costs.days):
        assert free_day.level >= cost_day.level
        dominated += 1
    _passed(8, f"cost-free run dominates on all {dominated} fixture dates")


def test_criterion_9_report_byte_determinism(golden_dir, tmp_path):
    staging = tmp_path / "in"
    staging.mkdir()
    shutil.copy(golden_dir / "expected_levels.csv", staging / "levels.csv")
    shutil.copy(golden_dir / "expected_trades.csv", staging / "trades.csv")
    shutil.copy(golden_dir / "expected_summary.json", staging / "summary.json")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    render_report(ReportSpec(input_dir=staging, output_dir=out1))
    render_report(ReportSpec(input_dir=staging, output_dir=out2))
    svg1 = (out1 / "report.svg").read_bytes()
    svg2 = (out2 / "report.svg").read_bytes()
    csv1 = (out1 / "report.csv").read_bytes()
    csv2 = (out2 / "report.csv").read_bytes()
    assert svg1 == svg2 and csv1 == csv2
    assert svg1 == (golden_dir / "expected_report.svg").read_bytes()
    assert csv1 == (golden_dir / "expected_report.csv").read_bytes()
    _passed(9, "double render byte-identical and equal to the committed artifacts")
