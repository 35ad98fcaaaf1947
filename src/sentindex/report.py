"""Deterministic rendering of backtest output: level chart SVG and summary CSV.

The SVG is emitted by hand (no plotting dependency): two level series on the
left axis, daily trade counts as impulses on the right axis, a legend, and
the headline statistics. Identical inputs produce identical bytes; every
coordinate is printed with a fixed format and nothing depends on wall clock,
locale, or dict iteration order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .inputs import config_value, load_json_object, read_csv, record

WIDTH, HEIGHT = 960, 540
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 74, 74, 56, 64
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

INDEX_COLOR = "#1f6fb2"
BENCH_COLOR = "#b2701f"
TRADE_COLOR = "#8a97a5"
TITLE = "Sentiment index vs benchmark"


@record
class ReportSpec(NamedTuple):
    input_dir: Path
    output_dir: Path
    formats: tuple[str, ...] = ("svg", "csv")
    date_from: date | None = None
    date_to: date | None = None

    def _check(self) -> None:
        unknown = set(self.formats) - {"svg", "csv"}
        if unknown:
            raise ValueError(f"unknown report formats: {sorted(unknown)}")


class _Inputs(NamedTuple):
    dates: list[date]
    index_levels: list[float]
    bench_levels: list[float]
    trades_per_day: dict[date, int]
    summary: dict


def _read_inputs(input_dir: Path) -> _Inputs:
    levels_path = input_dir / "levels.csv"
    trades_path = input_dir / "trades.csv"
    summary_path = input_dir / "summary.json"
    for p in (levels_path, trades_path, summary_path):
        if not p.is_file():
            raise FileNotFoundError(f"report input missing: {p}")

    dates, index_levels, bench_levels = [], [], []

    def level_row_at(i: int, j: int, k: int) -> Callable[[list[str]], None]:
        def level_row(fields: list[str]) -> None:
            text, index_level, bench_level = fields[i], fields[j], fields[k]
            d, index_level, bench_level = date.fromisoformat(text), float(index_level), float(bench_level)
            if not (math.isfinite(index_level) and math.isfinite(bench_level)):
                raise ValueError(f"non-finite level on {d}: index {index_level!r}, benchmark {bench_level!r}")
            if dates and d <= dates[-1]:
                raise ValueError(f"date {d} does not follow {dates[-1]}")
            dates.append(d)
            index_levels.append(index_level)
            bench_levels.append(bench_level)
        return level_row

    read_csv(levels_path, ("date", "index_level", "benchmark_level"), "levels", level_row_at)
    if not dates:
        raise ValueError(f"{levels_path}: no data rows")

    trades_per_day: dict[date, int] = {}
    by_text: dict[str, date] = {}  # date text -> date, parsed once

    def trade_row_at(i: int, j: int) -> Callable[[list[str]], None]:
        def trade_row(fields: list[str]) -> None:
            text, _ = fields[i], fields[j]  # a line without a company is too short
            d = by_text.get(text)
            if d is None:
                d = by_text[text] = date.fromisoformat(text)
            trades_per_day[d] = trades_per_day.get(d, 0) + 1
        return trade_row

    read_csv(trades_path, ("date", "company"), "trades", trade_row_at)
    return _Inputs(dates, index_levels, bench_levels, trades_per_day, _read_summary(summary_path))


def _read_summary(path: Path) -> dict:
    """The fields of summary.json that the report prints, checked; other keys are ignored.

    Levels, returns and the cost are finite numbers (a return still finite
    as a percentage), the counts integers, the two dates ISO dates and
    trade_stats an object, whose trades_per_day maps decimal integers to
    counts. A missing or bad field raises ValueError naming the file and the key.
    """
    obj = load_json_object(path)
    summary = {key: config_value(obj, key, float, path) for key in (
        "final_index_level", "final_benchmark_level", "total_transaction_cost",
        "annualized_return_index", "annualized_return_benchmark")}
    for key in ("annualized_return_index", "annualized_return_benchmark"):
        if not math.isfinite(100.0 * summary[key]):
            raise ValueError(f"{path}: {key!r} is not finite as a percentage, got {summary[key]!r}")
    for key in ("start_date", "end_date"):
        text = config_value(obj, key, str, path)
        try:
            summary[key] = date.fromisoformat(text)
        except ValueError:
            raise ValueError(f"{path}: {key!r} must be an ISO date, got {text!r}") from None
    summary["trading_days"] = config_value(obj, "trading_days", int, path)
    stats = config_value(obj, "trade_stats", dict, path)
    where = f"{path}: 'trade_stats'"
    summary["trade_stats"] = checked = {key: config_value(stats, key, int, where) for key in (
        "total_trades", "single_trade_days", "max_trades_per_day")}
    counts = config_value(stats, "trades_per_day", dict, where)
    where += ": 'trades_per_day'"
    for k in counts:
        if not (k.isascii() and k.isdigit()):
            raise ValueError(f"{where}: key {k!r} is not a decimal integer")
    checked["trades_per_day"] = {k: config_value(counts, k, int, where) for k in counts}
    return summary


def _x(i: int, n: int) -> float:
    if n == 1:
        return MARGIN_LEFT + PLOT_W / 2.0
    return MARGIN_LEFT + PLOT_W * i / (n - 1)


def _render_svg(data: _Inputs) -> str:
    n = len(data.dates)
    level_min = min(min(data.index_levels), min(data.bench_levels))
    level_max = max(max(data.index_levels), max(data.bench_levels))
    span = level_max - level_min
    pad = span * 0.05 if span > 0 else max(abs(level_max), 1.0) * 0.05
    lo, hi = level_min - pad, level_max + pad
    if not math.isfinite(PLOT_H * (hi - lo)):  # then every coordinate and tick below is finite
        raise ValueError(f"levels from {level_min!r} to {level_max!r} are too far apart to draw")

    def y_level(v: float) -> float:
        return MARGIN_TOP + PLOT_H * (hi - v) / (hi - lo)

    # day-0 fills count as trades on the chart only if present in trades.csv;
    # the right axis always starts at 0
    max_trades = max([data.trades_per_day.get(d, 0) for d in data.dates] + [1])

    def y_trades(k: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - k / max_trades)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH / 2:.2f}" y="28" font-size="17" text-anchor="middle">'
        f"{TITLE}</text>")

    # plot frame and horizontal gridlines with left-axis labels
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>')
    for tick in [lo + (hi - lo) * k / 4 for k in range(5)]:
        y = y_level(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y:.2f}" x2="{MARGIN_LEFT + PLOT_W}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end">{tick:.1f}</text>')
    # a label every step trades, step the first of 1, 2, 5, 10, 20, 50, ...
    # that leaves at most 11 of them (10 ** (digits - 1) always does)
    steps = (m * 10 ** e for e in range(len(str(max_trades))) for m in (1, 2, 5))
    step = next(s for s in steps if max_trades // s <= 10)
    for k in range(0, max_trades + 1, step):
        y = y_trades(k)
        parts.append(
            f'<text x="{MARGIN_LEFT + PLOT_W + 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="start" fill="{TRADE_COLOR}">{k}</text>')

    # x labels: first, last, and up to three evenly spaced dates between
    label_idx = sorted({0, n - 1, n // 4, n // 2, (3 * n) // 4})
    for i in label_idx:
        x = _x(i, n)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + PLOT_H}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + PLOT_H + 5}" stroke="#444444" stroke-width="1"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + PLOT_H + 20}" font-size="11" '
            f'text-anchor="middle">{data.dates[i].isoformat()}</text>')

    # trade impulses behind the level lines
    for i, d in enumerate(data.dates):
        k = data.trades_per_day.get(d, 0)
        if k <= 0:
            continue
        x = _x(i, n)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y_trades(0):.2f}" x2="{x:.2f}" '
            f'y2="{y_trades(k):.2f}" stroke="{TRADE_COLOR}" stroke-width="2"/>')

    def polyline(values: list[float], color: str, dash: str = "") -> str:
        points = " ".join(
            f"{_x(i, n):.2f},{y_level(v):.2f}" for i, v in enumerate(values))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"{dash_attr}/>')

    parts.append(polyline(data.bench_levels, BENCH_COLOR, dash="6 3"))
    parts.append(polyline(data.index_levels, INDEX_COLOR))

    # legend and axis captions
    lx, ly = MARGIN_LEFT + 12, MARGIN_TOP + 16
    legend = [(INDEX_COLOR, "1.8", "", "index"), (BENCH_COLOR, "1.8", "6 3", "benchmark"),
              (TRADE_COLOR, "2", "", "trades per day (right axis)")]
    for k, (color, width, dash, label) in enumerate(legend):
        y = ly + 18 * k
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{lx}" y1="{y}" x2="{lx + 26}" y2="{y}" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>')
        parts.append(f'<text x="{lx + 32}" y="{y + 4}" font-size="12">{label}</text>')

    summary = data.summary
    footer = (
        f"annualized index {100.0 * summary['annualized_return_index']:.2f}%  |  "
        f"annualized benchmark {100.0 * summary['annualized_return_benchmark']:.2f}%  |  "
        f"trades {summary['trade_stats']['total_trades']}")
    parts.append(
        f'<text x="{WIDTH / 2:.2f}" y="{HEIGHT - 16}" font-size="12" '
        f'text-anchor="middle">{footer}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_summary_csv(summary: dict) -> str:
    stats = summary["trade_stats"]
    lines = ["metric,value"]
    lines.append(f"start_date,{summary['start_date']}")
    lines.append(f"end_date,{summary['end_date']}")
    lines.append(f"trading_days,{summary['trading_days']}")
    lines.append(f"final_index_level,{summary['final_index_level']:.2f}")
    lines.append(f"final_benchmark_level,{summary['final_benchmark_level']:.2f}")
    lines.append(f"annualized_return_index_pct,{100.0 * summary['annualized_return_index']:.2f}")
    lines.append(
        f"annualized_return_benchmark_pct,{100.0 * summary['annualized_return_benchmark']:.2f}")
    lines.append(f"total_transaction_cost,{summary['total_transaction_cost']:.6f}")
    lines.append(f"total_trades,{stats['total_trades']}")
    lines.append(f"single_trade_days,{stats['single_trade_days']}")
    lines.append(f"max_trades_per_day,{stats['max_trades_per_day']}")
    for k in sorted(stats["trades_per_day"], key=int):
        lines.append(f"days_with_{k}_trades,{stats['trades_per_day'][k]}")
    return "\n".join(lines) + "\n"


def render_report(spec: ReportSpec) -> list[Path]:
    """Render the chart and summary table; returns the written paths.

    The date filter crops the chart only; the summary table always reflects
    the full run recorded in summary.json.
    """
    data = _read_inputs(Path(spec.input_dir))
    if spec.date_from or spec.date_to:
        keep = [
            i for i, d in enumerate(data.dates)
            if (spec.date_from is None or d >= spec.date_from)
            and (spec.date_to is None or d <= spec.date_to)
        ]
        if not keep:
            raise ValueError("date filter excludes every row")
        data = data._replace(  # trades_per_day is read only for the kept dates
            dates=[data.dates[i] for i in keep], index_levels=[data.index_levels[i] for i in keep],
            bench_levels=[data.bench_levels[i] for i in keep])

    texts = {}  # all rendered before any is written, so that a failure writes nothing
    if "svg" in spec.formats:
        texts["report.svg"] = _render_svg(data)
    if "csv" in spec.formats:
        texts["report.csv"] = _render_summary_csv(data.summary)
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in texts]
