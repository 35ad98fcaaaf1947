"""Deterministic rendering of backtest output: level chart SVG and summary CSV.

The SVG is emitted by hand (no plotting dependency): two level series on the
left axis, daily trade counts as impulses on the right axis, a legend, and
the headline statistics. Identical inputs produce identical bytes; every
coordinate is printed with a fixed format and nothing depends on wall clock,
locale, or dict iteration order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from datetime import date
from pathlib import Path
from typing import NamedTuple

from .inputs import config_value, load_json_object, read_csv, record

WIDTH, HEIGHT = 960, 540
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 74, 74, 56, 64
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

# the index, the benchmark and the trades: stroke color, width and dash, and legend label
STYLES = (("#1f6fb2", "1.8", "", "index"), ("#b2701f", "1.8", "6 3", "benchmark"),
          ("#8a97a5", "2", "", "trades per day (right axis)"))
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
    table: dict[str, str]  # report.csv's rows, metric -> value


def _read_inputs(input_dir: Path) -> _Inputs:
    levels_path = input_dir / "levels.csv"
    trades_path = input_dir / "trades.csv"
    summary_path = input_dir / "summary.json"
    for p in (levels_path, trades_path, summary_path):
        if not p.is_file():
            raise FileNotFoundError(f"report input missing: {p}")

    dates, index_levels, bench_levels = [], [], []

    def level_row(text: str, index_level: str, bench_level: str) -> None:
        d, index_level, bench_level = date.fromisoformat(text), float(index_level), float(bench_level)
        if not (math.isfinite(index_level) and math.isfinite(bench_level)):
            raise ValueError(f"non-finite level on {d}: index {index_level!r}, benchmark {bench_level!r}")
        if dates and d <= dates[-1]:
            raise ValueError(f"date {d} does not follow {dates[-1]}")
        dates.append(d)
        index_levels.append(index_level)
        bench_levels.append(bench_level)

    read_csv(levels_path, ("date", "index_level", "benchmark_level"), "levels", level_row)
    if not dates:
        raise ValueError(f"{levels_path}: no data rows")

    trades_per_day: dict[date, int] = {}
    by_text: dict[str, date] = {}  # date text -> date, parsed once

    def trade_row(text: str, _company: str) -> None:  # a line without a company is too short
        d = by_text.get(text)
        if d is None:
            d = by_text[text] = date.fromisoformat(text)
        trades_per_day[d] = trades_per_day.get(d, 0) + 1

    read_csv(trades_path, ("date", "company"), "trades", trade_row)
    return _Inputs(dates, index_levels, bench_levels, trades_per_day, _read_summary(summary_path))


# summary.json's top-level fields in report.csv's order: key, kind and format. A "pct" field is a
# return, printed times 100 as <key>_pct; the trade_stats counts follow them.
_FIELDS = (("start_date", date, ""), ("end_date", date, ""), ("trading_days", int, ""),
           ("final_index_level", float, ".2f"), ("final_benchmark_level", float, ".2f"),
           ("annualized_return_index", "pct", ".2f"), ("annualized_return_benchmark", "pct", ".2f"),
           ("total_transaction_cost", float, ".6f"))


def _read_summary(path: Path) -> dict[str, str]:
    """report.csv's table (metric -> printed value) from summary.json, whose other keys are ignored.

    Levels, returns and the cost are finite numbers (a return still finite
    as a percentage), the counts integers, the two dates ISO dates and
    trade_stats an object, whose trades_per_day maps decimal integers to
    counts. A missing or bad field raises ValueError naming the file and the
    key; of several, the first in table order. A date prints as parsed.
    """
    obj = load_json_object(path)
    table = {}
    for key, kind, spec in _FIELDS:
        if kind is date:
            text = config_value(obj, key, str, path)
            try:
                value = date.fromisoformat(text)
            except ValueError:
                raise ValueError(f"{path}: {key!r} must be an ISO date, got {text!r}") from None
        elif kind == "pct":
            value = 100.0 * (got := config_value(obj, key, float, path))
            if not math.isfinite(value):
                raise ValueError(f"{path}: {key!r} is not finite as a percentage, got {got!r}")
            key += "_pct"
        else:
            value = config_value(obj, key, kind, path)
        table[key] = format(value, spec)
    key = "trade_stats"
    stats, where = config_value(obj, key, dict, path), f"{path}: {key!r}"
    for key in ("total_trades", "single_trade_days", "max_trades_per_day"):
        table[key] = str(config_value(stats, key, int, where))
    key = "trades_per_day"
    counts, where = config_value(stats, key, dict, where), f"{where}: {key!r}"
    for k in counts:
        if not (k.isascii() and k.isdigit()):
            raise ValueError(f"{where}: key {k!r} is not a decimal integer")
    for k in sorted(counts, key=int):
        table[f"days_with_{k}_trades"] = str(config_value(counts, k, int, where))
    return table


def _render_svg(data: _Inputs) -> str:
    n = len(data.dates)
    level_min = min(min(data.index_levels), min(data.bench_levels))
    level_max = max(max(data.index_levels), max(data.bench_levels))
    span = level_max - level_min
    pad = span * 0.05 if span > 0 else max(abs(level_max), 1.0) * 0.05
    lo, hi = level_min - pad, level_max + pad
    if not math.isfinite(PLOT_H * (hi - lo)):  # then every coordinate and tick below is finite
        raise ValueError(f"levels from {level_min!r} to {level_max!r} are too far apart to draw")

    # each date's x as printed, a lone date's centred
    xs = ([f"{MARGIN_LEFT + PLOT_W * i / (n - 1):.2f}" for i in range(n)] if n > 1
          else [f"{MARGIN_LEFT + PLOT_W / 2.0:.2f}"])

    def y_level(v: float) -> float:
        return MARGIN_TOP + PLOT_H * (hi - v) / (hi - lo)

    # day-0 fills count as trades on the chart only if present in trades.csv;
    # the right axis always starts at 0
    max_trades = max([data.trades_per_day.get(d, 0) for d in data.dates] + [1])

    def y_trades(k: float) -> float:
        return MARGIN_TOP + PLOT_H * (1.0 - k / max_trades)

    index_stroke, bench_stroke, trade_stroke = strokes = [
        f'stroke="{color}" stroke-width="{width}"' + (f' stroke-dasharray="{dash}"' if dash else "")
        for color, width, dash, _ in STYLES]

    parts: list[str] = []

    def line(x1: object, y1: object, x2: object, y2: object, style: str) -> None:
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {style}/>')

    def text(x: object, y: object, style: str, body: object) -> None:
        parts.append(f'<text x="{x}" y="{y}" {style}>{body}</text>')

    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica, Arial, sans-serif">')
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    text(f"{WIDTH / 2:.2f}", 28, 'font-size="17" text-anchor="middle"', TITLE)

    # plot frame and horizontal gridlines with left-axis labels
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{PLOT_W}" height="{PLOT_H}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>')
    for tick in [lo + (hi - lo) * k / 4 for k in range(5)]:
        y = y_level(tick)
        line(MARGIN_LEFT, f"{y:.2f}", MARGIN_LEFT + PLOT_W, f"{y:.2f}", 'stroke="#dddddd" stroke-width="1"')
        text(MARGIN_LEFT - 8, f"{y + 4:.2f}", 'font-size="11" text-anchor="end"', f"{tick:.1f}")
    # a label every step trades, step the first of 1, 2, 5, 10, 20, 50, ...
    # that leaves at most 11 of them (10 ** (digits - 1) always does)
    steps = (m * 10 ** e for e in range(len(str(max_trades))) for m in (1, 2, 5))
    step = next(s for s in steps if max_trades // s <= 10)
    for k in range(0, max_trades + 1, step):
        text(MARGIN_LEFT + PLOT_W + 8, f"{y_trades(k) + 4:.2f}",
             f'font-size="11" text-anchor="start" fill="{STYLES[2][0]}"', k)

    # x labels: first, last, and up to three evenly spaced dates between
    for i in sorted({0, n - 1, n // 4, n // 2, (3 * n) // 4}):
        line(xs[i], MARGIN_TOP + PLOT_H, xs[i], MARGIN_TOP + PLOT_H + 5, 'stroke="#444444" stroke-width="1"')
        text(xs[i], MARGIN_TOP + PLOT_H + 20, 'font-size="11" text-anchor="middle"', data.dates[i].isoformat())

    # trade impulses behind the level lines
    for x, d in zip(xs, data.dates):
        if (k := data.trades_per_day.get(d, 0)) > 0:
            line(x, f"{y_trades(0):.2f}", x, f"{y_trades(k):.2f}", trade_stroke)

    for values, stroke in ((data.bench_levels, bench_stroke), (data.index_levels, index_stroke)):
        points = " ".join(f"{x},{y_level(v):.2f}" for x, v in zip(xs, values))
        parts.append(f'<polyline points="{points}" fill="none" {stroke}/>')

    # legend and axis captions
    lx, ly = MARGIN_LEFT + 12, MARGIN_TOP + 16
    for k, (stroke, (*_, label)) in enumerate(zip(strokes, STYLES)):
        y = ly + 18 * k
        line(lx, y, lx + 26, y, stroke)
        text(lx + 32, y + 4, 'font-size="12"', label)

    footer = (f"annualized index {data.table['annualized_return_index_pct']}%  |  annualized benchmark "
              f"{data.table['annualized_return_benchmark_pct']}%  |  trades {data.table['total_trades']}")
    text(f"{WIDTH / 2:.2f}", HEIGHT - 16, 'font-size="12" text-anchor="middle"', footer)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_report(spec: ReportSpec) -> list[Path]:
    """Render the chart and summary table; returns the written paths.

    The date filter crops the chart only; the summary table always reflects
    the full run recorded in summary.json.
    """
    data = _read_inputs(Path(spec.input_dir))
    dates = data.dates  # strictly increasing, as _read_inputs checks
    window = slice(0 if spec.date_from is None else bisect_left(dates, spec.date_from),
                   len(dates) if spec.date_to is None else bisect_right(dates, spec.date_to))
    if not dates[window]:
        raise ValueError("date filter excludes every row")
    data = data._replace(  # trades_per_day is read only for the dates in the window
        dates=dates[window], index_levels=data.index_levels[window], bench_levels=data.bench_levels[window])

    texts = {}  # all rendered before any is written, so that a failure writes nothing
    if "svg" in spec.formats:
        texts["report.svg"] = _render_svg(data)
    if "csv" in spec.formats:
        texts["report.csv"] = "metric,value\n" + "".join(f"{k},{v}\n" for k, v in data.table.items())
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    return [out_dir / name for name in texts]
