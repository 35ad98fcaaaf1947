"""The close and sentiment grids: a dense table and the readers of its two CSV files."""

from __future__ import annotations

import math
from datetime import date
from pathlib import Path
from typing import Callable, NamedTuple

from .inputs import read_csv


class Grid(NamedTuple):
    """A dense table: rows[i][j] is the value of companies[j] on dates[i], both axes sorted."""

    dates: tuple[date, ...]
    companies: tuple[str, ...]
    rows: list[list[float]]


def load_prices(path: str | Path) -> Grid:
    """The closes of a date,company,close CSV, each finite and positive (see _read_grid)."""
    return _read_grid(path, "close", "price", 0.0)


def load_daily_sentiment_csv(path: str | Path) -> Grid:
    """The adjusted column of a daily sentiment CSV, each value finite (see _read_grid)."""
    return _read_grid(path, "adjusted", "sentiment", -math.inf)


def _read_grid(path: str | Path, column: str, what: str, lo: float) -> Grid:
    """The column of a date,company,<column> CSV as a gap-free Grid.

    A repeated (company, date) row, checked first, or a value outside lo < value < inf (lo is 0.0
    or -inf) raises ValueError naming the file and the line (see read_csv). A file with no rows,
    or without a value for every company on every date, raises ValueError naming the file and,
    for a gap, the first missing (company, date).
    """
    by_date: dict[date, dict[str, float]] = {}
    by_text: dict[str, dict[str, float]] = {}  # date text -> that date's map, parsed once

    def row_at(i: int, j: int, k: int) -> Callable[[list[str]], None]:
        def row(fields: list[str]) -> None:
            text, company, value = fields[i], fields[j], fields[k]
            day = by_text.get(text)
            if day is None:
                day = by_text[text] = by_date.setdefault(date.fromisoformat(text), {})
            if company in day:
                raise ValueError(f"duplicate {what} row for ({company}, {date.fromisoformat(text)})")
            value = float(value)
            if not lo < value < math.inf:  # also false for nan
                kind = "nonpositive" if math.isfinite(value) else "non-finite"
                raise ValueError(f"{kind} {column} {value!r} for ({company}, {date.fromisoformat(text)})")
            day[company] = value
        return row

    read_csv(path, ("date", "company", column), what, row_at)
    if not by_date:
        raise ValueError(f"{path}: {what} CSV contains no rows")
    dates = tuple(sorted(by_date))
    companies = tuple(sorted(set().union(*by_date.values())))
    # each date holds a subset of the companies, so the grid is complete
    # exactly when every date holds all of them
    if any(len(values) != len(companies) for values in by_date.values()):
        for company in companies:
            for d in dates:
                if company not in by_date[d]:
                    raise ValueError(f"{path}: {what} CSV has a gap: no {column} for ({company}, {d})")
    rows = [[values[c] for c in companies] for values in map(by_date.__getitem__, dates)]
    return Grid(dates, companies, rows)
