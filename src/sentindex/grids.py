"""The close and sentiment grids: a dense table and the readers of its two CSV files."""

from __future__ import annotations

import math
from datetime import date
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

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

    A file in (date, company) order is read by _read_ordered in one pass. That reader never
    raises: on any file it does not take whole it returns None, and the general reader below
    reads the file again and alone decides the Grid or the error, so both are the same either way.
    """
    grid = _read_ordered(path, column, lo)
    if grid is not None:
        return grid
    by_date: dict[date, dict[str, float]] = {}
    by_text: dict[str, dict[str, float]] = {}  # date text -> that date's map, parsed once

    def row(text: str, company: str, value: str) -> None:
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

    read_csv(path, ("date", "company", column), what, row)
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


def _read_ordered(path: str | Path, column: str, lo: float) -> Grid | None:
    """The Grid of a file laid out as aggregate writes daily.csv, or None; it never raises.

    That layout is a header naming date, company and column once each, column last, then one
    block of lines per date, the dates increasing, each block listing the same strictly
    increasing companies, and every line as many fields as the header, none quoted. Each block
    is split in one call, its line widths checked once on the split (see below) and its values
    checked against lo < value < inf (lo is 0.0 or -inf).
    Any other file, one that is not UTF-8 or cannot be opened included, gives None.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")  # as read_csv reads it
            if header[-1] != column or any(header.count(name) != 1 for name in ("date", "company", column)):
                return None
            w, i, j = len(header), header.index("date"), header.index("company")
            block = [fh.readline()]  # the first date's lines fix the companies
            text, rest = block[0].split(",")[i], fh
            for line in fh:
                if line.split(",")[i] != text:
                    rest = chain((line,), fh)  # the second date's first line, then the others
                    break
                block.append(line)
            n, dates, rows, companies = len(block), [], [], None
            while block:
                # a line's only "\n" ends it, so n lines' newlines (n - 1 at a file's end without one) all
                # fall in the values, fields[w - 1::w], of an n * w split only if each line has w fields; then
                # field q of line p is fields[p * w + q], and a value keeps its "\n", which float() strips
                joined = ",".join(block)
                fields = joined.split(",")
                values = fields[w - 1::w]
                if (len(block) != n or len(fields) != n * w or joined.count("\n") != "".join(values).count("\n")
                        or '"' in joined):
                    return None
                text, names, row = fields[i], fields[j::w], list(map(float, values))
                day = date.fromisoformat(text)
                if fields[i::w].count(text) != n or dates and day <= dates[-1]:
                    return None
                if companies is None and sorted(set(names)) == names:
                    companies = names
                # sum() is finite only if every value is, and then min() sees no nan
                if names != companies or not (lo < min(row) and math.isfinite(sum(row))):
                    return None
                dates.append(day)
                rows.append(row)
                block = list(islice(rest, n))
    except (OSError, ValueError, IndexError):  # UnicodeDecodeError is a ValueError
        return None
    return Grid(tuple(dates), tuple(companies), rows)
