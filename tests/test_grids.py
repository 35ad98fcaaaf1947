"""The grid readers' single pass over a file in (date, company) order, against the general reader.

grids._read_grid first tries grids._read_ordered, which takes a file only in the layout that
aggregate writes and returns None on anything else; the general reader then decides the Grid or
the error. Both must give the same outcome on every file, and the single pass must take the files
that the chain really writes, or it would be a slower way to reach the general reader.
"""

from __future__ import annotations

import math
import random
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentindex import grids
from sentindex.aggregation import write_daily_sentiment_csv

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from generate import GenSpec, generate  # noqa: E402

LOWER = {"close": 0.0, "adjusted": -math.inf}


def bits(grid: grids.Grid):
    return grid.dates, grid.companies, [[v.hex() for v in row] for row in grid.rows]


def outcome(read, path: Path, column: str):
    """The Grid that read gives, as bits, or the type and message of its error."""
    try:
        return bits(read(path, column, column, LOWER[column]))
    except ValueError as exc:
        return type(exc), str(exc)


def general(path: Path, column: str, what: str, lo: float) -> grids.Grid:
    """The general reader alone: _read_grid with the single pass turned away."""
    with mock.patch.object(grids, "_read_ordered", lambda *args: None):
        return grids._read_grid(path, column, what, lo)


ODD_VALUES = ["0.0", "-0.0", "-1.5", "1e-400", "5e-324", "1e308", "nan", "inf", "-inf", "1e999", "x", " 2.5 ", "1_0"]
DEFECTS = ["none", "shuffle", "swap", "gap", "duplicate", "late_row", "blank", "quote", "crlf", "extra_field",
           "extra_row", "short_row", "basic_date", "basic_block", "respelled_repeat", "reverse_dates", "repeat_header",
           "no_final_newline", "not_utf8", "odd_value", "compensating_rows", "merged_rows"]


@st.composite
def grid_files(draw):
    """A grid file's bytes, its value column, and whether the single pass must take it.

    The header holds date, company, maybe a note and the value column, in that order or permuted;
    the rows come in (date, company) order with values of moderate size; then one or two defects.
    """
    column = draw(st.sampled_from(sorted(LOWER)))
    header = ["date", "company"] + draw(st.sampled_from([[], ["note"]])) + [column]
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.permutations(header))
    companies = sorted(draw(st.sets(st.sampled_from(["a", "b", "ab", "c", "z"]), min_size=1, max_size=4)))
    days = [date(2021, 3, 1) + timedelta(days=k) for k in range(draw(st.integers(1, 4)))]
    # a numeric note, so that a reader taking the wrong column would still parse it
    rows = [{"date": d.isoformat(), "company": c, column: repr(draw(st.floats(1e-6, 1e6))), "note": "7"}
            for d in days for c in companies]
    defects = draw(st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=2))
    rng = random.Random(draw(st.integers(0, 2**16)))
    at, n = rng.randrange(len(rows)), len(companies)
    if "odd_value" in defects:
        rows[at][column] = draw(st.sampled_from(ODD_VALUES))
    if "basic_date" in defects:  # one row's date in the other spelling that fromisoformat takes
        rows[at]["date"] = rows[at]["date"].replace("-", "")
    if "basic_block" in defects:  # the last date's rows
        for row in rows[-n:]:
            row["date"] = row["date"].replace("-", "")
    if "late_row" in defects:  # the last row dated a day later
        rows[-1]["date"] = (days[-1] + timedelta(days=1)).isoformat()
    if "respelled_repeat" in defects:  # the last date again, spelled the other way
        rows += [{**row, "date": row["date"].replace("-", "")} for row in rows[-n:]]
    if "reverse_dates" in defects:
        rows = [row for k in range(len(rows) - n, -1, -n) for row in rows[k:k + n]]
    if "quote" in defects:  # the note if there is one: a quote elsewhere fails to parse anyway
        name = "note" if "note" in header else rng.choice(header)
        rows[at][name] = f'"{rows[at][name]}"'
    if "repeat_header" in defects:  # and a field for it on every line
        header = header + [rng.choice(["date", "company", column])]
    lines = [",".join(row[name] for name in header) for row in rows]
    if "extra_field" in defects:
        lines[at] += ",x"
    if "extra_row" in defects:  # a row's worth more, whose company would sort next
        lines[at] += "," + ",".join({**rows[at], "date": "x", "company": rows[at]["company"] + "0"}[name]
                                    for name in header)
    if "short_row" in defects:
        lines[at] = lines[at].rpartition(",")[0]
    if "shuffle" in defects:
        rng.shuffle(lines)
    if "swap" in defects:  # with the same company's row of the next date
        other = (at + n) % len(lines)
        lines[at], lines[other] = lines[other], lines[at]
    if "duplicate" in defects:
        lines.insert(rng.randrange(len(lines) + 1), lines[at])
    if "gap" in defects:
        del lines[at]
    if "blank" in defects:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  "]))
    # for the two defects below, which keep a block's n * w fields: lines k and k + 1, of one date if n > 1
    k = min(at - at % n + rng.randrange(max(n - 1, 1)), len(lines) - 2)
    if "compensating_rows" in defects and k >= 0:  # a field moves across the end of a line
        if rng.random() < 0.5:  # the last field of line k opens line k + 1
            lines[k], _, moved = lines[k].rpartition(",")
            lines[k + 1] = f"{moved},{lines[k + 1]}"
        else:  # the first field of line k + 1 closes line k
            moved, _, lines[k + 1] = lines[k + 1].partition(",")
            lines[k] = f"{lines[k]},{moved}"
    if "merged_rows" in defects and k >= 0:  # two lines as one
        lines[k:k + 2] = [f"{lines[k]},{lines[k + 1]}"]
    text = "\n".join([",".join(header)] + lines) + ("" if "no_final_newline" in defects else "\n")
    if "crlf" in defects:
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    if "not_utf8" in defects:
        data = data.replace(b"\n", b"\xff\n", 1 + rng.randrange(len(lines) + 1))
    in_layout = header[-1] == column and not set(defects) - {"none", "crlf", "no_final_newline", "basic_block"}
    return data, column, in_layout


@settings(max_examples=1000, deadline=None)
@given(grid_files())
def test_single_pass_matches_general_reader(drawn):
    data, column, in_layout = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.csv"
        path.write_bytes(data)
        assert outcome(grids._read_grid, path, column) == outcome(general, path, column)
        assert grids._read_ordered(path, column, LOWER[column]) is not None or not in_layout


def test_chain_files_take_the_single_pass(golden_dir, golden_run, tmp_path):
    generate(GenSpec(companies=31, days=70, articles=100, provider="lexicon", history="nonzero_days",
                     optimizer={}, benchmark=False), 3, tmp_path / "generated")
    write_daily_sentiment_csv(tmp_path / "daily.csv", golden_run.aggregation_result)
    for path, column in [(golden_dir / "prices.csv", "close"), (tmp_path / "generated" / "prices.csv", "close"),
                         (tmp_path / "daily.csv", "adjusted")]:
        grid = grids._read_ordered(path, column, LOWER[column])
        assert grid is not None, path
        assert bits(grid) == outcome(general, path, column)


@pytest.mark.parametrize("text", [
    # the first date's block as n * w fields: a company field ends the first line
    "date,company,close\n2021-03-01,a,1.0,2021-03-01,b\n2.0\n",
    # the second date's block as n * w fields, the note field ending its first line
    "date,company,note,close\n2021-03-01,a,7,1.0\n2021-03-01,b,7,2.0\n2021-03-02,a,7\n1.5,2021-03-02,b,7,2.5\n",
    # the final date's two lines as one, with and without a final newline
    "date,company,close\n2021-03-01,a,1.0\n2021-03-01,b,2.0\n2021-03-02,a,1.5,2021-03-02,b,2.5\n",
    "date,company,close\n2021-03-01,a,1.0\n2021-03-01,b,2.0\n2021-03-02,a,1.5,2021-03-02,b,2.5",
])
def test_single_pass_declines_a_block_of_n_times_w_fields_in_other_lines(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text)
    assert grids._read_ordered(path, "close", 0.0) is None
    assert outcome(grids._read_grid, path, "close") == outcome(general, path, "close")


@pytest.mark.parametrize("text", [
    "date,company,close\n",
    "date,company,close\n2021-03-01,a,1.0\n2021-03-01,a,1.0\n",
    "date,close,company\n2021-03-01,1.0,a\n",  # valid, but the value column is not last
])
def test_single_pass_gives_up_without_raising(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text)
    assert grids._read_ordered(path, "close", 0.0) is None
    assert grids._read_ordered(tmp_path / "missing.csv", "close", 0.0) is None
