"""Metamorphic relations of the CLI chain: inputs restated so that no output may change.

Each test runs filter, score, aggregate, backtest and report twice, on the
golden fixture (one test on generated inputs) and on a restated copy, and
compares the outputs byte for byte. A relation needs no second implementation to check against: it holds
for any correct chain, so it also catches a defect that a reference written
alongside the code would share.
"""

from __future__ import annotations

import json
import random
import shutil
import string
import sys
from collections import Counter
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import pytest

from sentindex import grids
from sentindex.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))

from generate import GenSpec, generate  # noqa: E402
INPUTS = ("articles.jsonl", "filter_config.json", "lexicon.json", "prices.csv",
          "aggregation_config.json", "backtest_config.json")
OUTPUTS = ("daily.csv", "run/levels.csv", "run/trades.csv", "run/summary.json",
           "report/report.svg", "report/report.csv")


def golden_copy(dest: Path) -> Path:
    dest.mkdir()
    for name in INPUTS:
        shutil.copy(GOLDEN / name, dest / name)
    return dest


def run_chain(inputs: Path, out: Path) -> dict[str, bytes]:
    """The chain's files under out, by their path relative to it, after each command exits 0."""
    out.mkdir()
    commands = [
        ["filter", "--articles", inputs / "articles.jsonl", "--config", inputs / "filter_config.json",
         "--out", out / "kept.jsonl"],
        ["score", "--articles", out / "kept.jsonl", "--provider", "lexicon",
         "--provider-file", inputs / "lexicon.json", "--out", out / "scored.jsonl"],
        ["aggregate", "--scored", out / "scored.jsonl", "--prices", inputs / "prices.csv",
         "--config", inputs / "aggregation_config.json", "--out", out / "daily.csv"],
        ["backtest", "--prices", inputs / "prices.csv", "--sentiments", out / "daily.csv",
         "--config", inputs / "backtest_config.json", "--out", out / "run"],
        ["report", "--in", out / "run", "--out", out / "report"],
    ]
    for argv in commands:
        assert main([str(a) for a in argv]) == 0, argv[0]
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


# each offset of the fixture's stamps, and the one the same instant is restated in
RESTATED_OFFSET = {"Z": "+00:00", "+00:00": "Z", "+01:00": "-05:00", "+02:00": "+05:30"}


def restate(stamp: str) -> str:
    """The instant of stamp, written at the offset RESTATED_OFFSET gives for stamp's own.

    Read by datetime.fromisoformat, which takes a trailing Z, so that a defect in the package's
    own timestamp reader cannot restate the instant as wrongly as it reads it.
    """
    ts = datetime.fromisoformat(stamp)
    target = RESTATED_OFFSET["Z" if stamp.endswith("Z") else stamp[-6:]]
    if target == "Z":
        return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"
    sign = 1 if target[0] == "+" else -1
    zone = timezone(sign * timedelta(hours=int(target[1:3]), minutes=int(target[4:])))
    return ts.astimezone(zone).isoformat()


def test_restating_each_stamp_at_another_offset_changes_no_output(tmp_path):
    base = run_chain(golden_copy(tmp_path / "in"), tmp_path / "base")
    moved = golden_copy(tmp_path / "moved_in")
    lines = []
    for line in (GOLDEN / "articles.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        stamp = obj["published_at"]
        obj["published_at"] = restate(stamp)
        assert obj["published_at"] != stamp
        assert datetime.fromisoformat(obj["published_at"]) == datetime.fromisoformat(stamp)
        lines.append(json.dumps(obj, ensure_ascii=False))
    (moved / "articles.jsonl").write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")
    got = run_chain(moved, tmp_path / "moved")

    for name in OUTPUTS:
        assert got[name] == base[name], name
    # scored.jsonl differs in published_at alone, which still names the same instant (Z and
    # +00:00 are both written +00:00)
    ours, theirs = (b["scored.jsonl"].decode("utf-8").splitlines() for b in (got, base))
    assert len(ours) == len(theirs) > 0 and ours != theirs
    for a, b in zip(map(json.loads, ours), map(json.loads, theirs)):
        assert datetime.fromisoformat(a.pop("published_at")) == datetime.fromisoformat(b.pop("published_at"))
        assert a == b


@pytest.mark.parametrize("order", ["reversed", "seed-0", "seed-1"])
def test_reordering_price_lines_changes_no_output(tmp_path, order):
    """A price file out of (date, company) order goes through the general grid reader."""
    base = run_chain(golden_copy(tmp_path / "in"), tmp_path / "base")
    shuffled = golden_copy(tmp_path / "shuffled_in")
    header, *rows = (GOLDEN / "prices.csv").read_text(encoding="utf-8").splitlines()
    if order == "reversed":
        rows.reverse()
    else:
        random.Random(int(order.removeprefix("seed-"))).shuffle(rows)
    (shuffled / "prices.csv").write_text("".join(f"{x}\n" for x in [PRICE_HEADER, *rows]), encoding="utf-8")
    assert grids._read_ordered(shuffled / "prices.csv", "close", 0.0) is None
    got = run_chain(shuffled, tmp_path / "shuffled")
    assert got.keys() == base.keys()
    for name in base:
        assert got[name] == base[name], name


PRICE_HEADER, *PRICE_ROWS = (GOLDEN / "prices.csv").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("company", sorted({row.split(",")[1] for row in PRICE_ROWS}))
def test_scaling_one_companys_closes_by_eight_changes_no_output(tmp_path, company):
    """Times 8 is exact in binary, so every return, and so every output byte, stays the same."""
    base = run_chain(golden_copy(tmp_path / "in"), tmp_path / "base")
    scaled = golden_copy(tmp_path / "scaled_in")
    rows = []
    for row in PRICE_ROWS:
        day, name, close = row.split(",")
        rows.append(f"{day},{name},{float(close) * 8!r}" if name == company else row)
    assert rows != PRICE_ROWS
    (scaled / "prices.csv").write_text("".join(f"{x}\n" for x in [PRICE_HEADER, *rows]), encoding="utf-8")
    got = run_chain(scaled, tmp_path / "scaled")
    for name in OUTPUTS:
        assert got[name] == base[name], name


def check_renaming_in_order_changes_only_the_names(inputs: Path, tmp_path: Path, new_ids) -> None:
    """Company ids renamed in the order they sort, in prices.csv, company_id, the headline tokens
    and the keys of exclusions: once the names are mapped back, every output is byte for byte the
    unrenamed run's. So nothing but a company's sort position may read its id.

    new_ids(n) gives the n new ids, in sorted order. A line of articles.jsonl that is no JSON
    object is kept as it is."""
    base = run_chain(inputs, tmp_path / "base")
    renamed = tmp_path / "renamed_in"
    shutil.copytree(inputs, renamed)
    lines = (inputs / "articles.jsonl").read_text(encoding="utf-8").splitlines()
    objs = []
    for line in lines:
        try:
            objs.append(json.loads(line))
        except ValueError:
            objs.append(line)
    articles = [obj for obj in objs if isinstance(obj, dict)]
    filters = json.loads((inputs / "filter_config.json").read_text(encoding="utf-8"))
    price_header, *price_rows = (inputs / "prices.csv").read_text(encoding="utf-8").splitlines()
    old = sorted({row.split(",")[1] for row in price_rows} | {obj["company_id"] for obj in articles}
                 | set(filters["exclusions"]))
    new = new_ids(len(old))
    assert new == sorted(new)
    rename = dict(zip(old, new))

    # the precondition: no id, old or new, occurs in a word of any keyword, phrase or lexicon entry,
    # nor a word in an id, so no text match can see the rename; no new id occurs in another, in the
    # inputs or in the outputs, so mapping the outputs back restores exactly what the rename changed
    words = {w for k in (*json.loads((inputs / "lexicon.json").read_text(encoding="utf-8")),
                         *filters["auto_generated_phrases"], *(k for v in filters["exclusions"].values() for k in v))
             for w in k.split()}
    assert not [(x, w) for x in old + new for w in words if x in w or w in x]
    texts = [(inputs / name).read_bytes() for name in INPUTS] + list(base.values())
    assert not [x for x in new if any(x.encode() in b for b in texts) or sum(x in y for y in new) > 1]

    for obj in articles:
        obj["company_id"] = rename[obj["company_id"]]
        if "headline" in obj:
            obj["headline"] = " ".join(rename.get(w, w) for w in obj["headline"].split(" "))
    (renamed / "articles.jsonl").write_text(
        "".join((obj if isinstance(obj, str) else json.dumps(obj, ensure_ascii=False)) + "\n" for obj in objs),
        encoding="utf-8")
    rows = [f"{d},{rename[c]},{close}" for d, c, close in (row.split(",") for row in price_rows)]
    (renamed / "prices.csv").write_text("".join(f"{x}\n" for x in [price_header, *rows]), encoding="utf-8")
    filters["exclusions"] = {rename[c]: k for c, k in filters["exclusions"].items()}
    (renamed / "filter_config.json").write_text(json.dumps(filters), encoding="utf-8")
    got = run_chain(renamed, tmp_path / "renamed")

    assert got.keys() == base.keys()
    assert got["daily.csv"] != base["daily.csv"]
    for name, blob in got.items():
        for x, y in zip(new, old):
            blob = blob.replace(x.encode(), y.encode())
        assert blob == base[name], name


def test_renaming_every_company_in_order_changes_only_the_names(tmp_path):
    check_renaming_in_order_changes_only_the_names(
        golden_copy(tmp_path / "in"), tmp_path,
        lambda n: [f"q{i:03d}" for i in range(n)])  # sorts as the old ids do, and none holds another


def test_renaming_generated_companies_that_share_a_prefix_changes_only_the_names(tmp_path):
    """The rename on the generator's inputs, whose ids firma_000, firma_001, ... share a long prefix,
    with one headline filed under two companies. The new ids differ in their first character, so a
    filter that read only a prefix of company_id, such as dedup keyed on it, would remove one copy
    of the shared headline before the rename and none after."""
    inputs = tmp_path / "in"
    generate(GenSpec(companies=31, days=70, articles=300, provider="lexicon", history="nonzero_days",
                     optimizer={}, benchmark=False), 5, inputs)
    shared = "firma-000 und firma-001 wortba lex01 gemeinsam"
    with open(inputs / "articles.jsonl", "a", encoding="utf-8") as fh:
        for aid, company, stamp in [("geteilt1", "firma_000", "2021-01-12T09:00:00+01:00"),
                                    ("geteilt2", "firma_001", "2021-01-12T10:00:00+01:00")]:
            fh.write(json.dumps({"id": aid, "company_id": company, "source": "quelle_a", "published_at": stamp,
                                 "headline": shared, "body": None, "language": "de"}) + "\n")
    first = string.ascii_uppercase + string.ascii_lowercase
    check_renaming_in_order_changes_only_the_names(
        inputs, tmp_path, lambda n: [f"{first[i]}{i:02d}xq" for i in range(n)])


# the market's zone and cutoff, and its trading dates, read here without the package's readers
_MARKET = json.loads((GOLDEN / "aggregation_config.json").read_text(encoding="utf-8"))
ZONE = ZoneInfo(_MARKET["market_timezone"])
CUTOFF = time.fromisoformat(_MARKET["cutoff_local_time"])
DATES = sorted({date.fromisoformat(row.split(",")[0]) for row in PRICE_ROWS})


def at(i: int, clock: time) -> datetime:
    """clock on DATES[i], in market time."""
    return datetime.combine(DATES[i], clock, ZONE)


def trading_index(stamp: str) -> int | None:
    """The index in DATES of the first date whose cutoff, in market time, falls after stamp: the date
    the article counts for. The window of DATES[i] runs from the cutoff of DATES[i - 1] up to its own."""
    local = datetime.fromisoformat(stamp).astimezone(ZONE)
    return next((i for i in range(len(DATES)) if local < at(i, CUTOFF)), None)


def move_articles(dest: Path, new_time, indices: range) -> int:
    """golden_copy(dest) with the published_at of each article of DATES[i], i in indices, replaced by
    new_time(i); the number of articles moved.

    Only an article whose (company, headline) no other article shares is moved, because the filter keeps
    the earliest of such copies, so moving one could change which copy is kept.
    """
    golden_copy(dest)
    objs = [json.loads(line) for line in (GOLDEN / "articles.jsonl").read_text(encoding="utf-8").splitlines()]
    copies = Counter((obj["company_id"], obj["headline"].lower()) for obj in objs)
    moved = 0
    for obj in objs:
        i = trading_index(obj["published_at"])
        if i in indices and copies[obj["company_id"], obj["headline"].lower()] == 1:
            obj["published_at"] = new_time(i).isoformat()
            moved += 1
    (dest / "articles.jsonl").write_text(
        "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs), encoding="utf-8")
    return moved


# an article of DATES[i] moved to a point of its own window: where it opens (the cutoff of DATES[i - 1]),
# a second before it closes, and local midnight, which falls on the previous UTC date
WITHIN_WINDOW = {
    "opening": lambda i: at(i - 1, CUTOFF),
    "before-cutoff": lambda i: at(i, CUTOFF) - timedelta(seconds=1),
    "midnight": lambda i: at(i, time(0, 0)),
}


@pytest.mark.parametrize("where", WITHIN_WINDOW)
def test_moving_articles_within_their_trading_day_window_keeps_daily_csv(tmp_path, where):
    base = run_chain(golden_copy(tmp_path / "in"), tmp_path / "base")
    assert move_articles(tmp_path / "moved_in", WITHIN_WINDOW[where], range(1, len(DATES))) > 100
    got = run_chain(tmp_path / "moved_in", tmp_path / "moved")
    assert got["daily.csv"] == base["daily.csv"]


def test_article_at_the_cutoff_counts_as_one_in_the_next_window(tmp_path):
    """Articles moved to the cutoff of their date give the daily.csv of the same articles moved to noon
    of the next trading date, which differs from the fixture's."""
    base = run_chain(golden_copy(tmp_path / "in"), tmp_path / "base")
    indices = range(len(DATES) - 1)
    assert move_articles(tmp_path / "cutoff_in", lambda i: at(i, CUTOFF), indices) > 100
    assert move_articles(tmp_path / "next_in", lambda i: at(i + 1, time(12, 0)), indices) > 100
    at_cutoff = run_chain(tmp_path / "cutoff_in", tmp_path / "cutoff")
    in_next = run_chain(tmp_path / "next_in", tmp_path / "next")
    assert at_cutoff["daily.csv"] == in_next["daily.csv"] != base["daily.csv"]


# the week after the fixture's final date, 2021-04-09, and the fixture's articles of its final week moved
# into it; the one article after the final date's cutoff, dropped by the fixture, now lands on 2021-04-12
NEW_DATES = [DATES[-1] + timedelta(days=k) for k in range(3, 8)]


def extend_by_a_week(dest: Path) -> Path:
    """golden_copy(dest) with closes for every company on NEW_DATES and a copy of each article of the
    final week a week later, its headline's kw14 renamed kw15 so that none is a duplicate."""
    golden_copy(dest)
    last = {company: float(close) for day, company, close in (row.split(",") for row in PRICE_ROWS)
            if day == DATES[-1].isoformat()}
    rows = [f"{d},{company},{round(close * (1 + 0.01 * ((k + j) % 5 - 2)), 2)!r}"
            for k, d in enumerate(NEW_DATES) for j, (company, close) in enumerate(sorted(last.items()))]
    (dest / "prices.csv").write_text("".join(f"{x}\n" for x in [PRICE_HEADER, *PRICE_ROWS, *rows]),
                                     encoding="utf-8")
    lines = (GOLDEN / "articles.jsonl").read_text(encoding="utf-8").splitlines()
    copies = []
    for line in lines:
        obj = json.loads(line)
        i = trading_index(obj["published_at"])
        if i is not None and i >= len(DATES) - 5:
            obj["id"] += "w"
            obj["published_at"] = (datetime.fromisoformat(obj["published_at"]) + timedelta(days=7)).isoformat()
            obj["headline"] = obj["headline"].replace("kw14", "kw15")
            copies.append(json.dumps(obj, ensure_ascii=False))
    assert len(copies) > 30
    (dest / "articles.jsonl").write_text("".join(f"{x}\n" for x in lines + copies), encoding="utf-8")
    return dest


def dated_lines(blob: bytes, until: date, inclusive: bool) -> list[str]:
    """The lines of a CSV whose first field is a date, the header and those dated before until
    (or on it too)."""
    header, *rows = blob.decode("utf-8").splitlines()
    last = until.isoformat()
    return [header] + [row for row in rows if (row[:10] <= last if inclusive else row[:10] < last)]


@pytest.mark.parametrize("lag", [0, 1])
def test_appending_trading_dates_keeps_every_earlier_row(tmp_path, lag):
    """A row depends only on its own and earlier dates. So appending a week of dates, with closes and
    articles, leaves the rows of daily.csv up to the old final date as they were, and those of
    levels.csv and trades.csv before it. At lag 0 the old final date's trades, and so its level, may
    change: its weights are solved on the sentiment of the date after it, which did not exist, so
    they were held. At lag 1 they are solved on the final date's own sentiment and must not change."""
    config = json.loads((GOLDEN / "backtest_config.json").read_text(encoding="utf-8"))
    inputs = golden_copy(tmp_path / "in"), extend_by_a_week(tmp_path / "longer_in")
    for dest in inputs:
        (dest / "backtest_config.json").write_text(json.dumps({**config, "signal_lag_days": lag}), encoding="utf-8")
    base, got = run_chain(inputs[0], tmp_path / "base"), run_chain(inputs[1], tmp_path / "longer")

    final = DATES[-1]
    for name, inclusive in [("daily.csv", True), ("run/levels.csv", lag > 0), ("run/trades.csv", lag > 0)]:
        before = dated_lines(base[name], final, inclusive)
        assert len(before) > 1 and dated_lines(got[name], final, inclusive) == before, name
    # the new week is there, and its articles moved sentiment
    new_rows = got["daily.csv"].splitlines()[base["daily.csv"].count(b"\n"):]
    assert len(new_rows) == len(NEW_DATES) * len(PRICE_ROWS) // len(DATES)
    assert any(row.split(b",")[3] != b"0" for row in new_rows)
