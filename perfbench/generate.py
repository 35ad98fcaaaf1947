"""Seeded input generator for the generated benchmark workloads.

Writes articles, prices, a prescored probability file or a lexicon, an
optional benchmark level series, the three configs, and ``plan.json``. The
plan lists every planted case and the fate of every article as the generator
intended it (kept, or removed and why; the trading date it must land on), so
the output checks compare the program against the construction, not against
a run of the program. Only stdlib ``random`` is used, seeded from the
argument; the same seed gives byte-identical files.

Run alone: ``python3 perfbench/generate.py --workload news_flow --seed 1 --out DIR``.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

BERLIN = ZoneInfo("Europe/Berlin")
FIRST_DAY = date(2021, 1, 4)
MAX_HEADLINE_TOKENS = 30
BOILERPLATE = "dieser beitrag wurde automatisch erstellt"
SOURCES = tuple(f"quelle_{c}" for c in "abcdefghijkl")
FILLER = tuple(f"wort{c}{d}" for c in "bcdfghk" for d in "aeiou")
# offsets an article timestamp may be written in; "Z" is written as a suffix
OFFSETS = ("Z", "+00:00", "+01:00", "+02:00", "-05:00", "+05:30", "+09:00")


@dataclass(frozen=True)
class GenSpec:
    companies: int
    days: int
    articles: int
    provider: str  # "lexicon" or "prescored"
    history: str  # aggregation adjustment_history
    optimizer: dict
    benchmark: bool  # write a supplied benchmark level series

    def __post_init__(self) -> None:
        # the planted cases use companies 0-29 plus a last one of their own,
        # and trading days up to index 63
        if self.companies < 31 or self.days < 70:
            raise ValueError("need at least 31 companies and 70 trading days")


def trading_calendar(days: int) -> list[date]:
    """Weekdays from FIRST_DAY, with every 37th weekday a market holiday."""
    out: list[date] = []
    d, weekday_no = FIRST_DAY, 0
    while len(out) < days:
        if d.weekday() < 5:
            weekday_no += 1
            if weekday_no % 37 != 0:
                out.append(d)
        d += timedelta(days=1)
    return out


def _stamp(rng: random.Random, local: datetime) -> str:
    """Write a Berlin-local instant in a randomly chosen UTC offset."""
    offset = rng.choice(OFFSETS)
    if offset == "Z":
        return local.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"
    sign = 1 if offset[0] == "+" else -1
    hh, mm = offset[1:].split(":")
    tz = timezone(sign * timedelta(hours=int(hh), minutes=int(mm)))
    return local.astimezone(tz).isoformat()


def _local(d: date, hh: int, mm: int, ss: int = 0) -> datetime:
    return datetime.combine(d, time(hh, mm, ss), tzinfo=BERLIN)


class _Builder:
    """Accumulates article lines and the plan entry for each."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.blocks: list[list[str]] = []  # a block keeps its lines together when shuffled
        self.fate: dict[str, str] = {}  # id -> "kept" or a removal reason
        self.expected_date: dict[str, str | None] = {}  # kept id -> trading date (None: dropped)
        self.serial = 0

    def new_id(self) -> str:
        self.serial += 1
        return f"n{self.serial:07d}"

    def headline(self, company: str, words: list[str], serial: str) -> str:
        return " ".join([company.replace("_", "-"), *words, serial])

    def words(self, lexicon: list[str]) -> list[str]:
        rng = self.rng
        picked = [rng.choice(lexicon) for _ in range(rng.randint(0, 3))]
        picked += [rng.choice(FILLER) for _ in range(rng.randint(2, 5))]
        rng.shuffle(picked)
        return picked

    def add(self, *, aid: str, company: str, stamp: str, headline: str, fate: str,
            trading_date: date | None, body: str | None = None, source: str | None = None,
            with_previous: bool = False) -> None:
        obj = {
            "id": aid, "company_id": company,
            "source": source or self.rng.choice(SOURCES),
            "published_at": stamp, "headline": headline, "body": body, "language": "de",
        }
        line = json.dumps(obj, ensure_ascii=False)
        if with_previous:
            self.blocks[-1].append(line)
        else:
            self.blocks.append([line])
        self.fate[aid] = fate
        if fate == "kept":
            self.expected_date[aid] = trading_date.isoformat() if trading_date else None


def generate(spec: GenSpec, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out`` and return the plan."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    dates = trading_calendar(spec.days)
    names = [f"firma_{k:03d}" for k in range(spec.companies)]
    lexicon = {f"lex{k:02d}": round(rng.uniform(-1.0, 1.0), 3) for k in range(40)}
    lexicon["lexhalbpos"], lexicon["lexhalbneg"] = 0.5, -0.5  # winner-mode ties
    lex_words = sorted(lexicon)
    excluded = {names[k]: [f"sperrwort{k}a", f"sperrwort{k}b"] for k in range(1, 6)}
    b = _Builder(rng)
    # the last company gets only the planted few-sources articles; the rest
    # draw news with a mildly skewed popularity
    pool, busy = names[:-1], names[-1]
    pool_weights = [(k + 1) ** -0.5 for k in range(len(pool))]
    planted: dict[str, list[str]] = {}

    def plant(kind: str, aid: str) -> None:
        planted.setdefault(kind, []).append(aid)

    def normal(company: str | None = None, di: int | None = None, source: str | None = None) -> str:
        company = company or rng.choices(pool, weights=pool_weights)[0]
        di = rng.randrange(len(dates)) if di is None else di
        local = _local(dates[di], rng.randint(7, 16), rng.randrange(60), rng.randrange(60))
        aid = b.new_id()
        b.add(aid=aid, company=company, stamp=_stamp(rng, local),
              headline=b.headline(company, b.words(lex_words), aid),
              fate="kept", trading_date=dates[di], source=source)
        return aid

    # planted hygiene cases, ten of each kind
    for k in range(10):
        company = names[1 + k % 5]
        kw = excluded[company][k % 2]
        aid = b.new_id()
        b.add(aid=aid, company=company, stamp=_stamp(rng, _local(dates[k], 10, 0)),
              headline=b.headline(company, ["meldung", kw], aid), fate="exclusion_keyword",
              trading_date=None)
        plant("exclusion_in_headline", aid)
        aid = b.new_id()
        b.add(aid=aid, company=company, stamp=_stamp(rng, _local(dates[k], 11, 0)),
              headline=b.headline(company, ["bericht"], aid), fate="exclusion_keyword",
              trading_date=None, body=f"im text steht {kw.upper()} mitten drin")
        plant("exclusion_in_body", aid)
        # another company's keyword does not exclude
        other = names[10 + k]
        aid = b.new_id()
        b.add(aid=aid, company=other, stamp=_stamp(rng, _local(dates[k], 12, 0)),
              headline=b.headline(other, [kw], aid), fate="kept", trading_date=dates[k])
        plant("foreign_keyword_kept", aid)
        aid = b.new_id()
        b.add(aid=aid, company=other, stamp=_stamp(rng, _local(dates[k], 13, 0)),
              headline=b.headline(other, ["kurse"], aid), fate="auto_generated",
              trading_date=None, body=f"Hinweis: {BOILERPLATE.capitalize()}.")
        plant("boilerplate", aid)
        # too long by one token, and exactly at the limit (kept)
        aid = b.new_id()
        b.add(aid=aid, company=other, stamp=_stamp(rng, _local(dates[k], 14, 0)),
              headline=b.headline(other, [rng.choice(FILLER) for _ in range(MAX_HEADLINE_TOKENS - 1)], aid),
              fate="headline_length", trading_date=None)
        plant("headline_too_long", aid)
        aid = b.new_id()
        b.add(aid=aid, company=other, stamp=_stamp(rng, _local(dates[k], 14, 30)),
              headline=b.headline(other, [rng.choice(FILLER) for _ in range(MAX_HEADLINE_TOKENS - 2)], aid),
              fate="kept", trading_date=dates[k])
        plant("headline_at_limit", aid)

    # duplicate headlines differing in case; the earliest copy comes later in
    # the file, and a same-instant pair keeps the smaller id
    for k in range(10):
        company, di = names[20 + k], 5 + k
        words = ["Gewinn", "Prognose", f"Fall{k}"]
        late, early = b.new_id(), b.new_id()
        text = b.headline(company, words, f"dup{k}")
        b.add(aid=late, company=company, stamp=_stamp(rng, _local(dates[di], 15, 0)),
              headline=text.upper(), fate="duplicate", trading_date=None)
        b.add(aid=early, company=company, stamp=_stamp(rng, _local(dates[di], 9, 0)),
              headline=text.lower(), fate="kept", trading_date=dates[di], with_previous=True)
        plant("duplicate_later_copy_first", late)
        first, second = b.new_id(), b.new_id()
        text = b.headline(company, ["Gleichzeitig", f"Fall{k}"], f"tie{k}")
        same = _local(dates[di], 10, 30)
        b.add(aid=second, company=company, stamp=_stamp(rng, same), headline=text.title(),
              fate="duplicate", trading_date=None)  # the larger id, written first
        b.add(aid=first, company=company, stamp=_stamp(rng, same), headline=text,
              fate="kept", trading_date=dates[di], with_previous=True)
        plant("duplicate_same_instant", second)

    # calendar boundary cases
    for k in range(8):
        company = names[k]
        aid = b.new_id()
        b.add(aid=aid, company=company,
              stamp=_stamp(rng, _local(dates[0] - timedelta(days=3 + k), 10, 0)),
              headline=b.headline(company, b.words(lex_words), aid), fate="kept",
              trading_date=dates[0])
        plant("before_first_date", aid)
        aid = b.new_id()
        b.add(aid=aid, company=company,
              stamp=_stamp(rng, _local(dates[-1], 17, 0) + timedelta(days=k)),
              headline=b.headline(company, b.words(lex_words), aid), fate="kept",
              trading_date=None)
        plant("after_last_date", aid)
    for k in range(20):
        di = rng.randrange(len(dates) - 1)
        company = rng.choice(pool)
        aid = b.new_id()  # exactly at the cutoff: next trading date
        b.add(aid=aid, company=company, stamp=_stamp(rng, _local(dates[di], 17, 0)),
              headline=b.headline(company, b.words(lex_words), aid), fate="kept",
              trading_date=dates[di + 1])
        plant("at_cutoff", aid)
        aid = b.new_id()  # one second before the cutoff: same date
        b.add(aid=aid, company=company, stamp=_stamp(rng, _local(dates[di], 16, 59, 59)),
              headline=b.headline(company, b.words(lex_words), aid), fate="kept",
              trading_date=dates[di])
        plant("before_cutoff", aid)
    weekend_days = [d for d in (dates[0] + timedelta(days=i) for i in range((dates[-1] - dates[0]).days))
                    if d.weekday() >= 5]
    for k in range(20):
        d = weekend_days[(k * 7) % len(weekend_days)]
        company = rng.choice(pool)
        aid = b.new_id()
        nxt = next(t for t in dates if t > d)
        b.add(aid=aid, company=company, stamp=_stamp(rng, _local(d, rng.randint(6, 22), 15)),
              headline=b.headline(company, b.words(lex_words), aid), fate="kept",
              trading_date=nxt)
        plant("weekend", aid)

    # company-days with fewer sources than usual: five sources a day for a
    # stretch, then days with a single source
    for di in range(30, 60):
        for s in SOURCES[:5]:
            normal(busy, di, source=s)
    for di in range(60, 64):
        for _ in range(3):
            normal(busy, di, source=SOURCES[0])
        plant("few_sources_day", f"{busy}|{dates[di].isoformat()}")

    # load diagnostics: a reused id, a line lacking a headline, broken JSON
    reused = normal()  # the reused id stays after the original line
    b.blocks[-1].append(json.dumps({"id": reused, "company_id": names[0], "source": SOURCES[0],
                                    "published_at": "2021-01-05T10:00:00+01:00",
                                    "headline": "zweite zeile mit alter id"}))
    b.blocks.append([json.dumps({"id": "ohne_titel", "company_id": names[0], "source": SOURCES[0],
                                 "published_at": "2021-01-05T10:00:00+01:00"})])
    b.blocks.append(['{"id": "kaputt", "company_id": '])
    load_diagnostics = 3

    while len(b.fate) < spec.articles:
        normal()

    # shuffle the file order; each planted duplicate pair stays in its order
    rng.shuffle(b.blocks)
    (out / "articles.jsonl").write_text(
        "".join(line + "\n" for block in b.blocks for line in block), encoding="utf-8")

    kept_ids = sorted(aid for aid, fate in b.fate.items() if fate == "kept")
    removed: dict[str, list[str]] = {}
    for aid, fate in b.fate.items():
        if fate != "kept":
            removed.setdefault(fate, []).append(aid)

    _write_prices(rng, out, dates, names)
    if spec.provider == "lexicon":
        (out / "lexicon.json").write_text(json.dumps(lexicon, indent=1, sort_keys=True) + "\n")
    else:
        _write_prescored(rng, out, sorted(b.fate))
    if spec.benchmark:
        _write_benchmark(rng, out, dates)
    (out / "filter_config.json").write_text(json.dumps({
        "exclusions": excluded,
        "auto_generated_phrases": [BOILERPLATE],
        "max_headline_tokens": MAX_HEADLINE_TOKENS,
    }, indent=1) + "\n")
    (out / "aggregation_config.json").write_text(json.dumps({
        "market_timezone": "Europe/Berlin", "cutoff_local_time": "17:00",
        "adjustment_history": spec.history,
    }, indent=1) + "\n")
    # tc_rate and trade_epsilon are left to the program's defaults
    (out / "backtest_config.json").write_text(json.dumps({
        "signal_lag_days": 1, "initial_level": 100.0,
        "optimizer": spec.optimizer,
    }, indent=1) + "\n")

    plan = {
        "seed": seed,
        "companies": spec.companies,
        "trading_days": len(dates),
        "articles_in": len(b.fate),
        "load_diagnostics": load_diagnostics,
        "kept_ids": kept_ids,
        "removed": {reason: sorted(ids) for reason, ids in sorted(removed.items())},
        "removed_counts": {reason: len(ids) for reason, ids in sorted(removed.items())},
        "expected_date": dict(sorted(b.expected_date.items())),
        "before_range": len(planted["before_first_date"]),
        "after_range": len(planted["after_last_date"]),
        "planted": {kind: ids for kind, ids in sorted(planted.items())},
    }
    (out / "plan.json").write_text(json.dumps(plan, indent=0, sort_keys=True) + "\n")
    return plan


def _write_prices(rng: random.Random, out: Path, dates: list[date], names: list[str]) -> None:
    level = {c: rng.uniform(20.0, 200.0) for c in names}
    rows = ["date,company,close"]
    for d in dates:
        for c in names:
            level[c] *= 1.0 + rng.gauss(0.0003, 0.015)
            rows.append(f"{d.isoformat()},{c},{round(level[c], 4)!r}")
    (out / "prices.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_prescored(rng: random.Random, out: Path, ids: list[str]) -> None:
    lines = []
    for aid in ids:
        neg, pos = rng.random(), rng.random()
        neu = rng.random() * 0.5
        total = neg + pos + neu
        neg, pos = round(neg / total, 6), round(pos / total, 6)
        lines.append(json.dumps({"id": aid, "p_negative": neg,
                                 "p_neutral": round(1.0 - neg - pos, 6), "p_positive": pos}))
    (out / "prescored.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_benchmark(rng: random.Random, out: Path, dates: list[date]) -> None:
    level, rows = 1000.0, ["date,level"]
    for d in dates:
        level *= 1.0 + rng.gauss(0.0002, 0.01)
        rows.append(f"{d.isoformat()},{round(level, 6)!r}")
    (out / "benchmark.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def main() -> None:
    from workloads import WORKLOADS  # noqa: PLC0415 - script entry only

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[n for n, w in WORKLOADS.items() if w.gen])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload].gen, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
