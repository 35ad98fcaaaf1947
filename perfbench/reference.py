"""A fixed reference process: the yardstick for the end-to-end timings.

    python3 perfbench/reference.py

It has the shape of one ``sentindex`` command but none of its code: a fresh
interpreter that imports numpy and the stdlib modules the CLI uses, builds
4,000 frozen dataclass rows, writes them as CSV text, parses the text back
and sums it into a dict. Its work never changes, so its wall time moves only
with the speed the shared host gives the benchmark at that moment. ``run.py``
runs it just before every timed command and divides the command's time by it.
It reads and writes no file and takes no seed.
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its start-up cost, as the CLI does)
import csv
import io
import json  # noqa: F401
import random
from dataclasses import dataclass
from datetime import date, timedelta

import numpy  # noqa: F401

ROWS = 4_000


@dataclass(frozen=True)
class Row:
    day: date
    company: str
    value: float


def main() -> int:
    rng = random.Random(3)
    start = date(2021, 1, 4)
    rows = [Row(start + timedelta(days=i % 250), f"c{(i // 250) % 50:03d}", rng.random())
            for i in range(ROWS)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for r in rows:
        writer.writerow([r.day.isoformat(), r.company, repr(r.value)])
    acc: dict[tuple[date, str], float] = {}
    for day, company, value in csv.reader(io.StringIO(buf.getvalue())):
        key = (date.fromisoformat(day), company)
        acc[key] = acc.get(key, 0.0) + float(value)
    return 0 if len(acc) == ROWS else 1


if __name__ == "__main__":
    raise SystemExit(main())
