"""The JSON-lines readers that decode every line, kept as a reference for tests.

These are the earlier ``sentindex.corpus.read_articles`` and
``sentindex.sentiment._records``, with ``read_scored`` and the table of
``PrescoredProvider.from_file`` on top of them: each non-blank line goes
through ``json_object_line`` and its fields are looked up by name. The
package's readers, which take a line in the layout ``json.dumps`` writes by
pattern and decode any other, must give the same values (down to the sign of
a zero), the same diagnostics and the same exception text.
"""

from __future__ import annotations

import math
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator

from sentindex.corpus import REQUIRED_FIELDS, NewsArticle
from sentindex.inputs import config_value, json_object_line, parse_timestamp, read_lines
from sentindex.sentiment import PRESCORED_FIELDS, SCORED_FIELDS, ClassProbabilities, ScoredArticle, _validate


def read_articles(path: str | Path, report: Callable[[str], object]) -> Iterator[tuple[NewsArticle, str]]:
    """Yield each article of a JSON-lines file with its published_at text as read, in file order."""
    seen_ids: set[str] = set()
    share = {}.setdefault  # share(v, v) is the first string read equal to v
    for lineno, line in read_lines(path, report):
        if not line.strip():
            continue
        try:
            obj = json_object_line(line)
        except ValueError as exc:
            report(f"line {lineno}: {exc}")
            continue
        get = obj.get
        aid, company, source, stamp, headline = (
            get("id"), get("company_id"), get("source"), get("published_at"), get("headline"))
        # json.loads makes only exact str, so type() is isinstance() here
        if not (type(aid) is str and aid and type(company) is str and company
                and type(source) is str and source and type(stamp) is str and stamp
                and type(headline) is str and headline):
            missing = [k for k in REQUIRED_FIELDS if not isinstance(get(k), str) or not obj[k]]
            report(f"line {lineno}: missing or empty field(s) {missing}")
            continue
        try:
            ts = parse_timestamp(stamp)
        except ValueError as exc:
            report(f"line {lineno}: bad published_at ({exc})")
            continue
        body, language = get("body"), get("language", "de")
        if body is not None and type(body) is not str:
            report(f"line {lineno}: body must be a string or null ({type(body).__name__})")
            continue
        if type(language) is not str:
            report(f"line {lineno}: language must be a string ({type(language).__name__})")
            continue
        if "\\u" in line:  # only an escape decodes to a lone surrogate, which UTF-8 cannot write
            try:
                "".join((aid, company, source, headline, body or "", language)).encode("utf-8")
            except UnicodeEncodeError:
                report(f"line {lineno}: lone surrogate escape in a text field")
                continue
        if aid in seen_ids:
            report(f"line {lineno}: duplicate id {aid!r}")
            continue
        seen_ids.add(aid)
        yield NewsArticle(aid, share(company, company), share(source, source), ts, headline, body,
                          share(language, language)), stamp


def prescored_table(path: str | Path) -> dict[str, ClassProbabilities]:
    """The table PrescoredProvider.from_file(path) holds."""
    table = {}
    for lineno, (aid, n, u, p) in _records(path, *PRESCORED_FIELDS):
        if aid in table:
            raise ValueError(f"{path}: line {lineno}: duplicate id {aid!r}")
        probs = table[aid] = ClassProbabilities(n, u, p)
        try:
            _validate(probs)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return table


def read_scored(path: str | Path) -> Iterator[ScoredArticle]:
    """Yield the records of a file written by write_scored, one line at a time."""
    for lineno, (aid, company, source, stamp, score) in _records(path, *SCORED_FIELDS):
        if not -1.0 <= score <= 1.0:
            raise ValueError(f"{path}: line {lineno}: 'score' must be in [-1, 1], got {score!r}")
        try:
            ts = parse_timestamp(stamp)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad published_at ({exc})") from None
        yield ScoredArticle(aid, company, source, ts, score)


def _records(path: str | Path, texts: tuple[str, ...], numbers: tuple[str, ...]):
    """Yield (line number, the values of texts then numbers) for each non-blank JSON line."""
    names = texts + numbers
    kinds = (str,) * len(texts) + (float,) * len(numbers)
    take = itemgetter(*names)
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            obj = json_object_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        try:
            values = take(obj)
        except KeyError as exc:
            raise ValueError(f"{path}: line {lineno}: missing field {exc.args[0]!r}") from None
        # a line of exact kinds and finite floats is taken as read; config_value
        # turns an integer into a float and names the first field of a wrong kind
        if tuple(map(type, values)) != kinds or not math.isfinite(sum(values[len(texts):])):
            where = f"{path}: line {lineno}"
            values = [config_value(obj, key, kind, where) for key, kind in zip(names, kinds)]
        yield lineno, values
