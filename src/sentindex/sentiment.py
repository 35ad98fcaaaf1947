"""Polarity scoring: class probabilities in, signed score in [-1, 1] out.

Providers turn a headline into three class probabilities; the polarity map
collapses them into one number. Two providers ship: a pre-scored file lookup
keyed by article id, and a deterministic lexicon scorer so the pipeline runs
without any model dependency.
"""

from __future__ import annotations

import json
import math
import os
import re
from datetime import datetime
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .inputs import (
    ISOFORMAT_SEPARATORS, JSON_FLOAT, JSON_TEXT, add_in_order, config_value, dumps_pattern, isoformat_text,
    json_object_line, load_json_object, parse_timestamp, read_lines)

if TYPE_CHECKING:
    from .corpus import NewsArticle

PROB_SUM_TOL = 1e-6
PRESCORED_FIELDS = (("id",), ("p_negative", "p_neutral", "p_positive"))
SCORED_FIELDS = (("id", "company_id", "source", "published_at"), ("score",))


class ClassProbabilities(NamedTuple):
    p_negative: float
    p_neutral: float
    p_positive: float


def _validate(probs: ClassProbabilities) -> None:
    n, u, p = probs
    if not (0.0 <= n <= 1.0 and 0.0 <= u <= 1.0 and 0.0 <= p <= 1.0):
        raise ValueError(f"class probabilities outside [0, 1]: {(n, u, p)}")
    # sum(), not a + chain: from Python 3.12 sum() of floats is compensated
    total = sum((n, u, p))
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"class probabilities sum to {total!r}, not 1: {(n, u, p)}")


def polarity_score(probs: ClassProbabilities, mode: str = "winner") -> float:
    """Collapse class probabilities to a signed score.

    Default "winner" mode returns the winning class probability times its
    multiplier (-1 negative, 0 neutral, +1 positive); exact ties prefer
    positive, then neutral, then negative. "expectation" mode returns
    p_positive - p_negative instead.
    """
    _validate(probs)
    n, u, p = probs
    if mode == "winner":
        if p >= u and p >= n:
            return p * 1.0
        if u >= n:
            return u * 0.0
        return n * -1.0
    if mode == "expectation":
        return p - n
    raise ValueError(f"unknown polarity mode {mode!r}")


def lexicon_score(headline: str, lexicon: dict[str, float]) -> ClassProbabilities:
    """Score a headline as the mean lexicon value over matched tokens.

    s = 0 when nothing matches. Probabilities are (max(-s,0), 1-|s|, max(s,0)),
    which always form a valid distribution for s in [-1, 1].
    """
    hits = [lexicon[token] for token in headline.split() if token in lexicon]
    s = add_in_order(hits) / len(hits) if hits else 0.0
    return ClassProbabilities(max(-s, 0.0), 1.0 - abs(s), max(s, 0.0))


class PrescoredProvider:
    """Look up pre-computed class probabilities by article id."""

    def __init__(self, table: dict[str, ClassProbabilities]):
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "PrescoredProvider":
        """Read id and the three probabilities per line.

        A line in the layout json.dumps writes, these four keys in this order
        and nothing else (see _layout), is read by one pattern match; any
        other non-blank line, or one whose numbers do not add to a finite
        value, by _decoded, which gives the same values or names the fault. A
        repeated id, or probabilities outside [0, 1] or not summing to 1,
        raises ValueError naming the file and the line, whether or not any
        article asks for that id.
        """
        table = {}
        new = tuple.__new__  # ClassProbabilities checks nothing, and namedtuple's __new__ is Python code
        layout = re.compile(_layout(*PRESCORED_FIELDS)).fullmatch  # compiled on the first call, then cached by re
        for lineno, line in read_lines(path):
            if (m := layout(line)) is not None:  # the groups are the id and the numbers' JSON text
                aid, n, u, p = m.groups()
                n, u, p = float(n), float(u), float(p)
                if not math.isfinite(n + u + p):  # a number overflows, which the decoded line names
                    m = None
            elif not line.strip():
                continue
            if m is None:
                aid, n, u, p = _decoded(line, f"{path}: line {lineno}", *PRESCORED_FIELDS)
            if aid in table:
                raise ValueError(f"{path}: line {lineno}: duplicate id {aid!r}")
            probs = table[aid] = new(ClassProbabilities, (n, u, p))
            try:
                _validate(probs)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        return cls(table)

    def probabilities(self, article: NewsArticle) -> ClassProbabilities:
        try:
            return self._table[article.id]
        except KeyError:
            raise LookupError(f"no pre-scored entry for article id {article.id!r}") from None


class LexiconProvider:
    """Deterministic token-lexicon scorer over the (normalized) headline."""

    def __init__(self, lexicon: dict[str, float]):
        bad = {t: v for t, v in lexicon.items() if not (-1.0 <= v <= 1.0)}
        if bad:
            raise ValueError(f"lexicon values outside [-1, 1]: {bad}")
        self._lexicon = dict(lexicon)

    @classmethod
    def from_file(cls, path: str | Path) -> "LexiconProvider":
        obj = load_json_object(path)
        lexicon = {token: config_value(obj, token, float, path) for token in obj}
        try:
            return cls(lexicon)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def probabilities(self, article: NewsArticle) -> ClassProbabilities:
        return lexicon_score(article.headline, self._lexicon)


class ScoredArticle(NamedTuple):
    id: str
    company_id: str
    source: str
    published_at: datetime
    score: float


def score_articles(articles: list[NewsArticle], provider, mode: str = "winner") -> list[ScoredArticle]:
    """Score every article with the provider, preserving input order."""
    probabilities = provider.probabilities
    return [
        ScoredArticle(a.id, a.company_id, a.source, a.published_at,
                      polarity_score(probabilities(a), mode))
        for a in articles
    ]


def write_scored(path: str | Path, scored: list[ScoredArticle]) -> None:
    """Write one JSON object per line, as json.dumps(..., ensure_ascii=False) would (see _scored_line)."""
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for s in scored:
            write(_scored_line(s.id, s.company_id, s.source, s.published_at.isoformat(), s.score))


def score_to_file(path: str | Path, articles: Iterable[tuple[NewsArticle, str]], provider,
                  mode: str = "winner") -> int:
    """Score each (article, published_at text) pair and write its line as write_scored would; return the count.

    One article is held at a time. The lines go to a file beside path, which
    replaces path only once every article is scored; on any error it is
    removed, and path is left as it was. The published_at text is written as
    read when it is already what isoformat() gives (see isoformat_text).
    """
    probabilities = provider.probabilities
    part = f"{os.fspath(path)}.{os.getpid()}.part"
    try:
        fh = open(part, "w", encoding="utf-8")
    except OSError as exc:  # name the output, not the file beside it
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    count = 0
    try:
        with fh:
            write = fh.write
            for a, stamp in articles:
                write(_scored_line(a.id, a.company_id, a.source, isoformat_text(stamp, a.published_at),
                                   polarity_score(probabilities(a), mode)))
                count += 1
        os.replace(part, path)
    except BaseException:
        try:
            os.remove(part)
        except OSError:
            pass
        raise
    return count


def _scored_line(aid: str, company: str, source: str, stamp: str, score: float) -> str:
    """One scored record, as json.dumps(..., ensure_ascii=False) would write it, and a newline.

    Strings are quoted by json.dumps's own encode_basestring and a finite
    float score by float.__repr__, as in json.dumps; any other score is
    written by json.dumps itself. The timestamp text needs no escaping.
    """
    q = encode_basestring
    score = repr(score) if type(score) is float and math.isfinite(score) else json.dumps(score)
    return (f'{{"id": {q(aid)}, "company_id": {q(company)}, "source": {q(source)}, '
            f'"published_at": "{stamp}", "score": {score}}}\n')


def read_scored(path: str | Path) -> Iterator[ScoredArticle]:
    """Yield the records of a file written by write_scored, one line at a time.

    Every non-blank line must be a JSON object whose id, company_id, source
    and published_at are strings and whose score is a number in [-1, 1]; any
    other line raises ValueError naming the file, the line and the field. A
    line in the layout json.dumps writes, these five keys in this order and
    nothing else (see _layout), with a score in [-1, 1], is read by one
    pattern match; any other non-blank line by _decoded, which gives the same
    values or names the fault.
    """
    new, fromisoformat = tuple.__new__, datetime.fromisoformat  # ScoredArticle checks nothing
    layout = re.compile(_layout(*SCORED_FIELDS)).fullmatch  # compiled on the first call, then cached by re
    for lineno, line in read_lines(path):
        if (m := layout(line)) is not None:  # the groups are the texts' values and the score's JSON text
            aid, company, source, stamp, score = m.groups()
            if not -1.0 <= (score := float(score)) <= 1.0:  # out of range or overflowing: the decode names it
                m = None
        elif not line.strip():
            continue
        if m is None:
            aid, company, source, stamp, score = _decoded(line, f"{path}: line {lineno}", *SCORED_FIELDS)
            if not -1.0 <= score <= 1.0:
                raise ValueError(f"{path}: line {lineno}: 'score' must be in [-1, 1], got {score!r}")
        try:  # parse_timestamp's 25-character branch without the call; a trailing Z or z is its to read
            ts = (fromisoformat(stamp) if len(stamp) == 25 and stamp[4:23:3] in ISOFORMAT_SEPARATORS
                  and stamp[24] not in "Zz" else parse_timestamp(stamp))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: bad published_at ({exc})") from None
        yield new(ScoredArticle, (aid, company, source, ts, score))


def load_scored(path: str | Path) -> list[ScoredArticle]:
    """The records of read_scored(path), all read before the list is returned."""
    return list(read_scored(path))


def _decoded(line: str, where: str, texts: tuple[str, ...], numbers: tuple[str, ...]) -> list:
    """The values of texts then numbers on a JSON line that a reader's pattern declines, each number a float.

    Each of texts must be a string and each of numbers a finite number. A
    line that is not a JSON object, lacks a field or holds one of another
    kind raises ValueError naming where and the field; a missing field is
    named before a field of another kind, and of each, the first in the order
    of texts then numbers.
    """
    try:
        obj = json_object_line(line)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    names = texts + numbers
    for key in names:
        if key not in obj:
            raise ValueError(f"{where}: missing field {key!r}")
    # config_value turns an integer into a float and names the first field of a wrong kind
    kinds = (str,) * len(texts) + (float,) * len(numbers)
    return [config_value(obj, key, kind, where) for key, kind in zip(names, kinds)]


def _layout(texts: tuple[str, ...], numbers: tuple[str, ...]) -> str:
    """The pattern of a line as json.dumps writes {text: str, ..., number: float, ...}, with no escape."""
    return dumps_pattern({**dict.fromkeys(texts, JSON_TEXT), **dict.fromkeys(numbers, JSON_FLOAT)})
