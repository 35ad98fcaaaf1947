"""Article loading, relevance/hygiene filtering, and headline normalization.

The filter runs four stages in one pass over the articles: per-company
exclusion keywords, auto-generated-content phrases, duplicate removal, then
the headline length gate. Each article is removed by the first stage it
fails; the survivors get a lowercased headline and no body.
"""

from __future__ import annotations

from datetime import datetime
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .inputs import (
    config_from_dict, config_value, json_object_line, load_json_object, parse_timestamp, read_lines, record)


class NewsArticle(NamedTuple):
    id: str
    company_id: str
    source: str
    published_at: datetime  # always timezone-aware
    headline: str
    body: str | None = None
    language: str = "de"


@record
class FilterConfig(NamedTuple):
    """Filter rules; keywords and phrases match lowercased text, so they must be lower case."""

    exclusions: dict[str, tuple[str, ...]] = {}
    auto_generated_phrases: tuple[str, ...] = ()
    max_headline_tokens: int = 1000

    def _check(self) -> None:
        if self.max_headline_tokens < 1:
            raise ValueError(f"max_headline_tokens must be >= 1, got {self.max_headline_tokens}")
        # an empty rule matches every article, one with upper case none
        for company, keywords in self.exclusions.items():
            for k in keywords:
                if not k or k != k.lower():
                    raise ValueError(f"exclusion keyword {k!r} of {company!r} must be lower case and not empty")
        for p in self.auto_generated_phrases:
            if not p or p != p.lower():
                raise ValueError(f"auto-generated phrase {p!r} must be lower case and not empty")


@record
class LoadReport(NamedTuple):
    articles: list[NewsArticle]
    diagnostics: list[str] = []


REQUIRED_FIELDS = ("id", "company_id", "source", "published_at", "headline")


def load_articles(path: str | Path) -> LoadReport:
    """Load a JSON-lines article file in one pass: the articles of read_articles and its diagnostics."""
    diagnostics: list[str] = []
    return LoadReport([a for a, _ in read_articles(path, diagnostics.append)], diagnostics)


def read_articles(path: str | Path, report: Callable[[str], object]) -> Iterator[tuple[NewsArticle, str]]:
    """Yield each article of a JSON-lines file with its published_at text as read, in file order.

    Each malformed line and repeated id goes to report as it is read, one
    diagnostic per problem naming the line number, and is skipped; blank
    lines are ignored. A line must be a JSON object whose required fields are
    non-empty strings, whose body is a string or null and whose language is a
    string; none of these may hold a lone surrogate, such as the escape
    "\\ud800". A line that is not UTF-8 is reported with its own decode error
    and skipped in the same way. An unreadable file raises OSError.
    """
    seen_ids: set[str] = set()
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
        yield NewsArticle(aid, company, source, ts, headline, body, language), stamp


def load_filter_config(path: str | Path) -> FilterConfig:
    return config_from_dict(FilterConfig, load_json_object(path), path, exclusions=_exclusions)


def _exclusions(obj: dict, where: str) -> dict[str, tuple[str, ...]]:
    return {company: config_value(obj, company, list, where) for company in obj}


class FilterResult(NamedTuple):
    kept: list[NewsArticle]
    removed_by_stage: dict[str, list[NewsArticle]]

    @property
    def removed(self) -> list[NewsArticle]:
        return [a for stage in self.removed_by_stage.values() for a in stage]


def run_filter_pipeline(articles: list[NewsArticle], config: FilterConfig) -> FilterResult:
    """Filter articles and report removals per stage, each list in input order.

    An article is removed by the first stage it fails, in the order of
    removed_by_stage: an exclusion keyword of its company, then an
    auto-generated phrase, each a plain substring of the lowercased headline
    and body; then a duplicate, which is every copy of a (company_id,
    lowercased headline) among the survivors of the first two stages but the
    earliest (ties on published_at break by id); then a headline of more
    than max_headline_tokens tokens, a token being a maximal run of
    non-whitespace characters. A kept article has its headline lowercased
    and its body dropped.
    """
    exclusions, phrases = config.exclusions, config.auto_generated_phrases
    # heads[i] is passed[i]'s lowercased headline, and earliest maps company -> lowercased
    # headline -> earliest copy: no tuple per article, which would raise the peak memory
    by_keyword, by_phrase, passed, heads = [], [], [], []
    earliest: dict[str, dict[str, NewsArticle]] = {}
    for a in articles:
        headline = a.headline.lower()
        keywords = exclusions.get(a.company_id)
        if keywords or phrases:
            text = f"{headline}\n{a.body.lower()}" if a.body else headline
            if keywords and any(k in text for k in keywords):
                by_keyword.append(a)
                continue
            if any(p in text for p in phrases):
                by_phrase.append(a)
                continue
        passed.append(a)
        heads.append(headline)
        by_headline = earliest.setdefault(a.company_id, {})
        cur = by_headline.get(headline)
        if cur is None or (a.published_at, a.id) < (cur.published_at, cur.id):
            by_headline[headline] = a

    kept, by_dedup, by_length = [], [], []
    for a, headline in zip(passed, heads):
        if earliest[a.company_id][headline] is not a:
            by_dedup.append(a)
        elif len(headline.split()) > config.max_headline_tokens:
            by_length.append(a)
        else:
            kept.append(a._replace(headline=headline, body=None))
    return FilterResult(kept, {"exclusion_keyword": by_keyword, "auto_generated": by_phrase,
                               "duplicate": by_dedup, "headline_length": by_length})


def write_articles(path: str | Path, articles: list[NewsArticle]) -> None:
    """Write one JSON object per line, as json.dumps(..., ensure_ascii=False) would.

    encode_basestring is the function json.dumps quotes each string with; the
    timestamp needs no escaping. One write per record and no list of lines
    keeps memory flat.
    """
    q = encode_basestring
    with open(path, "w", encoding="utf-8") as fh:
        write = fh.write
        for a in articles:
            body = "null" if a.body is None else q(a.body)
            write(f'{{"id": {q(a.id)}, "company_id": {q(a.company_id)}, "source": {q(a.source)}, '
                  f'"published_at": "{a.published_at.isoformat()}", "headline": {q(a.headline)}, '
                  f'"body": {body}, "language": {q(a.language)}}}\n')
