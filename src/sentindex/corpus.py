"""Article loading, relevance/hygiene filtering, and headline normalization.

The filter chain runs in four stages: per-company exclusion keywords,
auto-generated-content phrases, duplicate removal, then lowercasing plus the
headline length gate. Each stage partitions its input into (kept, removed);
nothing is modified except the final normalization step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple

from .inputs import (
    config_from_dict, config_value, decoded_lines, load_json_object, parse_json, parse_timestamp)


class NewsArticle(NamedTuple):
    id: str
    company_id: str
    source: str
    published_at: datetime  # always timezone-aware
    headline: str
    body: str | None = None
    language: str = "de"


@dataclass(frozen=True)
class FilterConfig:
    """Filter rules; keywords and phrases must already be lowercase."""

    exclusions: dict[str, tuple[str, ...]] = field(default_factory=dict)
    auto_generated_phrases: tuple[str, ...] = ()
    max_headline_tokens: int = 1000

    def __post_init__(self) -> None:
        if self.max_headline_tokens < 1:
            raise ValueError(f"max_headline_tokens must be >= 1, got {self.max_headline_tokens}")


@dataclass
class LoadReport:
    articles: list[NewsArticle]
    diagnostics: list[str] = field(default_factory=list)


REQUIRED_FIELDS = ("id", "company_id", "source", "published_at", "headline")


def load_articles(path: str | Path) -> LoadReport:
    """Load a JSON-lines article file.

    Malformed lines and duplicate ids are reported in the diagnostics, one
    entry per problem naming the line number, and skipped; blank lines are
    ignored. A line must be a JSON object whose required fields are non-empty
    strings, whose body is a string or null and whose language is a string;
    none of these may hold a lone surrogate, such as the escape "\\ud800".
    A line that is not UTF-8 is reported and skipped in the same way. An
    unreadable file raises OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return _load_lines(enumerate(fh, start=1), LoadReport(articles=[]))
        except UnicodeDecodeError:
            pass
    # a text file decodes whole chunks, so it cannot skip one line: start
    # again with each line decoded on its own
    diagnostics: list[str] = []
    lines = decoded_lines(path, lambda lineno, exc: diagnostics.append(f"line {lineno}: not UTF-8 ({exc})"))
    return _load_lines(lines, LoadReport([], diagnostics))


def _load_lines(lines, report: LoadReport) -> LoadReport:
    """Add the articles of the (line number, text) pairs to report, or a diagnostic per bad line."""
    articles, diagnostics = report.articles, report.diagnostics
    seen_ids: set[str] = set()
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            obj = parse_json(line)
        except json.JSONDecodeError as exc:
            diagnostics.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if type(obj) is not dict:
            diagnostics.append(f"line {lineno}: not a JSON object ({type(obj).__name__})")
            continue
        get = obj.get
        aid, company, source, stamp, headline = (
            get("id"), get("company_id"), get("source"), get("published_at"), get("headline"))
        # json.loads makes only exact str, so type() is isinstance() here
        if not (type(aid) is str and aid and type(company) is str and company
                and type(source) is str and source and type(stamp) is str and stamp
                and type(headline) is str and headline):
            missing = [k for k in REQUIRED_FIELDS if not isinstance(get(k), str) or not obj[k]]
            diagnostics.append(f"line {lineno}: missing or empty field(s) {missing}")
            continue
        try:
            ts = parse_timestamp(stamp)
        except ValueError as exc:
            diagnostics.append(f"line {lineno}: bad published_at ({exc})")
            continue
        body, language = get("body"), get("language", "de")
        if body is not None and type(body) is not str:
            diagnostics.append(f"line {lineno}: body must be a string or null ({type(body).__name__})")
            continue
        if type(language) is not str:
            diagnostics.append(f"line {lineno}: language must be a string ({type(language).__name__})")
            continue
        if "\\u" in line:  # only an escape decodes to a lone surrogate, which UTF-8 cannot write
            try:
                "".join((aid, company, source, headline, body or "", language)).encode("utf-8")
            except UnicodeEncodeError:
                diagnostics.append(f"line {lineno}: lone surrogate escape in a text field")
                continue
        if aid in seen_ids:
            diagnostics.append(f"line {lineno}: duplicate id {aid!r}")
            continue
        seen_ids.add(aid)
        articles.append(NewsArticle(aid, company, source, ts, headline, body, language))
    return report


def load_filter_config(path: str | Path) -> FilterConfig:
    return config_from_dict(FilterConfig, load_json_object(path), path, exclusions=_exclusions)


def _exclusions(obj: dict, where: str) -> dict[str, tuple[str, ...]]:
    return {company: config_value(obj, company, list, where) for company in obj}


def _text_blob(article: NewsArticle) -> str:
    blob = article.headline.lower()
    if article.body:
        blob += "\n" + article.body.lower()
    return blob


def filter_exclusion_keywords(
    articles: list[NewsArticle], config: FilterConfig
) -> tuple[list[NewsArticle], list[NewsArticle]]:
    """Drop articles whose company has an exclusion keyword in headline or body.

    Matching is plain substring on lowercased text; companies without a rule
    pass unchanged.
    """
    kept, removed = [], []
    for a in articles:
        keywords = config.exclusions.get(a.company_id, ())
        if keywords and any(k in _text_blob(a) for k in keywords):
            removed.append(a)
        else:
            kept.append(a)
    return kept, removed


def remove_auto_generated(
    articles: list[NewsArticle], config: FilterConfig
) -> tuple[list[NewsArticle], list[NewsArticle]]:
    """Drop articles containing any auto-generated-content phrase."""
    kept, removed = [], []
    for a in articles:
        if config.auto_generated_phrases and any(
            p in _text_blob(a) for p in config.auto_generated_phrases
        ):
            removed.append(a)
        else:
            kept.append(a)
    return kept, removed


def deduplicate(articles: list[NewsArticle]) -> tuple[list[NewsArticle], list[NewsArticle]]:
    """Keep only the earliest article per (company_id, lowercased headline).

    Ties on published_at break by lexicographic id. Output preserves input
    order among survivors.
    """
    best: dict[tuple[str, str], NewsArticle] = {}
    for a in articles:
        key = (a.company_id, a.headline.lower())
        cur = best.get(key)
        if cur is None or (a.published_at, a.id) < (cur.published_at, cur.id):
            best[key] = a
    kept, removed = [], []
    for a in articles:
        if best[(a.company_id, a.headline.lower())] is a:
            kept.append(a)
        else:
            removed.append(a)
    return kept, removed


def normalize_and_gate(article: NewsArticle, config: FilterConfig) -> NewsArticle | None:
    """Lowercase the headline and drop the body; None if the headline is too long.

    A token is a maximal run of non-whitespace characters. The limit is
    strict: exactly max_headline_tokens tokens still passes.
    """
    headline = article.headline.lower()
    if len(headline.split()) > config.max_headline_tokens:
        return None
    return article._replace(headline=headline, body=None)


@dataclass
class FilterResult:
    kept: list[NewsArticle]
    removed_by_stage: dict[str, list[NewsArticle]]

    @property
    def removed(self) -> list[NewsArticle]:
        return [a for stage in self.removed_by_stage.values() for a in stage]


def run_filter_pipeline(articles: list[NewsArticle], config: FilterConfig) -> FilterResult:
    """Apply all filter stages in order and report removals per stage."""
    kept, by_keyword = filter_exclusion_keywords(articles, config)
    kept, by_phrase = remove_auto_generated(kept, config)
    kept, by_dedup = deduplicate(kept)
    survivors, by_length = [], []
    for a in kept:
        norm = normalize_and_gate(a, config)
        if norm is None:
            by_length.append(a)
        else:
            survivors.append(norm)
    return FilterResult(
        kept=survivors,
        removed_by_stage={
            "exclusion_keyword": by_keyword,
            "auto_generated": by_phrase,
            "duplicate": by_dedup,
            "headline_length": by_length,
        },
    )


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
