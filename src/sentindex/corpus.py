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
from pathlib import Path
from typing import NamedTuple

from .inputs import load_json_object


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


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 timestamp with offset; naive timestamps are rejected."""
    # Python 3.10 fromisoformat does not accept a trailing Z
    if raw.endswith("Z") or raw.endswith("z"):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError("timestamp lacks a UTC offset")
    return ts


def load_articles(path: str | Path) -> LoadReport:
    """Load a JSON-lines article file.

    Malformed lines and duplicate ids are reported in the diagnostics, one
    entry per problem naming the line number, and skipped; blank lines are
    ignored. An unreadable file raises OSError.
    """
    report = LoadReport(articles=[])
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                report.diagnostics.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            missing = [k for k in REQUIRED_FIELDS if not isinstance(obj.get(k), str) or not obj[k]]
            if missing:
                report.diagnostics.append(f"line {lineno}: missing or empty field(s) {missing}")
                continue
            try:
                ts = parse_timestamp(obj["published_at"])
            except ValueError as exc:
                report.diagnostics.append(f"line {lineno}: bad published_at ({exc})")
                continue
            if obj["id"] in seen_ids:
                report.diagnostics.append(f"line {lineno}: duplicate id {obj['id']!r}")
                continue
            seen_ids.add(obj["id"])
            report.articles.append(NewsArticle(
                id=obj["id"],
                company_id=obj["company_id"],
                source=obj["source"],
                published_at=ts,
                headline=obj["headline"],
                body=obj.get("body"),
                language=obj.get("language", "de"),
            ))
    return report


def load_filter_config(path: str | Path) -> FilterConfig:
    obj = load_json_object(path)
    return FilterConfig(
        exclusions={k: tuple(v) for k, v in obj.get("exclusions", {}).items()},
        auto_generated_phrases=tuple(obj.get("auto_generated_phrases", [])),
        max_headline_tokens=int(obj.get("max_headline_tokens", 1000)),
    )


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
    with open(path, "w", encoding="utf-8") as fh:
        for a in articles:
            fh.write(json.dumps({
                "id": a.id,
                "company_id": a.company_id,
                "source": a.source,
                "published_at": a.published_at.isoformat(),
                "headline": a.headline,
                "body": a.body,
                "language": a.language,
            }, ensure_ascii=False) + "\n")
