"""The four-pass article filter, kept as a reference for tests.

These are the earlier ``sentindex.corpus`` stage functions: each stage
partitions the survivors of the one before, and the headline and body are
lowercased again for every keyword and phrase tested. They are slow but easy
to read, and ``sentindex.corpus.run_filter_pipeline`` must reproduce their
kept articles and every removal list, in order. The kept articles here are
copies, each with its lowercased headline and no body, as the
``FilterResult.kept`` of the package builds them.
"""

from __future__ import annotations

from typing import NamedTuple

from sentindex.corpus import FilterConfig, NewsArticle


class FilterResult(NamedTuple):
    kept: list[NewsArticle]
    removed_by_stage: dict[str, list[NewsArticle]]


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
