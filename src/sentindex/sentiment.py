"""Polarity scoring: class probabilities in, signed score in [-1, 1] out.

Providers turn a headline into three class probabilities; the polarity map
collapses them into one number. Two providers ship: a pre-scored file lookup
keyed by article id, and a deterministic lexicon scorer so the pipeline runs
without any model dependency.
"""

from __future__ import annotations

import json
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

from .corpus import NewsArticle, parse_timestamp
from .inputs import load_json_object

PROB_SUM_TOL = 1e-6


class ClassProbabilities(NamedTuple):
    p_negative: float
    p_neutral: float
    p_positive: float


def _validate(probs: ClassProbabilities) -> None:
    values = (probs.p_negative, probs.p_neutral, probs.p_positive)
    if any(not (0.0 <= p <= 1.0) for p in values):
        raise ValueError(f"class probabilities outside [0, 1]: {values}")
    if abs(sum(values) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"class probabilities sum to {sum(values)!r}, not 1: {values}")


def polarity_score(probs: ClassProbabilities, mode: str = "winner") -> float:
    """Collapse class probabilities to a signed score.

    Default "winner" mode returns the winning class probability times its
    multiplier (-1 negative, 0 neutral, +1 positive); exact ties prefer
    positive, then neutral, then negative. "expectation" mode returns
    p_positive - p_negative instead.
    """
    _validate(probs)
    if mode == "expectation":
        return probs.p_positive - probs.p_negative
    if mode != "winner":
        raise ValueError(f"unknown polarity mode {mode!r}")
    candidates = (
        (probs.p_negative, 0, -1.0),
        (probs.p_neutral, 1, 0.0),
        (probs.p_positive, 2, 1.0),
    )
    p, _, multiplier = max(candidates, key=lambda c: (c[0], c[1]))
    return p * multiplier


def lexicon_score(headline: str, lexicon: dict[str, float]) -> ClassProbabilities:
    """Score a headline as the mean lexicon value over matched tokens.

    s = 0 when nothing matches. Probabilities are (max(-s,0), 1-|s|, max(s,0)),
    which always form a valid distribution for s in [-1, 1].
    """
    hits = [lexicon[token] for token in headline.split() if token in lexicon]
    s = sum(hits) / len(hits) if hits else 0.0
    return ClassProbabilities(
        p_negative=max(-s, 0.0),
        p_neutral=1.0 - abs(s),
        p_positive=max(s, 0.0),
    )


class PrescoredProvider:
    """Look up pre-computed class probabilities by article id."""

    def __init__(self, table: dict[str, ClassProbabilities]):
        self._table = table

    @classmethod
    def from_file(cls, path: str | Path) -> "PrescoredProvider":
        table = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                obj = json.loads(line)
                table[obj["id"]] = ClassProbabilities(
                    p_negative=float(obj["p_negative"]),
                    p_neutral=float(obj["p_neutral"]),
                    p_positive=float(obj["p_positive"]),
                )
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
        return cls({str(k): float(v) for k, v in load_json_object(path).items()})

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
    out = []
    for a in articles:
        score = polarity_score(provider.probabilities(a), mode=mode)
        out.append(ScoredArticle(
            id=a.id, company_id=a.company_id, source=a.source,
            published_at=a.published_at, score=score,
        ))
    return out


def write_scored(path: str | Path, scored: list[ScoredArticle]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in scored:
            fh.write(json.dumps({
                "id": s.id,
                "company_id": s.company_id,
                "source": s.source,
                "published_at": s.published_at.isoformat(),
                "score": s.score,
            }, ensure_ascii=False) + "\n")


def load_scored(path: str | Path) -> list[ScoredArticle]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            out.append(ScoredArticle(
                id=obj["id"],
                company_id=obj["company_id"],
                source=obj["source"],
                published_at=parse_timestamp(obj["published_at"]),
                score=float(obj["score"]),
            ))
    return out
