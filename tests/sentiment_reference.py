"""The record loop of filter and score as json.dumps/keyword code, kept as a bit-exact reference.

These are the earlier ``load_articles``, ``write_articles``, ``_validate``,
``polarity_score``, ``lexicon_score``, ``score_articles`` and
``write_scored``: each record written through ``json.dumps``, each field
looked up by name, the winner picked by ``max`` over keyed tuples. The
package's versions must reproduce their results value for value, their
files byte for byte and their errors type for type and message for message;
the loader differs only on the lines it now rejects.
"""

from __future__ import annotations

import json
from pathlib import Path

from sentindex.corpus import REQUIRED_FIELDS, LoadReport, NewsArticle
from sentindex.inputs import parse_timestamp
from sentindex.sentiment import PROB_SUM_TOL, ClassProbabilities, ScoredArticle


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
