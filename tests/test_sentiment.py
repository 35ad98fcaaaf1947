"""Unit and property tests for polarity scoring and providers."""

from __future__ import annotations

import json
import math
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentiment_reference
from sentindex.corpus import NewsArticle
from sentindex.sentiment import (
    ClassProbabilities,
    LexiconProvider,
    PrescoredProvider,
    ScoredArticle,
    _validate,
    lexicon_score,
    load_scored,
    polarity_score,
    score_articles,
    write_scored,
)

TS = datetime(2021, 3, 1, 10, 0, tzinfo=timezone.utc)


def art(id="a1", headline="kurs stabil"):
    return NewsArticle(id=id, company_id="puma", source="wire", published_at=TS,
                       headline=headline)


class TestPolarityScore:
    def test_positive_winner(self):
        assert polarity_score(ClassProbabilities(0.1, 0.2, 0.7)) == 0.7

    def test_negative_winner(self):
        assert polarity_score(ClassProbabilities(0.8, 0.1, 0.1)) == -0.8

    def test_neutral_winner_is_zero(self):
        assert polarity_score(ClassProbabilities(0.2, 0.6, 0.2)) == 0.0

    def test_tie_prefers_positive(self):
        assert polarity_score(ClassProbabilities(0.0, 0.5, 0.5)) == 0.5
        assert polarity_score(ClassProbabilities(0.5, 0.0, 0.5)) == 0.5

    def test_tie_prefers_neutral_over_negative(self):
        assert polarity_score(ClassProbabilities(0.5, 0.5, 0.0)) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            polarity_score(ClassProbabilities(-0.1, 0.6, 0.5))

    def test_rejects_bad_sum_naming_values(self):
        with pytest.raises(ValueError, match="0.2"):
            polarity_score(ClassProbabilities(0.2, 0.2, 0.2))

    def test_expectation_mode(self):
        assert polarity_score(ClassProbabilities(0.2, 0.3, 0.5), mode="expectation") == pytest.approx(0.3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            polarity_score(ClassProbabilities(0.2, 0.3, 0.5), mode="softmax")


class TestLexiconScore:
    def test_mean_of_matches(self):
        probs = lexicon_score("gut sehr_gut egal", {"gut": 1.0, "sehr_gut": 0.5})
        assert probs == ClassProbabilities(0.0, 0.25, 0.75)

    def test_no_hits_is_neutral(self):
        assert lexicon_score("nichts bekannt", {}) == ClassProbabilities(0.0, 1.0, 0.0)

    def test_single_extreme_negative(self):
        assert lexicon_score("skandal", {"skandal": -1.0}) == ClassProbabilities(1.0, 0.0, 0.0)

    def test_exact_token_match_only(self):
        # substrings do not count: "zoom" is not "zoo"
        probs = lexicon_score("zoom meeting", {"zoo": 0.8})
        assert probs.p_neutral == 1.0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=0, max_size=6))
def test_lexicon_probabilities_always_valid(values):
    lexicon = {f"t{i}": v for i, v in enumerate(values)}
    headline = " ".join(lexicon)
    probs = lexicon_score(headline, lexicon)
    total = probs.p_negative + probs.p_neutral + probs.p_positive
    assert abs(total - 1.0) < 1e-9
    for p in (probs.p_negative, probs.p_neutral, probs.p_positive):
        assert -1e-12 <= p <= 1.0 + 1e-12
    # polarity accepts every lexicon output and stays in range
    score = polarity_score(probs)
    assert -1.0 <= score <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1))
def test_winner_magnitude_is_max_probability(a, b):
    # build a valid distribution from two free parameters
    total = a + b
    if total > 1.0:
        a, b = a / total, b / total
    probs = ClassProbabilities(a, 1.0 - a - b if 1.0 - a - b > 0 else 0.0, b)
    if abs((probs.p_negative + probs.p_neutral + probs.p_positive) - 1.0) > 1e-9:
        return
    score = polarity_score(probs)
    top = max(probs.p_negative, probs.p_neutral, probs.p_positive)
    if score != 0.0:
        assert abs(score) == top
    else:
        # zero means neutral won (possibly by tie-break) or the winner is 0
        assert probs.p_neutral == top or top == 0.0


class TestProviders:
    def test_prescored_lookup(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps(
            {"id": "a1", "p_negative": 0.1, "p_neutral": 0.2, "p_positive": 0.7}) + "\n")
        provider = PrescoredProvider.from_file(path)
        assert provider.probabilities(art("a1")) == ClassProbabilities(0.1, 0.2, 0.7)

    def test_prescored_missing_id_names_article(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("")
        provider = PrescoredProvider.from_file(path)
        with pytest.raises(LookupError, match="a9"):
            provider.probabilities(art("a9"))

    def test_lexicon_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="-1.5"):
            LexiconProvider({"wort": -1.5})

    def test_score_articles_preserves_order_and_fields(self):
        provider = LexiconProvider({"gut": 0.8})
        articles = [art("a1", "alles gut"), art("a2", "nichts neu")]
        scored = score_articles(articles, provider)
        assert [s.id for s in scored] == ["a1", "a2"]
        assert scored[0].score == 0.8
        assert scored[1].score == 0.0
        assert scored[0].company_id == "puma" and scored[0].source == "wire"

    def test_score_articles_empty(self):
        assert score_articles([], LexiconProvider({})) == []

    def test_scoring_is_repeatable_bit_for_bit(self):
        provider = LexiconProvider({"gut": 0.7, "schlecht": -0.9})
        a = art("a1", "gut schlecht gut")
        first = polarity_score(provider.probabilities(a))
        for _ in range(5):
            assert polarity_score(provider.probabilities(a)) == first


def _result(fn, *args):
    """repr of fn(*args), or the type and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the result under comparison
        return type(exc), str(exc)


def _triples(rng: random.Random) -> list[tuple]:
    """Probability triples that hit every branch of the polarity map and its checks."""
    edge = [0.0, -0.0, 1.0, 0.5, 0.25, 1 / 3, 2 / 3, 0.1, 0.2, 0.7, 0, 1,
            math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), 1.0 + 2e-6, -1e-300,
            math.nan, math.inf]
    out = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),
           (-0.0, 0.5, 0.5), (0.5, -0.0, 0.5), (0.5, 0.5, -0.0), (1 / 3, 1 / 3, 1 / 3),
           (0.0, 0.0, 0.0), (-0.0, 1.0, -0.0), (1.0, -0.0, 0.0)]
    for _ in range(400):
        kind = rng.randrange(5)
        if kind == 0:  # a valid distribution
            a, b = sorted((rng.random(), rng.random()))
            t = [a, b - a, 1.0 - b]
        elif kind == 1:  # an exact tie between two classes, in any pairing
            x = rng.choice([rng.random() / 2, 0.25, 0.5, 0.4, 1 / 3])
            t = [x, x, 1.0 - 2 * x]
        elif kind == 2:  # within or just outside the sum tolerance
            a, b = sorted((rng.random(), rng.random()))
            t = [a, b - a, 1.0 - b + rng.choice([5e-7, -5e-7, 2e-6, -2e-6, 1e-6, 0.0])]
        elif kind == 3:  # edge values anywhere
            t = [rng.choice(edge) for _ in range(3)]
        else:  # rounded values, so that ties and sums of exactly 1 recur
            a = rng.randrange(0, 11) / 10
            b = rng.randrange(0, 11 - int(a * 10)) / 10
            t = [a, b, round(1.0 - a - b, 1)]
        rng.shuffle(t)
        out.append(tuple(t))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_polarity_matches_reference_bit_for_bit(seed):
    for triple in _triples(random.Random(seed)):
        probs = ClassProbabilities(*triple)
        assert _result(_validate, probs) == _result(sentiment_reference._validate, probs), triple
        for mode in ("winner", "expectation", "softmax"):
            assert (_result(polarity_score, probs, mode)
                    == _result(sentiment_reference.polarity_score, probs, mode)), (triple, mode)
        assert _result(polarity_score, probs) == _result(sentiment_reference.polarity_score, probs)


@pytest.mark.parametrize("seed", range(4))
def test_lexicon_and_scoring_match_reference_bit_for_bit(seed):
    rng = random.Random(seed)
    values = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, -1, 0, 1, 1 / 3, -2 / 3]
    lexicon = {f"w{i}": rng.choice(values + [rng.uniform(-1, 1)]) for i in range(30)}
    words = list(lexicon) + ["other", "w", "w1x"]
    articles = [art(f"a{i}", " ".join(rng.choice(words) for _ in range(rng.randrange(0, 9))) or "x")
                for i in range(300)]
    for a in articles:
        assert (_result(lexicon_score, a.headline, lexicon)
                == _result(sentiment_reference.lexicon_score, a.headline, lexicon))
    provider = LexiconProvider(lexicon)
    for mode in ("winner", "expectation", "softmax"):
        assert (_result(score_articles, articles, provider, mode)
                == _result(sentiment_reference.score_articles, articles, provider, mode))
    table = dict(zip((a.id for a in articles), _triples(rng)))
    prescored = PrescoredProvider({k: ClassProbabilities(*t) for k, t in table.items()})
    for a in articles:  # one article at a time, so that an error stops only its own record
        for mode in ("winner", "expectation"):
            assert (_result(score_articles, [a], prescored, mode)
                    == _result(sentiment_reference.score_articles, [a], prescored, mode))


TRICKY = '"\\/\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f\x80\xa0\xe4\xdf€  ﻿\U0001F600 aZ'
text_st = st.text(st.one_of(st.sampled_from(TRICKY), st.characters(blacklist_categories=("Cs",))),
                  max_size=20)
offset_st = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                          max_value=timedelta(hours=23, minutes=59))
stamp_st = st.builds(lambda d, off: d.replace(tzinfo=timezone(off)),
                     st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
                     offset_st)


class _LoudFloat(float):
    """A float subclass with its own repr, which json.dumps does not use."""

    def __repr__(self):
        return f"_LoudFloat({float(self)!r})"


# a score reaches write_scored through the library as any number a provider returns
score_st = st.one_of(st.floats(), st.integers(), st.booleans(),
                     st.floats().map(_LoudFloat), st.floats().map(np.float64))
scored_st = st.builds(ScoredArticle, text_st, text_st, text_st, stamp_st, score_st)


@settings(max_examples=150, deadline=None)
@given(st.lists(scored_st, max_size=8))
def test_write_scored_matches_reference_bytes(scored):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
        write_scored(ours, scored)
        sentiment_reference.write_scored(theirs, scored)
        assert ours.read_bytes() == theirs.read_bytes()


class TestScoredFiles:
    RECORD = {"id": "a1", "company_id": "puma", "source": "wire",
              "published_at": "2021-03-01T10:00:00+01:00", "score": 0.5}

    def write(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        scored = [ScoredArticle("a1", "puma", "wire", TS, -0.7),
                  ScoredArticle("aä2", "bmw", "post", TS, 1.0)]
        write_scored(path, scored)
        assert load_scored(path) == scored

    def test_integer_score_read_as_float(self, tmp_path):
        path = tmp_path / "scored.jsonl"
        self.write(path, [json.dumps({**self.RECORD, "score": 1}), ""])
        [record] = load_scored(path)
        assert type(record.score) is float and record.score == 1.0

    @pytest.mark.parametrize("line, message", [
        ("[1]", "line 2: not a JSON object (list)"),
        ('"x"', "line 2: not a JSON object (str)"),
        ("{oops", "line 2: invalid JSON"),
        (json.dumps({k: v for k, v in RECORD.items() if k != "source"}), "line 2: missing field 'source'"),
        (json.dumps({**RECORD, "score": math.nan}), "line 2: 'score' must be a finite number, got nan"),
        (json.dumps({**RECORD, "score": -math.inf}), "line 2: 'score' must be a finite number, got -inf"),
        (json.dumps({**RECORD, "score": "0.5"}), "line 2: 'score' must be a finite number, got str"),
        (json.dumps({**RECORD, "score": True}), "line 2: 'score' must be a finite number, got True"),
        (json.dumps({**RECORD, "score": 10 ** 400}), "line 2: 'score' must be a finite number"),
        (json.dumps({**RECORD, "score": 1e308}), "line 2: 'score' must be in [-1, 1], got 1e+308"),
        (json.dumps({**RECORD, "score": -2}), "line 2: 'score' must be in [-1, 1], got -2.0"),
        (json.dumps({**RECORD, "company_id": 5}), "line 2: 'company_id' must be a string, got 5"),
        (json.dumps({**RECORD, "source": ["w"]}), "line 2: 'source' must be a string, got list"),
        (json.dumps({**RECORD, "published_at": "2021-03-01"}), "line 2: bad published_at"),
        (json.dumps({**RECORD, "published_at": "2021-03-01X10:00:00+01:00"}),
         "line 2: bad published_at (date and time are not parted by T, t or a space)"),
    ], ids=["list", "string", "invalid-json", "missing", "nan", "-inf", "string-score", "bool-score",
            "huge-int", "out-of-range", "int-out-of-range", "int-company", "list-source", "naive-stamp",
            "stamp-separator"])
    def test_load_scored_rejects_naming_file_line_and_field(self, tmp_path, line, message):
        path = tmp_path / "scored.jsonl"
        self.write(path, [json.dumps(self.RECORD), line])
        with pytest.raises(ValueError) as exc:
            load_scored(path)
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)

    @pytest.mark.parametrize("line, message", [
        ("[1]", "line 2: not a JSON object (list)"),
        (json.dumps({"id": "a2", "p_neutral": 0.2, "p_positive": 0.7}), "line 2: missing field 'p_negative'"),
        (json.dumps({"id": 2, "p_negative": 0.1, "p_neutral": 0.2, "p_positive": 0.7}),
         "line 2: 'id' must be a string, got 2"),
        (json.dumps({"id": "a2", "p_negative": None, "p_neutral": 0.2, "p_positive": 0.7}),
         "line 2: 'p_negative' must be a finite number, got None"),
        (json.dumps({"id": "a2", "p_negative": 0.1, "p_neutral": math.nan, "p_positive": 0.7}),
         "line 2: 'p_neutral' must be a finite number, got nan"),
        (json.dumps({"id": "a1", "p_negative": 0.3, "p_neutral": 0.2, "p_positive": 0.5}),
         "line 2: duplicate id 'a1'"),
        (json.dumps({"id": "a2", "p_negative": 0.2, "p_neutral": 0.3, "p_positive": 0.4}),
         "line 2: class probabilities sum to 0.9, not 1: (0.2, 0.3, 0.4)"),
        (json.dumps({"id": "a2", "p_negative": -0.5, "p_neutral": 0.5, "p_positive": 1.0}),
         "line 2: class probabilities outside [0, 1]: (-0.5, 0.5, 1.0)"),
    ], ids=["list", "missing", "int-id", "null-probability", "nan-probability", "repeated-id", "bad-sum",
            "outside-unit"])
    def test_prescored_rejects_naming_file_line_and_field(self, tmp_path, line, message):
        path = tmp_path / "prescored.jsonl"
        self.write(path, [json.dumps({"id": "a1", "p_negative": 0.1, "p_neutral": 0.2, "p_positive": 0.7}),
                          line])
        with pytest.raises(ValueError) as exc:
            PrescoredProvider.from_file(path)
        assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)

    @pytest.mark.parametrize("value, message", [
        ({}, "'gut' must be a finite number, got dict"),
        ("0.5", "'gut' must be a finite number, got str"),
        (None, "'gut' must be a finite number, got None"),
    ], ids=["object", "string", "null"])
    def test_lexicon_value_of_wrong_type_names_file_and_key(self, tmp_path, value, message):
        path = tmp_path / "lexicon.json"
        path.write_text(json.dumps({"schlecht": -0.5, "gut": value}))
        with pytest.raises(ValueError) as exc:
            LexiconProvider.from_file(path)
        assert str(exc.value) == f"{path}: {message}"
