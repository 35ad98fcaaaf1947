"""Unit and property tests for article loading and filtering."""

from __future__ import annotations

import json
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sentiment_reference
from sentindex.corpus import (
    REQUIRED_FIELDS,
    FilterConfig,
    NewsArticle,
    deduplicate,
    filter_exclusion_keywords,
    load_articles,
    load_filter_config,
    normalize_and_gate,
    remove_auto_generated,
    run_filter_pipeline,
    write_articles,
)
from sentindex.inputs import parse_timestamp

TS = datetime(2021, 3, 1, 10, 0, tzinfo=timezone.utc)


def art(id="a1", company="puma", source="wire", ts=TS, headline="puma ag steigert gewinn",
        body=None):
    return NewsArticle(id=id, company_id=company, source=source, published_at=ts,
                       headline=headline, body=body)


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def valid_line(id="a1", ts="2021-03-01T10:00:00+01:00"):
    return {"id": id, "company_id": "puma", "source": "wire", "published_at": ts,
            "headline": "puma ag steigert gewinn", "language": "de"}


class TestLoadArticles:
    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [valid_line(f"a{i}") for i in range(3)])
        report = load_articles(path)
        assert len(report.articles) == 3
        assert report.diagnostics == []

    def test_malformed_line_diagnosed_with_line_number(self, tmp_path):
        path = tmp_path / "a.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(valid_line("a1")) + "\n")
            fh.write("{not json\n")
            fh.write(json.dumps(valid_line("a2")) + "\n")
        report = load_articles(path)
        assert [a.id for a in report.articles] == ["a1", "a2"]
        assert len(report.diagnostics) == 1
        assert "line 2" in report.diagnostics[0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("")
        report = load_articles(path)
        assert report.articles == [] and report.diagnostics == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(valid_line()) + "\n\n\n")
        report = load_articles(path)
        assert len(report.articles) == 1 and report.diagnostics == []

    def test_duplicate_id_dropped_with_diagnostic(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [valid_line("a1"), valid_line("a1")])
        report = load_articles(path)
        assert len(report.articles) == 1
        assert "duplicate id" in report.diagnostics[0]

    def test_missing_field_diagnosed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        bad = valid_line("a1")
        del bad["headline"]
        write_jsonl(path, [bad])
        report = load_articles(path)
        assert report.articles == []
        assert "headline" in report.diagnostics[0]

    def test_naive_timestamp_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [valid_line("a1", ts="2021-03-01T10:00:00")])
        report = load_articles(path)
        assert report.articles == []
        assert "published_at" in report.diagnostics[0]

    def test_zulu_timestamp_accepted(self):
        ts = parse_timestamp("2021-03-01T10:00:00Z")
        assert ts.utcoffset().total_seconds() == 0

    def test_unreadable_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_articles(tmp_path / "missing.jsonl")


class TestExclusionKeywords:
    CFG = FilterConfig(exclusions={"puma": ("zoo",)})

    def test_keyword_match_removes(self):
        kept, removed = filter_exclusion_keywords(
            [art(headline="puma im zoo ausgebrochen")], self.CFG)
        assert kept == [] and len(removed) == 1

    def test_no_match_keeps(self):
        kept, removed = filter_exclusion_keywords(
            [art(headline="puma ag steigert gewinn")], self.CFG)
        assert len(kept) == 1 and removed == []

    def test_empty_rule_is_vacuous(self):
        cfg = FilterConfig(exclusions={"puma": ()})
        kept, removed = filter_exclusion_keywords(
            [art(headline="puma im zoo ausgebrochen")], cfg)
        assert len(kept) == 1 and removed == []

    def test_other_company_unaffected(self):
        kept, removed = filter_exclusion_keywords(
            [art(company="adidas", headline="adidas im zoo")], self.CFG)
        assert len(kept) == 1

    def test_match_in_body(self):
        kept, removed = filter_exclusion_keywords(
            [art(headline="puma quartalszahlen", body="besuch im Zoo terminiert")], self.CFG)
        assert kept == [] and len(removed) == 1


class TestAutoGenerated:
    CFG = FilterConfig(auto_generated_phrases=("dieser artikel wurde automatisch erstellt",))

    def test_phrase_in_body_removes(self):
        kept, removed = remove_auto_generated(
            [art(body="Dieser Artikel wurde automatisch erstellt.")], self.CFG)
        assert kept == [] and len(removed) == 1

    def test_clean_body_kept(self):
        kept, removed = remove_auto_generated([art(body="redaktioneller inhalt")], self.CFG)
        assert len(kept) == 1 and removed == []

    def test_empty_phrase_list_keeps_all(self):
        kept, removed = remove_auto_generated([art()], FilterConfig())
        assert len(kept) == 1 and removed == []


class TestDeduplicate:
    def test_later_copy_removed(self):
        early = art(id="a1", ts=TS.replace(hour=9))
        late = art(id="a2", ts=TS.replace(hour=10))
        kept, removed = deduplicate([late, early])
        assert kept == [early] and removed == [late]

    def test_different_companies_both_kept(self):
        kept, removed = deduplicate([art(id="a1"), art(id="a2", company="adidas")])
        assert len(kept) == 2 and removed == []

    def test_timestamp_tie_breaks_by_id(self):
        a = art(id="a")
        b = art(id="b")
        kept, removed = deduplicate([b, a])
        assert kept == [a] and removed == [b]

    def test_case_insensitive_headline_key(self):
        a = art(id="a1", headline="Puma AG Steigert Gewinn", ts=TS.replace(hour=9))
        b = art(id="a2", headline="puma ag steigert gewinn")
        kept, _ = deduplicate([a, b])
        assert kept == [a]

    def test_idempotent(self):
        articles = [art(id=f"a{i}", ts=TS.replace(hour=9 + i % 3)) for i in range(6)]
        once, _ = deduplicate(articles)
        twice, removed = deduplicate(once)
        assert twice == once and removed == []


class TestNormalizeAndGate:
    def test_lowercases_headline(self):
        out = normalize_and_gate(art(headline="BMW Erhöht Dividende"), FilterConfig())
        assert out.headline == "bmw erhöht dividende"

    def test_body_dropped(self):
        out = normalize_and_gate(art(body="text"), FilterConfig())
        assert out.body is None

    def test_over_limit_removed(self):
        long = " ".join(["wort"] * 1001)
        assert normalize_and_gate(art(headline=long), FilterConfig()) is None

    def test_exactly_at_limit_kept(self):
        exact = " ".join(["wort"] * 1000)
        assert normalize_and_gate(art(headline=exact), FilterConfig()) is not None

    def test_config_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            FilterConfig(max_headline_tokens=0)


headline_st = st.text(
    alphabet="abcdefghij zoö", min_size=1, max_size=40).filter(lambda s: s.strip())


@st.composite
def articles_st(draw):
    n = draw(st.integers(1, 12))
    out = []
    for i in range(n):
        out.append(NewsArticle(
            id=f"a{i}",
            company_id=draw(st.sampled_from(["puma", "adidas", "bmw"])),
            source=draw(st.sampled_from(["wire", "post"])),
            published_at=TS.replace(hour=draw(st.integers(0, 23))),
            headline=draw(headline_st),
            body=draw(st.one_of(st.none(), headline_st)),
        ))
    return out


@settings(max_examples=60, deadline=None)
@given(articles=articles_st(), keyword=st.sampled_from(["zo", "oö", "ab"]),
       phrase=st.sampled_from(["ij", "de"]))
def test_keyword_and_phrase_stages_commute(articles, keyword, phrase):
    cfg = FilterConfig(exclusions={"puma": (keyword,), "adidas": (keyword,), "bmw": (keyword,)},
                       auto_generated_phrases=(phrase,))
    kept_kp, _ = remove_auto_generated(filter_exclusion_keywords(articles, cfg)[0], cfg)
    kept_pk, _ = filter_exclusion_keywords(remove_auto_generated(articles, cfg)[0], cfg)
    assert [a.id for a in kept_kp] == [a.id for a in kept_pk]


@settings(max_examples=60, deadline=None)
@given(articles=articles_st())
def test_each_stage_partitions_input(articles):
    cfg = FilterConfig(exclusions={"puma": ("zo",)}, auto_generated_phrases=("ij",))
    for stage in (lambda a: filter_exclusion_keywords(a, cfg),
                  lambda a: remove_auto_generated(a, cfg),
                  deduplicate):
        kept, removed = stage(articles)
        assert len(kept) + len(removed) == len(articles)
        assert {id(a) for a in kept}.isdisjoint({id(a) for a in removed})
        assert [a for a in articles if a in kept or a in removed] == articles


def test_pipeline_stage_accounting(golden_dir):
    from sentindex.corpus import load_articles, load_filter_config

    config = load_filter_config(golden_dir / "filter_config.json")
    loaded = load_articles(golden_dir / "articles.jsonl")
    result = run_filter_pipeline(loaded.articles, config)
    removed_total = sum(len(v) for v in result.removed_by_stage.values())
    assert len(result.kept) + removed_total == len(loaded.articles)
    # every survivor is normalized: lowercase headline, no body
    assert all(a.headline == a.headline.lower() and a.body is None for a in result.kept)


TRICKY = '"\\/\x00\x01\x08\t\n\x0b\x0c\r\x1f\x7f\x80\xa0\xe4\xdf€  ﻿\U0001F600 aZ'
text_st = st.text(st.one_of(st.sampled_from(TRICKY), st.characters(blacklist_categories=("Cs",))),
                  max_size=20)
stamp_st = st.builds(
    lambda d, off: d.replace(tzinfo=timezone(off)),
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
    st.timedeltas(min_value=timedelta(hours=-23, minutes=-59), max_value=timedelta(hours=23, minutes=59)))
article_st = st.builds(NewsArticle, text_st, text_st, text_st, stamp_st, text_st,
                       st.one_of(st.none(), text_st), text_st)


@settings(max_examples=150, deadline=None)
@given(st.lists(article_st, max_size=8))
def test_write_articles_matches_reference_bytes(articles):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.jsonl", Path(tmp) / "theirs.jsonl"
        write_articles(ours, articles)
        sentiment_reference.write_articles(theirs, articles)
        assert ours.read_bytes() == theirs.read_bytes()


NEW_REJECTIONS = ("not a JSON object", "body must be", "language must be")


def _article_lines(rng: random.Random) -> tuple[list[str], set[int]]:
    """Seeded article lines, malformed in every known way; also the numbers of the
    lines that only the package's loader rejects (the reference crashes or keeps them)."""
    lines, rejected = [], set()
    for lineno in range(1, 301):
        obj = valid_line(f"a{rng.randrange(40)}", rng.choice([
            "2021-03-01T10:00:00+01:00", "2021-03-01T10:00:00Z", "2021-03-01T10:00:00z",
            "2021-03-01T10:00:00.5-05:30"]))
        obj["body"] = rng.choice([None, "text", "", "ä  "])
        if rng.random() < 0.3:
            del obj["language"]
        kind = rng.randrange(18)
        if kind == 0:
            line = "{not json"
        elif kind == 1:
            line = rng.choice(["", "   ", "\t"])
        elif kind == 2:
            del obj[rng.choice(REQUIRED_FIELDS)]
        elif kind == 3:
            obj[rng.choice(REQUIRED_FIELDS)] = rng.choice(["", 5, None, ["x"], {}, True])
        elif kind == 4:
            obj["published_at"] = rng.choice(["2021-03-01T10:00:00", "gestern", "2021-13-01T10:00:00Z"])
        elif kind == 5:
            line = rng.choice(["[1]", '"x"', "3", "null", "true", "[]"])
            rejected.add(lineno)
        elif kind == 6:
            obj["body"] = rng.choice([5, 1.5, [], {}, True])
            rejected.add(lineno)
        elif kind == 7:
            obj["language"] = rng.choice([7, None, ["de"], False])
            rejected.add(lineno)
        elif kind == 8:
            obj["extra"] = {"nested": [1, 2]}
        if kind not in (0, 1, 5):
            line = json.dumps(obj, ensure_ascii=rng.random() < 0.5)
        if kind == 9:
            line = rng.choice([" ", "﻿"]) + line
        elif kind == 10:
            line = line + rng.choice([" x", " {}", "  \t"])
        lines.append(line)
    return lines, rejected


@pytest.mark.parametrize("seed", range(4))
def test_load_articles_matches_reference(tmp_path, seed):
    lines, rejected = _article_lines(random.Random(seed))
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    ours.write_text("\n".join(lines) + "\n", encoding="utf-8")
    # the reference sees the newly rejected lines as blank, keeping the line numbers
    theirs.write_text("\n".join("" if i + 1 in rejected else line for i, line in enumerate(lines)) + "\n",
                      encoding="utf-8")
    got, expected = load_articles(ours), sentiment_reference.load_articles(theirs)
    assert got.articles == expected.articles
    assert [repr(a) for a in got.articles] == [repr(a) for a in expected.articles]
    new = [d for d in got.diagnostics if any(r in d for r in NEW_REJECTIONS)]
    assert [d for d in got.diagnostics if d not in new] == expected.diagnostics
    assert [int(d.split(":")[0].removeprefix("line ")) for d in new] == sorted(rejected)

    # a line that is not UTF-8 adds only its own diagnostic, also with \r\n line ends,
    # and a bare \r still ends a line, as in a text-mode read (so lines[149] is line 151)
    blank, bad = tmp_path / "blank.jsonl", tmp_path / "bad.jsonl"
    lines[20] += "\r[]"
    lines[149] = ""
    blank.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines[149] = '{"id": "\udcff"}'
    bad.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", errors="surrogateescape")
    got, expected = load_articles(bad), load_articles(blank)
    assert [repr(a) for a in got.articles] == [repr(a) for a in expected.articles]
    assert got.diagnostics == sorted(
        expected.diagnostics + ["line 151: not UTF-8 ('utf-8' codec can't decode byte 0xff in position 8: "
                                "invalid start byte)"],
        key=lambda d: int(d.split(":")[0].removeprefix("line ")))


class TestLoaderRejections:
    @pytest.mark.parametrize("line, diagnostic", [
        ("[1]", "not a JSON object (list)"), ('"x"', "not a JSON object (str)"),
        ("3", "not a JSON object (int)"), ("null", "not a JSON object (NoneType)"),
        ('{"id": "\udcff"}', "not UTF-8 ('utf-8' codec can't decode byte 0xff in position 8: invalid start byte)"),
    ], ids=["list", "string", "number", "null", "not-utf8"])
    def test_non_object_line_diagnosed(self, tmp_path, line, diagnostic):
        path = tmp_path / "a.jsonl"
        path.write_text("\n".join([json.dumps(valid_line("a1")), line, json.dumps(valid_line("a2"))]) + "\n",
                        encoding="utf-8", errors="surrogateescape")
        report = load_articles(path)
        assert [a.id for a in report.articles] == ["a1", "a2"]
        assert report.diagnostics == [f"line 2: {diagnostic}"]

    def test_non_string_body_diagnosed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**valid_line("a1"), "body": 5}, {**valid_line("a2"), "body": None}])
        report = load_articles(path)
        assert [a.id for a in report.articles] == ["a2"]
        assert report.diagnostics == ["line 1: body must be a string or null (int)"]

    def test_non_string_language_diagnosed(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**valid_line("a1"), "language": 7}])
        report = load_articles(path)
        assert report.articles == []
        assert report.diagnostics == ["line 1: language must be a string (int)"]

    @pytest.mark.parametrize("field", ["id", "headline", "body", "language"])
    def test_lone_surrogate_diagnosed(self, tmp_path, field):
        # json.dumps escapes the lone surrogate as \ud800, and a valid pair as \ud83d\ude00
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [{**valid_line("a1"), field: "puma \ud800"},
                           {**valid_line("a1"), "headline": "puma \U0001f600 gewinnt"}])
        report = load_articles(path)
        assert [a.headline for a in report.articles] == ["puma \U0001f600 gewinnt"]
        assert report.diagnostics == ["line 1: lone surrogate escape in a text field"]

    @pytest.mark.parametrize("lead", ["", " "], ids=["at-start", "after-whitespace"])
    def test_deeply_nested_line_diagnosed(self, tmp_path, lead):
        path = tmp_path / "a.jsonl"
        path.write_text(lead + "[" * 100_000 + "\n" + json.dumps(valid_line("a1")) + "\n")
        report = load_articles(path)
        assert [a.id for a in report.articles] == ["a1"]
        assert report.diagnostics == ["line 1: invalid JSON (nested too deeply)"]

    @pytest.mark.parametrize("config, message", [
        ({"exclusions": [1]}, "'exclusions' must be a JSON object, got list"),
        ({"exclusions": {"puma": "abc"}}, ": 'exclusions': 'puma' must be a list of strings, got str"),
        ({"exclusions": {"puma": [1]}}, ": 'exclusions': 'puma' must be a list of strings, got list"),
        ({"auto_generated_phrases": "abc"}, "'auto_generated_phrases' must be a list of strings, got str"),
        ({"max_headline_tokens": "5"}, "'max_headline_tokens' must be an integer, got str"),
        ({"max_headline_tokens": 5.0}, "'max_headline_tokens' must be an integer, got 5.0"),
        ({"max_headline_tokens": True}, "'max_headline_tokens' must be an integer, got True"),
    ], ids=["exclusions-list", "keywords-string", "keyword-number", "phrases-string",
            "tokens-string", "tokens-float", "tokens-bool"])
    def test_filter_config_of_wrong_type_names_file_and_key(self, tmp_path, config, message):
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(config))
        with pytest.raises(ValueError) as exc:
            load_filter_config(path)
        assert str(exc.value).startswith(str(path)) and message in str(exc.value)

    def test_filter_config_roundtrip(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text(json.dumps({"exclusions": {"puma": ["tier"]}, "auto_generated_phrases": ["auto"],
                                    "max_headline_tokens": 7}))
        assert load_filter_config(path) == FilterConfig(
            exclusions={"puma": ("tier",)}, auto_generated_phrases=("auto",), max_headline_tokens=7)
