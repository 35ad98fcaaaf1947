"""The JSON-lines readers against the decode-every-line reference, and the writers' lines against the layout.

read_articles and _records (under read_scored and PrescoredProvider.from_file)
take a line in the layout json.dumps writes by one pattern match and decode any
other. Drawn files mix that layout with the forms that must fall through to the
decoder; each reader must give what tests/jsonl_reference.py gives, value for
value (compared by repr, so that the sign of a zero counts), diagnostic for
diagnostic and message for message. The writers' own lines, and the committed
and generated input files, must take the pattern: a writer whose layout drifted
would lose the gain without failing any other test.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from datetime import timedelta, timezone
from pathlib import Path

import jsonl_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from sentindex import corpus, sentiment

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ARTICLE_LAYOUT = re.compile(corpus._LAYOUT)
SCORED_LAYOUT = re.compile(sentiment._layout(*sentiment.SCORED_FIELDS))
PRESCORED_LAYOUT = re.compile(sentiment._layout(*sentiment.PRESCORED_FIELDS))

# mostly a word written as itself; now and then an empty one, one ending in a character JSON escapes (quote,
# backslash, tab, NUL), a raw U+2028 or a lone surrogate, or any text of these
WORDS = ["a1", "a2", "adler", "berg", "quelle", "über"]
SPECIAL = '"\\\t\x00\u2028\ud800'
TEXT = st.sampled_from(["word"] * 16 + ["empty", "special", "any"]).flatmap(lambda kind: (
    st.sampled_from(WORDS) if kind == "word" else st.just("") if kind == "empty"
    else st.tuples(st.sampled_from(WORDS), st.sampled_from(SPECIAL)).map("".join) if kind == "special"
    else st.text(st.sampled_from("ab äZ" + SPECIAL), max_size=5)))
SELDOM = st.sampled_from([False] * 9 + [True])  # Hypothesis draws the ends of integers(0, 9) often
STAMPS = st.sampled_from(["2021-03-01T10:00:00+01:00", "2021-03-01T10:00:00Z", "2021-03-01 10:00+0100",
                          "2021-03-01T10:00:00", "kein datum", ""])
# JSON number texts: the writers' floats, integers, signed zeros, exponents, overflows, and forms JSON does not
# take (an Arabic-Indic digit, which float() reads, included)
NUMBERS = st.one_of(
    st.floats(-1, 1).map(repr),
    st.sampled_from(["0.5", "0", "-0", "-0.0", "1e0", "5E-1", "1", "-1", "1e400", "-1e400", "1e-400", "-1e-400",
                     "NaN", "Infinity", "00.5", ".5", "1.", "1.5", "true", "null", '"0.5"', "0.1e+1", "\u0661.0",
                     "1_0.0"]))
# how a drawn object becomes a line: json.dumps's layout, or a form that must be decoded
FORMS = st.sampled_from(["layout"] * 5 + ["ascii", "shuffled", "extra", "compact", "raw tab"])
ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "  \n"])


def render(obj: dict, form: str, keys: list[str], numbers: dict[str, str]) -> str:
    """obj as one JSON line in form, each key of numbers holding that JSON number text as written."""
    obj = {k: f"@{k}@" if k in numbers else v for k, v in obj.items()}
    if form == "shuffled":
        obj = {k: obj[k] for k in keys}
    elif form == "extra":
        obj["extra"] = 1
    line = json.dumps(obj, ensure_ascii=form == "ascii", separators=(",", ":") if form == "compact" else None)
    if form == "raw tab":  # every escaped tab, and one at the start of the first string value, written raw
        line = line.replace("\\t", "\t").replace('": "', '": "\t', 1)
    for key, text in numbers.items():
        line = line.replace(f'"@{key}@"', text)
    return line


@st.composite
def jsonl_file(draw, record) -> str:
    """The text of a JSON-lines file of drawn records, each line in a drawn form, with blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(SELDOM):
            lines.append(draw(st.sampled_from(["", "   ", "[1]", "{", '{"id": "x"}{}'])))
            continue
        obj, numbers = draw(record)
        keys = draw(st.permutations(list(obj)))
        lines.append(render(obj, draw(FORMS), keys, numbers))
    ends = [draw(ENDS) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def article(draw) -> tuple[dict, dict]:
    obj = {"id": draw(TEXT), "company_id": draw(TEXT), "source": draw(TEXT), "published_at": draw(STAMPS),
           "headline": draw(TEXT), "body": draw(st.sampled_from([None, None, "text", "text", 5]).flatmap(
               lambda body: TEXT if body == "text" else st.just(body)))}
    language = draw(st.sampled_from(["de"] * 4 + ["text", 7, None, "missing"]).flatmap(
        lambda language: TEXT if language == "text" else st.just(language)))
    if language != "missing":
        obj["language"] = language
    if draw(SELDOM):
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj, {}


@st.composite
def scored(draw) -> tuple[dict, dict]:
    obj = {"id": draw(TEXT), "company_id": draw(TEXT), "source": draw(TEXT),
           "published_at": draw(STAMPS), "score": None}
    if draw(SELDOM):
        del obj[draw(st.sampled_from(sorted(obj)))]
    return obj, {"score": draw(NUMBERS)} if "score" in obj else {}


@st.composite
def prescored(draw) -> tuple[dict, dict]:
    obj = {"id": draw(TEXT), "p_negative": None, "p_neutral": None, "p_positive": None}
    if draw(SELDOM):
        obj["id"] = draw(st.sampled_from([3, None, ["a"]]))
    numbers = {k: draw(NUMBERS) for k in ("p_negative", "p_neutral", "p_positive")}
    if draw(st.booleans()):  # probabilities in the number forms, some of them summing to 1
        n = draw(st.sampled_from(["0", "-0", "-0.0", "0.0", "5E-1", "0.25"]))
        numbers = {"p_negative": n, "p_neutral": draw(st.sampled_from(["1", "1e0", "1.0", "0.5", "0.75"])),
                   "p_positive": draw(st.sampled_from(["0", "-0.0", "5E-1", "0.25"]))}
    return obj, numbers


def outcome(read) -> tuple[str, str | None]:
    """repr of what read() yields up to any ValueError, and that error's text."""
    got = []
    try:
        for item in read():
            got.append(item)
    except ValueError as exc:
        return repr(got), str(exc)
    return repr(got), None


def in_file(text: str, test) -> None:
    """test(path) on a file holding text; a lone surrogate is written as its three bytes, which are not UTF-8."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        test(path)


@settings(max_examples=400, deadline=None)
@given(jsonl_file(article()))
def test_read_articles_matches_the_reference(text):
    def check(path):
        got, want = [], []
        assert (repr(list(corpus.read_articles(path, got.append))), got) == \
            (repr(list(ref.read_articles(path, want.append))), want)
    in_file(text, check)


@settings(max_examples=400, deadline=None)
@given(jsonl_file(scored()))
def test_read_scored_matches_the_reference(text):
    def check(path):
        assert outcome(lambda: sentiment.read_scored(path)) == outcome(lambda: ref.read_scored(path))
    in_file(text, check)


@settings(max_examples=400, deadline=None)
@given(jsonl_file(prescored()))
def test_prescored_file_matches_the_reference(text):
    def check(path):
        assert outcome(lambda: sentiment.PrescoredProvider.from_file(path)._table.items()) == \
            outcome(lambda: ref.prescored_table(path).items())
    in_file(text, check)


def lines_of(path: Path) -> list[str]:
    """The lines of a file that ends in a newline, each with its newline, split only at newlines, as
    read_lines splits them (str.splitlines also splits at U+0085 and U+2028, which JSON writes raw)."""
    return [line + "\n" for line in path.read_text(encoding="utf-8").split("\n")[:-1]]


# text that json.dumps writes as itself: no quote, backslash, control character or lone surrogate
PLAIN = st.text(st.characters(min_codepoint=0x20, blacklist_characters='"\\', blacklist_categories=("Cs",)),
                max_size=8)
WORD = PLAIN.filter(bool)
ZONES = st.sampled_from([timezone.utc, timezone(timedelta(hours=1)), timezone(-timedelta(hours=5, minutes=30))])
ARTICLES = st.lists(st.builds(
    corpus.NewsArticle, WORD, WORD, WORD, st.datetimes(timezones=ZONES), WORD, st.none() | PLAIN, PLAIN),
    max_size=6)


@settings(max_examples=150, deadline=None)
@given(ARTICLES, st.booleans())
def test_every_line_write_articles_writes_takes_the_pattern(articles, with_headlines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kept.jsonl"
        corpus.write_articles(path, articles, [a.headline.lower() for a in articles] if with_headlines else None)
        lines = lines_of(path)
    assert len(lines) == len(articles)
    assert all(ARTICLE_LAYOUT.fullmatch(line) for line in lines), lines


@settings(max_examples=300, deadline=None)
@given(WORD, WORD, WORD, st.datetimes(timezones=ZONES), st.floats(allow_nan=False, allow_infinity=False))
def test_every_line_scored_line_writes_takes_the_pattern(aid, company, source, ts, score):
    assert SCORED_LAYOUT.fullmatch(sentiment._scored_line(aid, company, source, ts.isoformat(), score))


def test_every_golden_article_takes_the_pattern():
    lines = lines_of(ROOT / "tests" / "golden" / "articles.jsonl")
    assert [line for line in lines if not ARTICLE_LAYOUT.fullmatch(line)] == []


WRITER_KEYS = [*corpus.REQUIRED_FIELDS, "body", "language"]


def _planted(line: str) -> bool:
    """A line the generator plants as a load fault: not JSON, or an object without the writer's keys."""
    try:
        return list(json.loads(line)) != WRITER_KEYS
    except json.JSONDecodeError:
        return True


def test_every_generated_line_but_the_planted_faults_takes_the_pattern(tmp_path):
    for name in ("news_flow", "wide_universe"):
        generate(WORKLOADS[name].gen, 11, tmp_path / name)
        lines = lines_of(tmp_path / name / "articles.jsonl")
        off = [line for line in lines if not ARTICLE_LAYOUT.fullmatch(line)]
        assert len(off) == 3 and all(map(_planted, off)), off  # a reused id without body, no headline, broken
    lines = lines_of(tmp_path / "wide_universe" / "prescored.jsonl")
    assert [line for line in lines if not PRESCORED_LAYOUT.fullmatch(line)] == []
