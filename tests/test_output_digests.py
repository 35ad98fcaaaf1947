"""Byte identity as a test: the sha256 of what each command writes, on a fixed set of cases.

tests/golden/output_digests.json holds, for each case, the command's exit code
and the sha256 of its stderr and of each file it may write (null for a file it
did not write). A changed digest is a changed behaviour. Regenerate the file
only for a change that is meant, and name each changed entry and its cause:

    PYTHONPATH=src python tests/test_output_digests.py

Each case runs main() in its own directory, on paths relative to it, so that no
message carries the directory it ran in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sentindex.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
DIGESTS = GOLDEN / "output_digests.json"

FILTER_ARGV = ["filter", "--articles", "articles.jsonl", "--config", "filter_config.json",
               "--out", "kept.jsonl", "--removed", "removed.jsonl"]
FILTER_OUTPUTS = ("kept.jsonl", "removed.jsonl")


def score_argv(provider: str, provider_file: str, mode: str) -> list[str]:
    return ["score", "--articles", "kept.jsonl", "--provider", provider, "--provider-file", provider_file,
            "--mode", mode, "--out", "scored.jsonl"]


SCORE_OUTPUTS = ("scored.jsonl",)
AGGREGATE_ARGV = ["aggregate", "--scored", "scored.jsonl", "--prices", "prices.csv",
                  "--config", "aggregation_config.json", "--out", "daily.csv"]
AGGREGATE_OUTPUTS = ("daily.csv",)
BACKTEST_ARGV = ["backtest", "--prices", "prices.csv", "--sentiments", "daily.csv",
                 "--config", "backtest_config.json", "--benchmark", "benchmark.csv", "--out", "run"]
BACKTEST_OUTPUTS = ("run/levels.csv", "run/trades.csv", "run/summary.json")
GOLDEN_BACKTEST_ARGV = ["backtest", "--prices", "prices.csv", "--sentiments", "daily.csv",
                        "--config", "backtest_config.json", "--out", "run"]  # the fixture has no benchmark
OPTIMIZE_ARGV = ["optimize", "--sentiments", "signal.csv", "--prior", "prior.csv", "--config", "opt.json",
                 "--out", "weights.csv"]
REPORT_ARGV = ["report", "--in", "run", "--out", "report"]
REPORT_OUTPUTS = ("report/report.svg", "report/report.csv")


def golden_inputs(dest: Path) -> None:
    for name in ("articles.jsonl", "filter_config.json", "lexicon.json", "prices.csv", "aggregation_config.json",
                 "backtest_config.json"):
        shutil.copy(GOLDEN / name, dest / name)


def news_flow_inputs(dest: Path) -> None:
    generate(WORKLOADS["news_flow"].gen, 11, dest)


def upper_case_keyword_inputs(dest: Path) -> None:
    golden_inputs(dest)
    config = json.loads((GOLDEN / "filter_config.json").read_text(encoding="utf-8"))
    config["exclusions"]["adlerwerke"].append("Tierpark")
    (dest / "filter_config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


# the words of the golden headlines that German writes in lower case: verbs, participles, adjectives,
# prepositions and the conjunction; every other word is a noun or a name
_LOWER_CASE_WORDS = {"abwarten", "am", "an", "angekuendigt", "bei", "bestaetigt", "bleibt", "entdeckt", "erhalten",
                     "gemeldet", "haelt", "im", "lockt", "meldet", "nach", "solide", "stabil", "und", "unsicher",
                     "verhalten", "verzeichnet", "vorgelegt"}


def _german_case(headline: str) -> str:
    """A golden headline capitalised as German writes it: "kraftwerk razzia am freitag kw12" reads
    "Kraftwerk Razzia am Freitag KW12"."""
    return " ".join(w if w in _LOWER_CASE_WORDS else w.upper() if w.startswith("kw") else w.capitalize()
                    for w in headline.split())


def mixed_case_headlines_inputs(dest: Path) -> None:
    """The golden articles with their headlines capitalised as German nouns are, an earlier copy of one
    headline that differs from it only in case, and an exclusion keyword in capitals."""
    golden_inputs(dest)
    articles = [json.loads(line) for line in (GOLDEN / "articles.jsonl").read_text(encoding="utf-8").splitlines()]
    articles = [{**a, "headline": _german_case(a["headline"])} for a in articles]
    articles += [
        # a0011 reads "Kraftwerk Kurssprung Dividende lockt"; this copy is 15 minutes earlier
        {**articles[10], "id": "case0", "published_at": "2021-03-01T10:30:00+01:00",
         "headline": "KRAFTWERK Kurssprung DIVIDENDE lockt"},
        {**articles[1], "id": "case1", "published_at": "2021-03-03T10:00:00+01:00",
         "headline": "Adlerwerke Besuch im TIERPARK"},
    ]
    (dest / "articles.jsonl").write_text("".join(json.dumps(a, ensure_ascii=False) + "\n" for a in articles),
                                         encoding="utf-8")


def run_commands(dest: Path, *argvs: list[str]) -> None:
    """Run the commands in dest, as the chain would, each of which must succeed; their stderr is dropped."""
    with contextlib.chdir(dest), contextlib.redirect_stderr(io.StringIO()) as stderr:
        for argv in argvs:
            if main(argv) != 0:
                raise RuntimeError(f"{argv[0]} failed: {stderr.getvalue()}")


def filtered_inputs(write_inputs):
    """write_inputs, then filter run on them: the inputs of score."""
    def write(dest: Path) -> None:
        write_inputs(dest)
        run_commands(dest, FILTER_ARGV)
    return write


def scored_inputs(write_inputs, provider: str, provider_file: str, mode: str):
    """write_inputs, then filter and score run on them: the inputs of aggregate."""
    def write(dest: Path) -> None:
        write_inputs(dest)
        run_commands(dest, FILTER_ARGV, score_argv(provider, provider_file, mode))
    return write


golden_scored = scored_inputs(golden_inputs, "lexicon", "lexicon.json", "winner")
news_flow_scored = scored_inputs(news_flow_inputs, "lexicon", "lexicon.json", "winner")


def wide_universe_inputs(dest: Path) -> None:
    generate(WORKLOADS["wide_universe"].gen, 11, dest)


wide_universe_scored = scored_inputs(wide_universe_inputs, "prescored", "prescored.jsonl", "expectation")


def repeated_prescored_id_inputs(dest: Path) -> None:
    """wide_universe seed 11, filtered, with the pre-scored file's third line repeated at its end."""
    filtered_inputs(wide_universe_inputs)(dest)
    lines = (dest / "prescored.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    (dest / "prescored.jsonl").write_text("".join(lines + lines[2:3]), encoding="utf-8")


def wide_universe_daily(dest: Path) -> None:
    wide_universe_scored(dest)
    run_commands(dest, AGGREGATE_ARGV)


def bad_published_at_inputs(dest: Path) -> None:
    golden_scored(dest)
    lines = (dest / "scored.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = lines[5].replace("+01:00", "", 1)  # a naive timestamp
    (dest / "scored.jsonl").write_text("".join(lines), encoding="utf-8")


def calendar_edges_inputs(dest: Path) -> None:
    """The golden chain's records and more at the edges of its calendar, 2021-03-01 to 2021-04-09."""
    golden_scored(dest)
    edges = [
        ("2021-02-28T23:30:00-01:00", "adlerwerke"),  # 01:30 on the first date in Berlin
        ("2021-02-28T16:59:59+01:00", "bergbau"),  # a Sunday before the cutoff: precedes the calendar
        ("2021-02-28T17:00:00+01:00", "bergbau"),  # the same Sunday at the cutoff: the first date
        ("2021-04-09T16:59:59+02:00", "kraftwerk"),  # the final date, just before the cutoff
        ("2021-04-09T15:00:00Z", "kraftwerk"),  # 17:00 in Berlin: after the final date
        ("2021-03-28T01:30:00Z", "luftfracht"),  # 03:30 on the Sunday the clocks go forward: Monday
        ("0001-01-01T00:00:00+01:00", "adlerwerke"),  # before year 1 in UTC
        ("9999-12-31T23:59:59-01:00", "adlerwerke"),  # after year 9999 in UTC
        ("2021-03-02T10:00:00+01:00", "unbekannt"),  # a company outside the universe
    ]
    with open(dest / "scored.jsonl", "a", encoding="utf-8") as fh:
        for k, (stamp, company) in enumerate(edges):
            fh.write(json.dumps({"id": f"edge{k}", "company_id": company, "source": f"quelle{k % 3}",
                                 "published_at": stamp, "score": 0.1 * (k - 4)}) + "\n")


def signed_zero_and_repeated_sources_inputs(dest: Path) -> None:
    """The golden chain's records and, for juwelia on dates it has none, a cell whose sources arrive as
    a, a, b, a, then a lone -0.0 score, then two -0.0 scores: a cell's sum starts at 0.0, so each
    mean is written 0.0."""
    golden_scored(dest)
    extra = [
        ("2021-03-02T09:00:00+01:00", "quelle_a", 0.5), ("2021-03-02T10:00:00+01:00", "quelle_a", -0.25),
        ("2021-03-02T11:00:00+01:00", "quelle_b", 0.125), ("2021-03-02T12:00:00+01:00", "quelle_a", 1.0),
        ("2021-03-03T10:00:00+01:00", "quelle_a", -0.0),
        ("2021-03-04T10:00:00+01:00", "quelle_a", -0.0), ("2021-03-04T11:00:00+01:00", "quelle_b", -0.0),
    ]
    with open(dest / "scored.jsonl", "a", encoding="utf-8") as fh:
        for k, (stamp, source, score) in enumerate(extra):
            fh.write(json.dumps({"id": f"zero{k}", "company_id": "juwelia", "source": source,
                                 "published_at": stamp, "score": score}) + "\n")


def short_line_prices_inputs(dest: Path) -> None:
    golden_scored(dest)
    lines = (dest / "prices.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].rpartition(",")[0] + "\n"  # the first date's third line loses its close
    (dest / "prices.csv").write_text("".join(lines), encoding="utf-8")


def _article(k: int, **fields) -> dict:
    """An article of the golden universe in json.dumps's key order, its fields replaced by fields."""
    return {"id": f"off{k}", "company_id": "kraftwerk", "source": "marktpost",
            "published_at": f"2021-03-{10 + k:02}T10:00:00+01:00", "headline": f"kraftwerk meldung nummer {k}",
            "body": None, "language": "de", **fields}


def off_layout_lines_inputs(dest: Path) -> None:
    """The golden articles and lines in the layout json.dumps writes, mixed with lines in other forms."""
    golden_inputs(dest)
    a = _article
    lines = [
        json.dumps(a(0, headline="kraftwerk über plan"), ensure_ascii=False),  # the layout
        json.dumps(a(1, headline="kraftwerk über plan zwei")),  # ensure_ascii: ü
        json.dumps(dict(reversed(a(2).items())), ensure_ascii=False),  # keys reordered
        json.dumps({**a(3), "extra": 1}, ensure_ascii=False),  # an extra key
        json.dumps(a(4), ensure_ascii=False, separators=(",", ":")),  # compact separators
        json.dumps(a(5), ensure_ascii=False) + "\r",  # ends in \r\n
        json.dumps(a(6), ensure_ascii=False).replace("nummer", "\tnummer"),  # a raw tab: invalid JSON
        json.dumps(a(7, headline="kraftwerk\u2028zeile"), ensure_ascii=False),  # a raw U+2028
        json.dumps(a(8, headline='kraftwerk "zitat"'), ensure_ascii=False),  # escaped quotes
        json.dumps(a(9, source=""), ensure_ascii=False),  # an empty required field
        json.dumps(a(10, body="ein text"), ensure_ascii=False),  # the layout, with a body
        json.dumps(a(11, body=""), ensure_ascii=False),  # an empty body
        json.dumps(a(12, body=5), ensure_ascii=False),  # a number for a body
        json.dumps({k: v for k, v in a(13).items() if k != "language"}, ensure_ascii=False),  # no language
        json.dumps(a(14, language=7), ensure_ascii=False),  # a language that is no string
        json.dumps(a(15, language=""), ensure_ascii=False),  # an empty language
        json.dumps(a(16, headline="kraftwerk \\ backslash"), ensure_ascii=False),  # an escaped backslash
        json.dumps(a(17, id="off0"), ensure_ascii=False),  # the layout, a repeated id
        json.dumps(a(18, published_at="2021-03-28T10:00:00"), ensure_ascii=False),  # the layout, a naive time
        json.dumps(a(19), ensure_ascii=False),  # the last line, with no newline
    ]
    with open(dest / "articles.jsonl", "a", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def prescored_number_forms_inputs(dest: Path) -> None:
    """The golden articles, filtered, and probabilities written as 0, 1, -0, -0.0, 1e0 and 5E-1."""
    filtered_inputs(golden_inputs)(dest)
    ids = [json.loads(line)["id"] for line in (dest / "kept.jsonl").read_text(encoding="utf-8").splitlines()]
    forms = [("0", "1", "0"), ("-0", "1", "-0.0"), ("-0.0", "0", "1e0"), ("5E-1", "0", "5E-1"),
             ("0.25", "0.5", "0.25"), ("1", "-0.0", "0"), ("-0.0", "1.0", "-0")]
    (dest / "prescored.jsonl").write_text("".join(
        f'{{"id": "{aid}", "p_negative": {n}, "p_neutral": {u}, "p_positive": {p}}}\n'
        for aid, (n, u, p) in zip(ids, forms * len(ids))), encoding="utf-8")


def _append_juwelia_scores(dest: Path, scores: list[str]) -> None:
    """Append one scored line for juwelia per score text, on dates it has no articles, one a date."""
    with open(dest / "scored.jsonl", "a", encoding="utf-8") as fh:
        for k, score in enumerate(scores):
            fh.write(f'{{"id": "form{k}", "company_id": "juwelia", "source": "quelle", '
                     f'"published_at": "2021-03-{2 + k:02}T10:00:00+01:00", "score": {score}}}\n')


def scored_number_forms_inputs(dest: Path) -> None:
    golden_scored(dest)
    _append_juwelia_scores(dest, ["-0", "0", "1E-1", "-0.0"])


def non_finite_score_inputs(dest: Path) -> None:
    golden_scored(dest)
    _append_juwelia_scores(dest, ["0.5", "1e400"])


def optimize_example_inputs(dest: Path) -> None:
    """The three files of the README's optimize example."""
    (dest / "signal.csv").write_text("company,sentiment\nalpha,0.8\nbeta,0.4\ngamma,-0.2\n", encoding="utf-8")
    (dest / "prior.csv").write_text("company,weight\nalpha,0.0\nbeta,0.0\ngamma,0.0\n", encoding="utf-8")
    (dest / "opt.json").write_text('{"delta": 0.0, "cap": 0.5, "budget_lo": 0.5, "budget_hi": 0.9}',
                                   encoding="utf-8")


def golden_daily(dest: Path) -> None:
    golden_scored(dest)
    run_commands(dest, AGGREGATE_ARGV)


def with_backtest_config(write_inputs, **fields):
    """write_inputs, then the backtest config's fields replaced by fields."""
    def write(dest: Path) -> None:
        write_inputs(dest)
        config = json.loads((dest / "backtest_config.json").read_text(encoding="utf-8"))
        (dest / "backtest_config.json").write_text(json.dumps({**config, **fields}, indent=2) + "\n",
                                                   encoding="utf-8")
    return write


def repeated_company_signal_inputs(dest: Path) -> None:
    optimize_example_inputs(dest)
    with open(dest / "signal.csv", "a", encoding="utf-8") as fh:
        fh.write("beta,0.1\n")


def tie_at_fill_stop_inputs(dest: Path, nudge: bool = False) -> None:
    """The golden prices and backtest config, and the golden daily sentiment with luftfracht's adjusted value
    on 2021-03-01 set to industriewerk's, 0.541.

    From all-zero weights the first day's fill gives the cap to the nine names of the highest sentiment and
    stops in the tenth, where these two tie at slope 0.541 - delta; the tie goes to industriewerk, the first
    by company id. With nudge, luftfracht's value is one ulp above 0.541, and the fill stops in luftfracht.
    """
    for name in ("prices.csv", "backtest_config.json"):
        shutil.copy(GOLDEN / name, dest / name)
    value = math.nextafter(0.541, 1.0) if nudge else 0.541
    lines = (GOLDEN / "expected_daily_sentiment.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines = [f"2021-03-01,luftfracht,0.538,1,1.0,{value!r}\n" if line.startswith("2021-03-01,luftfracht,")
             else line for line in lines]
    (dest / "daily.csv").write_text("".join(lines), encoding="utf-8")


def golden_run(dest: Path) -> None:
    golden_daily(dest)
    run_commands(dest, GOLDEN_BACKTEST_ARGV)


def golden_run_without_summary(dest: Path) -> None:
    golden_run(dest)
    (dest / "run" / "summary.json").unlink()


# name -> (writes the case's inputs into a directory, argv, the files the command may write)
CASES = {
    "filter/golden": (golden_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "filter/news_flow-11": (news_flow_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "filter/upper-case-keyword": (upper_case_keyword_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "score/golden": (filtered_inputs(golden_inputs), score_argv("lexicon", "lexicon.json", "winner"),
                     SCORE_OUTPUTS),
    "score/golden-expectation": (filtered_inputs(golden_inputs), score_argv("lexicon", "lexicon.json", "expectation"),
                                 SCORE_OUTPUTS),
    "score/news_flow-11": (filtered_inputs(news_flow_inputs), score_argv("lexicon", "lexicon.json", "winner"),
                           SCORE_OUTPUTS),
    "score/wide_universe-11": (filtered_inputs(wide_universe_inputs),
                               score_argv("prescored", "prescored.jsonl", "expectation"), SCORE_OUTPUTS),
    "score/repeated-prescored-id": (repeated_prescored_id_inputs,
                                    score_argv("prescored", "prescored.jsonl", "expectation"), SCORE_OUTPUTS),
    "aggregate/golden": (golden_scored, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/news_flow-11": (news_flow_scored, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/wide_universe-11": (wide_universe_scored, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/bad-published-at": (bad_published_at_inputs, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/calendar-edges": (calendar_edges_inputs, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/signed-zero-and-repeated-sources": (signed_zero_and_repeated_sources_inputs, AGGREGATE_ARGV,
                                                   AGGREGATE_OUTPUTS),
    "aggregate/short-line-prices": (short_line_prices_inputs, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "backtest/wide_universe-11": (wide_universe_daily, BACKTEST_ARGV, BACKTEST_OUTPUTS),
    "filter/off-layout-lines": (off_layout_lines_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "score/prescored-number-forms": (prescored_number_forms_inputs,
                                     score_argv("prescored", "prescored.jsonl", "expectation"), SCORE_OUTPUTS),
    "aggregate/scored-number-forms": (scored_number_forms_inputs, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "aggregate/non-finite-score": (non_finite_score_inputs, AGGREGATE_ARGV, AGGREGATE_OUTPUTS),
    "optimize/readme": (optimize_example_inputs, OPTIMIZE_ARGV, ("weights.csv",)),
    "backtest/golden": (golden_daily, GOLDEN_BACKTEST_ARGV, BACKTEST_OUTPUTS),
    "backtest/golden-lag0": (with_backtest_config(golden_daily, signal_lag_days=0), GOLDEN_BACKTEST_ARGV,
                             BACKTEST_OUTPUTS),
    "backtest/golden-lag3": (with_backtest_config(golden_daily, signal_lag_days=3), GOLDEN_BACKTEST_ARGV,
                             BACKTEST_OUTPUTS),
    "backtest/wide_universe-11-lag0": (with_backtest_config(wide_universe_daily, signal_lag_days=0), BACKTEST_ARGV,
                                       BACKTEST_OUTPUTS),
    "backtest/wide_universe-11-lag3": (with_backtest_config(wide_universe_daily, signal_lag_days=3), BACKTEST_ARGV,
                                       BACKTEST_OUTPUTS),
    "backtest/tc-rate-above-one": (with_backtest_config(golden_daily, tc_rate=2.0), GOLDEN_BACKTEST_ARGV,
                                   BACKTEST_OUTPUTS),
    "optimize/repeated-company": (repeated_company_signal_inputs, OPTIMIZE_ARGV, ("weights.csv",)),
    "report/golden": (golden_run, REPORT_ARGV, REPORT_OUTPUTS),
    "report/golden-window": (golden_run, [*REPORT_ARGV, "--from", "2021-03-10", "--to", "2021-03-31"],
                             REPORT_OUTPUTS),
    "report/missing-summary": (golden_run_without_summary, REPORT_ARGV, REPORT_OUTPUTS),
    "filter/mixed-case-headlines": (mixed_case_headlines_inputs, FILTER_ARGV, FILTER_OUTPUTS),
    "backtest/tie-at-fill-stop": (tie_at_fill_stop_inputs, GOLDEN_BACKTEST_ARGV, BACKTEST_OUTPUTS),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, work: Path, write_inputs=None) -> dict:
    """The exit code and the digests of one case, run in the empty directory work; write_inputs, if given,
    writes the inputs in place of the case's own."""
    case_inputs, argv, outputs = CASES[name]
    (write_inputs or case_inputs)(work)
    stderr = io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"exit": code, "stderr": sha256(stderr.getvalue().encode("utf-8")),
            **{out: sha256(p.read_bytes()) if (p := work / out).exists() else None for out in outputs}}


@pytest.mark.parametrize("name", CASES)
def test_outputs_match_their_digests(name, tmp_path):
    assert run_case(name, tmp_path) == json.loads(DIGESTS.read_text(encoding="utf-8"))[name]


def test_a_one_ulp_nudge_at_the_fill_stop_changes_every_backtest_output(tmp_path):
    """The tie case's digests see the tie-break: luftfracht one ulp up takes the tenth name's weight."""
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))["backtest/tie-at-fill-stop"]
    moved = run_case("backtest/tie-at-fill-stop", tmp_path, lambda dest: tie_at_fill_stop_inputs(dest, nudge=True))
    assert moved["exit"] == 0
    assert [out for out in BACKTEST_OUTPUTS if moved[out] == want[out]] == []


def test_every_digest_has_a_case():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


if __name__ == "__main__":
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(case, Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} cases to {DIGESTS.relative_to(ROOT)}")
