"""README's examples run as written, so that the docs cannot drift from the code."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from sentindex.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    """The fenced code blocks of README in language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_library_example_prints_the_final_level(monkeypatch, capsys):
    [block] = blocks("python")
    monkeypatch.chdir(ROOT)  # the example names the fixture relative to the checkout
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "110.52027813463607\n"


def test_optimize_example_runs_through_the_cli(tmp_path, monkeypatch):
    """Each printf writes its input file and the sentindex line runs as cli.main."""
    [block] = [b for b in blocks("sh") if "sentindex optimize" in b]
    monkeypatch.chdir(tmp_path)
    lines = block.replace("\\\n", " ").splitlines()
    assert [line.split()[0] for line in lines] == ["printf", "printf", "printf", "sentindex"]
    for line in lines:
        argv = shlex.split(line)
        if argv[0] == "printf":
            text, redirect, name = argv[1:]
            assert redirect == ">"
            Path(name).write_text(text.replace("\\n", "\n"), encoding="utf-8")
        else:
            assert main(argv[1:]) == 0
    assert Path("weights.csv").read_text(encoding="utf-8") == "company,weight\nalpha,0.5\nbeta,0.4\ngamma,0.0\n"


def test_walkthrough_matches_the_golden_files(tmp_path, monkeypatch):
    """Each sentindex line of the walkthrough runs as cli.main, with $G the fixture; its two claims hold."""
    [block] = [b for b in blocks("sh") if "sentindex report" in b]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines[0] == "G=tests/golden"
    golden = ROOT / "tests" / "golden"
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line.replace("$G", str(golden))) for line in lines[1:]]
    assert [argv[:2] for argv in commands] == [
        ["sentindex", name] for name in ("filter", "score", "aggregate", "backtest", "report")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert Path("daily.csv").read_bytes() == (golden / "expected_daily_sentiment.csv").read_bytes()
    assert Path("report/report.svg").read_bytes() == (golden / "expected_report.svg").read_bytes()
