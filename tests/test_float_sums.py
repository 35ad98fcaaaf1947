"""Where the package calls the builtin sum(), and the chain's outputs under Python 3.12's float sum().

From Python 3.12 sum() adds floats with Neumaier's compensated summation
(gh-100425), so a float sum on the data path can change an output's last
digit between interpreters that pyproject.toml admits.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every call of the builtin sum in src/, one entry per call: (module, enclosing function, kind)
ALLOWED_SUMS = sorted([
    # checks: a finite sum means finite terms whatever the order, and _validate prints the total it tests
    ("grids", "_read_ordered", "check"),
    ("optimizer", "solve_weights", "check"),
    ("sentiment", "_validate", "check"),
    # integer counts, exact in any order
    ("backtest", "trade_statistics", "integer count"),
    ("backtest", "trade_statistics", "integer count"),
])  # the data path adds floats with inputs.add_in_order

# Python 3.12's builtin sum() for an older interpreter, as sitecustomize installs it at start-up
SUM_312 = '''
import builtins
from math import fabs, isfinite


def sum(iterable, /, start=0):
    items = iter(iterable)
    total = start
    if type(total) is int:  # exact int addition until the first other item, which is added plainly
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:  # Neumaier's running compensation c over exact floats
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if fabs(total) >= fabs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2**63 <= item < 2**63:
                total += float(item)
            else:
                total = total + c if c and isfinite(c) else total
                total = total + item
                break
        else:
            return total + c if c and isfinite(c) else total
    for item in items:
        total = total + item
    return total


builtins.sum = sum
'''


# Python 3.11's builtin sum() for any interpreter: left to right from start
SUM_311 = '''
import builtins


def sum(iterable, /, start=0):
    total = start
    for item in iterable:
        total = total + item
    return total


builtins.sum = sum
'''


def _sum_calls(path: Path) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of each call of the name sum in the file."""
    calls = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
                calls.append((path.stem, function))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return calls


def test_builtin_sum_only_at_allowed_sites():
    """A new sum() of floats fails here, so does the return of one that was removed from the data path."""
    got = sorted(call for path in (SRC / "sentindex").glob("*.py") for call in _sum_calls(path))
    assert got == [(module, function) for module, function, _ in ALLOWED_SUMS]


def _run(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
                          check=True)


def _chain(out: Path, g: Path, site: str) -> str:
    """Run filter, score, aggregate and backtest with the lexicon on the inputs in g (named as in the golden
    fixture) into out, each in a process that starts site as its sitecustomize; return what
    sum([0.1] * 10) and sum([1e100, 1.0, -1e100]) print there."""
    out.mkdir()
    (out / "sitecustomize.py").write_text(site, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(out), str(SRC)])}
    main = ["-c", "import sys; from sentindex.cli import main; sys.exit(main(sys.argv[1:]))"]
    _run([*main, "filter", "--articles", str(g / "articles.jsonl"), "--config", str(g / "filter_config.json"),
          "--out", str(out / "filtered.jsonl")], env)
    _run([*main, "score", "--articles", str(out / "filtered.jsonl"), "--provider", "lexicon",
          "--provider-file", str(g / "lexicon.json"), "--out", str(out / "scored.jsonl")], env)
    _run([*main, "aggregate", "--scored", str(out / "scored.jsonl"), "--prices", str(g / "prices.csv"),
          "--config", str(g / "aggregation_config.json"), "--out", str(out / "daily.csv")], env)
    _run([*main, "backtest", "--prices", str(g / "prices.csv"), "--sentiments", str(out / "daily.csv"),
          "--config", str(g / "backtest_config.json"), "--out", str(out)], env)
    return _run(["-c", "print(sum([0.1] * 10), sum([1e100, 1.0, -1e100]))"], env).stdout


def test_golden_chain_is_the_same_under_python_312_sum(tmp_path, golden_dir):
    """The golden chain writes the same bytes whether the builtin sum() adds floats as Python 3.11's or as
    3.12's does. daily.csv and levels.csv are the committed files; the committed trades.csv and
    summary.json differ from what the chain writes in last digits, so those two are compared between
    the runs."""
    old, new = tmp_path / "sum_311", tmp_path / "sum_312"
    assert _chain(old, golden_dir, SUM_311) == "0.9999999999999999 0.0\n"
    assert _chain(new, golden_dir, SUM_312) == "1.0 1.0\n"
    assert (new / "daily.csv").read_bytes() == (golden_dir / "expected_daily_sentiment.csv").read_bytes()
    assert (new / "levels.csv").read_bytes() == (golden_dir / "expected_levels.csv").read_bytes()
    for name in ("daily.csv", "levels.csv", "trades.csv", "summary.json"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_generated_chain_is_the_same_under_python_312_sum(tmp_path):
    """As above, on the benchmark's news_flow inputs of one seed, whose 12,000 articles and 50 x 250 grid
    reach far more sums than the golden fixture; all four outputs are compared between the runs."""
    inputs, old, new = tmp_path / "inputs", tmp_path / "sum_311", tmp_path / "sum_312"
    generate(WORKLOADS["news_flow"].gen, 11, inputs)
    assert _chain(old, inputs, SUM_311) == "0.9999999999999999 0.0\n"
    assert _chain(new, inputs, SUM_312) == "1.0 1.0\n"
    for name in ("daily.csv", "levels.csv", "trades.csv", "summary.json"):
        assert (new / name).read_bytes() == (old / name).read_bytes(), name
