"""Where the package opens files and decodes JSON.

Every input file is read through inputs.read_lines, which decodes each line on
its own, so that a fault is named at its line, in file order. A strict read
decodes whole chunks ahead of the line being parsed, and would name a byte
that is not UTF-8 ahead of an earlier fault.

Every JSON document is decoded by inputs.parse_json, whose one json.loads
turns the parser's other errors into JSONDecodeError. A line in json.dumps's
layout is read by a pattern instead, so a second decoder would be a fast path
for lines no workload has; one added later must be listed here, with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src" / "sentindex"

# every call of the builtin open in src/, one entry per call: (module, innermost enclosing function, mode)
ALLOWED_OPENS = sorted([
    # reads: the line reader, and the block reader, which returns None on any file it cannot
    # decode, so that the general reader, on read_lines, names the fault
    ("inputs", "read_lines", "r"),
    ("grids", "_read_ordered", "r"),
    # writers
    ("aggregation", "write_daily_sentiment_csv", "w"),
    ("backtest", "write_backtest_outputs", "w"),
    ("backtest", "write_backtest_outputs", "w"),
    ("backtest", "write_backtest_outputs", "w"),
    ("corpus", "write_articles", "w"),
    ("optimizer", "write_weights_csv", "w"),
    ("sentiment", "score_to_file", "w"),
    ("sentiment", "write_scored", "w"),
])

# methods that open a file by another road: each call is listed with its name in place of the mode
OTHER_OPENS = ("open", "read_text", "read_bytes")

# every use in src/ of a JSON decoder: (module, innermost enclosing function, name)
ALLOWED_DECODES = [("inputs", "parse_json", "loads")]
DECODERS = ("loads", "load", "JSONDecoder", "raw_decode")


def _mode(call: ast.Call) -> str:
    """The mode of a call of the builtin open: its literal value, else its source text."""
    given = [kw.value for kw in call.keywords if kw.arg == "mode"] or call.args[1:2]
    if not given:
        return "r"
    return given[0].value if isinstance(given[0], ast.Constant) else ast.unparse(given[0])


def _sites(path: Path, site: Callable[[ast.AST], str | None]) -> list[tuple[str, str, str]]:
    """(module, innermost enclosing function, site(node)) of each node of the file for which site gives a text."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (what := site(child)) is not None:
                found.append((path.stem, function, what))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def _open(node: ast.AST) -> str | None:
    """The mode of a call of the builtin open, or the name of a method in OTHER_OPENS that node calls."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            return _mode(node)
        if isinstance(func, ast.Attribute) and func.attr in OTHER_OPENS:
            return func.attr
    return None


def _decode(node: ast.AST) -> str | None:
    """The name in DECODERS of an attribute that node reads, as json.loads does, called or not, or of a bare
    name that node calls, as loads(text) after from json import loads does."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        name = node.func.id
    else:
        name = node.attr if isinstance(node, ast.Attribute) else None
    return name if name in DECODERS else None


def test_files_are_read_only_at_allowed_sites():
    """A new reader that opens its file itself fails here; it should take its lines from read_lines."""
    got = sorted(call for path in SRC.glob("*.py") for call in _sites(path, _open))
    assert got == ALLOWED_OPENS


def test_json_is_decoded_only_at_allowed_sites():
    """A new decode, a shortcut beside parse_json's too, fails here; it should go through parse_json."""
    got = sorted(use for path in SRC.glob("*.py") for use in _sites(path, _decode))
    assert got == ALLOWED_DECODES
